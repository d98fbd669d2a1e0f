#include "core/session.h"

#include <chrono>
#include <thread>
#include <utility>

#include "bigint/modarith.h"
#include "core/messages.h"
#include "core/session_fsm.h"
#include "crypto/key_io.h"
#include "obs/span.h"

namespace ppstats {

namespace {

// Process-wide retry counters, shared by every session's ConnectWithRetry.
struct RetryCounters {
  obs::Counter* attempts =
      obs::MetricRegistry::Global().GetCounter("retry.attempts");
  obs::Counter* retryable_failures =
      obs::MetricRegistry::Global().GetCounter("retry.retryable_failures");
  obs::Counter* backoff_ms =
      obs::MetricRegistry::Global().GetCounter("retry.backoff_ms");
};

RetryCounters& Retries() {
  static RetryCounters* counters = new RetryCounters();  // leaked on purpose
  return *counters;
}

}  // namespace

QuerySession::QuerySession(const PaillierPrivateKey& key, RandomSource& rng,
                           ClientSessionOptions options)
    : key_(&key), rng_(&rng), options_(options) {}

QuerySession::~QuerySession() = default;

Status QuerySession::Connect(Channel& channel) {
  if (channel_ != nullptr) {
    return Status::FailedPrecondition("session already connected");
  }
  obs::ObsSpan handshake(obs::kSpanHandshake);
  const PaillierPublicKey& pub = key_->public_key();
  auto fsm = std::make_unique<ClientProtocolFsm>(SerializePublicKey(pub), pub,
                                                 options_.accept_partial);
  PPSTATS_ASSIGN_OR_RETURN(Bytes hello, fsm->Hello());
  PPSTATS_RETURN_IF_ERROR(channel.Send(hello));
  PPSTATS_ASSIGN_OR_RETURN(Bytes reply, channel.Receive());
  handshake.Stop();
  Result<uint64_t> rows = fsm->OnServerHello(reply);
  if (!rows.ok()) {
    if (std::optional<Bytes> error = fsm->Abort(rows.status())) {
      channel.Send(*error).IgnoreError();  // best effort; we are done
    }
    return rows.status();
  }
  server_rows_ = *rows;
  fsm_ = std::move(fsm);
  channel_ = &channel;
  return Status::OK();
}

Status QuerySession::ConnectWithRetry(const DialFn& dial,
                                      const RetryOptions& retry) {
  if (channel_ != nullptr) {
    return Status::FailedPrecondition("session already connected");
  }
  retry_metrics_ = {};
  size_t max_attempts = retry.max_attempts > 0 ? retry.max_attempts : 1;
  Status last = Status::Internal("no connection attempt was made");
  for (size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      uint32_t backoff = RetryBackoffMs(attempt - 1, retry, *rng_);
      retry_metrics_.backoff_ms_total += backoff;
      Retries().backoff_ms->Add(backoff);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    ++retry_metrics_.attempts;
    Retries().attempts->Increment();
    obs::ObsSpan attempt_span(obs::kSpanRetryAttempt);
    Result<std::unique_ptr<Channel>> channel = dial();
    Status status = channel.ok() ? Connect(**channel) : channel.status();
    attempt_span.Stop();
    if (status.ok()) {
      owned_channel_ = std::move(*channel);  // keep the dialed transport
      return status;
    }
    if (!IsRetryableStatus(status)) return status;
    ++retry_metrics_.retryable_failures;
    Retries().retryable_failures->Increment();
    last = status;
  }
  return last;
}

Status QuerySession::ConnectWithRetry(const std::string& uri,
                                      const RetryOptions& retry,
                                      uint32_t io_deadline_ms,
                                      uint32_t connect_deadline_ms) {
  return ConnectWithRetry(UriDialer(uri, io_deadline_ms, connect_deadline_ms),
                          retry);
}

Result<BigInt> QuerySession::RunQuery(const QuerySpec& spec,
                                      const SelectionVector& selection) {
  WeightVector weights(selection.size());
  for (size_t i = 0; i < selection.size(); ++i) {
    weights[i] = selection[i] ? 1 : 0;
  }
  return RunWeighted(spec, std::move(weights));
}

Result<BigInt> QuerySession::RunWeighted(const QuerySpec& spec,
                                         WeightVector weights) {
  if (channel_ == nullptr) {
    return Status::FailedPrecondition("session is not connected");
  }
  if (spec.blinding.has_value() || spec.partition.has_value()) {
    // Those are serving-side options (the multi-client protocol, a
    // blinded shard); the session wire does not carry them.
    return Status::InvalidArgument(
        "blinding/partition cannot be requested over a session");
  }
  Result<BigInt> value = Exchange(spec, std::move(weights));
  if (!value.ok()) {
    // The stream may now be out of step with the server: end the
    // session, telling the peer why when it is still listening.
    if (std::optional<Bytes> error = fsm_->Abort(value.status())) {
      channel_->Send(*error).IgnoreError();
    }
  }
  return value;
}

// The communication spans cover time spent inside channel calls only:
// encryption (NextRequest) and decryption (HandleResponse) keep their
// own component spans. Note the receive leg necessarily includes the
// wait for the server's fold — the wire cannot tell propagation from
// peer compute (docs/OBSERVABILITY.md discusses reconciliation).
Result<BigInt> QuerySession::Exchange(const QuerySpec& spec,
                                      WeightVector weights) {
  QueryHeaderMessage header;
  header.kind = static_cast<uint8_t>(spec.kind);
  header.column = spec.column;
  header.column2 = spec.column2;
  PPSTATS_ASSIGN_OR_RETURN(Bytes header_frame, fsm_->Query(header));
  PPSTATS_RETURN_IF_ERROR(Send(header_frame));
  PPSTATS_ASSIGN_OR_RETURN(Bytes accept, Receive());
  PPSTATS_ASSIGN_OR_RETURN(uint64_t rows, fsm_->OnAccept(accept));
  if (weights.size() != rows) {
    return Status::InvalidArgument("weights length != query row count");
  }

  SumClientOptions client_options;
  client_options.chunk_size = options_.chunk_size;
  SumClient client(*key_, std::move(weights), client_options, *rng_);
  // Attribute this query's spans (encrypt, communication, decrypt) to
  // its 1-based index within the session.
  obs::ScopedSpanContext context({obs::CurrentContext().session_id,
                                  static_cast<uint64_t>(queries_run_ + 1)});
  last_partial_.reset();
  while (!client.RequestsDone()) {
    PPSTATS_ASSIGN_OR_RETURN(Bytes request, client.NextRequest());
    obs::ObsSpan send_span(obs::kSpanCommunication);
    PPSTATS_RETURN_IF_ERROR(Send(request));
    send_span.Stop();
  }
  obs::ObsSpan recv_span(obs::kSpanCommunication);
  Result<Bytes> response = Receive();
  recv_span.Stop();
  PPSTATS_RETURN_IF_ERROR(response.status());
  PPSTATS_ASSIGN_OR_RETURN(ClientAnswer answer, fsm_->OnAnswer(*response));
  PPSTATS_ASSIGN_OR_RETURN(BigInt value, client.HandleResponse(answer.sum));
  last_partial_ = answer.partial;
  if (options_.result_modulus.has_value()) {
    value = Mod(value, *options_.result_modulus);
  }
  ++queries_run_;
  return value;
}

Status QuerySession::Send(BytesView frame) {
  Status status = channel_->Send(frame);
  if (!status.ok()) fsm_->OnTransportError();
  return status;
}

Result<Bytes> QuerySession::Receive() {
  Result<Bytes> frame = channel_->Receive();
  if (!frame.ok()) fsm_->OnTransportError();
  return frame;
}

Status QuerySession::Finish() {
  if (channel_ == nullptr) {
    return Status::FailedPrecondition("session is not connected");
  }
  if (fsm_->done()) return Status::OK();
  PPSTATS_ASSIGN_OR_RETURN(Bytes goodbye, fsm_->Goodbye());
  return Send(goodbye);
}

}  // namespace ppstats
