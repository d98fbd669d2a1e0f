#include "core/session.h"

#include <utility>

#include "bigint/modarith.h"
#include "core/messages.h"
#include "core/session_fsm.h"
#include "crypto/key_io.h"
#include "obs/span.h"

namespace ppstats {

ClientConnection::ClientConnection(Channel& channel, Bytes key_blob,
                                   PaillierPublicKey pub, bool accept_partial)
    : channel_(&channel),
      fsm_(std::make_unique<ClientProtocolFsm>(std::move(key_blob),
                                               std::move(pub),
                                               accept_partial)) {}

ClientConnection::ClientConnection(std::unique_ptr<Channel> channel,
                                   Bytes key_blob, PaillierPublicKey pub,
                                   bool accept_partial)
    : ClientConnection(*channel, std::move(key_blob), std::move(pub),
                       accept_partial) {
  owned_channel_ = std::move(channel);
}

ClientConnection::~ClientConnection() = default;

template <typename T>
Result<T> ClientConnection::EndOnFailure(Result<T> result) {
  if (!result.ok()) Abort(result.status());
  return result;
}

Result<uint64_t> ClientConnection::Hello() {
  return EndOnFailure([&]() -> Result<uint64_t> {
    PPSTATS_ASSIGN_OR_RETURN(Bytes hello, fsm_->Hello());
    PPSTATS_RETURN_IF_ERROR(Send(hello));
    PPSTATS_ASSIGN_OR_RETURN(Bytes reply, Receive());
    return fsm_->OnServerHello(reply);
  }());
}

Result<uint64_t> ClientConnection::Open(const QueryHeaderMessage& header) {
  return EndOnFailure([&]() -> Result<uint64_t> {
    PPSTATS_ASSIGN_OR_RETURN(Bytes header_frame, fsm_->Query(header));
    PPSTATS_RETURN_IF_ERROR(Send(header_frame));
    PPSTATS_ASSIGN_OR_RETURN(Bytes accept, Receive());
    return fsm_->OnAccept(accept);
  }());
}

Status ClientConnection::Upload(BytesView index_frame) {
  if (fsm_->phase() != ClientFsmPhase::kAwaitAnswer) {
    return Status::FailedPrecondition("Upload called out of protocol order");
  }
  return Send(index_frame);
}

Result<ClientAnswer> ClientConnection::Await() {
  return EndOnFailure([&]() -> Result<ClientAnswer> {
    PPSTATS_ASSIGN_OR_RETURN(Bytes answer, Receive());
    return fsm_->OnAnswer(answer);
  }());
}

void ClientConnection::Abort(const Status& status) {
  if (std::optional<Bytes> error = fsm_->Abort(status)) {
    channel_->Send(*error).IgnoreError();  // best effort; we are done
  }
}

Status ClientConnection::Finish() {
  if (fsm_->done()) return Status::OK();
  PPSTATS_ASSIGN_OR_RETURN(Bytes goodbye, fsm_->Goodbye());
  return Send(goodbye);
}

Status ClientConnection::Send(BytesView frame) {
  Status status = channel_->Send(frame);
  if (!status.ok()) fsm_->OnTransportError();
  return status;
}

Result<Bytes> ClientConnection::Receive() {
  Result<Bytes> frame = channel_->Receive();
  if (!frame.ok()) fsm_->OnTransportError();
  return frame;
}

QuerySession::QuerySession(const PaillierPrivateKey& key, RandomSource& rng,
                           ClientSessionOptions options)
    : key_(&key), rng_(&rng), options_(options) {}

QuerySession::~QuerySession() = default;

Status QuerySession::Connect(Channel& channel) {
  const PaillierPublicKey& pub = key_->public_key();
  return Connect(std::make_unique<ClientConnection>(
      channel, SerializePublicKey(pub), pub, options_.accept_partial));
}

Status QuerySession::Connect(std::unique_ptr<ClientConnection> connection) {
  if (connection_ != nullptr) {
    return Status::FailedPrecondition("session already connected");
  }
  obs::ObsSpan handshake(obs::kSpanHandshake);
  PPSTATS_ASSIGN_OR_RETURN(server_rows_, connection->Hello());
  handshake.Stop();
  connection_ = std::move(connection);
  return Status::OK();
}

Status QuerySession::ConnectWithRetry(const DialFn& dial,
                                      const RetryOptions& retry) {
  if (connection_ != nullptr) {
    return Status::FailedPrecondition("session already connected");
  }
  // Process-wide, shared by every session's ConnectWithRetry.
  obs::MetricRegistry& metrics = obs::MetricRegistry::Global();
  static obs::Counter* const attempts = metrics.GetCounter("retry.attempts");
  static obs::Counter* const retryable_failures =
      metrics.GetCounter("retry.retryable_failures");
  static obs::Counter* const backoff_ms =
      metrics.GetCounter("retry.backoff_ms");
  retry_metrics_ = {};
  const PaillierPublicKey& pub = key_->public_key();
  const Bytes key_blob = SerializePublicKey(pub);
  auto attempt = [&]() -> Status {
    ++retry_metrics_.attempts;
    attempts->Increment();
    obs::ObsSpan attempt_span(obs::kSpanRetryAttempt);
    Result<std::unique_ptr<Channel>> channel = dial();
    Status status = channel.ok()
                        ? Connect(std::make_unique<ClientConnection>(
                              std::move(*channel), key_blob, pub,
                              options_.accept_partial))
                        : channel.status();
    attempt_span.Stop();
    if (IsRetryableStatus(status)) {
      ++retry_metrics_.retryable_failures;
      retryable_failures->Increment();
    }
    return status;
  };
  auto on_backoff = [&](uint32_t ms) {
    retry_metrics_.backoff_ms_total += ms;
    backoff_ms->Add(ms);
  };
  return RetryWithBackoff(retry, *rng_, attempt, on_backoff);
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
  if (connection_ == nullptr) {
    return Status::FailedPrecondition("session is not connected");
  }
  if (spec.blinding.has_value() || spec.partition.has_value()) {
    // Those are serving-side options (the multi-client protocol, a
    // blinded shard); the session wire does not carry them.
    return Status::InvalidArgument(
        "blinding/partition cannot be requested over a session");
  }
  Result<BigInt> value = Exchange(spec, std::move(weights));
  // A failure the connection saw has ended the session already; one
  // detected here (a weights length, a decryption) ends it now.
  if (!value.ok()) connection_->Abort(value.status());
  return value;
}

// The communication spans cover time spent inside the connection's
// upload and receive calls only: encryption (NextRequest) and
// decryption (HandleResponse) keep their own component spans. Note the
// receive leg necessarily includes the wait for the server's fold — the
// wire cannot tell propagation from peer compute
// (docs/OBSERVABILITY.md discusses reconciliation).
Result<BigInt> QuerySession::Exchange(const QuerySpec& spec,
                                      WeightVector weights) {
  QueryHeaderMessage header;
  header.kind = static_cast<uint8_t>(spec.kind);
  header.column = spec.column;
  header.column2 = spec.column2;
  PPSTATS_ASSIGN_OR_RETURN(uint64_t rows, connection_->Open(header));
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
    PPSTATS_RETURN_IF_ERROR(connection_->Upload(request));
    send_span.Stop();
  }
  obs::ObsSpan recv_span(obs::kSpanCommunication);
  Result<ClientAnswer> answer = connection_->Await();
  recv_span.Stop();
  PPSTATS_RETURN_IF_ERROR(answer.status());
  PPSTATS_ASSIGN_OR_RETURN(BigInt value, client.HandleResponse(answer->sum));
  last_partial_ = answer->partial;
  if (options_.result_modulus.has_value()) {
    value = Mod(value, *options_.result_modulus);
  }
  ++queries_run_;
  return value;
}

Status QuerySession::Finish() {
  if (connection_ == nullptr) {
    return Status::FailedPrecondition("session is not connected");
  }
  return connection_->Finish();
}

}  // namespace ppstats
