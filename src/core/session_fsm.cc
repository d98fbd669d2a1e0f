#include "core/session_fsm.h"

#include <cassert>
#include <string>
#include <utility>

#include "core/messages.h"
#include "obs/span.h"

namespace ppstats {

namespace {

obs::MetricRegistry* ResolveRegistry(const ServerFsmOptions& options) {
  return options.registry != nullptr ? options.registry
                                     : &obs::MetricRegistry::Global();
}

}  // namespace

ServerProtocolFsm::ServerProtocolFsm(std::shared_ptr<QueryRouter> router,
                                     ServerFsmOptions options,
                                     uint64_t session_ordinal)
    : router_(std::move(router)),
      options_(options),
      session_ordinal_(session_ordinal) {
  assert(router_ != nullptr);
}

void ServerProtocolFsm::Finish(Status status) {
  phase_ = ServerFsmPhase::kDone;
  final_status_ = std::move(status);
  execution_.reset();
}

void ServerProtocolFsm::Abort(ServerFsmOutput& out, Status status) {
  out.frames.push_back(EncodeErrorFrame(status));
  Finish(std::move(status));
}

ServerFsmOutput ServerProtocolFsm::OnFrame(BytesView frame) {
  ServerFsmOutput out;
  switch (phase_) {
    case ServerFsmPhase::kHandshake:
      OnHandshakeFrame(frame, out);
      break;
    case ServerFsmPhase::kAwaitQuery:
      OnQueryFrame(frame, out);
      break;
    case ServerFsmPhase::kAwaitChunks:
      OnChunkFrame(frame, out);
      break;
    case ServerFsmPhase::kDone:
      break;  // late frames are noise; the session is over
  }
  out.done = done();
  return out;
}

ServerFsmOutput ServerProtocolFsm::Evict(Status status) {
  ServerFsmOutput out;
  if (!done()) Abort(out, std::move(status));
  out.done = true;
  return out;
}

void ServerProtocolFsm::OnTransportError(Status error) {
  if (!done()) Finish(std::move(error));
}

void ServerProtocolFsm::OnHandshakeFrame(BytesView frame,
                                         ServerFsmOutput& out) {
  obs::ScopedSpanContext context({session_ordinal_, 0});
  obs::ObsSpan handshake(obs::kSpanHandshake, ResolveRegistry(options_));

  Result<ClientHelloMessage> hello = ClientHelloMessage::Decode(frame);
  if (!hello.ok()) return Abort(out, hello.status());
  if (hello->protocol_version != kSessionProtocolV2) {
    return Abort(out, Status::ProtocolError("unsupported protocol version"));
  }
  Result<PaillierPublicKey> pub =
      options_.key_cache != nullptr
          ? options_.key_cache->Deserialize(hello->public_key_blob)
          : DeserializePublicKey(hello->public_key_blob);
  if (!pub.ok()) return Abort(out, pub.status());
  Status hello_status = router_->OnClientHello(hello->public_key_blob, *pub);
  if (!hello_status.ok()) return Abort(out, std::move(hello_status));
  pub_ = std::move(*pub);

  ServerHelloMessage server_hello;
  server_hello.protocol_version = kSessionProtocolV2;
  server_hello.database_size = router_->DefaultRows();
  out.frames.push_back(server_hello.Encode());
  handshake.Stop();
  phase_ = ServerFsmPhase::kAwaitQuery;
}

void ServerProtocolFsm::OnQueryFrame(BytesView frame, ServerFsmOutput& out) {
  Result<MessageType> type = PeekMessageType(frame);
  if (!type.ok()) return Abort(out, type.status());
  if (*type == MessageType::kGoodbye) return Finish(Status::OK());
  if (*type == MessageType::kError) return Finish(StatusFromErrorFrame(frame));
  Result<QueryHeaderMessage> header = QueryHeaderMessage::Decode(frame);
  if (!header.ok()) return Abort(out, header.status());

  // Resolution (unknown kind/column, zero-row cover — a zero-row query
  // would deadlock: the client has no chunks to send and the server
  // would wait for one) happens inside the router.
  Result<OpenedQuery> query = router_->Open(*header, *pub_);
  if (!query.ok()) return Abort(out, query.status());

  QueryAcceptMessage accept;
  accept.rows = query->rows;
  execution_ = std::move(query->execution);
  out.frames.push_back(accept.Encode());
  phase_ = ServerFsmPhase::kAwaitChunks;
}

void ServerProtocolFsm::OnChunkFrame(BytesView frame, ServerFsmOutput& out) {
  Result<MessageType> type = PeekMessageType(frame);
  if (!type.ok()) return Abort(out, type.status());
  if (*type == MessageType::kError) return Finish(StatusFromErrorFrame(frame));

  // Attribute this query's fold spans to its 1-based index within the
  // session.
  obs::ScopedSpanContext context({session_ordinal_, queries_ + 1});
  Result<std::optional<Bytes>> response = execution_->HandleRequest(frame);
  if (!response.ok()) return Abort(out, response.status());
  if (response->has_value()) {
    // Account the query *before* its SumResponse frame is handed to the
    // caller: by the time the client observes its answer, the host's
    // live stats already include the query.
    ++queries_;
    if (options_.queries_counter != nullptr) {
      options_.queries_counter->Increment();
    }
    if (options_.compute_ns_counter != nullptr) {
      options_.compute_ns_counter->Add(
          static_cast<uint64_t>(execution_->compute_seconds() * 1e9));
    }
    out.frames.push_back(std::move(**response));
  }
  if (execution_ != nullptr && execution_->Finished()) {
    execution_.reset();
    phase_ = ServerFsmPhase::kAwaitQuery;
  }
}

ClientProtocolFsm::ClientProtocolFsm(Bytes key_blob, PaillierPublicKey pub,
                                     bool accept_partial)
    : key_blob_(std::move(key_blob)),
      pub_(std::move(pub)),
      accept_partial_(accept_partial) {}

Status ClientProtocolFsm::Expect(ClientFsmPhase expected,
                                 const char* call) const {
  if (phase_ == expected) return Status::OK();
  return Status::FailedPrecondition(std::string(call) +
                                    " called out of protocol order");
}

Status ClientProtocolFsm::Fail(Status status) {
  error_frame_ = EncodeErrorFrame(status);
  phase_ = ClientFsmPhase::kDone;
  return status;
}

Result<MessageType> ClientProtocolFsm::Classify(BytesView frame) {
  Result<MessageType> type = PeekMessageType(frame);
  if (!type.ok()) return Fail(type.status());
  if (*type == MessageType::kError) {
    phase_ = ClientFsmPhase::kDone;  // the peer has already given up
    return StatusFromErrorFrame(frame);
  }
  return type;
}

Result<Bytes> ClientProtocolFsm::Hello() {
  PPSTATS_RETURN_IF_ERROR(Expect(ClientFsmPhase::kStart, "Hello"));
  ClientHelloMessage hello;
  hello.protocol_version = kSessionProtocolV2;
  hello.public_key_blob = key_blob_;
  phase_ = ClientFsmPhase::kAwaitHello;
  return hello.Encode();
}

Result<uint64_t> ClientProtocolFsm::OnServerHello(BytesView frame) {
  PPSTATS_RETURN_IF_ERROR(Expect(ClientFsmPhase::kAwaitHello, "OnServerHello"));
  PPSTATS_RETURN_IF_ERROR(Classify(frame).status());
  Result<ServerHelloMessage> hello = ServerHelloMessage::Decode(frame);
  if (!hello.ok()) return Fail(hello.status());
  if (hello->protocol_version != kSessionProtocolV2) {
    return Fail(
        Status::ProtocolError("server negotiated an unsupported version"));
  }
  phase_ = ClientFsmPhase::kIdle;
  return hello->database_size;
}

Result<Bytes> ClientProtocolFsm::Query(const QueryHeaderMessage& header) {
  PPSTATS_RETURN_IF_ERROR(Expect(ClientFsmPhase::kIdle, "Query"));
  phase_ = ClientFsmPhase::kAwaitAccept;
  return header.Encode();
}

Result<uint64_t> ClientProtocolFsm::OnAccept(BytesView frame) {
  PPSTATS_RETURN_IF_ERROR(Expect(ClientFsmPhase::kAwaitAccept, "OnAccept"));
  PPSTATS_RETURN_IF_ERROR(Classify(frame).status());
  Result<QueryAcceptMessage> accept = QueryAcceptMessage::Decode(frame);
  if (!accept.ok()) return Fail(accept.status());
  phase_ = ClientFsmPhase::kAwaitAnswer;
  return accept->rows;
}

Result<ClientAnswer> ClientProtocolFsm::OnAnswer(BytesView frame) {
  PPSTATS_RETURN_IF_ERROR(Expect(ClientFsmPhase::kAwaitAnswer, "OnAnswer"));
  PPSTATS_ASSIGN_OR_RETURN(MessageType type, Classify(frame));
  ClientAnswer answer;
  if (type == MessageType::kPartialResult) {
    if (!accept_partial_) {
      return Fail(Status::FailedPrecondition(
          "server answered with a partial result; set accept_partial to "
          "use it"));
    }
    Result<PartialResultMessage> partial =
        PartialResultMessage::Decode(pub_, frame);
    if (!partial.ok()) return Fail(partial.status());
    answer.sum = std::move(partial->sum);
    answer.partial = PartialResultInfo{partial->shards_total,
                                       partial->shards_responded,
                                       partial->rows_covered};
  } else {
    Result<SumResponseMessage> response =
        SumResponseMessage::Decode(pub_, frame);
    if (!response.ok()) return Fail(response.status());
    answer.sum = std::move(response->sum);
  }
  phase_ = ClientFsmPhase::kIdle;
  return answer;
}

Result<Bytes> ClientProtocolFsm::Goodbye() {
  PPSTATS_RETURN_IF_ERROR(Expect(ClientFsmPhase::kIdle, "Goodbye"));
  phase_ = ClientFsmPhase::kDone;
  return GoodbyeMessage{}.Encode();
}

std::optional<Bytes> ClientProtocolFsm::Abort(const Status& status) {
  if (!done()) {
    phase_ = ClientFsmPhase::kDone;
    return EncodeErrorFrame(status);
  }
  return std::exchange(error_frame_, std::nullopt);
}

void ClientProtocolFsm::OnTransportError() {
  phase_ = ClientFsmPhase::kDone;
  error_frame_.reset();  // nothing can reach the peer any more
}

}  // namespace ppstats
