// Fuzz target: the session hello exchange. ClientHello and ServerHello
// are the first bytes either side reads from an unauthenticated peer, so
// their decoders face raw input. Properties checked on every input:
//
//  * an accepted hello round-trips field-for-field through its encoder;
//  * a hello that decodes but names any version other than
//    kSessionProtocolV2 (the retired version 1 included — see the
//    client_hello_v1 seed) is refused: the server machine answers with
//    exactly one ProtocolError Error frame and ends, and the client
//    machine fails with ProtocolError and owes its peer an Error frame;
//  * nothing crashes, hangs, or over-reads (the sanitizers catch that).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/bytes.h"
#include "core/messages.h"
#include "core/session.h"
#include "core/session_fsm.h"
#include "db/column_registry.h"
#include "db/database.h"

namespace {

bool IsProtocolErrorFrame(ppstats::BytesView frame) {
  return ppstats::StatusFromErrorFrame(frame).code() ==
         ppstats::StatusCode::kProtocolError;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using ppstats::Bytes;
  using ppstats::BytesView;
  using ppstats::ClientHelloMessage;
  using ppstats::Result;
  using ppstats::ServerHelloMessage;

  BytesView view(data, size);
  ppstats::PeekMessageType(view).IgnoreError();

  {
    Result<ClientHelloMessage> decoded = ClientHelloMessage::Decode(view);
    if (decoded.ok()) {
      const ClientHelloMessage& msg = decoded.value();
      Bytes wire = msg.Encode();
      Result<ClientHelloMessage> again = ClientHelloMessage::Decode(wire);
      if (!again.ok() ||
          again.value().protocol_version != msg.protocol_version ||
          again.value().public_key_blob != msg.public_key_blob) {
        __builtin_trap();
      }
      if (msg.protocol_version != ppstats::kSessionProtocolV2) {
        static const ppstats::ColumnRegistry* registry = [] {
          auto* r = new ppstats::ColumnRegistry();
          r->Register(ppstats::Database("d", {1, 2, 3})).IgnoreError();
          return r;
        }();
        ppstats::LocalRouterConfig config;
        config.default_column = "d";
        ppstats::ServerProtocolFsm fsm(
            std::make_shared<ppstats::LocalQueryRouter>(registry, config));
        ppstats::ServerFsmOutput out = fsm.OnFrame(view);
        if (!out.done || out.frames.size() != 1 ||
            !IsProtocolErrorFrame(out.frames[0])) {
          __builtin_trap();
        }
      }
    }
  }
  {
    Result<ServerHelloMessage> decoded = ServerHelloMessage::Decode(view);
    if (decoded.ok()) {
      const ServerHelloMessage& msg = decoded.value();
      Bytes wire = msg.Encode();
      Result<ServerHelloMessage> again = ServerHelloMessage::Decode(wire);
      if (!again.ok() ||
          again.value().protocol_version != msg.protocol_version ||
          again.value().database_size != msg.database_size) {
        __builtin_trap();
      }
      if (msg.protocol_version != ppstats::kSessionProtocolV2) {
        // Answers are never decoded here, so any valid key will do.
        static const ppstats::PaillierPublicKey pub(ppstats::BigInt(3233), 12);
        ppstats::ClientProtocolFsm fsm(Bytes{}, pub, /*accept_partial=*/false);
        if (!fsm.Hello().ok()) __builtin_trap();
        Result<uint64_t> rows = fsm.OnServerHello(view);
        std::optional<Bytes> error = fsm.Abort(rows.status());
        if (rows.ok() ||
            rows.status().code() != ppstats::StatusCode::kProtocolError ||
            !error.has_value() || !IsProtocolErrorFrame(*error)) {
          __builtin_trap();
        }
      }
    }
  }
  return 0;
}

#include "tests/fuzz/standalone_main.inc"
