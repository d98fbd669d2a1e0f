// FaultInjectingChannel: a Channel decorator that injects transport
// faults — delays, truncations, garbled bytes, dropped frames, and
// mid-stream disconnects — into both directions of the wrapped channel.
//
// The paper's experiments assume both parties and the link stay healthy
// for the whole run; a deployed service cannot. This decorator is how
// the chaos tests prove the session stack turns every transport failure
// into a typed Status (never a hang, never a crash): wrap a client's
// channel, drive the protocol against a real host, and assert both
// sides terminate. Faulting a frame the client receives is
// indistinguishable, on the wire, from the server sending it damaged,
// so one decorator covers every frame of a session.
//
// Faults are drawn from a caller-provided RandomSource, so a seeded
// ChaCha20Rng makes every chaos run bit-for-bit reproducible.

#ifndef PPSTATS_NET_FAULT_INJECTION_H_
#define PPSTATS_NET_FAULT_INJECTION_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "common/random.h"
#include "net/channel.h"

namespace ppstats {

/// Frame-level fault kinds the decorator can inject on Send or Receive.
enum class FaultKind : uint8_t {
  kDelay,       ///< stall for delay_ms, then deliver the frame intact
  kTruncate,    ///< deliver only a strict prefix of the frame
  kGarble,      ///< flip a few random bytes of the frame
  kDrop,        ///< silently discard the frame (peer waits -> deadline)
  kDisconnect,  ///< close the underlying transport mid-stream
};

/// Configuration for a FaultInjectingChannel.
struct FaultInjectionOptions {
  /// Per-frame fault probability in [0, 1] once armed.
  double fault_rate = 0.01;

  /// Length of a kDelay stall.
  uint32_t delay_ms = 20;

  /// Frames to pass through untouched before arming, counted across
  /// both directions in session order. This is how a test targets a
  /// protocol phase: a client's frame 0 is its ClientHello, frame 1 the
  /// ServerHello it receives, frame 2 its first QueryHeader.
  uint64_t skip_frames = 0;

  /// Stop injecting after this many faults (a one-shot fault is
  /// max_faults = 1 with fault_rate = 1.0).
  uint64_t max_faults = UINT64_MAX;

  /// Which kinds may be drawn (uniformly among the enabled ones).
  bool delay = true;
  bool truncate = true;
  bool garble = true;
  bool drop = true;
  bool disconnect = true;
};

/// Counters for what was actually injected.
struct FaultCounters {
  uint64_t frames = 0;  ///< frames sent or received, both directions
  uint64_t delays = 0;
  uint64_t truncations = 0;
  uint64_t garbles = 0;
  uint64_t drops = 0;
  uint64_t disconnects = 0;

  uint64_t faults() const {
    return delays + truncations + garbles + drops + disconnects;
  }
};

/// Decorates a Channel with fault injection on every frame it sends and
/// every frame it receives, planned from one seeded stream in session
/// order. On Receive a delay stalls before returning the frame, a drop
/// discards it and waits for the next one under the same read deadline,
/// and truncate/garble return the altered bytes. After an injected
/// disconnect (either direction) the wrapped channel is destroyed — the
/// peer sees "peer closed" and local calls fail with ProtocolError —
/// exactly the lifecycle of a crashed process. `rng` must outlive the
/// channel. Not thread-safe: one session drives it.
class FaultInjectingChannel : public Channel {
 public:
  FaultInjectingChannel(std::unique_ptr<Channel> inner,
                        FaultInjectionOptions options, RandomSource& rng);

  [[nodiscard]] Status Send(BytesView message) override;
  [[nodiscard]] Result<Bytes> Receive() override;
  TrafficStats sent() const override;
  void set_read_deadline(std::chrono::milliseconds deadline) override;
  void set_write_deadline(std::chrono::milliseconds deadline) override;

  const FaultCounters& counters() const { return counters_; }

 private:
  /// Counts the next frame and decides its fate: nullopt delivers it
  /// untouched. A truncate or garble writes the bytes to deliver
  /// instead into `altered`; truncating an empty frame is a drop.
  std::optional<FaultKind> PlanFault(BytesView frame, Bytes* altered);
  bool ShouldFault();
  FaultKind PickKind();
  /// Tears the transport down for an injected disconnect.
  Status Disconnect();

  std::unique_ptr<Channel> inner_;
  FaultInjectionOptions options_;
  RandomSource* rng_;
  FaultCounters counters_;
  TrafficStats final_stats_;  // snapshot once inner_ is torn down
  std::chrono::milliseconds read_deadline_{0};
};

}  // namespace ppstats

#endif  // PPSTATS_NET_FAULT_INJECTION_H_
