// Message channels: reliable, ordered, message-oriented transport between
// protocol endpoints, with byte/message accounting.
//
// Implementations:
//  * DuplexPipe — a connected pair of thread-safe in-memory queues for
//    two endpoints running on real threads (the end-to-end integration
//    tests).
//  * Socket channels (net/socket_channel.h) — length-prefixed frames
//    over AF_UNIX or TCP stream sockets.
//  * FaultInjectingChannel (net/fault_injection.h) — a decorator that
//    injects seeded transport faults into another channel.

#ifndef PPSTATS_NET_CHANNEL_H_
#define PPSTATS_NET_CHANNEL_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/bytes.h"
#include "common/result.h"
#include "obs/metrics.h"

namespace ppstats {

/// Per-message framing overhead a Channel charges to TrafficStats: the
/// 4-byte length prefix a stream transport (socket_channel.h) actually
/// puts on the wire. Message transports (DuplexPipe) charge the same
/// amount so simulated and real runs report identical byte counts for
/// identical frame sequences.
inline constexpr size_t kFrameOverheadBytes = 4;

/// Largest frame a stream transport accepts from its peer by default: a
/// longer length prefix is refused before anything is allocated
/// (corrupt or hostile peers).
inline constexpr size_t kMaxFrameBytes = size_t{1} << 28;

/// The one frame codec of the stream transports (socket channels and
/// the reactor host): a frame is its length as a kFrameOverheadBytes
/// big-endian prefix, then its bytes.
inline std::array<uint8_t, kFrameOverheadBytes> EncodeFrameLength(
    size_t length) {
  std::array<uint8_t, kFrameOverheadBytes> prefix;
  StoreBigEndian32(prefix.data(), static_cast<uint32_t>(length));
  return prefix;
}

/// Reads the length prefix at `prefix`; a length above `max_bytes` is a
/// ProtocolError.
[[nodiscard]] Result<uint32_t> DecodeFrameLength(
    const uint8_t* prefix, size_t max_bytes = kMaxFrameBytes);

/// Counters for traffic sent in one direction.
struct TrafficStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;

  void Record(size_t message_bytes) {
    ++messages;
    bytes += message_bytes;
  }

  TrafficStats& operator+=(const TrafficStats& other) {
    messages += other.messages;
    bytes += other.bytes;
    return *this;
  }
};

/// Process-wide wire counters shared by every Channel implementation
/// (sockets and in-memory pipes alike), registered in the Global
/// MetricRegistry. Pointers are resolved once at first use.
struct ChannelMetrics {
  obs::Counter* frames_sent;
  obs::Counter* bytes_sent;
  obs::Counter* frames_received;
  obs::Counter* bytes_received;
  obs::Counter* deadline_expirations;

  static ChannelMetrics& Get();
};

/// Abstract reliable, ordered, message-oriented channel endpoint.
class Channel {
 public:
  virtual ~Channel() = default;

  /// Sends one message to the peer.
  [[nodiscard]] virtual Status Send(BytesView message) = 0;

  /// Receives the next message (blocking for threaded channels).
  [[nodiscard]] virtual Result<Bytes> Receive() = 0;

  /// Traffic sent from this endpoint.
  virtual TrafficStats sent() const = 0;

  /// Caps how long each subsequent Receive may block, measured from the
  /// start of that call. A call that runs past the deadline fails with
  /// DeadlineExceeded instead of blocking forever — this is what evicts
  /// a stalled or hostile peer. Zero (the default) means no deadline.
  virtual void set_read_deadline(std::chrono::milliseconds /*deadline*/) {}

  /// Same cap for each subsequent Send. Only meaningful on transports
  /// with bounded buffering (sockets); the in-memory pipe's queue is
  /// unbounded, so its Send never blocks and the deadline is moot.
  virtual void set_write_deadline(std::chrono::milliseconds /*deadline*/) {}
};

/// Creates a connected pair of thread-safe in-memory channel endpoints.
/// Closing either endpoint (destruction) unblocks the peer's Receive with
/// a ProtocolError.
struct DuplexPipe {
  static std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>>
  Create();
};

}  // namespace ppstats

#endif  // PPSTATS_NET_CHANNEL_H_
