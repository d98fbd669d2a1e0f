// SocketChannel: the Channel interface over a real kernel socket
// (AF_UNIX or TCP, SOCK_STREAM) with 4-byte length framing.
//
// The in-memory DuplexPipe is enough for measurements; this exists so
// the protocol stack is exercised over actual file descriptors — partial
// reads, kernel buffering, EOF semantics — as a deployment would see.
//
// Addresses are Endpoints, written as URIs:
//   unix:/tmp/pp.sock     filesystem AF_UNIX socket
//   tcp:127.0.0.1:7000    TCP over IPv4 (port 0 binds an ephemeral port)
//   tcp:[::1]:7000        TCP over IPv6 (host in brackets)
//   /tmp/pp.sock          bare path, kept as an AF_UNIX shorthand
// Framing and protocol are identical over both families; TCP sockets
// get TCP_NODELAY so small frames are not Nagle-delayed.

#ifndef PPSTATS_NET_SOCKET_CHANNEL_H_
#define PPSTATS_NET_SOCKET_CHANNEL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "net/channel.h"

namespace ppstats {

/// Builds "<prefix>: <strerror> (errno <n>)" with the given code. The
/// numeric errno rides along with the human text so a log line is
/// greppable against errno tables even when strerror wording differs
/// across libcs. Call sites pass `err` explicitly (capture errno before
/// anything that might clobber it).
[[nodiscard]] Status ErrnoStatus(StatusCode code, const std::string& prefix,
                                 int err);

/// Address family of an Endpoint.
enum class EndpointKind : uint8_t { kUnix, kTcp };

/// A listen/connect address: a filesystem socket path or a TCP
/// host:port. Produced by ParseEndpoint, consumed by SocketListener and
/// the connectors.
struct Endpoint {
  EndpointKind kind = EndpointKind::kUnix;
  std::string path;   ///< kUnix: filesystem socket path
  std::string host;   ///< kTcp: numeric address or hostname
  uint16_t port = 0;  ///< kTcp: port (0 = kernel-assigned ephemeral)

  /// Canonical URI form ("unix:/p", "tcp:host:port", "tcp:[v6]:port").
  [[nodiscard]] std::string ToUri() const;
};

/// Parses "unix:<path>", "tcp:<host>:<port>" (IPv6 hosts in brackets),
/// or a bare filesystem path (treated as unix, the historical form).
[[nodiscard]] Result<Endpoint> ParseEndpoint(const std::string& uri);

/// Listener tuning beyond the address.
struct ListenOptions {
  /// Kernel listen(2) queue depth — connections beyond it are refused
  /// by the kernel before accept() ever sees them.
  int backlog = 16;

  /// TCP only: bind with SO_REUSEPORT so several listeners can share
  /// one port and the kernel load-balances accepts across them
  /// (per-reactor-shard listeners).
  bool reuse_port = false;

  /// When > 0, every accepted socket gets SO_SNDBUF set to this many
  /// bytes. A test knob: a tiny send buffer forces partial writes and
  /// EAGAIN mid-frame, exercising the backpressure paths.
  int sndbuf_bytes = 0;
};

/// Puts `fd` into non-blocking, close-on-exec mode (reactor sockets).
[[nodiscard]] Status SetSocketNonBlocking(int fd);

/// Creates a connected pair of socket-backed channels (socketpair(2)).
/// Each endpoint owns its file descriptor; destruction closes it, which
/// surfaces as a ProtocolError on the peer's next Receive.
Result<std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>>>
CreateSocketChannelPair();

/// Wraps an existing connected stream socket as a Channel. Takes
/// ownership of `fd`. Messages are framed with a 4-byte big-endian
/// length; a frame larger than `max_message_bytes` is rejected without
/// allocation (protects against corrupt or hostile peers).
std::unique_ptr<Channel> WrapSocket(int fd,
                                    size_t max_message_bytes = kMaxFrameBytes);

/// Listens on an Endpoint: a filesystem AF_UNIX socket path (unlinked
/// on destruction) or a TCP host:port. Used by ServiceHost and the
/// command-line server tool.
class SocketListener {
 public:
  SocketListener(SocketListener&& other) noexcept;
  SocketListener& operator=(SocketListener&& other) noexcept;
  SocketListener(const SocketListener&) = delete;
  ~SocketListener();

  /// Binds and listens on `endpoint`. A unix path that a live server
  /// still answers on fails with AlreadyExists (the socket is in use —
  /// never steal it); a stale socket file (nothing accepting) is
  /// replaced. A TCP endpoint with port 0 binds an ephemeral port;
  /// endpoint() reports the resolved one.
  [[nodiscard]] static Result<SocketListener> Bind(
      const Endpoint& endpoint, const ListenOptions& options = {});

  /// Duplicates the listener: the copy shares the same open file
  /// description (dup(2)), so both see the same accept queue. Used for
  /// per-reactor-shard accept on AF_UNIX, where SO_REUSEPORT does not
  /// apply; the duplicate never unlinks the socket path (the original
  /// owns it).
  [[nodiscard]] Result<SocketListener> Duplicate() const;

  /// Accepts the next pending connection as a raw fd (caller owns it).
  /// Returns std::nullopt when the listener is non-blocking and no
  /// connection is queued (EAGAIN). The failure code tells the caller
  /// whether retrying makes sense: ResourceExhausted for transient
  /// fd/memory pressure (EMFILE/ENFILE/ENOBUFS/ENOMEM — back off and
  /// retry), FailedPrecondition once the listener is shut down; EINTR
  /// and ECONNABORTED are retried internally. Accepted TCP sockets get
  /// TCP_NODELAY; ListenOptions::sndbuf_bytes applies here. Used by the
  /// reactor host, which frames and buffers the socket itself.
  [[nodiscard]] Result<std::optional<int>> AcceptFd();

  /// The listening descriptor, for event-loop registration. The
  /// listener retains ownership.
  int fd() const { return fd_; }

  /// The bound address. For a TCP bind to port 0 this carries the
  /// kernel-assigned port, so endpoint().ToUri() is always dialable.
  const Endpoint& endpoint() const { return endpoint_; }

  /// Shuts the listening socket down, so every later AcceptFd() fails
  /// with FailedPrecondition. Safe to call from another thread; the fd
  /// itself is closed by the destructor. Used by ReactorEngine::Stop.
  void Close();

 private:
  SocketListener(int fd, Endpoint endpoint, bool owns_path, int sndbuf)
      : fd_(fd),
        endpoint_(std::move(endpoint)),
        owns_path_(owns_path),
        sndbuf_bytes_(sndbuf) {}

  int fd_ = -1;
  Endpoint endpoint_;
  /// Unix only: this listener unlinks the socket path on destruction.
  /// Duplicates leave that to the original.
  bool owns_path_ = false;
  int sndbuf_bytes_ = 0;
};

/// Connects to an Endpoint (either family). TCP connections get
/// TCP_NODELAY. `connect_deadline_ms` bounds the connect handshake
/// itself: 0 keeps the historical blocking connect (bounded only by
/// the kernel, which can be minutes against a blackholed host); > 0
/// fails with DeadlineExceeded — retryable under net/retry — once the
/// budget elapses, so a dialer's backoff schedule stays in charge.
[[nodiscard]] Result<std::unique_ptr<Channel>> ConnectEndpoint(
    const Endpoint& endpoint, uint32_t connect_deadline_ms = 0);

/// Connects to an endpoint URI ("unix:/p", "tcp:host:port", bare path).
[[nodiscard]] Result<std::unique_ptr<Channel>> ConnectChannel(
    const std::string& uri, uint32_t connect_deadline_ms = 0);

}  // namespace ppstats

#endif  // PPSTATS_NET_SOCKET_CHANNEL_H_
