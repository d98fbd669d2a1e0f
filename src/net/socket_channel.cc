#include "net/socket_channel.h"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

namespace ppstats {

namespace {

using TimePoint = std::chrono::steady_clock::time_point;

/// Polls `fd` for `events` until ready or `deadline` passes. The
/// deadline is absolute: every retry (EINTR included) recomputes the
/// remaining budget from it, so a signal storm cannot stretch the
/// wait. Rounds the poll timeout up to the next millisecond so the
/// deadline is never declared early by sub-millisecond truncation.
Status PollUntilDeadline(int fd, short events,
                         const std::optional<TimePoint>& deadline) {
  for (;;) {
    int timeout_ms = -1;  // no deadline: block until ready
    if (deadline.has_value()) {
      auto remaining = std::chrono::ceil<std::chrono::milliseconds>(
          *deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        return Status::DeadlineExceeded("channel i/o ran past the deadline");
      }
      timeout_ms = static_cast<int>(
          std::min<int64_t>(remaining.count(), INT_MAX));
    }
    pollfd pfd{fd, events, 0};
    int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready > 0) return Status::OK();  // readable/writable or HUP/ERR,
                                         // which recv/send will surface
    if (ready == 0) {
      return Status::DeadlineExceeded("channel i/o ran past the deadline");
    }
    if (errno != EINTR) {
      return ErrnoStatus(StatusCode::kProtocolError, "poll failed", errno);
    }
  }
}

class SocketChannel : public Channel {
 public:
  SocketChannel(int fd, size_t max_message_bytes)
      : fd_(fd), max_message_bytes_(max_message_bytes) {}

  ~SocketChannel() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Send(BytesView message) override {
    if (message.size() > max_message_bytes_) {
      return Status::InvalidArgument("message exceeds the frame limit");
    }
    // One deadline covers the whole frame (header + payload), so a peer
    // draining one byte per backoff cannot stretch a Send indefinitely.
    std::optional<TimePoint> deadline = AbsoluteDeadline(write_deadline_);
    const auto header = EncodeFrameLength(message.size());
    Status written = [&] {
      PPSTATS_RETURN_IF_ERROR(WriteAll(header.data(), header.size(), deadline));
      return WriteAll(message.data(), message.size(), deadline);
    }();
    if (!written.ok()) {
      if (written.code() == StatusCode::kDeadlineExceeded) {
        ChannelMetrics::Get().deadline_expirations->Increment();
      }
      return written;
    }
    // Charge the length prefix too: it is on the wire, and channel.cc
    // charges the same so both transports report comparable bytes.
    stats_.Record(message.size() + kFrameOverheadBytes);
    ChannelMetrics& metrics = ChannelMetrics::Get();
    metrics.frames_sent->Increment();
    metrics.bytes_sent->Add(message.size() + kFrameOverheadBytes);
    return Status::OK();
  }

  Result<Bytes> Receive() override {
    Result<Bytes> out = ReceiveFrame();
    ChannelMetrics& metrics = ChannelMetrics::Get();
    if (out.ok()) {
      metrics.frames_received->Increment();
      metrics.bytes_received->Add(out->size() + kFrameOverheadBytes);
    } else if (out.status().code() == StatusCode::kDeadlineExceeded) {
      metrics.deadline_expirations->Increment();
    }
    return out;
  }

  TrafficStats sent() const override { return stats_; }

  void set_read_deadline(std::chrono::milliseconds deadline) override {
    read_deadline_ = deadline;
  }
  void set_write_deadline(std::chrono::milliseconds deadline) override {
    write_deadline_ = deadline;
  }

 private:
  Result<Bytes> ReceiveFrame() {
    std::optional<TimePoint> deadline = AbsoluteDeadline(read_deadline_);
    uint8_t header[kFrameOverheadBytes];
    PPSTATS_RETURN_IF_ERROR(ReadAll(header, kFrameOverheadBytes, deadline));
    PPSTATS_ASSIGN_OR_RETURN(uint32_t len,
                             DecodeFrameLength(header, max_message_bytes_));
    Bytes out(len);
    PPSTATS_RETURN_IF_ERROR(ReadAll(out.data(), out.size(), deadline));
    return out;
  }

  static std::optional<TimePoint> AbsoluteDeadline(
      std::chrono::milliseconds deadline) {
    if (deadline.count() <= 0) return std::nullopt;
    return std::chrono::steady_clock::now() + deadline;
  }

  // Blocks until the fd is ready for `events` or the deadline passes.
  // With no deadline the subsequent recv/send blocks instead.
  Status WaitReady(short events, const std::optional<TimePoint>& deadline) {
    if (!deadline.has_value()) return Status::OK();
    return PollUntilDeadline(fd_, events, deadline);
  }

  Status WriteAll(const uint8_t* data, size_t size,
                  const std::optional<TimePoint>& deadline) {
    // Under a deadline, send non-blocking: a blocking send of a large
    // frame would queue bytes as space appears and overshoot the
    // deadline even though poll() reported the buffer merely non-full.
    const int flags =
        MSG_NOSIGNAL | (deadline.has_value() ? MSG_DONTWAIT : 0);
    size_t done = 0;
    while (done < size) {
      PPSTATS_RETURN_IF_ERROR(WaitReady(POLLOUT, deadline));
      ssize_t n = ::send(fd_, data + done, size - done, flags);
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        return ErrnoStatus(StatusCode::kProtocolError, "send failed", errno);
      }
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status ReadAll(uint8_t* data, size_t size,
                 const std::optional<TimePoint>& deadline) {
    const int flags = deadline.has_value() ? MSG_DONTWAIT : 0;
    size_t done = 0;
    while (done < size) {
      PPSTATS_RETURN_IF_ERROR(WaitReady(POLLIN, deadline));
      ssize_t n = ::recv(fd_, data + done, size - done, flags);
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        return ErrnoStatus(StatusCode::kProtocolError, "recv failed", errno);
      }
      if (n == 0) {
        return Status::ProtocolError("peer closed the channel");
      }
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  int fd_;
  size_t max_message_bytes_;
  std::chrono::milliseconds read_deadline_{0};
  std::chrono::milliseconds write_deadline_{0};
  TrafficStats stats_;
};

/// Fills a sockaddr_un for `path`, rejecting over-long paths.
Status FillUnixAddr(const std::string& path, sockaddr_un* addr) {
  *addr = {};
  addr->sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument("socket path too long");
  }
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return Status::OK();
}

/// Disables Nagle on a connected or accepted TCP socket; small protocol
/// frames (hellos, query headers) must not wait for a delayed ACK.
void SetTcpNoDelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// getaddrinfo for a numeric-or-named TCP host. `passive` requests a
/// bindable (wildcard-capable) address.
Result<std::unique_ptr<addrinfo, void (*)(addrinfo*)>> ResolveTcp(
    const Endpoint& endpoint, bool passive) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_protocol = IPPROTO_TCP;
  hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
  addrinfo* found = nullptr;
  const std::string service = std::to_string(endpoint.port);
  int rc = ::getaddrinfo(endpoint.host.empty() ? nullptr
                                               : endpoint.host.c_str(),
                         service.c_str(), &hints, &found);
  if (rc != 0) {
    return Status::InvalidArgument("cannot resolve " + endpoint.ToUri() +
                                   ": " + ::gai_strerror(rc));
  }
  return std::unique_ptr<addrinfo, void (*)(addrinfo*)>(found,
                                                        ::freeaddrinfo);
}

/// Reads the kernel-assigned port back after binding port 0.
Status ResolveBoundPort(int fd, Endpoint* endpoint) {
  sockaddr_storage bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return ErrnoStatus(StatusCode::kInternal, "getsockname failed", errno);
  }
  if (bound.ss_family == AF_INET) {
    endpoint->port =
        ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
  } else if (bound.ss_family == AF_INET6) {
    endpoint->port =
        ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
  }
  return Status::OK();
}

/// Completes a connect() that returned EINTR: POSIX says the connect
/// finishes asynchronously, so reissuing it would fail — wait for
/// writability and read the outcome from SO_ERROR.
Status FinishInterruptedConnect(int fd) {
  pollfd pfd{fd, POLLOUT, 0};
  int ready;
  do {
    ready = ::poll(&pfd, 1, -1);
  } while (ready < 0 && errno == EINTR);
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (ready < 0 ||
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
      so_error != 0) {
    return ErrnoStatus(StatusCode::kInternal, "connect failed",
                       so_error != 0 ? so_error : errno);
  }
  return Status::OK();
}

/// Connects `fd` to `addr` with an upper bound of `deadline_ms` on the
/// handshake (0 = plain blocking connect, bounded only by the kernel's
/// own timeout — minutes against a blackholed host). The bounded path
/// connects non-blocking, waits for writability, reads the outcome from
/// SO_ERROR, and restores blocking mode on success, so callers get the
/// same kind of channel either way. A timeout maps to DeadlineExceeded,
/// which net/retry treats as retryable.
Status ConnectWithDeadline(int fd, const sockaddr* addr, socklen_t addr_len,
                           uint32_t deadline_ms) {
  if (deadline_ms == 0) {
    if (::connect(fd, addr, addr_len) != 0) {
      if (errno == EINTR) return FinishInterruptedConnect(fd);
      return ErrnoStatus(StatusCode::kInternal, "connect failed", errno);
    }
    return Status::OK();
  }
  PPSTATS_RETURN_IF_ERROR(SetSocketNonBlocking(fd));
  if (::connect(fd, addr, addr_len) != 0) {
    if (errno != EINPROGRESS && errno != EINTR && errno != EAGAIN) {
      return ErrnoStatus(StatusCode::kInternal, "connect failed", errno);
    }
    const TimePoint deadline = std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(deadline_ms);
    Status ready =
        PollUntilDeadline(fd, POLLOUT, std::optional<TimePoint>(deadline));
    if (!ready.ok()) {
      return ready.code() == StatusCode::kDeadlineExceeded
                 ? Status::DeadlineExceeded("connect ran past the deadline")
                 : ready;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      return ErrnoStatus(StatusCode::kInternal, "connect failed",
                         so_error != 0 ? so_error : errno);
    }
  }
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) != 0) {
    return ErrnoStatus(StatusCode::kInternal, "fcntl failed", errno);
  }
  return Status::OK();
}

/// True when something is accepting on the unix socket at `path`. Used
/// by Bind to distinguish a live server (never steal its socket) from a
/// stale file left by a crashed one. The probe connects non-blocking: a
/// listener answers immediately (or yields EAGAIN when its backlog is
/// full — still alive); a stale file refuses the connection.
bool UnixSocketIsLive(const std::string& path) {
  sockaddr_un addr{};
  if (!FillUnixAddr(path, &addr).ok()) return false;
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return false;
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  const bool live =
      rc == 0 || errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  ::close(fd);
  return live;
}

}  // namespace

Status ErrnoStatus(StatusCode code, const std::string& prefix, int err) {
  // The one place strerror may appear in src/net: this helper IS the
  // ErrnoStatus discipline the errno-status lint check enforces.
  return Status(code, prefix + ": " + std::strerror(err) +  // ppstats-lint: allow(errno-status)
                          " (errno " +
                          std::to_string(err) + ")");
}

std::string Endpoint::ToUri() const {
  if (kind == EndpointKind::kUnix) return "unix:" + path;
  const bool v6 = host.find(':') != std::string::npos;
  return "tcp:" + (v6 ? "[" + host + "]" : host) + ":" +
         std::to_string(port);
}

Result<Endpoint> ParseEndpoint(const std::string& uri) {
  if (uri.empty()) return Status::InvalidArgument("empty endpoint");
  Endpoint out;
  if (uri.rfind("unix:", 0) == 0) {
    out.kind = EndpointKind::kUnix;
    out.path = uri.substr(5);
    if (out.path.empty()) {
      return Status::InvalidArgument("unix endpoint has no path: " + uri);
    }
    return out;
  }
  if (uri.rfind("tcp:", 0) == 0) {
    out.kind = EndpointKind::kTcp;
    std::string rest = uri.substr(4);
    size_t port_sep;
    if (!rest.empty() && rest.front() == '[') {
      const size_t close = rest.find(']');
      if (close == std::string::npos || close + 1 >= rest.size() ||
          rest[close + 1] != ':') {
        return Status::InvalidArgument("malformed tcp endpoint: " + uri);
      }
      out.host = rest.substr(1, close - 1);
      port_sep = close + 1;
    } else {
      port_sep = rest.rfind(':');
      if (port_sep == std::string::npos) {
        return Status::InvalidArgument("tcp endpoint has no port: " + uri);
      }
      out.host = rest.substr(0, port_sep);
    }
    if (out.host.empty()) {
      return Status::InvalidArgument("tcp endpoint has no host: " + uri);
    }
    const std::string port_str = rest.substr(port_sep + 1);
    if (port_str.empty() ||
        port_str.find_first_not_of("0123456789") != std::string::npos) {
      return Status::InvalidArgument("malformed tcp port in: " + uri);
    }
    const unsigned long port = std::strtoul(port_str.c_str(), nullptr, 10);
    if (port > 65535) {
      return Status::InvalidArgument("tcp port out of range in: " + uri);
    }
    out.port = static_cast<uint16_t>(port);
    return out;
  }
  // Bare filesystem path: the historical AF_UNIX shorthand.
  out.kind = EndpointKind::kUnix;
  out.path = uri;
  return out;
}

Status SetSocketNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoStatus(StatusCode::kInternal, "fcntl(O_NONBLOCK)", errno);
  }
  int fdflags = ::fcntl(fd, F_GETFD, 0);
  if (fdflags < 0 || ::fcntl(fd, F_SETFD, fdflags | FD_CLOEXEC) < 0) {
    return ErrnoStatus(StatusCode::kInternal, "fcntl(FD_CLOEXEC)", errno);
  }
  return Status::OK();
}

std::unique_ptr<Channel> WrapSocket(int fd, size_t max_message_bytes) {
  return std::make_unique<SocketChannel>(fd, max_message_bytes);
}

SocketListener::SocketListener(SocketListener&& other) noexcept
    : fd_(other.fd_),
      endpoint_(std::move(other.endpoint_)),
      owns_path_(other.owns_path_),
      sndbuf_bytes_(other.sndbuf_bytes_) {
  other.fd_ = -1;
  other.owns_path_ = false;
  other.endpoint_ = Endpoint{};
}

SocketListener& SocketListener::operator=(SocketListener&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      ::close(fd_);
      if (owns_path_ && !endpoint_.path.empty()) {
        ::unlink(endpoint_.path.c_str());
      }
    }
    fd_ = other.fd_;
    endpoint_ = std::move(other.endpoint_);
    owns_path_ = other.owns_path_;
    sndbuf_bytes_ = other.sndbuf_bytes_;
    other.fd_ = -1;
    other.owns_path_ = false;
    other.endpoint_ = Endpoint{};
  }
  return *this;
}

SocketListener::~SocketListener() {
  if (fd_ >= 0) {
    ::close(fd_);
    if (owns_path_ && !endpoint_.path.empty()) {
      ::unlink(endpoint_.path.c_str());
    }
  }
}

namespace {

/// A bound, listening socket plus the facts SocketListener's private
/// constructor needs; the public Bind() wraps it.
struct BoundSocket {
  int fd = -1;
  Endpoint endpoint;
  bool owns_path = false;
};

Result<BoundSocket> BindUnix(const Endpoint& endpoint,
                             const ListenOptions& options) {
  sockaddr_un addr{};
  PPSTATS_RETURN_IF_ERROR(FillUnixAddr(endpoint.path, &addr));

  // Never steal the socket out from under a live server: probe first,
  // and only replace the file when nothing is accepting on it (a stale
  // leftover from a crash).
  if (UnixSocketIsLive(endpoint.path)) {
    return Status::AlreadyExists("socket path already in use by a live "
                                 "server: " +
                                 endpoint.path);
  }

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return ErrnoStatus(StatusCode::kInternal, "socket failed", errno);
  }
  ::unlink(endpoint.path.c_str());  // replace a stale socket file
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return ErrnoStatus(StatusCode::kInternal, "bind failed", err);
  }
  if (::listen(fd, options.backlog) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(endpoint.path.c_str());
    return ErrnoStatus(StatusCode::kInternal, "listen failed", err);
  }
  return BoundSocket{fd, endpoint, /*owns_path=*/true};
}

Result<BoundSocket> BindTcp(Endpoint endpoint, const ListenOptions& options) {
  PPSTATS_ASSIGN_OR_RETURN(auto resolved,
                           ResolveTcp(endpoint, /*passive=*/true));
  Status last = Status::Internal("no usable address for " + endpoint.ToUri());
  for (const addrinfo* ai = resolved.get(); ai != nullptr;
       ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = ErrnoStatus(StatusCode::kInternal, "socket failed", errno);
      continue;
    }
    int one = 1;
    // REUSEADDR so a restart does not trip over TIME_WAIT; REUSEPORT
    // (opt-in) so per-shard listeners can share the port and the kernel
    // load-balances accepts across them.
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (options.reuse_port) {
      if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) !=
          0) {
        const int err = errno;
        ::close(fd);
        return ErrnoStatus(StatusCode::kInternal, "setsockopt(SO_REUSEPORT)",
                           err);
      }
    }
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0) {
      last = ErrnoStatus(StatusCode::kInternal, "bind failed", errno);
      ::close(fd);
      continue;
    }
    if (::listen(fd, options.backlog) != 0) {
      last = ErrnoStatus(StatusCode::kInternal, "listen failed", errno);
      ::close(fd);
      continue;
    }
    if (Status port = ResolveBoundPort(fd, &endpoint); !port.ok()) {
      ::close(fd);
      return port;
    }
    return BoundSocket{fd, std::move(endpoint), /*owns_path=*/false};
  }
  return last;
}

}  // namespace

Result<SocketListener> SocketListener::Bind(const Endpoint& endpoint,
                                            const ListenOptions& options) {
  if (options.backlog <= 0) {
    return Status::InvalidArgument("listen backlog must be positive");
  }
  PPSTATS_ASSIGN_OR_RETURN(BoundSocket bound,
                           endpoint.kind == EndpointKind::kUnix
                               ? BindUnix(endpoint, options)
                               : BindTcp(endpoint, options));
  return SocketListener(bound.fd, std::move(bound.endpoint), bound.owns_path,
                        options.sndbuf_bytes);
}

Result<SocketListener> SocketListener::Duplicate() const {
  if (fd_ < 0) return Status::FailedPrecondition("listener is closed");
  int fd = ::dup(fd_);
  if (fd < 0) {
    return ErrnoStatus(StatusCode::kResourceExhausted, "dup failed", errno);
  }
  // The duplicate shares the original's open file description (accept
  // queue, O_NONBLOCK), but must never unlink the path.
  return SocketListener(fd, endpoint_, /*owns_path=*/false, sndbuf_bytes_);
}

void SocketListener::Close() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Result<std::optional<int>> SocketListener::AcceptFd() {
  if (fd_ < 0) return Status::FailedPrecondition("listener is closed");
  for (;;) {
    int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) {
      if (endpoint_.kind == EndpointKind::kTcp) SetTcpNoDelay(client);
      if (sndbuf_bytes_ > 0) {
        (void)::setsockopt(client, SOL_SOCKET, SO_SNDBUF, &sndbuf_bytes_,
                           sizeof(sndbuf_bytes_));
      }
      return std::optional<int>(client);
    }
    switch (errno) {
      case EINTR:
      case ECONNABORTED:  // that one connection died; the listener is fine
        continue;
      case EAGAIN:  // non-blocking listener with an empty queue
#if EAGAIN != EWOULDBLOCK
      case EWOULDBLOCK:
#endif
        return std::optional<int>(std::nullopt);
      case EMFILE:  // transient resource pressure: the caller should
      case ENFILE:  // back off and call AcceptFd again once fds/memory
      case ENOBUFS:  // free up, instead of tearing the server down
      case ENOMEM:
        return ErrnoStatus(StatusCode::kResourceExhausted, "accept failed",
                           errno);
      default:
        // EINVAL/EBADF after Close()/shutdown, or an unexpected kernel
        // error: either way this listener will never accept again.
        return ErrnoStatus(StatusCode::kFailedPrecondition, "accept failed",
                           errno);
    }
  }
}

Result<std::unique_ptr<Channel>> ConnectEndpoint(const Endpoint& endpoint,
                                                 uint32_t connect_deadline_ms) {
  if (endpoint.kind == EndpointKind::kUnix) {
    sockaddr_un addr{};
    PPSTATS_RETURN_IF_ERROR(FillUnixAddr(endpoint.path, &addr));
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return ErrnoStatus(StatusCode::kInternal, "socket failed", errno);
    }
    if (Status c = ConnectWithDeadline(fd, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof(addr), connect_deadline_ms);
        !c.ok()) {
      ::close(fd);
      return c;
    }
    return WrapSocket(fd);
  }

  PPSTATS_ASSIGN_OR_RETURN(auto resolved,
                           ResolveTcp(endpoint, /*passive=*/false));
  Status last =
      Status::Internal("no usable address for " + endpoint.ToUri());
  for (const addrinfo* ai = resolved.get(); ai != nullptr;
       ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = ErrnoStatus(StatusCode::kInternal, "socket failed", errno);
      continue;
    }
    if (Status c = ConnectWithDeadline(fd, ai->ai_addr, ai->ai_addrlen,
                                       connect_deadline_ms);
        !c.ok()) {
      ::close(fd);
      last = std::move(c);
      continue;
    }
    SetTcpNoDelay(fd);
    return WrapSocket(fd);
  }
  return last;
}

Result<std::unique_ptr<Channel>> ConnectChannel(const std::string& uri,
                                                uint32_t connect_deadline_ms) {
  PPSTATS_ASSIGN_OR_RETURN(Endpoint endpoint, ParseEndpoint(uri));
  return ConnectEndpoint(endpoint, connect_deadline_ms);
}

Result<std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>>>
CreateSocketChannelPair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return ErrnoStatus(StatusCode::kInternal, "socketpair failed", errno);
  }
  return std::make_pair(WrapSocket(fds[0]), WrapSocket(fds[1]));
}

}  // namespace ppstats
