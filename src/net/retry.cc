#include "net/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "net/socket_channel.h"

namespace ppstats {

uint32_t RetryBackoffMs(size_t retry, const RetryOptions& options,
                        RandomSource& rng) {
  if (retry == 0) return 0;
  uint64_t backoff = options.initial_backoff_ms;
  for (size_t i = 1; i < retry && backoff < options.max_backoff_ms; ++i) {
    backoff *= 2;
  }
  backoff = std::min<uint64_t>(backoff, options.max_backoff_ms);
  double jitter = std::clamp(options.jitter, 0.0, 1.0);
  uint64_t window = static_cast<uint64_t>(backoff * jitter);
  uint64_t fixed = backoff - window;
  if (window > 0) fixed += rng.NextBelow(window + 1);
  return static_cast<uint32_t>(fixed);
}

Status RetryWithBackoff(const RetryOptions& options, RandomSource& rng,
                        const std::function<Status()>& attempt,
                        const std::function<void(uint32_t)>& on_backoff) {
  const size_t max_attempts = std::max<size_t>(options.max_attempts, 1);
  Status status = attempt();
  for (size_t retry = 1; retry < max_attempts && IsRetryableStatus(status);
       ++retry) {
    const uint32_t backoff_ms = RetryBackoffMs(retry, options, rng);
    if (on_backoff) on_backoff(backoff_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    status = attempt();
  }
  return status;
}

bool IsRetryableStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kProtocolError:       // transport died or spoke garbage
    case StatusCode::kSerializationError:  // corrupted frame in transit
    case StatusCode::kDeadlineExceeded:    // peer or link stalled
    case StatusCode::kResourceExhausted:   // peer over capacity: try later
    case StatusCode::kUnavailable:         // peer shutting down: redial
    case StatusCode::kInternal:            // dial failed (connect/socket)
      return true;
    default:
      return false;
  }
}

DialFn UriDialer(std::string uri, uint32_t io_deadline_ms,
                 uint32_t connect_deadline_ms) {
  return [uri = std::move(uri), io_deadline_ms,
          connect_deadline_ms]() -> Result<std::unique_ptr<Channel>> {
    Result<std::unique_ptr<Channel>> channel =
        ConnectChannel(uri, connect_deadline_ms);
    if (channel.ok() && io_deadline_ms > 0) {
      const std::chrono::milliseconds deadline(io_deadline_ms);
      (*channel)->set_read_deadline(deadline);
      (*channel)->set_write_deadline(deadline);
    }
    return channel;
  };
}

}  // namespace ppstats
