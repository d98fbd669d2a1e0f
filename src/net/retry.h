// Retry policy for client-side connection establishment: exponential
// backoff with randomized jitter, plus the classification of which
// failures are safe to retry.
//
// Retrying is only sound for operations that commit no server-side
// state: dialing, the hello exchange, and (for this protocol) whole
// queries, which are pure reads. RetryWithBackoff is the one retry
// loop: QuerySession::ConnectWithRetry (core/session.h) retries its
// connect with it and the cluster coordinator its shard legs.

#ifndef PPSTATS_NET_RETRY_H_
#define PPSTATS_NET_RETRY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/random.h"
#include "common/status.h"
#include "net/channel.h"

namespace ppstats {

/// Client retry configuration.
struct RetryOptions {
  /// Total attempts including the first (1 = never retry).
  size_t max_attempts = 1;

  /// Backoff before the first retry; doubles per retry after that.
  uint32_t initial_backoff_ms = 10;

  /// Cap on any single backoff.
  uint32_t max_backoff_ms = 2000;

  /// Fraction of each backoff drawn uniformly at random, so a burst of
  /// clients rejected together does not reconnect in lockstep: the wait
  /// is backoff * (1 - jitter) + uniform[0, backoff * jitter].
  double jitter = 0.5;
};

/// Per-attempt counters, for tests and tool output.
struct RetryMetrics {
  uint64_t attempts = 0;         ///< attempts started
  uint64_t retryable_failures = 0;  ///< attempts that ended retryably
  uint64_t backoff_ms_total = 0;    ///< total time slept between attempts
};

/// Backoff before retry number `retry` (1-based: 1 after the first
/// failure). Exponential with cap, jittered via `rng`.
uint32_t RetryBackoffMs(size_t retry, const RetryOptions& options,
                        RandomSource& rng);

/// Runs `attempt` until it returns OK or a non-retryable status, at
/// most max(1, options.max_attempts) times, and returns the last status.
/// Before retry number r it calls on_backoff(ms) when set, then sleeps
/// ms = RetryBackoffMs(r, options, rng); no other draw is made from
/// `rng`.
[[nodiscard]] Status RetryWithBackoff(
    const RetryOptions& options, RandomSource& rng,
    const std::function<Status()>& attempt,
    const std::function<void(uint32_t backoff_ms)>& on_backoff = {});

/// True when `status` reports a transport-level or capacity failure
/// that is safe to retry on a fresh connection: the peer never acted on
/// anything, or rejected us before doing so (ResourceExhausted from an
/// over-capacity server). Semantic rejections (InvalidArgument,
/// NotFound, FailedPrecondition) will fail the same way every time and
/// are not retryable. A protocol-version mismatch is a ProtocolError on
/// both sides, which this classification cannot tell from a garbled or
/// dead link, so it is retried until max_attempts runs out.
bool IsRetryableStatus(const Status& status);

/// A reusable dial closure: each call opens a fresh connection.
/// QuerySession::ConnectWithRetry calls it once per attempt, so it can
/// redial after a dead transport.
using DialFn = std::function<Result<std::unique_ptr<Channel>>()>;

/// Builds a dialer for an endpoint URI ("unix:/path", "tcp:host:port",
/// or a bare socket path). When io_deadline_ms > 0 every dialed channel
/// gets that read and write deadline. When connect_deadline_ms > 0 each
/// connect attempt itself is bounded too — without it, a TCP connect to
/// a blackholed host blocks on the kernel's own timeout (minutes) and
/// starves the backoff schedule; with it, the attempt fails
/// DeadlineExceeded (retryable) on time. The URI is validated lazily,
/// per dial — a bad URI fails with InvalidArgument (not retryable).
[[nodiscard]] DialFn UriDialer(std::string uri, uint32_t io_deadline_ms = 0,
                               uint32_t connect_deadline_ms = 0);

}  // namespace ppstats

#endif  // PPSTATS_NET_RETRY_H_
