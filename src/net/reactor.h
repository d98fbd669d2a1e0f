// net/reactor: a single-threaded readiness event loop (epoll on Linux,
// poll(2) everywhere) with a timer wheel and a cross-thread completion
// queue.
//
// One Reactor owns a set of non-blocking fds. Run() loops on the
// backend's wait call, dispatches readiness callbacks, drains posted
// completions, and advances the timer wheel. The epoll backend is
// edge-triggered: a callback MUST drain its fd (read/write until
// EAGAIN) before returning, or the event is lost until the next edge.
// The poll backend is level-triggered, but callbacks that honor the
// drain contract behave identically under both.
//
// Thread model:
//   - Run() executes on exactly one thread (the "reactor thread").
//   - Add / Modify / Remove / ArmTimer / CancelTimer must be called on
//     the reactor thread, or before Run() starts.
//   - Post() and Stop() are safe from any thread; posted functions run
//     on the reactor thread (an eventfd — self-pipe off Linux — wakes
//     the wait call).
//
// Metrics (recorded into ReactorOptions::registry, default Global()):
//   reactor.wakeups        counter   backend wait() returns
//   reactor.ready_events   histogram fds ready per wakeup
//   reactor.completions    counter   posted functions executed
//   reactor.timer_fires    counter   timer callbacks fired

#ifndef PPSTATS_NET_REACTOR_H_
#define PPSTATS_NET_REACTOR_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace ppstats {

/// Readiness bits passed to fd callbacks.
inline constexpr uint32_t kReactorReadable = 1u << 0;
inline constexpr uint32_t kReactorWritable = 1u << 1;
/// The peer hung up or the fd errored; a read will observe EOF/errno.
inline constexpr uint32_t kReactorClosed = 1u << 2;

struct ReactorOptions {
  /// Use the portable poll(2) backend even where epoll is available
  /// (exercised by tests; also the only backend off Linux).
  bool force_poll_backend = false;
  /// Timer wheel resolution. Timer callbacks fire within one tick of
  /// their deadline.
  std::chrono::milliseconds timer_tick{10};
  /// Timer wheel slot count (spans slots × tick before wrapping).
  size_t timer_slots = 512;
  /// Metrics sink; nullptr means obs::MetricRegistry::Global().
  obs::MetricRegistry* registry = nullptr;
};

/// Hashed timing wheel: O(1) arm/cancel, deadlines fire within one tick.
/// Single-threaded — owned and driven by the reactor thread. Exposed
/// here so tests can drive it with synthetic clocks.
class TimerWheel {
 public:
  using TimerId = uint64_t;
  using Clock = std::chrono::steady_clock;

  TimerWheel(std::chrono::milliseconds tick, size_t slots,
             Clock::time_point now);

  /// Schedules `fn` to run at `expiry` (clamped at least one tick out).
  /// Returns an id usable with Cancel(). Ids are never reused.
  TimerId Arm(Clock::time_point expiry, std::function<void()> fn);

  /// Cancels a pending timer. Returns false if it already fired or was
  /// already cancelled.
  bool Cancel(TimerId id);

  /// Fires every timer whose expiry is <= now. Fired callbacks may Arm
  /// and Cancel freely (including cancelling timers due in this same
  /// batch). Returns the number of callbacks fired.
  size_t Advance(Clock::time_point now);

  size_t live() const { return index_.size(); }
  bool empty() const { return index_.empty(); }

 private:
  struct Entry {
    TimerId id = 0;
    Clock::time_point expiry;
    std::function<void()> fn;
  };
  using SlotList = std::list<Entry>;

  size_t FireDue(size_t slot, Clock::time_point now);

  std::chrono::milliseconds tick_;
  std::vector<SlotList> slots_;
  size_t cursor_ = 0;
  Clock::time_point cursor_time_;  // wheel has been advanced up to here
  TimerId next_id_ = 1;
  std::unordered_map<TimerId, std::pair<size_t, SlotList::iterator>> index_;
};

/// The event loop. See the file comment for the thread model.
class Reactor {
 public:
  using FdCallback = std::function<void(uint32_t ready)>;
  using TimerId = TimerWheel::TimerId;

  /// Opens the backend (epoll unless forced/unavailable, else poll)
  /// and the wakeup fd.
  static Result<std::unique_ptr<Reactor>> Create(ReactorOptions options = {});
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Registers `fd` (must be non-blocking) for the `interest` bits
  /// (kReactorReadable/kReactorWritable). `callback` runs on the
  /// reactor thread with the ready bits. Reactor-thread-only.
  [[nodiscard]] Status Add(int fd, uint32_t interest, FdCallback callback);

  /// Replaces the interest set of a registered fd. Reactor-thread-only.
  [[nodiscard]] Status Modify(int fd, uint32_t interest);

  /// Deregisters `fd`. Pending events already harvested for it in the
  /// current batch are dropped. Does not close the fd.
  /// Reactor-thread-only.
  void Remove(int fd);

  /// Schedules `fn` on the reactor thread after `delay` (resolution:
  /// one timer tick). Reactor-thread-only.
  TimerId ArmTimer(std::chrono::milliseconds delay, std::function<void()> fn);

  /// Cancels a pending timer; false if it already fired.
  /// Reactor-thread-only.
  bool CancelTimer(TimerId id);

  /// Enqueues `fn` to run on the reactor thread. Safe from any thread;
  /// this is how pool workers hand completions back to the loop.
  void Post(std::function<void()> fn);

  /// Runs the loop on the calling thread until Stop().
  void Run();

  /// Requests Run() to return after the current iteration. Safe from
  /// any thread; idempotent.
  void Stop();

  bool using_epoll() const { return epoll_fd_ >= 0; }

 private:
  struct Registration {
    uint64_t gen = 0;
    uint32_t interest = 0;
    // shared_ptr so a dispatch can hold the callback alive while the
    // callback itself calls Remove() on its own fd.
    std::shared_ptr<FdCallback> callback;
  };

  explicit Reactor(ReactorOptions options);
  [[nodiscard]] Status Init();
  [[nodiscard]] Status BackendAdd(int fd, uint32_t interest, uint64_t gen);
  [[nodiscard]] Status BackendModify(int fd, uint32_t interest, uint64_t gen);
  void BackendRemove(int fd);
  int WaitTimeoutMs() const;
  void WaitAndDispatch(int timeout_ms);
  void Dispatch(uint64_t gen, uint32_t ready);
  void DrainWakeFd();
  void RunPosted();

  ReactorOptions options_;
  int epoll_fd_ = -1;       // -1 when the poll backend is active
  int wake_read_fd_ = -1;   // eventfd on Linux (read == write fd)
  int wake_write_fd_ = -1;
  uint64_t next_gen_ = 1;   // 0 is reserved for the wakeup fd
  std::map<int, Registration> registrations_;         // by fd
  std::unordered_map<uint64_t, int> fd_by_gen_;       // live gens only
  TimerWheel wheel_;
  bool stop_requested_ = false;  // reactor thread only; set via Post

  Mutex post_mu_;
  std::deque<std::function<void()>> posted_ PPSTATS_GUARDED_BY(post_mu_);
  bool wake_pending_ PPSTATS_GUARDED_BY(post_mu_) = false;

  obs::Counter* wakeups_;
  obs::Counter* completions_;
  obs::Counter* timer_fires_;
  obs::Histogram* ready_events_;
};

}  // namespace ppstats

#endif  // PPSTATS_NET_REACTOR_H_
