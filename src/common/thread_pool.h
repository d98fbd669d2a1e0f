// Persistent worker-thread pool for data-parallel folds and
// fire-and-forget tasks.
//
// The server-side homomorphic product, the PIR row folds, and the
// micro-benchmarks all split an associative fold into per-thread slices.
// Spawning a std::thread per chunk (the seed implementation) costs a
// clone/join round trip on every request; this pool keeps the workers
// alive for the lifetime of the process and hands them task indices.
//
// Run() is cooperative: the calling thread executes task indices
// alongside the workers, so a Run() issued from inside a pool worker
// cannot deadlock — in the worst case the caller simply executes every
// index itself.
//
// Submit() feeds a work-stealing scheduler layered on the same workers:
// each worker owns a deque, submissions land round-robin, a worker pops
// its own deque front-first (FIFO) and steals from the back of a
// sibling's deque when its own is empty. The reactor host
// (core/reactor_host.h) posts per-session protocol work here so the
// event loop never blocks on crypto; it keeps at most one task in
// flight per session, which bounds the backlog it creates.

#ifndef PPSTATS_COMMON_THREAD_POOL_H_
#define PPSTATS_COMMON_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ppstats {

/// Fixed-size pool of worker threads executing indexed task batches and
/// fire-and-forget tasks.
class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Starts `threads` workers (0 = no workers; Run() and Submit()
  /// execute inline on the calling thread).
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t thread_count() const { return workers_.size(); }

  /// Runs fn(0) .. fn(n-1) across the pool and the calling thread,
  /// returning once every invocation has completed. Concurrent Run()
  /// calls from different threads are safe and share the workers.
  void Run(size_t n, const std::function<void(size_t)>& fn);

  /// Enqueues a fire-and-forget task on one worker's deque (round-robin
  /// placement; idle workers steal). Pending tasks are drained before
  /// the destructor returns. With zero workers the task runs inline.
  void Submit(Task task);

  /// Floor on Shared()'s worker count (see thread_pool.cc).
  static constexpr unsigned kMinSharedWorkers = 2;

  /// Process-wide pool sized to the hardware (at least
  /// kMinSharedWorkers); created on first use.
  static ThreadPool& Shared();

 private:
  // One batch submitted to Run(): workers atomically claim indices until
  // `next` passes `count`, then the last finisher signals the waiter.
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t count = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    Mutex m;  // serializes the done_cv handshake only; counters are atomic
    CondVar done_cv;
  };

  // A submitted task plus its enqueue timestamp (sched.dispatch_ns).
  struct TaskItem {
    Task fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  // One worker's deque. The owner pops the front; thieves take the
  // back. Each deque has its own lock so stealing never serializes the
  // whole pool; a thread holds at most one deque lock at a time.
  struct TaskQueue {
    Mutex mu;
    std::deque<TaskItem> tasks PPSTATS_GUARDED_BY(mu);
  };

  void WorkerLoop(size_t self);
  static void ExecuteFrom(Job& job);
  /// Pops one task (own front, else steal a sibling's back) and runs
  /// it. Returns false if every deque was empty.
  bool RunOneTask(size_t self);

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<TaskQueue>> queues_;  // one per worker
  std::atomic<size_t> pending_tasks_{0};
  std::atomic<size_t> submit_cursor_{0};  // round-robin placement
  Mutex mu_;
  std::deque<std::shared_ptr<Job>> jobs_ PPSTATS_GUARDED_BY(mu_);
  bool stop_ PPSTATS_GUARDED_BY(mu_) = false;
  CondVar cv_;
};

}  // namespace ppstats

#endif  // PPSTATS_COMMON_THREAD_POOL_H_
