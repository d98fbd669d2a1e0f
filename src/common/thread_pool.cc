#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace ppstats {

namespace {

// Metric pointers are resolved once and cached: the pool's hot path
// must not take the registry map lock per task.
struct PoolMetrics {
  obs::Counter* jobs =
      obs::MetricRegistry::Global().GetCounter("threadpool.jobs");
  obs::Counter* tasks =
      obs::MetricRegistry::Global().GetCounter("threadpool.tasks");
  obs::Gauge* queue_depth =
      obs::MetricRegistry::Global().GetGauge("threadpool.queue_depth");
  obs::Gauge* busy_workers =
      obs::MetricRegistry::Global().GetGauge("threadpool.busy_workers");
  // Work-stealing scheduler (Submit) instruments.
  obs::Counter* submitted =
      obs::MetricRegistry::Global().GetCounter("sched.submitted");
  obs::Counter* steals =
      obs::MetricRegistry::Global().GetCounter("sched.steals");
  obs::Histogram* dispatch_ns =
      obs::MetricRegistry::Global().GetHistogram("sched.dispatch_ns");
};

PoolMetrics& Metrics() {
  static PoolMetrics* metrics = new PoolMetrics();  // leaked on purpose
  return *metrics;
}

}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  queues_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<TaskQueue>());
  }
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::ExecuteFrom(Job& job) {
  size_t executed = 0;
  for (;;) {
    const size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.count) break;
    (*job.fn)(i);
    ++executed;
    if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.count) {
      // Take the job mutex so the waiter cannot miss the notification
      // between its predicate check and its wait.
      MutexLock lock(job.m);
      job.done_cv.NotifyAll();
    }
  }
  if (executed > 0) Metrics().tasks->Add(executed);
}

bool ThreadPool::RunOneTask(size_t self) {
  TaskItem item;
  bool stolen = false;
  {
    MutexLock lock(queues_[self]->mu);
    if (!queues_[self]->tasks.empty()) {
      item = std::move(queues_[self]->tasks.front());
      queues_[self]->tasks.pop_front();
    }
  }
  if (!item.fn) {
    // Own deque empty: steal from the back of the first non-empty
    // sibling (back-stealing keeps the victim's front cache-warm).
    for (size_t k = 1; k < queues_.size() && !item.fn; ++k) {
      const size_t victim = (self + k) % queues_.size();
      MutexLock lock(queues_[victim]->mu);
      if (!queues_[victim]->tasks.empty()) {
        item = std::move(queues_[victim]->tasks.back());
        queues_[victim]->tasks.pop_back();
        stolen = true;
      }
    }
  }
  if (!item.fn) return false;
  pending_tasks_.fetch_sub(1, std::memory_order_relaxed);
  if (stolen) Metrics().steals->Increment();
  const auto now = std::chrono::steady_clock::now();
  Metrics().dispatch_ns->Record(static_cast<uint64_t>(
      std::max<int64_t>(0, std::chrono::duration_cast<std::chrono::nanoseconds>(
                               now - item.enqueued)
                               .count())));
  Metrics().busy_workers->Add(1);
  item.fn();
  Metrics().busy_workers->Add(-1);
  return true;
}

void ThreadPool::WorkerLoop(size_t self) {
  for (;;) {
    if (RunOneTask(self)) continue;
    std::shared_ptr<Job> job;
    {
      MutexLock lock(mu_);
      while (!stop_ && jobs_.empty() &&
             pending_tasks_.load(std::memory_order_acquire) == 0) {
        cv_.Wait(mu_);
      }
      if (pending_tasks_.load(std::memory_order_acquire) > 0) {
        continue;  // re-scan the task deques outside mu_
      }
      if (jobs_.empty()) return;  // stop_ set and nothing left to help with
      job = jobs_.front();
      if (job->next.load(std::memory_order_relaxed) >= job->count) {
        // Exhausted batch still parked at the front; retire it.
        jobs_.pop_front();
        Metrics().queue_depth->Set(static_cast<int64_t>(jobs_.size()));
        continue;
      }
    }
    Metrics().busy_workers->Add(1);
    ExecuteFrom(*job);
    Metrics().busy_workers->Add(-1);
  }
}

void ThreadPool::Run(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || workers_.empty()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    Metrics().tasks->Add(n);
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->count = n;
  {
    MutexLock lock(mu_);
    jobs_.push_back(job);
    Metrics().queue_depth->Set(static_cast<int64_t>(jobs_.size()));
  }
  Metrics().jobs->Increment();
  cv_.NotifyAll();

  // Participate, then wait for workers still inside their last index.
  ExecuteFrom(*job);
  {
    MutexLock lock(job->m);
    while (job->done.load(std::memory_order_acquire) != job->count) {
      job->done_cv.Wait(job->m);
    }
  }
  // Retire the batch if a worker has not already done so.
  MutexLock lock(mu_);
  auto it = std::find(jobs_.begin(), jobs_.end(), job);
  if (it != jobs_.end()) jobs_.erase(it);
  Metrics().queue_depth->Set(static_cast<int64_t>(jobs_.size()));
}

void ThreadPool::Submit(Task task) {
  if (workers_.empty()) {
    Metrics().submitted->Increment();
    task();
    return;
  }
  TaskItem item{std::move(task), std::chrono::steady_clock::now()};
  // Increment before the push: a worker that pops the task decrements
  // after observing the push (same deque lock), so the counter can
  // never underflow.
  pending_tasks_.fetch_add(1, std::memory_order_release);
  const size_t target =
      submit_cursor_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    MutexLock lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(item));
  }
  Metrics().submitted->Increment();
  {
    // Empty critical section: pairs with the worker's predicate check
    // under mu_ so a worker cannot park between our push and notify.
    MutexLock lock(mu_);
  }
  cv_.NotifyOne();
}

ThreadPool& ThreadPool::Shared() {
  // At least two workers, even on a 1-CPU host: an in-process cluster's
  // coordinator session parks one worker on its blocking shard fan-out,
  // and the reactor shards it waits on need another for their folds.
  static ThreadPool pool(
      std::max(kMinSharedWorkers, std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace ppstats
