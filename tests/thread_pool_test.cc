#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace ppstats {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.Run(hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, ZeroCountIsANoOp) {
  ThreadPool pool(2);
  pool.Run(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<size_t> sum{0};
  pool.Run(100, [&sum](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPoolTest, NestedRunDoesNotDeadlock) {
  // The caller participates in draining its own job, so a task that
  // itself calls Run() must complete even when every worker is busy.
  ThreadPool pool(2);
  std::atomic<size_t> inner_total{0};
  pool.Run(4, [&pool, &inner_total](size_t) {
    pool.Run(8, [&inner_total](size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 32u);
}

TEST(ThreadPoolTest, SequentialJobsReuseWorkers) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> count{0};
    pool.Run(17, [&count](size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 17u);
  }
}

TEST(ThreadPoolTest, SharedPoolIsASingleton) {
  EXPECT_EQ(&ThreadPool::Shared(), &ThreadPool::Shared());
  EXPECT_GE(ThreadPool::Shared().thread_count(),
            ThreadPool::kMinSharedWorkers);
}

TEST(ThreadPoolTest, SubmittedTasksAllExecute) {
  ThreadPool pool(3);
  std::atomic<int> executed{0};
  constexpr int kTasks = 500;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&executed] { executed.fetch_add(1); });
  }
  // The destructor drains pending tasks; nothing may be lost.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (executed.load() < kTasks &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(executed.load(), kTasks);
}

TEST(ThreadPoolTest, IdleWorkersStealQueuedTasks) {
  // Round-robin placement puts consecutive submissions on different
  // deques, but even if every task landed on one worker's deque, the
  // others must steal: with 4 workers and one long blocker, the
  // remaining tasks still finish promptly.
  ThreadPool pool(4);
  Mutex gate_mu;
  bool gate_open = false;
  CondVar gate_cv;
  pool.Submit([&] {
    MutexLock lock(gate_mu);
    while (!gate_open) gate_cv.Wait(gate_mu);
  });
  std::atomic<int> done{0};
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < kTasks &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(done.load(), kTasks);  // finished while the blocker still held
  {
    MutexLock lock(gate_mu);
    gate_open = true;
  }
  gate_cv.NotifyAll();
}

TEST(ThreadPoolTest, DestructorDrainsPendingSubmissions) {
  std::atomic<int> ran{0};
  constexpr int kTasks = 200;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // ~ThreadPool joins after draining
  EXPECT_EQ(ran.load(), kTasks);
}

}  // namespace
}  // namespace ppstats
