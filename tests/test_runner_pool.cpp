// Tests for the work-stealing thread pool (runner/thread_pool.hpp):
// execution completeness, bounded-queue backpressure, cancellation on
// first failure, and deterministic error reporting in parallel_for.
#include "runner/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

namespace hpas::runner {
namespace {

TEST(WorkStealingPool, ExecutesEverySubmittedTask) {
  WorkStealingPool pool({.threads = 4, .queue_capacity = 16});
  std::atomic<int> count{0};
  for (int i = 0; i < 500; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 500);
}

TEST(WorkStealingPool, SingleThreadPoolStillDrains) {
  WorkStealingPool pool({.threads = 1, .queue_capacity = 4});
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 64);
}

TEST(WorkStealingPool, ZeroThreadsMeansHardwareConcurrency) {
  WorkStealingPool pool({.threads = 0, .queue_capacity = 8});
  EXPECT_EQ(pool.thread_count(), WorkStealingPool::default_thread_count());
  EXPECT_GE(pool.thread_count(), 1);
}

TEST(WorkStealingPool, SubmitBlocksWhenQueueIsFull) {
  WorkStealingPool pool({.threads = 1, .queue_capacity = 2});
  std::promise<void> gate;
  std::shared_future<void> open(gate.get_future());

  // One task occupies the worker; two more fill the bounded queue.
  for (int i = 0; i < 3; ++i)
    pool.submit([open] { open.wait(); });

  std::atomic<bool> fourth_submitted{false};
  std::thread submitter([&] {
    pool.submit([] {});
    fourth_submitted.store(true);
  });
  // Backpressure: the submitter must be blocked while the queue is full.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(fourth_submitted.load());

  gate.set_value();
  submitter.join();
  EXPECT_TRUE(fourth_submitted.load());
  pool.wait_idle();
}

TEST(WorkStealingPool, CancelDropsQueuedTasksAndUnblocksWaiters) {
  WorkStealingPool pool({.threads = 1, .queue_capacity = 64});
  std::promise<void> gate;
  std::shared_future<void> open(gate.get_future());
  std::atomic<int> ran{0};

  std::atomic<bool> started{false};
  pool.submit([open, &ran, &started] {
    started.store(true);
    open.wait();
    ran.fetch_add(1);
  });
  // Wait until the single worker is pinned inside the gated task before
  // queueing fillers (own-queue pop is LIFO: submitted earlier does not
  // mean started earlier).
  while (!started.load()) std::this_thread::yield();
  for (int i = 0; i < 10; ++i)
    pool.submit([&ran] { ran.fetch_add(1); });

  pool.request_cancel();
  gate.set_value();  // the running task finishes normally
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);  // queued tasks were dropped
  EXPECT_TRUE(pool.cancelled());

  // Submissions after cancellation are no-ops, not deadlocks.
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ParallelFor, ComputesEveryIndexExactlyOnce) {
  WorkStealingPool pool({.threads = 4, .queue_capacity = 8});
  std::vector<std::atomic<int>> hits(100);
  parallel_for(pool, hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, RethrowsLowestIndexedFailure) {
  WorkStealingPool pool({.threads = 4, .queue_capacity = 8});
  try {
    parallel_for(pool, 50, [](std::size_t i) {
      if (i == 7 || i == 31)
        throw std::runtime_error("boom at " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // Index 7 and 31 may both fire, but the report is the lowest index.
    EXPECT_STREQ(e.what(), "boom at 7");
  }
  EXPECT_TRUE(pool.cancelled());
}

TEST(ParallelFor, SingleWorkerRunsIndicesInOrder) {
  WorkStealingPool pool({.threads = 1, .queue_capacity = 4});
  std::vector<std::size_t> order;
  parallel_for(pool, 64, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(order[i], i) << "position " << i;
}

TEST(ParallelFor, FailureCancelsRemainingWork) {
  constexpr int kThreads = 2;
  WorkStealingPool pool({.threads = kThreads, .queue_capacity = 4});
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(pool, 1000,
                            [&](std::size_t i) {
                              ran.fetch_add(1);
                              if (i == 0) throw std::runtime_error("stop");
                              // Hold every other index until index 0's
                              // failure is recorded (it cancels the pool).
                              while (!pool.cancelled())
                                std::this_thread::yield();
                            }),
               std::runtime_error);
  // Each worker holds at most one index when the failure lands, and no
  // index is claimed after it.
  EXPECT_LE(ran.load(), kThreads);
}

TEST(ParallelFor, ZeroIterationsIsANoOp) {
  WorkStealingPool pool({.threads = 2, .queue_capacity = 4});
  parallel_for(pool, 0, [](std::size_t) { FAIL(); });
}

}  // namespace
}  // namespace hpas::runner
