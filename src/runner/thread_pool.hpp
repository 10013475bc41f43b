// Work-stealing thread pool for the experiment runner.
//
// Scheduling discipline: each worker owns a deque; it pops its own work
// LIFO and steals FIFO from siblings when empty (the classic work-stealing
// split between cache-hot local work and cold stolen work). Experiment
// tasks are whole simulations -- milliseconds to seconds each -- so the
// queues are guarded by one mutex rather than lock-free Chase-Lev deques;
// contention on the lock is unmeasurable at this granularity and the
// simple design is easy to prove correct under TSan.
//
// Determinism contract: the pool makes NO ordering guarantees for
// submit() (parallel_for adds one: indices start in plan order). Callers
// (see runner.cpp) must make each task a pure function of its inputs and
// write results into a pre-assigned slot, so the observable output is
// independent of interleaving and thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hpas::runner {

struct PoolOptions {
  int threads = 0;  ///< 0 = std::thread::hardware_concurrency()
  /// Maximum queued-but-not-started tasks; submit() blocks above this
  /// (bounded-queue backpressure so a huge grid never materializes fully).
  std::size_t queue_capacity = 256;
};

class WorkStealingPool {
 public:
  explicit WorkStealingPool(PoolOptions opts = {});
  ~WorkStealingPool();  ///< cancels pending work and joins the workers

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Blocks while `queue_capacity` tasks are already
  /// queued (backpressure). After request_cancel() the task is dropped.
  void submit(std::function<void()> fn);

  /// Blocks until every submitted task has finished (or been dropped by a
  /// cancellation).
  void wait_idle();

  /// Drops all queued tasks and makes future submits no-ops. Running
  /// tasks are not interrupted (they hold simulators mid-step); they
  /// finish normally. Used to stop a sweep at the first failure.
  /// Cancellation is sticky for the pool's lifetime: construct a fresh
  /// pool per sweep.
  void request_cancel();
  bool cancelled() const;

  static int default_thread_count();

 private:
  void worker_loop(std::size_t self);
  bool try_pop(std::size_t self, std::function<void()>& out);

  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable space_ready_;
  std::condition_variable idle_;
  std::vector<std::deque<std::function<void()>>> queues_;  // one per worker
  std::size_t next_queue_ = 0;  ///< round-robin submission target
  std::size_t queued_ = 0;      ///< tasks sitting in a deque
  std::size_t in_flight_ = 0;   ///< queued + currently running
  bool cancel_ = false;
  bool stop_ = false;
  std::size_t capacity_;
  std::vector<std::thread> workers_;
};

/// Runs fn(0..n-1) across the pool and blocks until all complete. One
/// looping task per worker claims indices from a shared counter, so
/// indices START in order 0, 1, 2, ... (a 1-thread pool runs them in
/// order; with more workers they may finish out of order). If any call
/// throws, no further index is claimed, the pool is cancelled (running
/// calls finish) and the exception of the *lowest-indexed* failure is
/// rethrown -- deterministic error reporting at any thread count.
void parallel_for(WorkStealingPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace hpas::runner
