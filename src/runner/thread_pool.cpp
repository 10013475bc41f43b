#include "runner/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace hpas::runner {

int WorkStealingPool::default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

WorkStealingPool::WorkStealingPool(PoolOptions opts)
    : capacity_(opts.queue_capacity) {
  require(opts.threads >= 0, "WorkStealingPool: threads must be >= 0");
  require(opts.queue_capacity >= 1, "WorkStealingPool: capacity must be >= 1");
  const int n = opts.threads == 0 ? default_thread_count() : opts.threads;
  queues_.resize(static_cast<std::size_t>(n));
  workers_.reserve(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

WorkStealingPool::~WorkStealingPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_ready_.notify_all();
  space_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkStealingPool::submit(std::function<void()> fn) {
  std::unique_lock<std::mutex> lock(mu_);
  space_ready_.wait(lock, [this] {
    return queued_ < capacity_ || cancel_ || stop_;
  });
  if (cancel_ || stop_) return;  // dropped; see request_cancel()
  queues_[next_queue_].push_back(std::move(fn));
  next_queue_ = (next_queue_ + 1) % queues_.size();
  ++queued_;
  ++in_flight_;
  lock.unlock();
  work_ready_.notify_one();
}

bool WorkStealingPool::try_pop(std::size_t self,
                               std::function<void()>& out) {
  // Own deque: LIFO (newest first, cache-hot). Steal: FIFO from the
  // oldest end of sibling deques, scanning from the next worker onward.
  if (!queues_[self].empty()) {
    out = std::move(queues_[self].back());
    queues_[self].pop_back();
    return true;
  }
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    std::size_t victim = (self + k) % queues_.size();
    if (!queues_[victim].empty()) {
      out = std::move(queues_[victim].front());
      queues_[victim].pop_front();
      return true;
    }
  }
  return false;
}

void WorkStealingPool::worker_loop(std::size_t self) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    std::function<void()> task;
    work_ready_.wait(lock, [&] { return stop_ || try_pop(self, task); });
    if (task == nullptr) {
      if (stop_) return;
      continue;
    }
    --queued_;
    lock.unlock();
    space_ready_.notify_one();
    task();
    task = nullptr;
    lock.lock();
    --in_flight_;
    if (in_flight_ == 0) idle_.notify_all();
  }
}

void WorkStealingPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void WorkStealingPool::request_cancel() {
  std::size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancel_ = true;
    for (auto& q : queues_) {
      dropped += q.size();
      q.clear();
    }
    queued_ = 0;
    in_flight_ -= dropped;
    if (in_flight_ == 0) idle_.notify_all();
  }
  space_ready_.notify_all();
}

bool WorkStealingPool::cancelled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cancel_;
}

void parallel_for(WorkStealingPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  std::exception_ptr first_error;
  std::size_t first_error_index = std::numeric_limits<std::size_t>::max();

  // One looping task per worker, each claiming the next index: indices
  // start in plan order and a claimed index is never queued behind newer
  // ones. Every index below a failure was claimed before it, so the
  // lowest failing index is always among the ones that ran.
  const auto claim_loop = [&] {
    while (!failed.load(std::memory_order_acquire)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(err_mu);
          if (i < first_error_index) {
            first_error_index = i;
            first_error = std::current_exception();
          }
        }
        failed.store(true, std::memory_order_release);
        pool.request_cancel();
      }
    }
  };
  const std::size_t tasks =
      std::min(n, static_cast<std::size_t>(pool.thread_count()));
  for (std::size_t t = 0; t < tasks; ++t) {
    pool.submit(claim_loop);
    // Submitting after a cancellation is a no-op; stop generating work.
    if (pool.cancelled()) break;
  }
  pool.wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace hpas::runner
