#include "runner/watchdog.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace hpas::runner {

Watchdog::Watchdog() : thread_([this] { monitor_loop(); }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

std::uint64_t Watchdog::arm(double timeout_s, std::function<void()> on_expire) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
    armed_.emplace(id, Entry{deadline, std::move(on_expire)});
  }
  cv_.notify_all();
  return id;
}

void Watchdog::disarm(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.erase(id);
}

void Watchdog::monitor_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    const auto now = std::chrono::steady_clock::now();
    // Collect expired callbacks, then run them unlocked so a callback may
    // arm/disarm without deadlocking.
    std::vector<std::function<void()>> due;
    auto nearest = now + std::chrono::hours(24);
    for (auto it = armed_.begin(); it != armed_.end();) {
      if (it->second.deadline <= now) {
        due.push_back(std::move(it->second.on_expire));
        it = armed_.erase(it);
      } else {
        nearest = std::min(nearest, it->second.deadline);
        ++it;
      }
    }
    if (!due.empty()) {
      lock.unlock();
      for (auto& fn : due) fn();
      lock.lock();
      continue;  // state changed while unlocked; recompute
    }
    cv_.wait_until(lock, nearest);
  }
}

}  // namespace hpas::runner
