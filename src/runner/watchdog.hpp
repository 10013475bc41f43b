// Watchdog: one monitor thread enforcing many wall-clock deadlines.
//
// The sweep arms one timer per in-flight scenario (`--scenario-timeout`)
// and one for the whole sweep (`--deadline`). When a timer expires before
// being disarmed, the watchdog fires its callback exactly once from the
// monitor thread -- the sweep's callbacks cancel the scenario's or the
// sweep's CancelToken, and the simulator's cooperative checkpoint turns
// that into a CancelledError at the next event boundary.
// The watchdog never kills anything itself; it only rings the bell.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

namespace hpas::runner {

class Watchdog {
 public:
  Watchdog();
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Arms a one-shot timer: `on_expire` runs on the monitor thread if
  /// `timeout_s` elapses before disarm(). Returns a handle for disarm().
  std::uint64_t arm(double timeout_s, std::function<void()> on_expire);

  /// Cancels a pending timer. Safe to call with a handle that already
  /// fired or was already disarmed (no-op). Does not wait for a callback
  /// that is currently executing.
  void disarm(std::uint64_t id);

 private:
  struct Entry {
    std::chrono::steady_clock::time_point deadline;
    std::function<void()> on_expire;
  };

  void monitor_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Entry> armed_;
  std::uint64_t next_id_ = 1;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace hpas::runner
