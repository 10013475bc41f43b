// Cooperative cancellation token, header-only.
//
// A CancelToken is a thread-safe flag plus the *reason* it was raised
// (watchdog timeout, sweep deadline, operator shutdown). Long-running
// loops -- the DES engine's event loop above all -- poll cancelled() and
// throw CancelledError when it fires, unwinding to whoever owns the
// operation (run_scenario, the hpas-sim driver) which records the reason
// and finalizes partial outputs. Cancellation is one-way and sticky: the
// first reason wins, later cancels are no-ops.
//
// A token may have a parent (a sweep's token under the operator's abort
// token, a scenario's token under the sweep's): it reads as cancelled
// once it or any ancestor is, so one cancel() reaches every descendant
// without anyone keeping a list of them.
#pragma once

#include <atomic>
#include <stdexcept>
#include <string>

namespace hpas {

enum class CancelReason : int {
  kNone = 0,
  kTimeout = 1,   ///< per-scenario watchdog deadline
  kDeadline = 2,  ///< whole-sweep wall-clock deadline
  kShutdown = 3,  ///< operator SIGINT/SIGTERM
};

inline const char* cancel_reason_name(CancelReason reason) {
  switch (reason) {
    case CancelReason::kNone: return "none";
    case CancelReason::kTimeout: return "timeout";
    case CancelReason::kDeadline: return "deadline";
    case CancelReason::kShutdown: return "shutdown";
  }
  return "unknown";
}

class CancelToken {
 public:
  /// `parent` may be null and must outlive the token.
  explicit CancelToken(const CancelToken* parent = nullptr) noexcept
      : parent_(parent) {}

  /// Raises the token. The first call's reason sticks; subsequent calls
  /// are no-ops. Safe from any thread (and, being a pair of atomic
  /// stores, from signal-handler *watcher* threads -- though not from
  /// signal handlers themselves, which should write to a self-pipe and
  /// let a thread do this).
  void cancel(CancelReason reason = CancelReason::kShutdown) noexcept {
    int expected = 0;
    reason_.compare_exchange_strong(expected, static_cast<int>(reason),
                                    std::memory_order_relaxed,
                                    std::memory_order_relaxed);
    cancelled_.store(true, std::memory_order_release);
  }

  /// This token's own flag or the parent's. Cancelling a token never
  /// touches its parent.
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire) ||
           (parent_ != nullptr && parent_->cancelled());
  }

  /// The reason of this token's first cancel() if there was one, else
  /// the parent's; kNone while not cancelled.
  CancelReason reason() const noexcept {
    const auto own =
        static_cast<CancelReason>(reason_.load(std::memory_order_relaxed));
    if (own != CancelReason::kNone || parent_ == nullptr) return own;
    return parent_->reason();
  }

 private:
  const CancelToken* parent_;
  std::atomic<bool> cancelled_{false};
  std::atomic<int> reason_{0};
};

/// Thrown by cancellation checkpoints (Simulator::step and friends) when
/// their token fires. Callers that own the cancelled operation catch it
/// and translate into a status; it is not an error in the ordinary sense.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(CancelReason reason)
      : std::runtime_error(std::string("cancelled (") +
                           cancel_reason_name(reason) + ")"),
        reason_(reason) {}

  CancelReason reason() const noexcept { return reason_; }

 private:
  CancelReason reason_;
};

}  // namespace hpas
