// Discrete-event simulation engine.
//
// HPAS's evaluation substrate is a *fluid* DES: resource models assign
// continuous rates to tasks, and events fire when a task's current phase
// completes, when an anomaly starts/stops, or when the monitoring layer
// samples. The engine below is a classic time-ordered event queue with
// deterministic FIFO tie-breaking (same timestamp => insertion order), so
// every simulation is bit-reproducible.
//
// Internals are built for the sweep hot path:
//   * events live in a binary heap over a plain vector, and callbacks are
//     EventFn (48-byte small-buffer closures), so the common schedule /
//     fire cycle performs no heap allocation and no callable copies;
//   * cancellation is O(1) through a generation-checked slot map (the old
//     engine kept a cancelled-id blacklist scanned linearly on every
//     pop); cancelled events stay queued as tombstones and are skipped
//     when popped, exactly like before;
//   * tombstones are compacted out of the heap only when they outnumber
//     live events past a high threshold, so short runs -- everything the
//     golden traces pin down -- never observe a compaction.
//
// The event loop is strictly serial: the (time, seq) total order is the
// simulation's definition of causality, and a scenario runs on the thread
// that owns it. Parallelism lives one level up, across independent
// scenarios (sweep, search, dataset and serve all fan out over them).
#pragma once

#include <cstdint>
#include <vector>

#include "common/cancel.hpp"
#include "sim/engine/event_fn.hpp"

namespace hpas::trace {
class Tracer;
}

namespace hpas::sim {

/// Handle used to cancel a scheduled event. Cancellation is lazy: the
/// event stays queued but is skipped when popped. The (slot, generation)
/// pair makes cancel O(1) and immune to slot reuse: a handle to an event
/// that already fired simply misses its generation.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return id_ != 0; }

 private:
  friend class Simulator;
  EventHandle(std::uint64_t id, std::uint32_t slot, std::uint32_t gen)
      : id_(id), slot_(slot), gen_(gen) {}
  std::uint64_t id_ = 0;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulator {
 public:
  double now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (must be >= now()).
  EventHandle schedule_at(double t, EventFn fn);

  /// Schedules `fn` after `dt` seconds (must be >= 0).
  EventHandle schedule_in(double dt, EventFn fn);

  /// Cancels a pending event; cancelling an already-fired or invalid
  /// handle is a no-op.
  void cancel(EventHandle handle);

  /// Runs the next pending event; returns false when the queue is empty.
  /// Throws CancelledError when an attached cancellation token fired --
  /// this is the engine's cancellation checkpoint: a runaway scenario is
  /// interrupted *between* events, never inside one, so the world it
  /// leaves behind is consistent (partial traces and metric stores stay
  /// readable).
  bool step();

  /// Runs events with time <= t, then advances the clock to exactly t.
  void run_until(double t);

  /// Runs until the queue drains.
  void run();

  /// Number of *live* pending events. Cancelled tombstones still queued
  /// are not counted (they are bookkeeping, not work).
  std::size_t pending_events() const { return live_; }

  /// Cancelled events still physically in the queue; exposed so stress
  /// tests can assert compaction keeps this bounded.
  std::size_t queued_tombstones() const { return tombstones_; }

  /// Tombstone population threshold under which the heap is never
  /// compacted; stress tests bound queued_tombstones() against this
  /// (per engine instance -- every concurrently running scenario owns its
  /// own Simulator and its own floor).
  static std::size_t compaction_floor();

  /// Number of events fired so far.
  std::uint64_t epochs() const { return epochs_; }

  /// Attaches a structured tracer (nullptr detaches). Every schedule /
  /// fire / cancel then emits a record; the engine also keeps the
  /// tracer's clock mirror current so other emitters stamp correctly.
  /// Null (the default) costs nothing on the hot path.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  trace::Tracer* tracer() const { return tracer_; }

  /// Attaches a cooperative cancellation token (nullptr detaches, the
  /// default). The token is polled once per event in step(); when another
  /// thread (watchdog, shutdown controller) cancels it, the next step()
  /// throws CancelledError carrying the token's reason. Null costs one
  /// predicted branch on the hot path.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }
  const CancelToken* cancel_token() const { return cancel_; }

 private:
  struct Event {
    double time;
    std::uint64_t seq;  ///< tie-break: FIFO among equal timestamps
    std::uint64_t id;
    std::uint32_t slot;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  enum class SlotState : std::uint8_t { kFree, kPending, kCancelled };
  struct Slot {
    std::uint32_t gen = 0;
    SlotState state = SlotState::kFree;
  };

  /// Pops the earliest event out of the heap (moves the callable).
  Event take_top();
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Rebuilds the heap without its tombstones once they dominate; (time,
  /// seq) is a strict total order, so the surviving fire order is
  /// unchanged.
  void maybe_compact();

  double now_ = 0.0;
  trace::Tracer* tracer_ = nullptr;
  const CancelToken* cancel_ = nullptr;
  std::uint64_t epochs_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_id_ = 1;
  std::vector<Event> heap_;  ///< binary heap ordered by Later
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace hpas::sim
