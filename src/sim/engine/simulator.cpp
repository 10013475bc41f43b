#include "sim/engine/simulator.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "trace/tracer.hpp"

namespace hpas::sim {
namespace {

// Compaction is deliberately lazy: the golden traces pin down runs whose
// tombstone population never comes close to this, so they execute on the
// exact same queue the pre-slot-map engine had.
constexpr std::size_t kCompactionFloor = 1024;

}  // namespace

std::size_t Simulator::compaction_floor() { return kCompactionFloor; }

std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.push_back(Slot{});
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.state = SlotState::kFree;
  ++s.gen;  // invalidate outstanding handles before the slot is reused
  free_slots_.push_back(slot);
}

EventHandle Simulator::schedule_at(double t, EventFn fn) {
  require(t >= now_, "Simulator: cannot schedule in the past");
  require(fn != nullptr, "Simulator: event function must not be null");
  const std::uint64_t id = next_id_++;
  const std::uint32_t slot = acquire_slot();
  slots_[slot].state = SlotState::kPending;
  heap_.push_back(Event{t, next_seq_++, id, slot, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  if (tracer_)
    tracer_->emit(trace::RecordKind::kEventScheduled, 0, 0, id, t);
  return EventHandle(id, slot, slots_[slot].gen);
}

EventHandle Simulator::schedule_in(double dt, EventFn fn) {
  require(dt >= 0.0, "Simulator: negative delay");
  return schedule_at(now_ + dt, std::move(fn));
}

void Simulator::cancel(EventHandle handle) {
  if (!handle.valid()) return;
  // The trace records every cancel request against a once-valid handle,
  // including requests that arrive after the event fired (the World
  // cancels its pending-completion handle unconditionally).
  if (tracer_)
    tracer_->emit(trace::RecordKind::kEventCancelled, 0, 0, handle.id_);
  if (handle.slot_ >= slots_.size()) return;
  Slot& s = slots_[handle.slot_];
  if (s.gen != handle.gen_ || s.state != SlotState::kPending) return;
  s.state = SlotState::kCancelled;
  --live_;
  ++tombstones_;
  maybe_compact();
}

void Simulator::maybe_compact() {
  if (tombstones_ <= kCompactionFloor || tombstones_ <= live_) return;
  std::size_t kept = 0;
  for (Event& ev : heap_) {
    if (slots_[ev.slot].state == SlotState::kCancelled) {
      release_slot(ev.slot);
      continue;
    }
    heap_[kept++] = std::move(ev);
  }
  heap_.resize(kept);
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  tombstones_ = 0;
}

Simulator::Event Simulator::take_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
}

bool Simulator::step() {
  if (cancel_ != nullptr && cancel_->cancelled())
    throw CancelledError(cancel_->reason());
  while (!heap_.empty()) {
    Event ev = take_top();
    if (slots_[ev.slot].state == SlotState::kCancelled) {
      release_slot(ev.slot);
      --tombstones_;
      continue;
    }
    // Release before firing: the callback may schedule new events, and
    // the bumped generation keeps stale handles from touching them.
    release_slot(ev.slot);
    --live_;
    ++epochs_;
    now_ = ev.time;
    if (tracer_) {
      tracer_->set_time(now_);
      tracer_->emit(trace::RecordKind::kEventFired, 0, 0, ev.id);
    }
    ev.fn();
    return true;
  }
  return false;
}

void Simulator::run_until(double t) {
  require(t >= now_, "Simulator: run_until into the past");
  // The front-of-heap check intentionally sees tombstones too -- this is
  // the pre-optimization engine's boundary behaviour, which the golden
  // traces depend on.
  while (!heap_.empty() && heap_.front().time <= t) {
    if (!step()) break;
  }
  now_ = t;
  if (tracer_) tracer_->set_time(t);
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace hpas::sim
