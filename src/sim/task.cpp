#include "sim/task.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "sim/world.hpp"
#include "trace/tracer.hpp"

namespace hpas::sim {

Task::Task(std::string name, int node, int core, TaskProfile profile,
           NextPhaseFn next_phase)
    : name_(std::move(name)),
      node_(node),
      core_(core),
      profile_(profile),
      next_phase_(std::move(next_phase)) {
  require(next_phase_ != nullptr, "Task: controller must not be null");
  require(profile_.cpu_demand > 0.0 && profile_.cpu_demand <= 1.0,
          "Task: cpu_demand must be in (0,1]");
}

void Task::set_phase(const Phase& phase) {
  // Mark dirty the domains whose solver inputs this transition changes.
  // When none do, the installed rates are still the solvers' answer and
  // stay.
  const bool keep_rates =
      world_ != nullptr && world_->on_task_phase_change(*this, phase);
  phase_ = phase;
  remaining_ = phase.work;
  latency_left_ =
      (phase.kind == PhaseKind::kMessage) ? profile_.msg_latency_s : 0.0;
  if (!keep_rates) rates_ = TaskRates{};
  if (world_ != nullptr) world_->on_task_phase_installed(*this);
  if (tracer_) {
    // a: peer node for messages, io kind for I/O, 0 otherwise.
    std::uint64_t a = 0;
    if (phase.kind == PhaseKind::kMessage) {
      a = static_cast<std::uint64_t>(static_cast<std::int64_t>(phase.peer_node));
    } else if (phase.kind == PhaseKind::kIo) {
      a = static_cast<std::uint64_t>(phase.io_kind);
    }
    tracer_->emit(trace::RecordKind::kPhaseTransition, trace_id_,
                  static_cast<std::uint16_t>(phase.kind), a, phase.work);
  }
}

double Task::completion_tolerance() const {
  // Work units span instructions (1e9) to seconds (1e0); an absolute
  // epsilon cannot cover both, and a too-small epsilon leaves a residue
  // whose eta underflows the simulator clock's double resolution. Use a
  // tolerance relative to the phase's total work.
  return std::max(1e-9, 1e-9 * phase_.work);
}

double Task::eta() const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (phase_.kind == PhaseKind::kDone || phase_.kind == PhaseKind::kIdle)
    return kInf;
  if (remaining_ <= completion_tolerance()) return latency_left_;
  if (rates_.progress <= 0.0) return kInf;
  return latency_left_ + remaining_ / rates_.progress;
}

}  // namespace hpas::sim
