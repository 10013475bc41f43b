#include "sim/samplers.hpp"

#include <cassert>
#include <initializer_list>
#include <memory>

#include "sim/world.hpp"

namespace hpas::sim {
namespace {

using metrics::Sample;
using metrics::Sampler;

// /proc/stat counts jiffies; LDMS reports the raw counters. We use
// centiseconds (USER_HZ = 100) to stay unit-faithful.
constexpr double kJiffiesPerSecond = 100.0;

// Base of the node samplers. The metric ids are built once, here, so a
// poll only writes values into the owned buffer: no string is built and
// nothing is allocated per sample.
class SimSampler : public Sampler {
 public:
  SimSampler(World& world, int node, std::string name,
             std::initializer_list<const char*> metrics)
      : world_(world), node_(node), name_(std::move(name)) {
    for (const char* metric : metrics)
      samples_.push_back({{metric, name_}, 0.0});
  }
  std::string name() const final { return name_; }

 protected:
  const Node& node() const { return world_.node(node_); }
  double now() const { return world_.now(); }

  /// Writes one value per metric, in constructor order.
  const std::vector<Sample>& fill(std::initializer_list<double> values) {
    assert(values.size() == samples_.size());
    Sample* out = samples_.data();
    for (const double v : values) (out++)->value = v;
    return samples_;
  }

 private:
  World& world_;
  int node_;
  std::string name_;
  std::vector<Sample> samples_;
};

class SimProcStat final : public SimSampler {
 public:
  SimProcStat(World& world, int node)
      : SimSampler(world, node, "procstat", {"user", "sys", "idle"}) {}
  const std::vector<Sample>& sample() override {
    const Node& n = node();
    const double cores = n.config().cores;
    const double user = n.counters().cpu_user_seconds * kJiffiesPerSecond;
    const double sys = n.counters().cpu_sys_seconds * kJiffiesPerSecond;
    const double total = now() * cores * kJiffiesPerSecond;
    return fill({user, sys, std::max(0.0, total - user - sys)});
  }
};

class SimMemInfo final : public SimSampler {
 public:
  SimMemInfo(World& world, int node)
      : SimSampler(world, node, "meminfo", {"MemTotal", "Memfree"}) {}
  const std::vector<Sample>& sample() override {
    const Node& n = node();
    // /proc/meminfo reports kB.
    return fill({n.config().memory_bytes / 1024.0, n.memory_free() / 1024.0});
  }
};

class SimVmStat final : public SimSampler {
 public:
  SimVmStat(World& world, int node)
      : SimSampler(world, node, "vmstat", {"pgfault"}) {}
  const std::vector<Sample>& sample() override {
    return fill({node().counters().pages_faulted});
  }
};

class SimSpapi final : public SimSampler {
 public:
  SimSpapi(World& world, int node)
      : SimSampler(world, node, "spapiHASW",
                   {"INST_RETIRED:ANY", "L1D:REPLACEMENT", "L2_RQSTS:MISS",
                    "LLC_MISSES", "DRAM_BYTES"}) {}
  const std::vector<Sample>& sample() override {
    const NodeCounters& c = node().counters();
    return fill({c.instructions, c.l1_misses, c.l2_misses, c.l3_misses,
                 c.dram_bytes});
  }
};

class SimAriesNic final : public SimSampler {
 public:
  SimAriesNic(World& world, int node)
      : SimSampler(world, node, "aries_nic_mmr",
                   {"AR_NIC_NETMON_ORB_EVENT_CNTR_REQ_FLITS",
                    "AR_NIC_NETMON_ORB_EVENT_CNTR_RSP_FLITS"}) {}
  const std::vector<Sample>& sample() override {
    const NodeCounters& c = node().counters();
    // Aries flits carry 32 bytes of payload; the ORB request counter
    // tracks outbound traffic.
    return fill({c.nic_tx_bytes / 32.0, c.nic_rx_bytes / 32.0});
  }
};

}  // namespace

void attach_node_samplers(metrics::Collector& collector, World& world,
                          int node_id) {
  collector.add_sampler(std::make_shared<SimProcStat>(world, node_id));
  collector.add_sampler(std::make_shared<SimMemInfo>(world, node_id));
  collector.add_sampler(std::make_shared<SimVmStat>(world, node_id));
  collector.add_sampler(std::make_shared<SimSpapi>(world, node_id));
  collector.add_sampler(std::make_shared<SimAriesNic>(world, node_id));
}

}  // namespace hpas::sim
