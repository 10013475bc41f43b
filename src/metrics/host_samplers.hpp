// Samplers that read the real host's /proc, mirroring LDMS's procstat,
// meminfo and vmstat plugins. These power the native spot-checks (e.g.
// verifying that the real cpuoccupy generator consumes the requested CPU
// percentage, paper Fig. 2) and make the monitoring layer usable outside
// the simulator.
#pragma once

#include <string>

#include "metrics/sampler.hpp"

namespace hpas::metrics {

/// Reads the aggregate "cpu" line of /proc/stat. Metrics: user, nice, sys,
/// idle, iowait (cumulative jiffies), named exactly as the paper references
/// them (e.g. "user::procstat").
class ProcStatSampler final : public Sampler {
 public:
  /// `path` overridable for testing with a synthetic file.
  explicit ProcStatSampler(std::string path = "/proc/stat");

  std::string name() const override { return "procstat"; }
  const std::vector<Sample>& sample() override;

 private:
  std::string path_;
  std::vector<Sample> samples_;
};

/// Reads /proc/meminfo. Metrics: MemTotal, Memfree, Cached, Active (kB).
/// Note "Memfree" (not "MemFree") -- the paper's WBAS case study references
/// the metric as "Memfree::meminfo", so we keep that spelling.
class MemInfoSampler final : public Sampler {
 public:
  explicit MemInfoSampler(std::string path = "/proc/meminfo");

  std::string name() const override { return "meminfo"; }
  const std::vector<Sample>& sample() override;

 private:
  std::string path_;
  std::vector<Sample> samples_;
};

/// Reads /proc/vmstat. Metrics: pgfault, pgmajfault, pgpgin, pgpgout
/// (cumulative).
class VmStatSampler final : public Sampler {
 public:
  explicit VmStatSampler(std::string path = "/proc/vmstat");

  std::string name() const override { return "vmstat"; }
  const std::vector<Sample>& sample() override;

 private:
  std::string path_;
  std::vector<Sample> samples_;
};

/// Utility: total CPU utilization fraction [0,1] between two procstat
/// sample sets (user+nice+sys over total), as used in Fig. 2.
double cpu_utilization_between(const std::vector<Sample>& before,
                               const std::vector<Sample>& after);

}  // namespace hpas::metrics
