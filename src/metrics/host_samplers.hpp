// A sampler that reads the real host's /proc/stat, mirroring LDMS's
// procstat plugin. It powers the native spot-check that the real
// cpuoccupy generator consumes the requested CPU percentage (paper
// Fig. 2).
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

/// Utility: total CPU utilization fraction [0,1] between two procstat
/// sample sets (user+nice+sys over total), as used in Fig. 2.
double cpu_utilization_between(const std::vector<Sample>& before,
                               const std::vector<Sample>& after);

}  // namespace hpas::metrics
