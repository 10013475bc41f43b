#include "metrics/host_samplers.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace hpas::metrics {
namespace {

double find_sample(const std::vector<Sample>& set, const std::string& metric) {
  for (const Sample& s : set)
    if (s.id.metric == metric) return s.value;
  throw ConfigError("cpu_utilization_between: missing metric " + metric);
}

}  // namespace

ProcStatSampler::ProcStatSampler(std::string path) : path_(std::move(path)) {}

const std::vector<Sample>& ProcStatSampler::sample() {
  std::ifstream in(path_);
  if (!in) throw SystemError("cannot open " + path_);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag != "cpu") continue;  // aggregate line only
    double user = 0, nice = 0, sys = 0, idle = 0, iowait = 0;
    ls >> user >> nice >> sys >> idle >> iowait;
    samples_ = {
        {{"user", name()}, user},  {{"nice", name()}, nice},
        {{"sys", name()}, sys},    {{"idle", name()}, idle},
        {{"iowait", name()}, iowait},
    };
    return samples_;
  }
  throw SystemError("no aggregate cpu line in " + path_);
}

double cpu_utilization_between(const std::vector<Sample>& before,
                               const std::vector<Sample>& after) {
  const double busy_before = find_sample(before, "user") +
                             find_sample(before, "nice") +
                             find_sample(before, "sys");
  const double busy_after = find_sample(after, "user") +
                            find_sample(after, "nice") +
                            find_sample(after, "sys");
  double total_before = busy_before + find_sample(before, "idle") +
                        find_sample(before, "iowait");
  double total_after = busy_after + find_sample(after, "idle") +
                       find_sample(after, "iowait");
  const double total = total_after - total_before;
  if (total <= 0.0) return 0.0;
  return (busy_after - busy_before) / total;
}

}  // namespace hpas::metrics
