// hpas_e2ebench: end-to-end benchmark of `hpas sweep`, `hpas dataset` and
// `hpas serve`, driven through the library entry points.
//
//   hpas_e2ebench --workload sweep_sim|dataset_stream|serve_mix
//                 --seed N --seconds S --trace 0|1 [--tiny]
//
// Prints human-readable lines (notes, every metric with its unit,
// failed_frac), then as the last line one JSON object:
//   {"correct":B,"attempted":N,"failed":N,"metrics":{name:{value,unit}}}
// Exit 0 when the run completed (correct or not), 2 on bad arguments, 1
// when the workload itself failed.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "apps/profiles.hpp"
#include "bench.hpp"
#include "common/json.hpp"
#include "common/peak_rss.hpp"
#include "common/stats.hpp"
#include "faultline/faultline.hpp"

namespace e2e {

void Report::add(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Report::check(bool ok, const std::string& what) {
  notes.push_back(std::string(ok ? "check ok: " : "CHECK FAILED: ") + what);
  if (!ok) correct = false;
}

void Report::note(const std::string& line) { notes.push_back(line); }

std::vector<std::string> app_names(bool tiny) {
  if (tiny) return {"CoMD", "milc"};
  std::vector<std::string> names;
  for (const auto& app : hpas::apps::proxy_apps()) names.push_back(app.name);
  return names;
}

std::vector<std::string> anomaly_kinds(bool tiny) {
  if (tiny) return {"none", "cpuoccupy", "memleak"};
  return {"none",     "cpuoccupy", "cachecopy", "membw",      "memleak",
          "memeater", "netoccupy", "iobandwidth", "iometadata"};
}

double round3(double x) { return std::round(x * 1000.0) / 1000.0; }

void FaultCounter::start() {
  fsyncs_at_start_ = fsync_count();
  hpas::faultline::arm(hpas::faultline::FaultSchedule{});
}

void FaultCounter::stop() {
  const hpas::faultline::FaultStats s = hpas::faultline::stats();
  calls += s.calls;
  crash_points += s.crash_points;
  fsyncs += fsync_count() - fsyncs_at_start_;
  hpas::faultline::disarm();
}

double Rounds::overhead_frac() const {
  const double base = median_of(untraced_s);
  return base > 0.0 ? median_of(traced_s) / base - 1.0 : 0.0;
}

double Rounds::traced_wall_s() const {
  double s = 0.0;
  for (double x : traced_s) s += x;
  return s;
}

Rounds run_rounds(const Options& opt,
                  const std::function<double(Phase)>& round) {
  Rounds r;
  round(Phase::kWarmup);
  const std::size_t min_each = opt.trace ? 2 : 3;
  double measured = 0.0;
  for (std::size_t i = 0;; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    if (traced) r.faults.start();
    set_tracing(traced);
    const double s = round(traced ? Phase::kTraced : Phase::kUntraced);
    set_tracing(false);
    if (traced) r.faults.stop();
    (traced ? r.traced_s : r.untraced_s).push_back(s);
    measured += s;
    const bool enough = r.untraced_s.size() >= min_each &&
                        (!opt.trace || r.traced_s.size() >= min_each);
    if (enough && measured >= opt.seconds) break;
  }
  return r;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double median_of(const std::vector<double>& xs) { return percentile_of(xs, 50.0); }

double percentile_of(const std::vector<double>& xs, double pct) {
  return xs.empty() ? 0.0 : hpas::percentile(xs, pct);
}

double peak_rss_mb() {
  return static_cast<double>(hpas::peak_rss_bytes()) / (1024.0 * 1024.0);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  if (!out) throw std::runtime_error("cannot write " + path);
}

void fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

void add_latency(Report& r, const std::string& prefix,
                 const std::vector<double>& ms) {
  r.add(prefix + "_ms_p50", percentile_of(ms, 50.0), "ms");
  r.add(prefix + "_ms_p99", percentile_of(ms, 99.0), "ms");
  const bool resolved = ms.size() >= 1000;  // >= 10 samples beyond p99
  r.note(prefix + " latency samples: " + std::to_string(ms.size()) +
         (resolved ? "" : " (p99 has fewer than 10 samples beyond it)"));
}

void add_setup(Report& r, const std::vector<double>& setup_s) {
  // The mean of the middle 80%: a short set-up runs at one of two speeds
  // for seconds at a time on a shared VM (a busy sibling hyperthread),
  // and a median flips between the two while a mean over the run moves
  // with the share of each. Trimming drops one-off stalls.
  std::vector<double> sorted = setup_s;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t cut = sorted.size() / 10;
  double sum = 0.0;
  for (std::size_t i = cut; i < sorted.size() - cut; ++i) sum += sorted[i];
  r.add("setup_s", sum / static_cast<double>(sorted.size() - 2 * cut), "s");
  std::string line = "setup samples (s):";
  for (double s : setup_s) line += " " + std::to_string(s);
  r.note(line);
}

LayerTotals summarize(std::vector<Span> spans) {
  LayerTotals t;
  for (const Span& s : spans) {
    const auto l = static_cast<std::size_t>(s.layer);
    ++t.count[l];
    t.self_s[l] += static_cast<double>(s.self_ns) / 1e9;
    t.sum_count[l] += s.count;
    t.dur_ms[l].push_back(static_cast<double>(s.dur_ns) / 1e6);
  }
  t.spans = std::move(spans);
  return t;
}

namespace {

std::size_t idx(Layer l) { return static_cast<std::size_t>(l); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double sum_of(const std::vector<double>& xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return s;
}

/// Per-item accounting: wall time from the item's first span start to its
/// last span end, the self time of each layer inside it, and the share of
/// the wall those self times cover. Writes the raw spans next to it.
double write_item_table(const LayerTotals& t, const std::string& path) {
  struct Item {
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::int64_t self[kLayerCount] = {};
  };
  std::map<std::uint64_t, Item> items;
  std::int64_t t0 = 0;
  for (const Span& s : t.spans) {
    if (t0 == 0 || s.start_ns < t0) t0 = s.start_ns;
    if (s.item == 0) continue;
    auto [it, fresh] = items.try_emplace(s.item);
    Item& item = it->second;
    if (fresh || s.start_ns < item.begin) item.begin = s.start_ns;
    item.end = std::max(item.end, s.start_ns + s.dur_ns);
    item.self[idx(s.layer)] += s.self_ns;
  }
  std::ofstream out(path, std::ios::trunc);
  out << "item\twall_us";
  for (std::size_t l = 0; l < kLayerCount; ++l)
    out << '\t' << layer_name(static_cast<Layer>(l)) << "_self_us";
  out << "\tcovered\n";
  std::vector<double> covered;
  for (const auto& [id, item] : items) {
    const double wall = static_cast<double>(item.end - item.begin);
    double self = 0.0;
    out << id << '\t' << wall / 1e3;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      self += static_cast<double>(item.self[l]);
      out << '\t' << static_cast<double>(item.self[l]) / 1e3;
    }
    const double share = ratio(self, wall);
    covered.push_back(share);
    out << '\t' << share << '\n';
  }
  std::ofstream raw(path + ".spans", std::ios::trunc);
  raw << "item\tlayer\tstart_us\tdur_us\tself_us\tcount\n";
  for (const Span& s : t.spans)
    raw << s.item << '\t' << layer_name(s.layer) << '\t'
        << static_cast<double>(s.start_ns - t0) / 1e3 << '\t'
        << static_cast<double>(s.dur_ns) / 1e3 << '\t'
        << static_cast<double>(s.self_ns) / 1e3 << '\t' << s.count << '\n';
  return median_of(covered);
}

}  // namespace

void add_layer_metrics(Report& r, const LayerTotals& t,
                       const TraceContext& ctx) {
  const auto n = [&](Layer l) { return static_cast<double>(t.count[idx(l)]); };
  const auto sum = [&](Layer l) {
    return static_cast<double>(t.sum_count[idx(l)]);
  };
  const auto p = [&](Layer l, double pct) {
    return percentile_of(t.dur_ms[idx(l)], pct);
  };

  r.add("sim.scenario_ms", p(Layer::kSim, 50.0), "ms");
  r.add("sim.events", ratio(sum(Layer::kSim), n(Layer::kSim)), "count");
  r.add("sim.events_per_s",
        ratio(sum(Layer::kSim), t.self_s[idx(Layer::kSim)]), "1/s");
  r.add("metrics.csv_encode_ms", p(Layer::kCsv, 50.0), "ms");
  r.add("metrics.csv_bytes", ratio(sum(Layer::kCsv), n(Layer::kCsv)), "B");
  r.add("metrics.samples", ratio(sum(Layer::kSink), n(Layer::kSink)),
        "count");

  const double rows = n(Layer::kShardAppend);
  r.add("dataset.sink_us_per_row",
        ratio(t.self_s[idx(Layer::kSink)] * 1e6, rows), "us");
  r.add("dataset.finalize_us_per_row",
        ratio(t.self_s[idx(Layer::kFinalize)] * 1e6, rows), "us");
  r.add("dataset.append_us_per_row",
        ratio(sum_of(t.dur_ms[idx(Layer::kShardAppend)]) * 1e3, rows), "us");
  r.add("dataset.bytes_per_row", ctx.dataset_bytes_per_row, "B");
  r.add("dataset.finish_s", p(Layer::kFinish, 50.0) / 1e3, "s");

  const auto per_item = [&](double total) {
    return ratio(total, ctx.traced_items);
  };
  r.add("runner.journal_append_us_p50", p(Layer::kJournal, 50.0) * 1e3, "us");
  r.add("runner.journal_append_us_p99", p(Layer::kJournal, 99.0) * 1e3, "us");
  r.add("runner.journal_appends_per_item", per_item(n(Layer::kJournal)),
        "count/item");
  double busy = 0.0;
  for (double s : t.self_s) busy += s;
  r.add("runner.busy_frac",
        ratio(busy, ctx.traced_wall_s * static_cast<double>(ctx.threads)),
        "ratio");

  r.add("faultline.calls_per_item",
        per_item(static_cast<double>(ctx.faults.calls)), "count/item");
  r.add("faultline.crash_points_per_item",
        per_item(static_cast<double>(ctx.faults.crash_points)), "count/item");
  r.add("io.fsyncs_per_item", per_item(static_cast<double>(ctx.faults.fsyncs)),
        "count/item");
  r.note("traced items: " +
         std::to_string(static_cast<std::uint64_t>(ctx.traced_items)));
  r.add("trace.overhead_frac", ctx.overhead_frac, "ratio");
  r.add("trace.item_coverage", write_item_table(t, ctx.spans_path), "ratio");
  r.note("spans: " + std::to_string(t.spans.size()) + " written to " +
         ctx.spans_path + "(.spans)");
}

void add_server_metrics(Report& r, const LayerTotals& t,
                        const ServerLayer& s) {
  r.add("server.ack_ms_p50", percentile_of(s.ack_ms, 50.0), "ms");
  r.add("server.ack_ms_p99", percentile_of(s.ack_ms, 99.0), "ms");
  r.add("server.hit_ms_p50", percentile_of(s.hit_ms, 50.0), "ms");
  r.add("server.hit_ms_p99", percentile_of(s.hit_ms, 99.0), "ms");
  r.add("server.miss_ms_p50", percentile_of(s.miss_ms, 50.0), "ms");
  r.add("server.miss_ms_p99", percentile_of(s.miss_ms, 99.0), "ms");
  r.note("server latency samples: " + std::to_string(s.hit_ms.size()) +
         " hits, " + std::to_string(s.miss_ms.size()) + " misses");
  std::vector<double> result_frames_us;
  for (const Span& span : t.spans)
    if (span.layer == Layer::kFrameWrite && span.count == 1)
      result_frames_us.push_back(static_cast<double>(span.dur_ns) / 1e3);
  r.add("server.frame_codec_us", percentile_of(result_frames_us, 50.0), "us");
  r.add("server.cache_find_us",
        percentile_of(t.dur_ms[idx(Layer::kCacheFind)], 50.0) * 1e3, "us");
  r.add("server.cache_insert_ms",
        percentile_of(t.dur_ms[idx(Layer::kCacheInsert)], 50.0), "ms");
  r.add("server.cache_open_s", percentile_of(s.cache_open_ms, 50.0) / 1e3,
        "s");
  const auto share = [&](std::uint64_t count) {
    return ratio(static_cast<double>(count),
                 static_cast<double>(s.submissions));
  };
  r.add("server.hit_ratio", share(s.cache_hits), "ratio");
  r.add("server.coalesced_frac", share(s.coalesced), "ratio");
  r.add("server.executed_frac", share(s.executed), "ratio");
  r.add("server.busy_rejected_frac", share(s.busy_rejected), "ratio");
}

namespace {

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_report(const Report& r) {
  for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
  for (const Metric& m : r.metrics)
    std::printf("metric %s = %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  const double failed_frac =
      r.attempted > 0 ? static_cast<double>(r.failed) /
                            static_cast<double>(r.attempted)
                      : 0.0;
  std::printf("failed_frac = %s (%llu of %llu attempted)\n",
              number(failed_frac).c_str(),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::string json = "{\"correct\":";
  json += r.correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(r.attempted);
  json += ",\"failed\":" + std::to_string(r.failed);
  json += ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) json += ",";
    json += hpas::Json(m.name).dump() + ":{\"value\":" + number(m.value) +
            ",\"unit\":" + hpas::Json(m.unit).dump() + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hpas_e2ebench: %s\nusage: hpas_e2ebench --workload "
               "sweep_sim|dataset_stream|serve_mix --seed N --seconds S "
               "--trace 0|1 [--tiny]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") opt.workload = val;
      else if (arg == "--seed") opt.seed = std::stoull(val);
      else if (arg == "--seconds") opt.seconds = std::stod(val);
      else if (arg == "--trace") opt.trace = std::stoi(val) != 0;
      else usage(("unknown argument " + arg).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (opt.seconds <= 0.0) usage("--seconds must be positive");
  return opt;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const e2e::Options opt = e2e::parse_args(argc, argv);
  e2e::Report (*run)(const e2e::Options&) = nullptr;
  if (opt.workload == "sweep_sim") run = e2e::run_sweep_sim;
  else if (opt.workload == "dataset_stream") run = e2e::run_dataset_stream;
  else if (opt.workload == "serve_mix") run = e2e::run_serve_mix;
  else e2e::usage("unknown --workload");
  try {
    std::filesystem::create_directories(e2e::kWorkDir);
    const e2e::Report report = run(opt);
    e2e::print_report(report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpas_e2ebench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  return 0;
}
