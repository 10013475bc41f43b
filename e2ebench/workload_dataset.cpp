// dataset_stream: `hpas dataset` of a seeded grid plan -- every proxy app x
// (none + the eight anomalies) x window lengths 12-20 s, on 2 app nodes --
// cycled to many rows through dataset::run_dataset_factory (-j 4, 4
// shards), repeated in rounds. Samples stream into the feature extractor
// with MetricStores off, so extraction, shard append, checkpointing and
// the finish() read-back are the heavy layers; no CSV is written.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>

#include "bench.hpp"
#include "common/rng.hpp"
#include "dataset/factory.hpp"
#include "dataset/shards.hpp"

namespace e2e {
namespace {

namespace fs = std::filesystem;
namespace runner = hpas::runner;
namespace dataset = hpas::dataset;

runner::SweepGrid make_grid(const Options& opt) {
  hpas::Rng rng(opt.seed ^ 0x646174617365ULL);
  runner::SweepGrid grid;
  grid.name = "dataset_stream";
  grid.base_seed = rng.next();
  // Every app x kind at every window length 12..20 s, so each seed has the
  // same mix of cheap and expensive rows; the seed draws intensities and
  // the scenarios' random streams.
  for (const std::string& app : app_names(opt.tiny)) {
    for (const std::string& kind : anomaly_kinds(opt.tiny)) {
      for (int window = 12; window <= 20; window += opt.tiny ? 8 : 1) {
        runner::ScenarioSpec spec;
        spec.app = app;
        spec.anomaly = kind;
        spec.name = app + "_" + kind + "_" + std::to_string(window);
        spec.intensity = round3(rng.uniform(0.5, 1.0));
        spec.duration_s = static_cast<double>(window);
        spec.sample_period_s = 1.0;
        spec.app_nodes = 2;
        spec.seed = runner::derive_scenario_seed(grid.base_seed,
                                                 grid.scenarios.size());
        grid.scenarios.push_back(std::move(spec));
      }
    }
  }
  return grid;
}

dataset::DatasetPlan make_plan(const runner::SweepGrid& grid,
                               std::uint64_t rows) {
  return dataset::plan_from_grid(grid, rows, /*warmup_s=*/5.0, /*noise=*/0.5,
                                 /*include_bandwidth=*/false);
}

dataset::DatasetFactoryResult build(const dataset::DatasetPlan& plan,
                                    const std::string& dir, int threads,
                                    std::uint32_t shards) {
  dataset::DatasetFactoryOptions options;
  options.out_dir = dir;
  options.shards = shards;
  options.threads = threads;
  return dataset::run_dataset_factory(plan, options);
}

/// Row payloads (label + features, row index stripped) of every shard in
/// `dir`, keyed by plan row index. Shard format: see dataset/shards.hpp.
std::map<std::uint64_t, std::string> read_rows(const std::string& dir) {
  std::map<std::uint64_t, std::string> rows;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".hpasds") continue;
    const std::string bytes = read_file(entry.path().string());
    std::size_t pos = 24;  // magic + version + index + count + features
    while (pos + 4 <= bytes.size()) {
      std::uint32_t len = 0;
      std::memcpy(&len, bytes.data() + pos, 4);
      if (len < 8 || pos + 8 + len > bytes.size()) break;
      std::uint64_t row = 0;
      std::memcpy(&row, bytes.data() + pos + 4, 8);
      rows[row] = bytes.substr(pos + 12, len - 8);
      pos += 8 + len;
    }
  }
  return rows;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".hpasds") total += entry.file_size();
  return total;
}

}  // namespace

Report run_dataset_stream(const Options& opt) {
  Report r;
  const std::string base = std::string(kWorkDir) + "/dataset_stream";
  fresh_dir(base);
  const runner::SweepGrid grid = make_grid(opt);
  const std::uint64_t rows = opt.tiny ? 256 : 16384;

  // Set-up: planning the rows, as `hpas dataset` does before executing,
  // timed up front and again before every round, so that its median
  // spans the same stretch of the run as the rounds.
  std::vector<double> setup_s;
  dataset::DatasetPlan plan;
  const auto set_up = [&] {
    for (int i = 0; i < 3; ++i) {
      const std::int64_t t0 = now_ns();
      plan = make_plan(grid, rows);
      setup_s.push_back(seconds_since(t0));
    }
  };
  set_up();
  r.note("dataset_stream: " + std::to_string(rows) + " rows per round from " +
         std::to_string(grid.scenarios.size()) + " grid scenarios, -j " +
         std::to_string(kThreads) + ", 4 shards");

  const std::string out = base + "/round";
  std::vector<double> items_per_s;  ///< per round, for the note
  double items = 0.0, measured_s = 0.0;
  std::vector<double> latency_ms;
  bool all_complete = true;
  set_item_clock(ItemEnd::kShardAppend);
  const Rounds rounds = run_rounds(opt, [&](Phase phase) {
    set_up();
    fresh_dir(out);
    const std::int64_t t0 = now_ns();
    const dataset::DatasetFactoryResult res =
        build(plan, out, kThreads, 4);
    const double s = seconds_since(t0);
    const std::vector<double> lat = take_item_latencies_ms();
    if (phase == Phase::kUntraced) {
      items_per_s.push_back(static_cast<double>(rows) / s);
      items += static_cast<double>(rows);
      measured_s += s;
      latency_ms.insert(latency_ms.end(), lat.begin(), lat.end());
    }
    const bool complete = res.complete && res.rows_executed == rows;
    all_complete = all_complete && complete;
    r.attempted += rows;
    r.failed += rows - std::min<std::uint64_t>(rows, res.rows_executed);
    return s;
  });
  set_item_clock(ItemEnd::kNone);
  const double rss = peak_rss_mb();

  // Correctness: the manifest verifies, and a seeded sample of rows
  // rebuilt alone at -j 1 carries byte-equal labels and features.
  r.check(all_complete, "every round completed all rows");
  const dataset::VerifyReport verify = dataset::verify_dataset(out);
  r.check(verify.ok, "verify_dataset passes on the last round" +
                         (verify.errors.empty() ? std::string()
                                                : ": " + verify.errors[0]));
  hpas::Rng pick(opt.seed ^ 0x636865636bULL);
  dataset::DatasetPlan sample = plan;
  sample.rows.clear();
  std::vector<std::uint64_t> picked;
  for (int i = 0; i < 8; ++i) {
    picked.push_back(pick.next_below(rows));
    sample.rows.push_back(plan.rows[picked.back()]);
  }
  const std::string serial = base + "/serial";
  fresh_dir(serial);
  build(sample, serial, 1, 1);
  const auto full_rows = read_rows(out);
  const auto serial_rows = read_rows(serial);
  std::size_t equal = 0;
  for (std::size_t i = 0; i < picked.size(); ++i) {
    const auto a = full_rows.find(picked[i]);
    const auto b = serial_rows.find(i);
    if (a != full_rows.end() && b != serial_rows.end() &&
        a->second == b->second)
      ++equal;
  }
  r.check(full_rows.size() == rows && equal == picked.size(),
          std::to_string(equal) + "/" + std::to_string(picked.size()) +
              " sampled rows byte-equal to a -j 1 rebuild");

  if (!opt.trace) {
    add_setup(r, setup_s);
    r.add("items_per_s", items / measured_s, "1/s");
    add_latency(r, "item", latency_ms);
    r.add("peak_rss_mb", rss, "MB");
    std::string rates = "round items/s:";
    for (double x : items_per_s) rates += " " + std::to_string(static_cast<int>(x));
    r.note(rates);
  } else {
    TraceContext ctx;
    ctx.traced_wall_s = rounds.traced_wall_s();
    ctx.traced_items = static_cast<double>(rows * rounds.traced_s.size());
    ctx.overhead_frac = rounds.overhead_frac();
    ctx.threads = kThreads;
    ctx.faults = rounds.faults;
    ctx.dataset_bytes_per_row =
        static_cast<double>(dir_bytes(out)) / static_cast<double>(rows);
    ctx.spans_path = std::string(kWorkDir) + "/trace-dataset_stream.tsv";
    const LayerTotals totals = summarize(take_spans());
    add_layer_metrics(r, totals, ctx);
    add_server_metrics(r, totals, ServerLayer{});
  }
  fs::remove_all(base);
  return r;
}

}  // namespace e2e
