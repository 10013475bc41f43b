// sweep_sim: `hpas sweep` of a seeded voltrino grid -- every proxy app x
// (none + the eight anomalies) x two seeded intensities, 600 s monitoring
// windows on 4 app nodes -- through runner::run_sweep (-j 4, journal on)
// and runner::write_outputs, repeated in rounds. Simulation and CSV
// encoding dominate; the journal does little.
#include <filesystem>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "runner/journal.hpp"
#include "runner/runner.hpp"

namespace e2e {
namespace {

namespace fs = std::filesystem;
using hpas::Json;
namespace runner = hpas::runner;

Json make_grid(const Options& opt) {
  hpas::Rng rng(opt.seed ^ 0x73776565705f73ULL);
  Json grid = Json::object();
  grid.set("name", "sweep_sim");
  grid.set("system", "voltrino");
  // 32 bits: the grid's seed member is a JSON number.
  grid.set("seed", static_cast<double>(rng.next() >> 32));
  Json apps = Json::array();
  for (const std::string& a : app_names(opt.tiny)) apps.push_back(a);
  grid.set("apps", std::move(apps));
  Json kinds = Json::array();
  for (const std::string& k : anomaly_kinds(opt.tiny)) kinds.push_back(k);
  grid.set("anomalies", std::move(kinds));
  Json intensities = Json::array();
  // Narrow seeded ranges: the seed varies the inputs, not how much work
  // they are.
  intensities.push_back(round3(rng.uniform(0.45, 0.55)));
  intensities.push_back(round3(rng.uniform(0.95, 1.05)));
  grid.set("intensities", std::move(intensities));
  grid.set("repeats", 1);
  grid.set("duration_s", opt.tiny ? 60.0 : 600.0);
  grid.set("sample_period_s", 1.0);
  grid.set("app_nodes", 4);
  grid.set("run_to_completion", false);
  return grid;
}

runner::SweepResult sweep_into(const runner::SweepGrid& grid, int threads,
                               const std::string& dir) {
  runner::SweepOptions options;
  options.threads = threads;
  options.journal_path = dir + "/sweep.journal";
  runner::SweepResult result = runner::run_sweep(grid, options);
  runner::write_outputs(result, dir);
  return result;
}

}  // namespace

Report run_sweep_sim(const Options& opt) {
  Report r;
  const std::string base = std::string(kWorkDir) + "/sweep_sim";
  fresh_dir(base);
  const std::string grid_path = base + "/grid.json";
  write_file(grid_path, make_grid(opt).dump(2));

  // Set-up: what `hpas sweep` does before the first scenario starts,
  // timed up front and again before every round, so that its median
  // spans the same stretch of the run as the rounds. One load takes
  // about 0.1 ms, so each sample times a batch of loads and reports
  // their mean.
  constexpr int kLoadsPerSample = 20;
  std::vector<double> setup_s;
  runner::SweepGrid grid;
  const auto set_up = [&] {
    const std::int64_t t0 = now_ns();
    for (int k = 0; k < kLoadsPerSample; ++k)
      grid = runner::load_grid_file(grid_path);
    setup_s.push_back(seconds_since(t0) / kLoadsPerSample);
  };
  for (int i = 0; i < 5; ++i) set_up();
  const std::size_t n = grid.scenarios.size();
  r.note("sweep_sim: " + std::to_string(n) + " scenarios per round, -j " +
         std::to_string(kThreads) + ", journal on");

  const std::string out = base + "/round";
  std::vector<double> items_per_s;  ///< per round, for the note
  double items = 0.0, measured_s = 0.0;
  std::vector<double> latency_ms;
  runner::SweepResult last;
  set_item_clock(ItemEnd::kJournalAppend);
  const Rounds rounds = run_rounds(opt, [&](Phase phase) {
    set_up();
    fresh_dir(out);
    const std::int64_t t0 = now_ns();
    last = sweep_into(grid, kThreads, out);
    const double s = seconds_since(t0);
    const std::vector<double> lat = take_item_latencies_ms();
    if (phase == Phase::kUntraced) {
      items_per_s.push_back(static_cast<double>(n) / s);
      items += static_cast<double>(n);
      measured_s += s;
      latency_ms.insert(latency_ms.end(), lat.begin(), lat.end());
    }
    r.attempted += n;
    r.failed += n - last.count(runner::ScenarioStatus::kDone);
    return s;
  });
  set_item_clock(ItemEnd::kNone);
  const double rss = peak_rss_mb();

  // Correctness: a seeded sample of the last round's scenarios re-run
  // at -j 1 must produce byte-equal CSVs, and the journal must hold one
  // completed record per scenario.
  r.check(last.ok(), "every scenario of every round completed");
  const runner::JournalReadResult journal =
      runner::read_journal(out + "/sweep.journal");
  std::size_t journal_done = 0;
  for (const runner::JournalRecord& rec : journal.records)
    if (rec.status == runner::JournalStatus::kDone) ++journal_done;
  r.check(journal_done == n && journal.dropped_frames == 0,
          "journal holds " + std::to_string(n) + " completed records");
  hpas::Rng pick(opt.seed ^ 0x636865636bULL);
  runner::SweepGrid sample;
  sample.name = grid.name;
  sample.base_seed = grid.base_seed;
  for (int i = 0; i < 8; ++i)
    sample.scenarios.push_back(grid.scenarios[pick.next_below(n)]);
  const std::string serial = base + "/serial";
  fresh_dir(serial);
  sweep_into(sample, 1, serial);
  std::size_t equal = 0;
  for (const runner::ScenarioSpec& spec : sample.scenarios) {
    const std::string file = "/" + spec.name + ".csv";
    if (read_file(out + file) == read_file(serial + file)) ++equal;
  }
  r.check(equal == sample.scenarios.size(),
          std::to_string(equal) + "/" +
              std::to_string(sample.scenarios.size()) +
              " sampled CSVs byte-equal to a -j 1 re-run");

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
    ctx.traced_items = static_cast<double>(n * rounds.traced_s.size());
    ctx.overhead_frac = rounds.overhead_frac();
    ctx.threads = kThreads;
    ctx.faults = rounds.faults;
    ctx.spans_path = std::string(kWorkDir) + "/trace-sweep_sim.tsv";
    const LayerTotals totals = summarize(take_spans());
    add_layer_metrics(r, totals, ctx);
    add_server_metrics(r, totals, ServerLayer{});
  }
  fs::remove_all(base);
  return r;
}

}  // namespace e2e
