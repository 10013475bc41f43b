#include "search/driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"
#include "runner/journal.hpp"
#include "runner/runner.hpp"
#include "runner/thread_pool.hpp"
#include "search/strategy.hpp"

namespace hpas::search {
namespace {

/// Cached result of one scenario evaluation -- exactly the payload a
/// search journal record carries, which is what makes the journal an
/// exact evaluation cache.
struct Outcome {
  double objective = 0.0;
  double app_elapsed_s = 0.0;
  std::uint64_t app_iterations = 0;
  bool failed = false;
  std::string error;
};

/// One scenario to run this batch. Baselines precede the proposals that
/// need them, so the serial scoring pass can resolve baseline times from
/// the cache in a single sweep.
struct Job {
  runner::ScenarioSpec spec;
  std::uint64_t key = 0;  ///< scenario_key_hash(spec)
  bool is_baseline = false;
  bool has_baseline = false;
  std::uint64_t baseline_key = 0;
  double probe = 0.0;
  Outcome out;
};

/// The anomaly-free twin of a proposal's configuration. Name and seed are
/// derived from the baseline's own key material, so every proposal that
/// shares a configuration shares one baseline evaluation (and one journal
/// record).
runner::ScenarioSpec baseline_spec(const runner::ScenarioSpec& spec,
                                   std::uint64_t base_seed) {
  runner::ScenarioSpec b = spec;
  b.anomaly = "none";
  b.intensity = 1.0;
  b.injector_fail_at_s = 0.0;
  b.injector_fail_tasks = -1;
  b.name.clear();
  b.seed = 0;
  const std::uint64_t h = runner::scenario_key_hash(b);
  char buf[24];
  std::snprintf(buf, sizeof buf, "b%016llx",
                static_cast<unsigned long long>(h));
  b.name = buf;
  b.seed =
      runner::derive_scenario_seed(base_seed ^ 0x42415345ULL /* "BASE" */, h);
  return b;
}

/// Runs evaluations, maintains the key-hash cache, and journals every
/// finished evaluation in deterministic order (wall_seconds zeroed, the
/// objective in the record's trailing extension).
class Evaluator {
 public:
  Evaluator(const Objective& objective, runner::WorkStealingPool& pool)
      : objective_(objective), pool_(pool) {}

  /// Opens the journal; with `resume` the validated prefix seeds the cache
  /// and is rewritten in place (self-healing after a torn tail).
  void open_journal(const std::string& path, bool resume) {
    if (path.empty()) return;
    if (!resume) {
      journal_ = std::make_unique<runner::JournalWriter>(path, true);
      return;
    }
    const runner::JournalReadResult prior = runner::read_journal(path);
    journal_ = std::make_unique<runner::JournalWriter>(path, true);
    for (const runner::JournalRecord& rec : prior.records) {
      // Only search records (trailing objective) are reusable; anything
      // else in the file is not ours and is dropped by the rewrite.
      if (!rec.has_objective) continue;
      Outcome o;
      o.objective = rec.objective;
      o.app_elapsed_s = rec.app_elapsed_s;
      o.app_iterations = rec.app_iterations;
      o.failed = rec.status != runner::JournalStatus::kDone;
      o.error = rec.error;
      if (!cache_.emplace(rec.key_hash, std::move(o)).second) continue;
      journal_->append(rec);
      journaled_.insert(rec.key_hash);
    }
  }

  bool contains(std::uint64_t key) const { return cache_.count(key) != 0; }

  const Outcome& get(std::uint64_t key) const {
    const auto it = cache_.find(key);
    if (it == cache_.end())
      throw ConfigError("search: internal error: missing evaluation");
    return it->second;
  }

  /// Runs the batch on the pool, then scores and journals serially in job
  /// order. Evaluation failures become kFailedObjective, never abort the
  /// search.
  void evaluate(std::vector<Job>& jobs) {
    runner::parallel_for(pool_, jobs.size(), [&](std::size_t i) {
      Job& j = jobs[i];
      try {
        runner::RunOptions run;
        if (objective_.needs_probe() && !j.is_baseline) {
          run.inspect = [&j, this](sim::World& w) {
            j.probe = objective_.probe(w, j.spec);
          };
        }
        const runner::ScenarioResult r = runner::run_scenario(j.spec, run);
        if (r.status != runner::ScenarioStatus::kDone) {
          j.out.failed = true;
          j.out.error = r.error.empty()
                            ? runner::scenario_status_name(r.status)
                            : r.error;
        } else {
          j.out.app_elapsed_s = r.app_elapsed_s;
          j.out.app_iterations = static_cast<std::uint64_t>(r.app_iterations);
        }
      } catch (const std::exception& e) {
        j.out.failed = true;
        j.out.error = e.what();
      }
    });
    executed_ += jobs.size();
    for (Job& j : jobs) {
      if (j.out.failed) {
        j.out.objective = kFailedObjective;
      } else if (j.is_baseline) {
        // Baselines are anomaly-free by construction; every objective
        // scores those 0, so short-circuit rather than re-deriving it.
        j.out.objective = 0.0;
      } else {
        Measurement baseline;
        if (j.has_baseline) {
          const auto it = cache_.find(j.baseline_key);
          if (it != cache_.end() && !it->second.failed) {
            baseline.app_elapsed_s = it->second.app_elapsed_s;
            baseline.app_iterations = it->second.app_iterations;
          }
        }
        const Measurement run{j.out.app_elapsed_s, j.out.app_iterations};
        j.out.objective = objective_.score(j.spec, run, baseline, j.probe);
      }
      cache_.emplace(j.key, j.out);
      journal_append(j);
    }
  }

  std::size_t executed() const { return executed_; }

 private:
  void journal_append(const Job& j) {
    if (!journal_) return;
    if (!journaled_.insert(j.key).second) return;
    runner::JournalRecord rec;
    rec.key_hash = j.key;
    rec.status = j.out.failed ? runner::JournalStatus::kFailed
                              : runner::JournalStatus::kDone;
    rec.name = j.spec.name;
    rec.output.clear();  // search evaluations keep no per-scenario files
    rec.app_iterations = j.out.app_iterations;
    rec.app_elapsed_s = j.out.app_elapsed_s;
    rec.wall_seconds = 0.0;  // byte-stability: host time never journaled
    rec.error = j.out.error;
    rec.has_objective = true;
    rec.objective = j.out.objective;
    journal_->append(rec);
  }

  const Objective& objective_;
  runner::WorkStealingPool& pool_;
  std::unordered_map<std::uint64_t, Outcome> cache_;
  std::unordered_set<std::uint64_t> journaled_;
  std::unique_ptr<runner::JournalWriter> journal_;
  std::size_t executed_ = 0;
};

Json entry_json(const ScenarioSpace& space, const FrontierEntry& e,
                const std::string& replay_path,
                const std::string& replay_selector) {
  Json entry = Json::object();
  entry.set("scenario", e.spec.name);
  entry.set("objective", e.objective);
  entry.set("point", space.point_json(e.point));
  entry.set("spec", runner::spec_to_json(e.spec));
  entry.set("summary_row",
            runner::summary_row_json(e.spec, e.app_elapsed_s,
                                     e.app_iterations));
  entry.set("replay",
            "hpas search --replay " + replay_path + " " + replay_selector);
  return entry;
}

}  // namespace

Json SearchResult::frontier_json(const ScenarioSpace& space,
                                 const std::string& replay_path) const {
  Json doc = Json::object();
  doc.set("space", space_name);
  doc.set("strategy", strategy);
  doc.set("objective", objective);
  doc.set("seed", std::to_string(seed));
  doc.set("budget", static_cast<double>(budget));
  doc.set("batch", static_cast<double>(batch));
  Json entries = Json::array();
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    Json entry = entry_json(space, frontier[i], replay_path,
                            "--index " + std::to_string(i));
    entry.set("rank", static_cast<double>(i + 1));
    entries.push_back(std::move(entry));
  }
  doc.set("frontier", std::move(entries));
  if (has_minimized)
    doc.set("minimized",
            entry_json(space, minimized, replay_path, "--minimized"));
  return doc;
}

SearchResult run_search(const ScenarioSpace& space,
                        const SearchOptions& options) {
  if (options.budget == 0)
    throw ConfigError("search: budget must be >= 1");
  if (options.batch == 0) throw ConfigError("search: batch must be >= 1");
  if (options.frontier_size == 0)
    throw ConfigError("search: frontier size must be >= 1");
  if (!(options.minimize_keep > 0.0) || options.minimize_keep > 1.0)
    throw ConfigError("search: minimize keep fraction must be in (0, 1]");

  const int threads = options.threads > 0
                          ? options.threads
                          : runner::WorkStealingPool::default_thread_count();
  std::shared_ptr<const Objective> objective = options.objective_impl;
  if (!objective) {
    ObjectiveFactoryOptions factory;
    factory.threads = threads;
    objective = make_objective(options.objective, factory);
  }

  const std::unique_ptr<SearchStrategy> strategy =
      make_strategy(options.strategy, space, space.base_seed());

  runner::WorkStealingPool pool({.threads = threads});

  Evaluator evaluator(*objective, pool);
  evaluator.open_journal(options.journal_path, options.resume);

  SearchResult result;
  result.space_name = space.name();
  result.strategy = options.strategy;
  result.objective = objective->name();
  result.seed = space.base_seed();
  result.budget = options.budget;
  result.batch = options.batch;

  // Builds the (baseline-first) job list one point needs; returns the
  // point's cache key. `batch_keys` dedupes within the pending job list.
  auto enqueue = [&](const Point& p, std::vector<Job>& jobs,
                     std::unordered_set<std::uint64_t>& batch_keys)
      -> std::uint64_t {
    const runner::ScenarioSpec spec = space.materialize(p);
    const std::uint64_t key = runner::scenario_key_hash(spec);
    if (evaluator.contains(key)) {
      ++result.cached;
      return key;
    }
    if (batch_keys.count(key) != 0) return key;
    Job job;
    job.spec = spec;
    job.key = key;
    if (objective->needs_baseline() && spec.anomaly != "none") {
      const runner::ScenarioSpec base = baseline_spec(spec, space.base_seed());
      job.has_baseline = true;
      job.baseline_key = runner::scenario_key_hash(base);
      if (!evaluator.contains(job.baseline_key) &&
          batch_keys.count(job.baseline_key) == 0) {
        Job bjob;
        bjob.spec = base;
        bjob.key = job.baseline_key;
        bjob.is_baseline = true;
        batch_keys.insert(bjob.key);
        jobs.push_back(std::move(bjob));
      }
    }
    batch_keys.insert(key);
    jobs.push_back(std::move(job));
    return key;
  };

  // Distinct proposals in first-seen order -- the frontier candidates.
  struct Candidate {
    Point point;
    std::uint64_t key;
  };
  std::vector<Candidate> candidates;
  std::unordered_set<std::uint64_t> candidate_keys;

  std::size_t observed = 0;
  while (observed < options.budget) {
    if (options.stop_requested()) {
      result.interrupted = true;
      break;
    }
    const std::size_t count = std::min(options.batch,
                                       options.budget - observed);
    const std::vector<Point> proposals = strategy->propose(count);
    if (proposals.size() != count)
      throw ConfigError("search: strategy returned a wrong proposal count");

    std::vector<Job> jobs;
    std::unordered_set<std::uint64_t> batch_keys;
    std::vector<std::uint64_t> proposal_keys;
    proposal_keys.reserve(proposals.size());
    for (const Point& p : proposals) {
      const std::uint64_t key = enqueue(p, jobs, batch_keys);
      proposal_keys.push_back(key);
      if (candidate_keys.insert(key).second)
        candidates.push_back({p, key});
    }

    evaluator.evaluate(jobs);

    for (std::size_t i = 0; i < proposals.size(); ++i) {
      strategy->observe(proposals[i],
                        evaluator.get(proposal_keys[i]).objective);
      ++observed;
    }
  }

  // Rank: objective descending, first-seen ascending on ties -- total and
  // deterministic. Failed evaluations never enter the frontier.
  std::vector<std::size_t> order(candidates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return evaluator.get(candidates[a].key).objective >
                            evaluator.get(candidates[b].key).objective;
                   });
  for (const std::size_t idx : order) {
    if (result.frontier.size() >= options.frontier_size) break;
    const Candidate& c = candidates[idx];
    const Outcome& o = evaluator.get(c.key);
    if (o.failed) continue;
    FrontierEntry entry;
    entry.point = c.point;
    entry.spec = space.materialize(c.point);
    entry.objective = o.objective;
    entry.app_elapsed_s = o.app_elapsed_s;
    entry.app_iterations = o.app_iterations;
    result.frontier.push_back(std::move(entry));
  }
  result.executed = evaluator.executed();

  // --- greedy dimension-minimizer ---------------------------------------
  // Shrinks the best frontier entry one dimension at a time toward each
  // numeric dimension's floor, keeping at least `minimize_keep` of the
  // best objective. Serial by design (each step conditions on the last),
  // journaled and cached like every other evaluation, so a resumed search
  // replays it byte-identically.
  if (options.minimize && !result.frontier.empty() && !result.interrupted &&
      result.frontier.front().objective > 0.0) {
    const double threshold =
        options.minimize_keep * result.frontier.front().objective;
    auto eval_point = [&](const Point& p) -> const Outcome& {
      std::vector<Job> jobs;
      std::unordered_set<std::uint64_t> keys;
      const std::uint64_t key = enqueue(p, jobs, keys);
      evaluator.evaluate(jobs);
      return evaluator.get(key);
    };

    Point p = result.frontier.front().point;
    for (std::size_t i = 0; i < space.size(); ++i) {
      const Dimension& d = space.dimensions()[i];
      if (d.kind == DimKind::kCategorical) continue;
      if (p.coords[i] <= d.lo) continue;
      Point floor_try = p;
      floor_try.coords[i] = d.lo;
      floor_try = space.clamp(std::move(floor_try));
      if (eval_point(floor_try).objective >= threshold) {
        p = floor_try;
        continue;
      }
      // Bisect the smallest admissible coordinate: `bad` failed the
      // threshold, `good` met it.
      double bad = d.lo;
      double good = p.coords[i];
      for (int iter = 0; iter < 6; ++iter) {
        Point mid_try = p;
        mid_try.coords[i] = (bad + good) / 2.0;
        mid_try = space.clamp(std::move(mid_try));
        const double mid = mid_try.coords[i];
        if (mid <= bad || mid >= good) break;  // integer range exhausted
        if (eval_point(mid_try).objective >= threshold)
          good = mid;
        else
          bad = mid;
      }
      p.coords[i] = good;
    }

    const Outcome& final_outcome = eval_point(p);
    if (!final_outcome.failed) {
      result.has_minimized = true;
      result.minimized.point = p;
      result.minimized.spec = space.materialize(p);
      result.minimized.objective = final_outcome.objective;
      result.minimized.app_elapsed_s = final_outcome.app_elapsed_s;
      result.minimized.app_iterations = final_outcome.app_iterations;
    }
  }
  result.executed = evaluator.executed();
  return result;
}

}  // namespace hpas::search
