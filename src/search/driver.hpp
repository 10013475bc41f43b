// Guided scenario-space search driver.
//
// run_search() walks a ScenarioSpace with a pluggable strategy, evaluating
// proposals on the work-stealing pool and scoring them with a pluggable
// objective. The search is *batch-synchronous*: the strategy proposes a
// fixed-size batch, the pool evaluates it in parallel, and the results are
// observed in proposal order -- so the trajectory is a pure function of
// (space, seed, objective), independent of thread count.
//
// Determinism + crash safety contract (see DESIGN.md):
//   * Every distinct point materializes to the same ScenarioSpec (name and
//     seed derived from the point hash), so a point's evaluation is a pure
//     function of the point.
//   * Every finished evaluation is appended to the PR-4 crash-safe journal
//     -- in deterministic batch order, with wall_seconds zeroed and the
//     final objective stored in the record's trailing extension -- which
//     makes the journal both byte-reproducible and an *exact evaluation
//     cache*: --resume replays the strategy from scratch, satisfies every
//     already-journaled evaluation from the cache, and runs only the
//     missing suffix. An interrupted search therefore converges to the
//     exact bytes (journal and frontier) of an uninterrupted one.
//   * The frontier JSON contains nothing execution-dependent (no wall
//     clock, no thread count, no executed/cached tallies).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "runner/runner.hpp"
#include "search/objective.hpp"
#include "search/space.hpp"

namespace hpas::search {

/// `threads` sizes the evaluation pool. A stop request (graceful or
/// hard) is honoured between batches: the running batch finishes.
struct SearchOptions : runner::ExecOptions {
  std::string strategy = "anneal";  ///< random | anneal | bandit
  std::string objective = "max_degradation_per_intensity";
  std::size_t budget = 64;   ///< total proposals to evaluate
  std::size_t batch = 8;     ///< proposals per batch (a search parameter,
                             ///< NOT the thread count)
  std::size_t frontier_size = 8;
  /// Path of the evaluation journal (conventionally <out>/search.journal).
  /// Empty disables journaling (and with it crash safety).
  std::string journal_path;
  /// Replay the journal first and reuse every validated evaluation.
  bool resume = false;
  /// Run the greedy dimension-minimizer on the best frontier entry.
  bool minimize = false;
  /// Minimizer threshold: shrunk configs must keep at least this fraction
  /// of the best objective value.
  double minimize_keep = 0.9;
  /// Pre-built objective (tests inject small ones); when null, the driver
  /// calls make_objective(objective).
  std::shared_ptr<const Objective> objective_impl;
};

struct FrontierEntry {
  Point point;
  runner::ScenarioSpec spec;  ///< materialized (name + seed derived)
  double objective = 0.0;
  double app_elapsed_s = 0.0;
  std::uint64_t app_iterations = 0;
};

struct SearchResult {
  std::string space_name;
  std::string strategy;
  std::string objective;
  std::uint64_t seed = 0;  ///< the space's base seed (drives everything)
  std::size_t budget = 0;
  std::size_t batch = 0;
  std::vector<FrontierEntry> frontier;  ///< ranked, best first
  bool has_minimized = false;
  FrontierEntry minimized;  ///< set when the minimizer ran
  bool interrupted = false; ///< a stop request cut the search short

  std::size_t executed = 0;  ///< scenarios run this invocation
  std::size_t cached = 0;    ///< evaluations served from the journal

  /// Deterministic frontier document: ranked entries with the point, the
  /// full replayable spec, the sweep-style summary row and a replay
  /// command line. Byte-identical across thread counts and resume.
  Json frontier_json(const ScenarioSpace& space,
                     const std::string& replay_path) const;
};

/// Objective score recorded for evaluations that threw: low enough that a
/// failed point never enters the frontier yet still totally ordered.
constexpr double kFailedObjective = -1e30;

/// Runs the search. Throws ConfigError on invalid options and SystemError
/// on journal I/O failure.
SearchResult run_search(const ScenarioSpace& space,
                        const SearchOptions& options);

}  // namespace hpas::search
