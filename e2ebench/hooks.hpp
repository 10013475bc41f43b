// Span recorder for the traced benchmark run.
//
// hooks.cpp defines `__wrap_<symbol>` functions for a fixed list of public
// library entry points (world construction, World::run_until, CSV
// encoding, journal append, dataset shard append/finish, feature
// finalize, result-cache find/insert/open, server frame writes). The
// benchmark links with `-Wl,--wrap=<symbol>` for each one (CMakeLists.txt
// reads the list from hooks.cpp), so every call that crosses into one of those layers
// from another translation unit -- e.g. run_sweep -> run_until, or
// Server -> ResultCache::insert -- passes through a wrapper that records a
// span and then calls the real function. No library code changes.
//
// Spans are kept in per-thread memory and merged by take_spans() once the
// threads that produced them have been joined. A span's self time is its
// duration minus the time covered by child spans on the same thread.
//
// With tracing off, each wrapper costs one relaxed atomic load. The item
// clock (item start = world construction, item end = the workload's
// durable append) is a separate, cheaper switch used by untraced runs to
// measure per-item latency.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2e {

enum class Layer : std::uint8_t {
  kWorld,        ///< sim::make_voltrino_world (scenario set-up)
  kSim,          ///< sim::World::run_until (engine dispatch + rate solves)
  kSink,         ///< monitoring-sample sink (feature extractor on_sample)
  kCsv,          ///< metrics::write_csv
  kJournal,      ///< runner::JournalWriter::append (frame write + fsync)
  kFinalize,     ///< dataset::StreamingFeatureExtractor::finalize
  kShardAppend,  ///< dataset::DatasetWriter::append
  kFinish,       ///< dataset::DatasetWriter::finish (read-back + manifest)
  kCacheFind,    ///< server::ResultCache::find
  kCacheInsert,  ///< server::ResultCache::insert (spool + journal)
  kCacheOpen,    ///< server::ResultCache::open (journal replay)
  kFrameWrite,   ///< server::write_json on the daemon side
};
inline constexpr std::size_t kLayerCount = 12;

const char* layer_name(Layer layer);

struct Span {
  std::uint64_t item = 0;  ///< workload item the span belongs to; 0 = none
  Layer layer = Layer::kWorld;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::int64_t self_ns = 0;
  /// Layer-specific count: events fired (kSim), samples seen (kSink),
  /// bytes encoded (kCsv), 1 for a result frame (kFrameWrite).
  std::uint64_t count = 0;
};

/// Where an item's latency ends (the item clock starts at world
/// construction, or at a cache lookup for server submissions).
enum class ItemEnd : std::uint8_t { kNone, kJournalAppend, kShardAppend };

std::int64_t now_ns();

/// fsync calls made so far. The benchmark links fsync to a counter (see
/// hooks.cpp), so durability work is counted, not timed against the disk.
std::uint64_t fsync_count();

void set_tracing(bool on);
bool tracing();
void set_item_clock(ItemEnd end);

/// Both take and clear everything recorded so far. Call only after the
/// recording threads have been joined (or are idle).
std::vector<Span> take_spans();
std::vector<double> take_item_latencies_ms();

}  // namespace e2e
