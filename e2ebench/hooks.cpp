// Link-time wrappers (-Wl,--wrap) around the library's layer entry points,
// and the per-thread span store behind them. See hooks.hpp.
//
// Each wrapper is declared under its mangled `__wrap_` name with an asm
// label and calls the original through the matching `__real_` label. A
// member function is declared as a free function taking `this` first,
// which is how the Itanium C++ ABI passes it. The `#define SYM_<NAME>
// "<symbol>"` lines below are the only list of wrapped symbols:
// CMakeLists.txt reads them (one define per line) to emit the
// `--wrap=<symbol>` link flags. A signature change in the library
// surfaces as an undefined `__real_` symbol at link time.
#include "hooks.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>

#include "dataset/shards.hpp"
#include "dataset/streaming.hpp"
#include "metrics/sample_sink.hpp"
#include "metrics/store.hpp"
#include "runner/journal.hpp"
#include "server/cache.hpp"
#include "server/protocol.hpp"
#include "sim/cluster.hpp"
#include "sim/world.hpp"

namespace e2e {
namespace {

std::atomic<bool> g_tracing{false};
std::atomic<ItemEnd> g_item_end{ItemEnd::kNone};
std::atomic<std::uint64_t> g_next_item{1};
std::atomic<std::uint64_t> g_fsyncs{0};

struct OpenSpan {
  std::int64_t start = 0;
  std::int64_t child = 0;  ///< time covered by closed child spans
};

struct ThreadState {
  std::vector<Span> spans;
  std::vector<OpenSpan> stack;
  std::vector<double> latencies_ms;
  std::uint64_t item = 0;
  std::int64_t item_start = 0;  ///< 0 = no item clock running
  std::int64_t sink_ns = 0;     ///< sink time since the last flush
  std::uint64_t sink_samples = 0;
};

std::mutex g_states_mu;
/// Owned here, not by thread_local storage, so spans outlive the pool
/// threads that recorded them.
std::vector<std::unique_ptr<ThreadState>> g_states;  // guarded by g_states_mu

ThreadState& state() {
  thread_local ThreadState* st = nullptr;
  if (st == nullptr) {
    auto owned = std::make_unique<ThreadState>();
    st = owned.get();
    std::lock_guard<std::mutex> lock(g_states_mu);
    g_states.push_back(std::move(owned));
  }
  return *st;
}

void begin_item() {
  const bool clock = g_item_end.load(std::memory_order_relaxed) != ItemEnd::kNone;
  if (!clock && !tracing()) return;
  ThreadState& st = state();
  st.item = g_next_item.fetch_add(1, std::memory_order_relaxed);
  st.item_start = clock ? now_ns() : 0;
}

void end_item(ItemEnd end) {
  if (g_item_end.load(std::memory_order_relaxed) != end) return;
  ThreadState& st = state();
  if (st.item_start == 0) return;
  st.latencies_ms.push_back(static_cast<double>(now_ns() - st.item_start) /
                            1e6);
  st.item_start = 0;
}

class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer) : layer_(layer) {
    if (!tracing()) return;
    st_ = &state();
    st_->stack.push_back({now_ns(), 0});
  }
  ~ScopedSpan() {
    if (st_ == nullptr) return;
    const OpenSpan open = st_->stack.back();
    st_->stack.pop_back();
    const std::int64_t dur = now_ns() - open.start;
    if (!st_->stack.empty()) st_->stack.back().child += dur;
    st_->spans.push_back(
        {st_->item, layer_, open.start, dur, dur - open.child, count});
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ThreadState* state_or_null() const { return st_; }
  std::uint64_t count = 0;

 private:
  Layer layer_;
  ThreadState* st_ = nullptr;
};

/// Forwards monitoring samples to the scenario's own sink (if any) and
/// accumulates the time spent in it. World::run_until's wrapper flushes
/// the total as one kSink child span per run, so a row's thousand
/// samples cost one span, not a thousand.
class TimingSink final : public hpas::metrics::SampleSink {
 public:
  void rearm(hpas::metrics::SampleSink* inner, ThreadState* st) {
    inner_ = inner;
    st_ = st;
  }
  void on_sample(const hpas::metrics::MetricId& id, double timestamp,
                 double value) override {
    ++st_->sink_samples;
    if (inner_ == nullptr) return;
    const std::int64_t t0 = now_ns();
    inner_->on_sample(id, timestamp, value);
    st_->sink_ns += now_ns() - t0;
  }

 private:
  hpas::metrics::SampleSink* inner_ = nullptr;
  ThreadState* st_ = nullptr;
};

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kWorld: return "world";
    case Layer::kSim: return "sim";
    case Layer::kSink: return "sink";
    case Layer::kCsv: return "csv";
    case Layer::kJournal: return "journal";
    case Layer::kFinalize: return "finalize";
    case Layer::kShardAppend: return "shard_append";
    case Layer::kFinish: return "finish";
    case Layer::kCacheFind: return "cache_find";
    case Layer::kCacheInsert: return "cache_insert";
    case Layer::kCacheOpen: return "cache_open";
    case Layer::kFrameWrite: return "frame_write";
  }
  return "unknown";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t fsync_count() {
  return g_fsyncs.load(std::memory_order_relaxed);
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }
void set_item_clock(ItemEnd end) {
  g_item_end.store(end, std::memory_order_relaxed);
}

std::vector<Span> take_spans() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(g_states_mu);
  for (const auto& st : g_states) {
    out.insert(out.end(), st->spans.begin(), st->spans.end());
    st->spans.clear();
  }
  return out;
}

std::vector<double> take_item_latencies_ms() {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(g_states_mu);
  for (const auto& st : g_states) {
    out.insert(out.end(), st->latencies_ms.begin(), st->latencies_ms.end());
    st->latencies_ms.clear();
  }
  return out;
}

}  // namespace e2e

// --- the wrappers -----------------------------------------------------------

using e2e::ItemEnd;
using e2e::Layer;
using e2e::ScopedSpan;
namespace hs = hpas::sim;
namespace hm = hpas::metrics;
namespace hr = hpas::runner;
namespace hd = hpas::dataset;
namespace hv = hpas::server;

#define E2E_REAL(sym) __asm__("__real_" sym)
#define E2E_WRAP(sym) __asm__("__wrap_" sym)

// One line each: CMakeLists.txt parses these.
// clang-format off
#define SYM_MAKE_WORLD "_ZN4hpas3sim19make_voltrino_worldERKNS0_14VoltrinoPresetE"
#define SYM_RUN_UNTIL "_ZN4hpas3sim5World9run_untilEd"
#define SYM_ENABLE_MONITORING "_ZN4hpas3sim5World17enable_monitoringEdPNS_7metrics10SampleSinkEib"
#define SYM_WRITE_CSV "_ZN4hpas7metrics9write_csvERSoRKNS0_11MetricStoreE"
#define SYM_JOURNAL_APPEND "_ZN4hpas6runner13JournalWriter6appendERKNS0_13JournalRecordE"
#define SYM_SHARD_APPEND "_ZN4hpas7dataset13DatasetWriter6appendEmiSt4spanIKdLm18446744073709551615EE"
#define SYM_FINISH "_ZN4hpas7dataset13DatasetWriter6finishB5cxx11Eb"
#define SYM_FINALIZE "_ZN4hpas7dataset25StreamingFeatureExtractor8finalizeEPNS_3RngE"
#define SYM_CACHE_FIND "_ZN4hpas6server11ResultCache4findEm"
#define SYM_CACHE_INSERT "_ZN4hpas6server11ResultCache6insertEmRKNS_6runner14ScenarioResultE"
#define SYM_CACHE_OPEN "_ZN4hpas6server11ResultCache4openEv"
#define SYM_WRITE_JSON "_ZN4hpas6server10write_jsonEiRKNS_4JsonENS_9faultline6DomainE"
#define SYM_FSYNC "fsync"
// clang-format on

// The originals; external linkage so the linker can bind `__real_`.
namespace e2e_real {

std::unique_ptr<hs::World> real_make_world(const hs::VoltrinoPreset&)
    E2E_REAL(SYM_MAKE_WORLD);
void real_run_until(hs::World*, double) E2E_REAL(SYM_RUN_UNTIL);
void real_enable_monitoring(hs::World*, double, hm::SampleSink*, int, bool)
    E2E_REAL(SYM_ENABLE_MONITORING);
void real_write_csv(std::ostream&, const hm::MetricStore&)
    E2E_REAL(SYM_WRITE_CSV);
void real_journal_append(hr::JournalWriter*, const hr::JournalRecord&)
    E2E_REAL(SYM_JOURNAL_APPEND);
void real_shard_append(hd::DatasetWriter*, std::uint64_t, int,
                       std::span<const double>) E2E_REAL(SYM_SHARD_APPEND);
std::string real_finish(hd::DatasetWriter*, bool) E2E_REAL(SYM_FINISH);
std::vector<double> real_finalize(hd::StreamingFeatureExtractor*, hpas::Rng*)
    E2E_REAL(SYM_FINALIZE);
const hv::CachedResult* real_cache_find(hv::ResultCache*, std::uint64_t)
    E2E_REAL(SYM_CACHE_FIND);
const hv::CachedResult& real_cache_insert(hv::ResultCache*, std::uint64_t,
                                          const hr::ScenarioResult&)
    E2E_REAL(SYM_CACHE_INSERT);
void real_cache_open(hv::ResultCache*) E2E_REAL(SYM_CACHE_OPEN);
void real_write_json(int, const hpas::Json&, hpas::faultline::Domain)
    E2E_REAL(SYM_WRITE_JSON);

}  // namespace e2e_real

using namespace e2e_real;

std::unique_ptr<hs::World> wrap_make_world(const hs::VoltrinoPreset& preset)
    E2E_WRAP(SYM_MAKE_WORLD);
std::unique_ptr<hs::World> wrap_make_world(const hs::VoltrinoPreset& preset) {
  e2e::begin_item();
  ScopedSpan span(Layer::kWorld);
  return real_make_world(preset);
}

void wrap_run_until(hs::World* world, double t) E2E_WRAP(SYM_RUN_UNTIL);
void wrap_run_until(hs::World* world, double t) {
  ScopedSpan span(Layer::kSim);
  const std::uint64_t events_before = world->simulator().epochs();
  real_run_until(world, t);
  span.count = world->simulator().epochs() - events_before;
  e2e::ThreadState* st = span.state_or_null();
  if (st == nullptr) return;
  // The sink ran inside this span: record it as one child span.
  const std::int64_t sink = st->sink_ns;
  st->spans.push_back({st->item, Layer::kSink, st->stack.back().start, sink,
                       sink, st->sink_samples});
  st->stack.back().child += sink;
  st->sink_ns = 0;
  st->sink_samples = 0;
}

void wrap_enable_monitoring(hs::World* world, double period,
                            hm::SampleSink* sink, int sink_node, bool store)
    E2E_WRAP(SYM_ENABLE_MONITORING);
void wrap_enable_monitoring(hs::World* world, double period,
                            hm::SampleSink* sink, int sink_node, bool store) {
  if (!e2e::tracing()) {
    real_enable_monitoring(world, period, sink, sink_node, store);
    return;
  }
  // One world per thread at a time (run_scenario builds, runs and drops
  // it on the calling thread), so a thread-local forwarder outlives every
  // use the world makes of it.
  thread_local e2e::TimingSink timing;
  e2e::ThreadState& st = e2e::state();
  st.sink_ns = 0;
  st.sink_samples = 0;
  timing.rearm(sink, &st);
  real_enable_monitoring(world, period, &timing, sink_node, store);
}

void wrap_write_csv(std::ostream& os, const hm::MetricStore& store)
    E2E_WRAP(SYM_WRITE_CSV);
void wrap_write_csv(std::ostream& os, const hm::MetricStore& store) {
  ScopedSpan span(Layer::kCsv);
  const auto before = os.tellp();
  real_write_csv(os, store);
  if (before >= 0) span.count = static_cast<std::uint64_t>(os.tellp() - before);
}

void wrap_journal_append(hr::JournalWriter* self, const hr::JournalRecord& rec)
    E2E_WRAP(SYM_JOURNAL_APPEND);
void wrap_journal_append(hr::JournalWriter* self,
                         const hr::JournalRecord& rec) {
  {
    ScopedSpan span(Layer::kJournal);
    real_journal_append(self, rec);
  }
  e2e::end_item(ItemEnd::kJournalAppend);
}

void wrap_shard_append(hd::DatasetWriter* self, std::uint64_t row, int label,
                       std::span<const double> features)
    E2E_WRAP(SYM_SHARD_APPEND);
void wrap_shard_append(hd::DatasetWriter* self, std::uint64_t row, int label,
                       std::span<const double> features) {
  {
    ScopedSpan span(Layer::kShardAppend);
    real_shard_append(self, row, label, features);
  }
  e2e::end_item(ItemEnd::kShardAppend);
}

std::string wrap_finish(hd::DatasetWriter* self, bool write_csv)
    E2E_WRAP(SYM_FINISH);
std::string wrap_finish(hd::DatasetWriter* self, bool write_csv) {
  ScopedSpan span(Layer::kFinish);
  return real_finish(self, write_csv);
}

std::vector<double> wrap_finalize(hd::StreamingFeatureExtractor* self,
                                  hpas::Rng* noise) E2E_WRAP(SYM_FINALIZE);
std::vector<double> wrap_finalize(hd::StreamingFeatureExtractor* self,
                                  hpas::Rng* noise) {
  ScopedSpan span(Layer::kFinalize);
  return real_finalize(self, noise);
}

const hv::CachedResult* wrap_cache_find(hv::ResultCache* self,
                                        std::uint64_t key)
    E2E_WRAP(SYM_CACHE_FIND);
const hv::CachedResult* wrap_cache_find(hv::ResultCache* self,
                                        std::uint64_t key) {
  // A lookup is where a server submission starts being handled.
  e2e::begin_item();
  ScopedSpan span(Layer::kCacheFind);
  return real_cache_find(self, key);
}

const hv::CachedResult& wrap_cache_insert(hv::ResultCache* self,
                                          std::uint64_t key,
                                          const hr::ScenarioResult& result)
    E2E_WRAP(SYM_CACHE_INSERT);
const hv::CachedResult& wrap_cache_insert(hv::ResultCache* self,
                                          std::uint64_t key,
                                          const hr::ScenarioResult& result) {
  ScopedSpan span(Layer::kCacheInsert);
  return real_cache_insert(self, key, result);
}

void wrap_cache_open(hv::ResultCache* self) E2E_WRAP(SYM_CACHE_OPEN);
void wrap_cache_open(hv::ResultCache* self) {
  ScopedSpan span(Layer::kCacheOpen);
  real_cache_open(self);
}

// fsync is counted, not performed: the data directories live on the
// checkout's disk, and fsync there would time the shared machine's disk
// rather than the program. This is what tmpfs gives (its fsync is a no-op);
// durability work still shows, exactly, as the count.
int wrap_fsync(int fd) E2E_WRAP(SYM_FSYNC);
int wrap_fsync(int fd) {
  e2e::g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return fd >= 0 ? 0 : -1;
}

void wrap_write_json(int fd, const hpas::Json& doc,
                     hpas::faultline::Domain domain) E2E_WRAP(SYM_WRITE_JSON);
void wrap_write_json(int fd, const hpas::Json& doc,
                     hpas::faultline::Domain domain) {
  if (domain != hpas::faultline::Domain::kSocket || !e2e::tracing()) {
    real_write_json(fd, doc, domain);
    return;
  }
  ScopedSpan span(Layer::kFrameWrite);
  const hpas::Json* type = doc.find("type");
  span.count = type != nullptr && type->is_string() &&
                       type->as_string() == "result"
                   ? 1
                   : 0;
  real_write_json(fd, doc, domain);
}
