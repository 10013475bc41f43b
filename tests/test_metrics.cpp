// Tests for the monitoring layer: metric ids, time series, store,
// collector, CSV export, and the host /proc samplers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <thread>
#include <tuple>

#include "common/error.hpp"
#include "metrics/collector.hpp"
#include "metrics/csv.hpp"
#include "metrics/host_samplers.hpp"
#include "metrics/metric_id.hpp"
#include "metrics/store.hpp"
#include "metrics/time_series.hpp"

namespace hpas::metrics {
namespace {

TEST(MetricId, FullNameUsesPaperConvention) {
  const MetricId id{"user", "procstat"};
  EXPECT_EQ(id.full_name(), "user::procstat");
}

TEST(MetricId, ParseRoundTrip) {
  const MetricId id = parse_metric_id("L2_RQSTS:MISS::spapiHASW");
  EXPECT_EQ(id.metric, "L2_RQSTS:MISS");  // inner ':' belongs to the metric
  EXPECT_EQ(id.sampler, "spapiHASW");
  EXPECT_EQ(parse_metric_id("plain").metric, "plain");
  EXPECT_EQ(parse_metric_id("plain").sampler, "");
}

TEST(TimeSeries, AppendAndAccess) {
  TimeSeries ts;
  ts.append(0.0, 1.0);
  ts.append(1.0, 2.0);
  ts.append(1.0, 3.0);  // equal timestamps allowed
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_DOUBLE_EQ(ts.value_at(2), 3.0);
  EXPECT_DOUBLE_EQ(ts.timestamp_at(1), 1.0);
}

TEST(TimeSeries, RejectsBackwardsTimestamps) {
  TimeSeries ts;
  ts.append(5.0, 1.0);
  EXPECT_THROW(ts.append(4.9, 1.0), InvariantError);
}

TEST(TimeSeries, ValuesBetweenIsHalfOpen) {
  TimeSeries ts;
  for (int t = 0; t < 10; ++t) ts.append(t, t * 10.0);
  const auto window = ts.values_between(2.0, 5.0);
  EXPECT_EQ(window, (std::vector<double>{20.0, 30.0, 40.0}));
  EXPECT_TRUE(ts.values_between(100.0, 200.0).empty());
}

TEST(TimeSeries, DeltasConvertCountersToRates) {
  TimeSeries ts;
  ts.append(0, 100);
  ts.append(1, 150);
  ts.append(2, 160);
  EXPECT_EQ(ts.deltas(), (std::vector<double>{50.0, 10.0}));
  TimeSeries single;
  single.append(0, 1);
  EXPECT_TRUE(single.deltas().empty());
}

TEST(MetricStore, RecordAndLookup) {
  MetricStore store;
  store.record({"user", "procstat"}, 0.0, 1.0);
  store.record({"user", "procstat"}, 1.0, 2.0);
  store.record({"Memfree", "meminfo"}, 0.0, 5.0);
  EXPECT_EQ(store.metric_count(), 2u);
  EXPECT_TRUE(store.contains({"user", "procstat"}));
  EXPECT_FALSE(store.contains({"user", "vmstat"}));
  EXPECT_EQ(store.series({"user", "procstat"}).size(), 2u);
  EXPECT_THROW(store.series({"x", "y"}), InvariantError);
}

TEST(MetricStore, MetricIdsSortedDeterministically) {
  MetricStore store;
  store.record({"z", "b"}, 0, 0);
  store.record({"a", "b"}, 0, 0);
  store.record({"a", "a"}, 0, 0);
  const auto ids = store.metric_ids();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0].full_name(), "a::a");
  EXPECT_EQ(ids[1].full_name(), "a::b");
  EXPECT_EQ(ids[2].full_name(), "z::b");
}

class CountingSampler final : public Sampler {
 public:
  std::string name() const override { return "count"; }
  const std::vector<Sample>& sample() override {
    ++polls_;
    samples_ = {{{"value", name()}, static_cast<double>(polls_)}};
    return samples_;
  }
  int polls_ = 0;

 private:
  std::vector<Sample> samples_;
};

/// Replays one scripted sample set per poll through a single buffer, the
/// way a host sampler rewrites its ids in place when /proc changes.
class ScriptedSampler final : public Sampler {
 public:
  explicit ScriptedSampler(std::vector<std::vector<Sample>> polls)
      : polls_(std::move(polls)) {}
  std::string name() const override { return "script"; }
  const std::vector<Sample>& sample() override {
    buffer_ = polls_.at(next_++);
    return buffer_;
  }

 private:
  std::vector<std::vector<Sample>> polls_;
  std::size_t next_ = 0;
  std::vector<Sample> buffer_;
};

using Event = std::tuple<std::string, double, double>;  // (name, t, value)

class RecordingSink final : public SampleSink {
 public:
  void on_sample(const MetricId& id, double t, double value) override {
    events.emplace_back(id.full_name(), t, value);
  }
  std::vector<Event> events;
};

std::vector<std::pair<double, double>> points(const TimeSeries& ts) {
  std::vector<std::pair<double, double>> out;
  for (std::size_t i = 0; i < ts.size(); ++i)
    out.emplace_back(ts.timestamp_at(i), ts.value_at(i));
  return out;
}

TEST(Collector, PollsAllSamplersWithTimestamp) {
  MetricStore store;
  Collector collector(&store);
  auto sampler = std::make_shared<CountingSampler>();
  collector.add_sampler(sampler);
  collector.collect(0.0);
  collector.collect(1.0);
  EXPECT_EQ(sampler->polls_, 2);
  const auto& ts = store.series({"value", "count"});
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts.value_at(1), 2.0);
  EXPECT_DOUBLE_EQ(ts.timestamp_at(1), 1.0);
}

TEST(Collector, ChangingIdSetAppendsEachValueToItsOwnSeries) {
  using P = std::vector<std::pair<double, double>>;
  MetricStore store;
  Collector collector(&store);
  collector.add_sampler(std::make_shared<ScriptedSampler>(
      std::vector<std::vector<Sample>>{
          {{{"a", "s"}, 1}, {{"b", "s"}, 2}},
          {{{"c", "s"}, 3}, {{"a", "s"}, 4}},  // same size, other names
          {{{"a", "s"}, 5}, {{"b", "s"}, 6}, {{"d", "s"}, 7}},  // larger
          {{{"b", "s"}, 8}},                                     // smaller
      }));
  for (int t = 0; t < 4; ++t) collector.collect(t);
  EXPECT_EQ(points(store.series({"a", "s"})), (P{{0, 1}, {1, 4}, {2, 5}}));
  EXPECT_EQ(points(store.series({"b", "s"})), (P{{0, 2}, {2, 6}, {3, 8}}));
  EXPECT_EQ(points(store.series({"c", "s"})), (P{{1, 3}}));
  EXPECT_EQ(points(store.series({"d", "s"})), (P{{2, 7}}));
  EXPECT_EQ(store.metric_count(), 4u);
}

TEST(Collector, SinkSeesEverySampleInCollectionOrder) {
  const std::vector<Event> expected = {
      {"value::count", 0, 1}, {"x::s", 0, 10}, {"y::s", 0, 11},
      {"value::count", 5, 2}, {"y::s", 5, 12}, {"x::s", 5, 13},
  };
  for (const bool store_enabled : {true, false}) {
    MetricStore store;
    Collector collector(&store);
    RecordingSink sink;
    collector.add_sampler(std::make_shared<CountingSampler>());
    collector.add_sampler(std::make_shared<ScriptedSampler>(
        std::vector<std::vector<Sample>>{
            {{{"x", "s"}, 10}, {{"y", "s"}, 11}},
            {{{"y", "s"}, 12}, {{"x", "s"}, 13}},
        }));
    collector.set_sink(&sink);
    collector.set_store_enabled(store_enabled);
    collector.collect(0.0);
    collector.collect(5.0);
    EXPECT_EQ(sink.events, expected) << "store_enabled " << store_enabled;
    EXPECT_EQ(store.metric_count(), store_enabled ? 3u : 0u);
  }
}

TEST(Collector, NoObserverMeansNoPolling) {
  MetricStore store;
  Collector collector(&store);
  auto sampler = std::make_shared<CountingSampler>();
  collector.add_sampler(sampler);
  collector.set_store_enabled(false);
  for (int t = 0; t < 3; ++t) collector.collect(t);
  EXPECT_EQ(sampler->polls_, 0);
  RecordingSink sink;
  collector.set_sink(&sink);
  collector.collect(3.0);
  EXPECT_EQ(sampler->polls_, 1);
  EXPECT_EQ(sink.events, (std::vector<Event>{{"value::count", 3, 1}}));
  EXPECT_EQ(store.metric_count(), 0u);
}

TEST(Collector, RejectsNulls) {
  EXPECT_THROW(Collector(nullptr), InvariantError);
  MetricStore store;
  Collector collector(&store);
  EXPECT_THROW(collector.add_sampler(nullptr), InvariantError);
}

TEST(Csv, WidetableWithHeaderAndRows) {
  MetricStore store;
  store.record({"a", "s"}, 0.0, 1.0);
  store.record({"a", "s"}, 1.0, 2.0);
  store.record({"b", "s"}, 0.0, 3.0);
  std::ostringstream os;
  write_csv(os, store);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("timestamp,a::s,b::s"), std::string::npos);
  EXPECT_NE(csv.find("0,1,3"), std::string::npos);
  EXPECT_NE(csv.find("1,2,"), std::string::npos);  // missing b at t=1
}

TEST(Csv, DuplicateTimestampKeepsLaterSamples) {
  MetricStore store;
  const double stamps[] = {0, 1, 1, 2};
  for (int i = 0; i < 4; ++i) store.record({"a", "s"}, stamps[i], 10 + i);
  store.record({"b", "s"}, 0, 20);
  store.record({"b", "s"}, 2, 22);
  std::ostringstream os;
  write_csv(os, store);
  // The row at t=1 takes the first of its two samples; t=2 still has a.
  EXPECT_EQ(os.str(), "timestamp,a::s,b::s\n0,10,20\n1,11,\n2,13,22\n");
}

// ---- write_csv against a reference encoder ----------------------------

/// Reference encoder: a std::map union of timestamps, a store lookup per
/// cell and ostream formatting. write_csv must match it byte for byte on
/// stores without duplicate timestamps within a series (where the
/// reference drops later cells; see DuplicateTimestampKeepsLaterSamples).
std::string reference_csv(const MetricStore& store) {
  std::ostringstream os;
  const auto ids = store.metric_ids();
  os << "timestamp";
  for (const auto& id : ids) os << ',' << id.full_name();
  os << '\n';
  std::map<double, std::size_t> stamp_rows;
  for (const auto& id : ids) {
    const auto& ts = store.series(id);
    for (std::size_t i = 0; i < ts.size(); ++i)
      stamp_rows.emplace(ts.timestamp_at(i), 0);
  }
  std::vector<std::size_t> cursor(ids.size(), 0);
  for (const auto& [stamp, unused] : stamp_rows) {
    os << stamp;
    for (std::size_t c = 0; c < ids.size(); ++c) {
      const auto& ts = store.series(ids[c]);
      os << ',';
      if (cursor[c] < ts.size() && ts.timestamp_at(cursor[c]) == stamp) {
        os << ts.value_at(cursor[c]);
        ++cursor[c];
      }
    }
    os << '\n';
  }
  return os.str();
}

/// Doubles that stress %.6g: every bit pattern (NaN, inf, subnormals, all
/// exponents), signed zeros and extremes, integers up to 2^60, decimal
/// fractions, and 7-digit integers ending in 5 (exact rounding ties).
double random_double(std::mt19937_64& rng) {
  constexpr double kSpecial[] = {
      0.0, -0.0, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      1e300, -1e300, 1e-300, -1e-300,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  const auto sign = [&] { return rng() % 2 == 0 ? 1.0 : -1.0; };
  switch (rng() % 6) {
    case 0: return std::bit_cast<double>(rng());
    case 1: return kSpecial[rng() % std::size(kSpecial)];
    case 2: return sign() * static_cast<double>(rng() >> (4 + rng() % 60));
    case 3:
      return sign() * static_cast<double>(rng() % 10'000'000) /
             std::pow(10.0, static_cast<double>(rng() % 12));
    case 4: return static_cast<double>((rng() % 900'000) * 10 + 1'000'005);
    default:
      return std::ldexp(1.0 + static_cast<double>(rng() >> 11) * 0x1p-53,
                        static_cast<int>(rng() % 200) - 100);
  }
}

/// A store of up to 8 series whose stamps are drawn from a pool with
/// signed zeros, subnormals, +-1e300 and +-inf: all series share one stamp
/// array (up to the sign of zero), or each takes its own random subset
/// (ragged), or the pool is dealt out between them (disjoint).
MetricStore random_store(std::mt19937_64& rng) {
  static const MetricId kIds[] = {
      {"a", "s"},     {"a", "t"},  {"a:b", "s"}, {"a_", "s"},
      {"", "z"},      {"Z", ""},   {"b::c", "x"}, {"user", "procstat"},
      {"AR_NIC_NETMON_ORB_EVENT_CNTR_REQ_FLITS", "aries_nic_mmr"},
      {"AR_NIC_NETMON_ORB_EVENT_CNTR_RSP_FLITS", "aries_nic_mmr"}};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> pool = {-kInf, -1e300, -2.5, 0.0, 4.9e-324, 1e-300,
                              0.5,   1e300,  kInf};
  for (int t = 1; t <= 40; ++t) pool.push_back(t);
  std::sort(pool.begin(), pool.end());

  MetricStore store;
  const std::size_t mode = rng() % 3;
  const std::size_t columns = rng() % 9;
  std::vector<std::size_t> owner(pool.size());
  for (auto& o : owner) o = rng() % std::max<std::size_t>(columns, 1);
  std::vector<bool> shared(pool.size());
  for (std::size_t k = 0; k < pool.size(); ++k) shared[k] = rng() % 3 != 0;
  for (std::size_t c = 0; c < columns; ++c) {
    const MetricId& id = kIds[(c * 7 + rng() % 3) % std::size(kIds)];
    if (store.contains(id)) continue;
    for (std::size_t k = 0; k < pool.size(); ++k) {
      const bool take = mode == 0   ? shared[k]
                        : mode == 1 ? rng() % 2 == 0
                                    : owner[k] == c;
      if (!take) continue;
      const double stamp = pool[k] == 0.0 && rng() % 2 ? -0.0 : pool[k];
      store.record(id, stamp, random_double(rng));
    }
  }
  return store;
}

TEST(Csv, MatchesReferenceEncoderOnRandomStores) {
  std::mt19937_64 rng(20190805);
  for (int n = 0; n < 400; ++n) {
    const MetricStore store = random_store(rng);
    std::ostringstream os;
    write_csv(os, store);
    ASSERT_EQ(os.str(), reference_csv(store)) << "store " << n;
  }
}

std::string to_chars_general6(double v) {
  char buf[32];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 6);
  return std::string(buf, end);
}

/// The first of `count` doubles drawn from `seed` that `os << v` and
/// to_chars(general, 6) print differently, described; "" if none.
std::string first_format_mismatch(std::uint64_t seed, int count) {
  std::mt19937_64 rng(seed);
  std::vector<double> values(static_cast<std::size_t>(count));
  for (double& v : values) v = random_double(rng);
  std::ostringstream os;
  std::string fast;
  for (const double v : values) {
    os << v << '\n';
    fast += to_chars_general6(v);
    fast += '\n';
  }
  if (os.str() == fast) return "";
  for (const double v : values) {
    std::ostringstream one;
    one << v;
    if (one.str() != to_chars_general6(v))
      return one.str() + " vs " + to_chars_general6(v);
  }
  return "streams differ outside any single value";
}

TEST(Csv, ToCharsGeneral6MatchesOstreamDefault) {
  // 2^20 doubles. One ostream insertion costs most of a microsecond, so
  // four threads share them to keep the test under a second.
  constexpr int kThreads = 4;
  std::vector<std::string> mismatch(kThreads);
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&mismatch, k] {
      mismatch[static_cast<std::size_t>(k)] =
          first_format_mismatch(6 + static_cast<std::uint64_t>(k),
                                (1 << 20) / kThreads);
    });
  }
  for (auto& t : threads) t.join();
  for (const std::string& m : mismatch) EXPECT_EQ(m, "");
}

// ---- host samplers against synthetic /proc files --------------------

class HostSamplerTest : public ::testing::Test {
 protected:
  std::string write_file(const std::string& name, const std::string& body) {
    const auto path = std::filesystem::temp_directory_path() /
                      ("hpas_test_" + name + std::to_string(::getpid()));
    std::ofstream out(path);
    out << body;
    files_.push_back(path);
    return path.string();
  }
  void TearDown() override {
    for (const auto& f : files_) std::filesystem::remove(f);
  }
  std::vector<std::filesystem::path> files_;
};

TEST_F(HostSamplerTest, ProcStatParsesAggregateLine) {
  const auto path = write_file(
      "stat", "cpu  100 5 50 800 20 0 3 0 0 0\ncpu0 50 2 25 400 10 0 1 0\n");
  ProcStatSampler sampler(path);
  const auto samples = sampler.sample();
  ASSERT_EQ(samples.size(), 5u);
  EXPECT_EQ(samples[0].id.full_name(), "user::procstat");
  EXPECT_DOUBLE_EQ(samples[0].value, 100);
  EXPECT_DOUBLE_EQ(samples[3].value, 800);  // idle
}

TEST_F(HostSamplerTest, ProcStatMissingFileThrows) {
  ProcStatSampler sampler("/nonexistent/file");
  EXPECT_THROW(sampler.sample(), SystemError);
}

TEST_F(HostSamplerTest, MemInfoUsesPaperSpelledMemfree) {
  const auto path = write_file("meminfo",
                               "MemTotal:       131072000 kB\n"
                               "MemFree:        64000000 kB\n"
                               "Cached:         1000 kB\n"
                               "Active:         2000 kB\n");
  MemInfoSampler sampler(path);
  const auto samples = sampler.sample();
  bool found = false;
  for (const auto& s : samples) {
    if (s.id.full_name() == "Memfree::meminfo") {
      found = true;
      EXPECT_DOUBLE_EQ(s.value, 64000000);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(HostSamplerTest, VmStatPicksKnownFields) {
  const auto path = write_file("vmstat",
                               "nr_free_pages 100\npgfault 5000\n"
                               "pgmajfault 10\npgpgin 1\npgpgout 2\n");
  VmStatSampler sampler(path);
  const auto samples = sampler.sample();
  EXPECT_EQ(samples.size(), 4u);
}

TEST(HostSamplers, CpuUtilizationBetween) {
  const std::vector<Sample> before = {
      {{"user", "procstat"}, 100}, {{"nice", "procstat"}, 0},
      {{"sys", "procstat"}, 50},   {{"idle", "procstat"}, 800},
      {{"iowait", "procstat"}, 50},
  };
  const std::vector<Sample> after = {
      {{"user", "procstat"}, 160}, {{"nice", "procstat"}, 0},
      {{"sys", "procstat"}, 70},   {{"idle", "procstat"}, 810},
      {{"iowait", "procstat"}, 60},
  };
  // busy delta = 80, total delta = 100.
  EXPECT_NEAR(cpu_utilization_between(before, after), 0.8, 1e-12);
}

TEST(HostSamplers, LiveProcIfAvailable) {
  // On Linux CI this exercises the real files end-to-end.
  if (!std::filesystem::exists("/proc/stat")) GTEST_SKIP();
  ProcStatSampler stat;
  MemInfoSampler mem;
  EXPECT_GE(stat.sample().size(), 5u);
  EXPECT_GE(mem.sample().size(), 2u);
}

}  // namespace
}  // namespace hpas::metrics
