// Tests for composite anomaly schedules (anomalies/schedule.hpp).
#include "anomalies/schedule.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/stopwatch.hpp"

namespace hpas::anomalies {
namespace {

Schedule parse_text(const std::string& text) {
  std::istringstream in(text);
  return parse_schedule(in);
}

TEST(ScheduleParse, BasicFormatWithCommentsAndBlanks) {
  const Schedule schedule = parse_text(
      "# composite variability pattern\n"
      "\n"
      "at 0s   cpuoccupy -u 80 -d 30s\n"
      "at 10s  memleak -s 20M -d 45s   # trailing comment\n"
      "at 1.5m cachecopy -c L2 -d 20s\n");
  ASSERT_EQ(schedule.entries.size(), 3u);
  EXPECT_DOUBLE_EQ(schedule.entries[0].start_s, 0.0);
  EXPECT_EQ(schedule.entries[0].anomaly, "cpuoccupy");
  EXPECT_EQ(schedule.entries[0].args,
            (std::vector<std::string>{"-u", "80", "-d", "30s"}));
  EXPECT_DOUBLE_EQ(schedule.entries[1].start_s, 10.0);
  EXPECT_DOUBLE_EQ(schedule.entries[2].start_s, 90.0);
}

TEST(ScheduleParse, SpanCoversLatestEnd) {
  const Schedule schedule = parse_text(
      "at 0s  cpuoccupy -d 30s\n"
      "at 50s memleak -d 20s --start-delay 5s\n");
  EXPECT_DOUBLE_EQ(schedule.span_seconds(), 75.0);  // 50 + 5 + 20
}

TEST(ScheduleParse, ErrorsCarryLineNumbers) {
  try {
    parse_text("at 0s cpuoccupy -d 1s\nat 5s bogus -d 1s\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(ScheduleParse, RejectsMalformedLines) {
  EXPECT_THROW(parse_text("cpuoccupy -d 1s\n"), ConfigError);
  EXPECT_THROW(parse_text("at banana cpuoccupy -d 1s\n"), ConfigError);
  EXPECT_THROW(parse_text("at 0s\n"), ConfigError);
  // Bad per-anomaly args are validated eagerly, with the line number.
  EXPECT_THROW(parse_text("at 0s cpuoccupy -u 150 -d 1s\n"), ConfigError);
}

TEST(ScheduleParse, EmptyScheduleIsValid) {
  const Schedule schedule = parse_text("# nothing\n\n");
  EXPECT_TRUE(schedule.entries.empty());
  EXPECT_DOUBLE_EQ(schedule.span_seconds(), 0.0);
}

TEST(ScheduleParse, MissingFileThrows) {
  EXPECT_THROW(load_schedule_file("/nonexistent/schedule.txt"), SystemError);
}

TEST(ScheduleRun, ConcurrentInstancesHonourOffsets) {
  const Schedule schedule = parse_text(
      "at 0s    cpuoccupy -u 30 -d 0.3s -p 50ms\n"
      "at 0.2s  memleak -s 256K -r 20ms -d 0.2s\n");
  Stopwatch sw;
  const auto results = run_schedule(schedule);
  const double elapsed = sw.elapsed_seconds();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    EXPECT_TRUE(result.error.empty()) << result.error;
    EXPECT_GT(result.stats.iterations, 0u);
    // Every entry carries a supervision verdict; a clean run is healthy.
    EXPECT_TRUE(result.supervision.healthy())
        << result.supervision.to_string();
    EXPECT_GE(result.supervision.workers_total, 1u);
    EXPECT_EQ(result.supervision.workers_failed, 0u);
  }
  // The whole composition runs concurrently: well under the serial sum
  // but at least the longest chain (0.2 + 0.2 = 0.4s).
  EXPECT_GE(elapsed, 0.38);
  EXPECT_LT(elapsed, 2.0);
  // The delayed instance's wall time includes its offset.
  EXPECT_GE(results[1].stats.elapsed_seconds, 0.38);
}

TEST(ScheduleRun, StopRequestTearsEverythingDown) {
  const Schedule schedule = parse_text(
      "at 0s cpuoccupy -u 20 -d 0\n"   // unlimited
      "at 0s memleak -s 64K -r 10ms -d 0\n");
  std::atomic<bool> stop{false};
  Stopwatch sw;
  std::thread stopper([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    stop.store(true);
  });
  const auto results = run_schedule(schedule, &stop);
  stopper.join();
  EXPECT_LT(sw.elapsed_seconds(), 5.0);
  for (const auto& result : results) EXPECT_TRUE(result.error.empty());
}

}  // namespace
}  // namespace hpas::anomalies
