// Memory-pressure guard: the footprint anomalies must degrade to holding
// their allocation -- never grow into an OOM kill -- when available
// memory drops below the floor.
#include "anomalies/mem_guard.hpp"

#include <gtest/gtest.h>

#include "anomalies/memeater.hpp"
#include "anomalies/memleak.hpp"

namespace {

using hpas::anomalies::available_memory_bytes;
using hpas::anomalies::parse_cgroup_bytes;
using hpas::anomalies::parse_meminfo_available;

TEST(MemGuardParse, MeminfoAvailable) {
  const std::string meminfo =
      "MemTotal:       16384000 kB\n"
      "MemFree:         1024000 kB\n"
      "MemAvailable:    2048000 kB\n"
      "Buffers:          512000 kB\n";
  const auto avail = parse_meminfo_available(meminfo);
  ASSERT_TRUE(avail.has_value());
  EXPECT_EQ(*avail, 2048000ULL * 1024);
}

TEST(MemGuardParse, MeminfoWithoutAvailableLine) {
  EXPECT_FALSE(parse_meminfo_available("MemTotal: 1 kB\n").has_value());
  EXPECT_FALSE(parse_meminfo_available("").has_value());
}

TEST(MemGuardParse, CgroupBytes) {
  EXPECT_EQ(parse_cgroup_bytes("4294967296\n"), 4294967296ULL);
  EXPECT_EQ(parse_cgroup_bytes("0\n"), 0ULL);
  EXPECT_FALSE(parse_cgroup_bytes("max\n").has_value());
  EXPECT_FALSE(parse_cgroup_bytes("garbage").has_value());
}

TEST(MemGuard, AvailableMemoryIsReadableOnLinux) {
  // On any Linux with /proc this returns a sane nonzero value; elsewhere
  // nullopt is the documented answer.
  const auto avail = available_memory_bytes();
  if (avail.has_value()) {
    EXPECT_GT(*avail, 0u);
  }
}

TEST(MemGuard, MemEaterHoldsBelowFloor) {
  if (!available_memory_bytes().has_value())
    GTEST_SKIP() << "no readable memory accounting on this platform";
  // An impossibly high floor engages the guard on the very first
  // iteration: the eater must hold at zero bytes instead of growing.
  hpas::anomalies::MemEaterOptions opts;
  opts.common.duration_s = 0.3;
  opts.step_bytes = 1 << 20;
  opts.sleep_between_steps_s = 0.05;
  opts.mem_floor_bytes = 1ULL << 62;
  hpas::anomalies::MemEater eater(opts);
  const auto stats = eater.run();
  EXPECT_EQ(eater.allocated_bytes(), 0u);
  EXPECT_GT(eater.floor_holds(), 0u);
  EXPECT_GT(stats.iterations, 0u);
}

TEST(MemGuard, MemLeakHoldsBelowFloor) {
  if (!available_memory_bytes().has_value())
    GTEST_SKIP() << "no readable memory accounting on this platform";
  hpas::anomalies::MemLeakOptions opts;
  opts.common.duration_s = 0.3;
  opts.chunk_bytes = 1 << 20;
  opts.sleep_between_chunks_s = 0.05;
  opts.mem_floor_bytes = 1ULL << 62;
  hpas::anomalies::MemLeak leak(opts);
  leak.run();
  EXPECT_EQ(leak.leaked_bytes(), 0u);
  EXPECT_GT(leak.floor_holds(), 0u);
}

TEST(MemGuard, DisabledFloorNeverHolds) {
  hpas::anomalies::MemEaterOptions opts;
  opts.common.duration_s = 0.1;
  opts.step_bytes = 1 << 16;  // 64 KiB steps: tiny, fast
  opts.sleep_between_steps_s = 0.01;
  opts.max_bytes = 1 << 20;
  opts.mem_floor_bytes = 0;
  hpas::anomalies::MemEater eater(opts);
  const auto stats = eater.run();
  EXPECT_EQ(eater.floor_holds(), 0u);
  // teardown() releases the buffer after run(); the grown footprint is
  // visible through the work counter.
  EXPECT_GT(stats.work_amount, 0.0);
}

}  // namespace
