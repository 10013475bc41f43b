// Engine cancellation bookkeeping under load (sim/engine/simulator.cpp).
//
// Pins the two contracts the slot-map rewrite introduced: (1)
// pending_events() counts *live* events only -- cancelled tombstones
// still physically queued are bookkeeping, not work, and must not leak
// into the count the apps' drain loops and the runner's progress checks
// read; (2) a cancel storm leaves the heap bounded -- compaction keeps
// queued tombstones under max(compaction floor, live events) at every
// point, while the surviving events still fire in exact (time, FIFO)
// order.
#include "sim/engine/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace hpas::sim {
namespace {

TEST(PendingEvents, CountsLiveEventsNotTombstones) {
  Simulator sim;
  std::vector<EventHandle> handles;
  int fired = 0;
  for (int i = 0; i < 100; ++i)
    handles.push_back(sim.schedule_at(1.0 + i, [&] { ++fired; }));
  ASSERT_EQ(sim.pending_events(), 100u);

  // Cancel the second half: the tombstones stay queued (lazy cancel) but
  // the live count drops immediately.
  for (std::size_t i = 50; i < handles.size(); ++i) sim.cancel(handles[i]);
  EXPECT_EQ(sim.pending_events(), 50u);
  EXPECT_EQ(sim.queued_tombstones(), 50u);

  // Double-cancel must not double-count.
  for (std::size_t i = 50; i < handles.size(); ++i) sim.cancel(handles[i]);
  EXPECT_EQ(sim.pending_events(), 50u);
  EXPECT_EQ(sim.queued_tombstones(), 50u);

  // Half the live events fire; the count tracks exactly what remains.
  sim.run_until(25.5);
  EXPECT_EQ(fired, 25);
  EXPECT_EQ(sim.pending_events(), 25u);

  sim.run();
  EXPECT_EQ(fired, 50);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.queued_tombstones(), 0u);
}

TEST(PendingEvents, CancellingEverythingReportsZeroWithoutRunning) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 32; ++i)
    handles.push_back(sim.schedule_at(5.0, [] {}));
  for (const auto& h : handles) sim.cancel(h);
  // The old engine reported 32 here (the tombstones were still queued),
  // which made "drain until pending_events() == 0" loops spin.
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);  // nothing live ever fired
}

/// One cancel-storm instance: `ops` interleaved schedule and cancel
/// operations against a reference model, with this engine's tombstone
/// population checked after every operation. The floor comes from
/// Simulator::compaction_floor() -- the engine's own constant, so the
/// bound cannot drift from the implementation -- and applies *per engine
/// instance*: every scenario of a parallel sweep owns its own Simulator,
/// its own heap, and its own floor.
void run_cancel_storm(std::uint64_t seed, int ops) {
  struct ModelEvent {
    double time;
    int seq;
    bool cancelled = false;
  };

  Rng rng(seed);
  Simulator sim;
  std::vector<ModelEvent> model;
  std::vector<EventHandle> handles;
  std::vector<int> fired;
  std::size_t max_tombstones = 0;

  for (int op = 0; op < ops; ++op) {
    // Cancel-heavy mix (60/40) so tombstones repeatedly cross the
    // compaction threshold.
    if (!handles.empty() && rng.uniform01() < 0.6) {
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(handles.size()) - 1));
      sim.cancel(handles[pick]);
      model[pick].cancelled = true;
    } else {
      const double t = static_cast<double>(rng.uniform_int(0, 999));
      const int seq = static_cast<int>(model.size());
      handles.push_back(
          sim.schedule_at(t, [&fired, seq] { fired.push_back(seq); }));
      model.push_back({t, seq, false});
    }
    const std::size_t bound =
        std::max(Simulator::compaction_floor(), sim.pending_events());
    ASSERT_LE(sim.queued_tombstones(), bound) << "after op " << op;
    max_tombstones = std::max(max_tombstones, sim.queued_tombstones());
  }

  // The storm cancelled a multiple of the floor; without compaction the
  // tombstone population would have matched the cancel count at its peak
  // instead of staying under the max(floor, live) envelope asserted
  // after every operation above.
  std::size_t cancelled = 0;
  for (const auto& e : model) cancelled += e.cancelled ? 1u : 0u;
  ASSERT_GT(cancelled, 5u * Simulator::compaction_floor());
  EXPECT_LT(max_tombstones, cancelled);

  sim.run();

  std::vector<std::size_t> order(model.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return model[a].time < model[b].time;
                   });
  std::vector<int> expected;
  for (const std::size_t i : order)
    if (!model[i].cancelled) expected.push_back(model[i].seq);

  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.queued_tombstones(), 0u);
}

TEST(CancelStorm, SurvivorsFireInOrderAndTombstonesStayBounded) {
  run_cancel_storm(0x57A6u, 100000);
}

TEST(CancelStorm, PerShardEnginesKeepIndependentTombstoneFloors) {
  // Sweep-shaped concurrency: one Simulator per concurrently running
  // scenario, each on its own thread, each bounded by its *own*
  // compaction floor. There is no shared engine state, so this must be
  // race-free (the TSan job runs this suite) and every engine's storm
  // must satisfy the same envelope the single-engine storm does.
  const int engine_counts[] = {2, 4, 8};
  for (const int engines : engine_counts) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(engines));
    for (int s = 0; s < engines; ++s) {
      // Full-size storms per engine: the floor is per engine, so the
      // workload that crosses it on one engine must cross it on all.
      threads.emplace_back([s] {
        run_cancel_storm(0x57A6u + static_cast<std::uint64_t>(s), 50000);
      });
    }
    for (auto& t : threads) t.join();
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(CancelStorm, CompactionDoesNotPerturbInterleavedScheduling) {
  // Drive tombstones through several compactions while live events keep
  // firing and rescheduling; handles issued before a compaction must
  // still cancel correctly after it (the slot map, not heap position,
  // carries identity).
  Simulator sim;
  Rng rng(0xC0DAu);
  int fired = 0;
  for (int round = 0; round < 8; ++round) {
    std::vector<EventHandle> batch;
    const double base = sim.now() + 1.0;
    for (int i = 0; i < 1000; ++i)
      batch.push_back(sim.schedule_at(
          base + 0.001 * static_cast<double>(i), [&] { ++fired; }));
    // Cancel 90% of the batch in random order.
    for (std::size_t i = batch.size(); i > 1; --i)
      std::swap(batch[i - 1],
                batch[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    for (std::size_t i = 0; i < 900; ++i) sim.cancel(batch[i]);
    sim.run_until(base + 2.0);
  }
  EXPECT_EQ(fired, 8 * 100);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace hpas::sim
