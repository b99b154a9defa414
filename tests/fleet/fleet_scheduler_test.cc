// Determinism suite for the discrete-event fleet scheduler.
//
// Two layers:
//   1. Queue-level: FleetEventQueue drains in canonical (day, device, kind)
//      order for *every* insertion permutation of an event set — the total
//      order that makes batch composition independent of posting order, heap
//      internals, and thread scheduling.
//   2. Sim-level: the event-driven engine produces bit-identical snapshots
//      and per-device digests across --threads in {1, 2, 4, 8}, including
//      universes with transient power loss (dark-day jumps) — the path
//      where a skipped or double-counted day would show up immediately.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "fleet/event_scheduler.h"
#include "fleet/fleet_sim.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

TEST(FleetSchedulerTest, QueueDrainsInCanonicalOrder) {
  const std::vector<FleetEvent> canonical = {
      {1, 0, FleetEventKind::kStep},    {1, 0, FleetEventKind::kRestart},
      {1, 2, FleetEventKind::kStep},    {2, 0, FleetEventKind::kRestart},
      {2, 1, FleetEventKind::kStep},    {3, 0, FleetEventKind::kStep},
  };
  // Every insertion permutation must drain identically: 6! = 720 orders.
  std::vector<size_t> order(canonical.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  do {
    FleetEventQueue queue;
    for (size_t index : order) {
      queue.Post(canonical[index]);
    }
    EXPECT_EQ(queue.PopThrough(3), canonical);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(FleetSchedulerTest, QueueTieBreaksByDeviceThenKind) {
  FleetEventQueue queue;
  queue.Post({5, 3, FleetEventKind::kStep});
  queue.Post({5, 1, FleetEventKind::kRestart});
  queue.Post({5, 1, FleetEventKind::kStep});
  const std::vector<FleetEvent> batch = queue.PopThrough(5);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], (FleetEvent{5, 1, FleetEventKind::kStep}));
  EXPECT_EQ(batch[1], (FleetEvent{5, 1, FleetEventKind::kRestart}));
  EXPECT_EQ(batch[2], (FleetEvent{5, 3, FleetEventKind::kStep}));
}

TEST(FleetSchedulerTest, PopThroughLeavesFutureEventsQueued) {
  FleetEventQueue queue;
  queue.Post({4, 0, FleetEventKind::kStep});
  queue.Post({2, 1, FleetEventKind::kStep});
  queue.Post({3, 0, FleetEventKind::kRestart});
  const std::vector<FleetEvent> batch = queue.PopThrough(3);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].day, 2u);
  EXPECT_EQ(batch[1].day, 3u);
  ASSERT_FALSE(queue.empty());
  EXPECT_EQ(queue.NextDay(), 4u);
  EXPECT_TRUE(queue.PopThrough(1).empty());
  EXPECT_EQ(queue.size(), 1u);
}

// ---------------------------------------------------------------------------
// Sim-level determinism across thread counts
// ---------------------------------------------------------------------------

FleetConfig SchedulerFleet(SsdKind kind, unsigned threads) {
  FleetConfig config;
  config.kind = kind;
  config.devices = 8;
  config.geometry = testing_util::TinyGeometry();
  config.ecc = FPageEccGeometry{};
  config.wear = testing_util::FastWear(config.ecc, /*nominal_pec=*/25);
  config.msize_opages = 64;
  config.dwpd = 2.0;
  config.dwpd_sigma = 0.3;
  config.afr = 0.05;
  config.days = 200;
  config.sample_every_days = 7;  // horizon not a multiple: exercises the tail
  config.seed = 424242;
  config.threads = threads;
  config.scheduler = FleetSchedulerMode::kEventDriven;
  return config;
}

using RunResult = std::tuple<std::vector<FleetSnapshot>,
                             std::vector<uint64_t>>;

RunResult RunEventFleet(FleetConfig config) {
  FleetSim sim(config);
  const std::vector<FleetSnapshot> snapshots = sim.Run();
  return {snapshots, sim.DeviceDigests()};
}

TEST(FleetSchedulerTest, ThreadCountInvariantWearUniverse) {
  const RunResult serial = RunEventFleet(SchedulerFleet(SsdKind::kRegenS, 1));
  for (unsigned threads : {2u, 4u, 8u}) {
    EXPECT_EQ(RunEventFleet(SchedulerFleet(SsdKind::kRegenS, threads)),
              serial)
        << "threads=" << threads;
  }
}

TEST(FleetSchedulerTest, ThreadCountInvariantPowerLossUniverse) {
  auto universe = [](unsigned threads) {
    FleetConfig config = SchedulerFleet(SsdKind::kShrinkS, threads);
    config.power_loss_per_device_day = 0.02;
    config.power_loss_restart_days = 9;  // outages straddle sync windows
    return config;
  };
  const RunResult serial = RunEventFleet(universe(1));
  for (unsigned threads : {2u, 4u, 8u}) {
    EXPECT_EQ(RunEventFleet(universe(threads)), serial)
        << "threads=" << threads;
  }
}

// The point of the engine: device-days after death are never simulated. With
// fast wear and a long horizon, stepped days must come in far below the
// lockstep bill of devices x days.
TEST(FleetSchedulerTest, DeadDevicesCostZeroStepping) {
  FleetConfig config = SchedulerFleet(SsdKind::kBaseline, 1);
  config.days = 2000;  // most of the horizon is post-mortem
  FleetSim sim(config);
  sim.Run();
  const FleetSchedulerStats stats = sim.scheduler_stats();
  const uint64_t lockstep_bill =
      static_cast<uint64_t>(config.devices) * config.days;
  EXPECT_GT(stats.days_stepped, 0u);
  EXPECT_LT(stats.days_stepped, lockstep_bill / 4)
      << "dead devices are still being stepped";
  EXPECT_GT(stats.events, 0u);
  EXPECT_GT(stats.batches, 0u);
}

// Dark devices jump straight to their restart day instead of burning one
// no-op visit per outage day.
TEST(FleetSchedulerTest, DarkDaysAreSkippedNotStepped) {
  FleetConfig config = SchedulerFleet(SsdKind::kShrinkS, 1);
  config.wear = testing_util::FastWear(config.ecc, /*nominal_pec=*/1000);
  config.afr = 0.0;
  config.power_loss_per_device_day = 0.05;
  config.power_loss_restart_days = 12;
  FleetSim sim(config);
  sim.Run();
  EXPECT_GT(sim.power_losses_total(), 0u);
  const FleetSchedulerStats stats = sim.scheduler_stats();
  EXPECT_GT(stats.dark_days_skipped, 0u);
  // Stepped + skipped never exceeds the lockstep bill: no day is visited
  // twice and none is invented.
  EXPECT_LE(stats.days_stepped + stats.dark_days_skipped,
            static_cast<uint64_t>(config.devices) * config.days);
}

TEST(FleetSchedulerTest, LockstepReportsZeroSchedulerStats) {
  FleetConfig config = SchedulerFleet(SsdKind::kBaseline, 1);
  config.scheduler = FleetSchedulerMode::kLockstep;
  FleetSim sim(config);
  sim.Run();
  const FleetSchedulerStats stats = sim.scheduler_stats();
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.events, 0u);
  EXPECT_EQ(stats.idle_windows, 0u);
  EXPECT_EQ(stats.days_stepped, 0u);
  EXPECT_EQ(stats.dark_days_skipped, 0u);
}

}  // namespace
}  // namespace salamander
