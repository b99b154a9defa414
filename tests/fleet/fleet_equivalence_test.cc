// Exact-equivalence gate: the discrete-event engine must reproduce the
// lockstep reference bit for bit — every snapshot, every per-device
// StateDigest-backed FleetSim::DeviceDigest, every fleet accumulator
// (the power-loss ledger), and every telemetry byte — over
// faulty universes chosen to flush out off-by-one drift when the scheduler
// jumps over days (dark outages, dead tails, early fleet death).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fleet/fleet_sim.h"
#include "telemetry/metrics.h"
#include "telemetry/sampler.h"
#include "telemetry/trace.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

FleetConfig BaseFleet() {
  FleetConfig config;
  config.kind = SsdKind::kRegenS;
  config.devices = 8;
  config.geometry = testing_util::TinyGeometry();
  config.ecc = FPageEccGeometry{};
  config.wear = testing_util::FastWear(config.ecc, /*nominal_pec=*/30);
  config.msize_opages = 64;
  config.dwpd = 2.0;
  config.dwpd_sigma = 0.3;
  config.afr = 0.04;
  config.days = 180;
  config.sample_every_days = 7;
  config.seed = 20260807;
  config.threads = 1;
  return config;
}

struct EngineRun {
  std::vector<FleetSnapshot> snapshots;
  std::vector<uint64_t> digests;
  uint64_t power_losses = 0;
  uint64_t restarts = 0;
  uint64_t restart_failures = 0;
  uint32_t dark = 0;
};

EngineRun RunEngine(FleetConfig config, FleetSchedulerMode mode,
                    unsigned threads) {
  config.scheduler = mode;
  config.threads = threads;
  FleetSim sim(config);
  EngineRun run;
  run.snapshots = sim.Run();
  run.digests = sim.DeviceDigests();
  run.power_losses = sim.power_losses_total();
  run.restarts = sim.restarts_total();
  run.restart_failures = sim.restart_failures_total();
  run.dark = sim.dark_devices();
  return run;
}

// Diffs lockstep against the event engine (serial and parallel) for one
// universe: snapshots, per-device digests, and every fleet accumulator.
void ExpectEnginesEquivalent(const FleetConfig& config,
                             const std::string& label) {
  const EngineRun lockstep =
      RunEngine(config, FleetSchedulerMode::kLockstep, 1);
  const EngineRun event = RunEngine(config, FleetSchedulerMode::kEventDriven, 1);
  const EngineRun event_mt =
      RunEngine(config, FleetSchedulerMode::kEventDriven, 4);

  ASSERT_FALSE(lockstep.snapshots.empty()) << label;
  EXPECT_EQ(event.snapshots, lockstep.snapshots) << label;
  EXPECT_EQ(event_mt.snapshots, lockstep.snapshots) << label;
  ASSERT_EQ(event.digests.size(), lockstep.digests.size()) << label;
  for (size_t i = 0; i < lockstep.digests.size(); ++i) {
    EXPECT_EQ(event.digests[i], lockstep.digests[i])
        << label << ": device " << i << " diverged";
  }
  EXPECT_EQ(event_mt.digests, lockstep.digests) << label;

  // Accumulator audit (the off-by-one hunting ground when days are skipped):
  // the power-loss ledger must match to the unit.
  EXPECT_EQ(event.power_losses, lockstep.power_losses) << label;
  EXPECT_EQ(event.restarts, lockstep.restarts) << label;
  EXPECT_EQ(event.restart_failures, lockstep.restart_failures) << label;
  EXPECT_EQ(event.dark, lockstep.dark) << label;
}

TEST(FleetEquivalenceTest, WearOnlyUniverse) {
  ExpectEnginesEquivalent(BaseFleet(), "wear-only");
}

TEST(FleetEquivalenceTest, EveryKindMatches) {
  for (SsdKind kind : {SsdKind::kBaseline, SsdKind::kCvss, SsdKind::kShrinkS,
                       SsdKind::kRegenS}) {
    FleetConfig config = BaseFleet();
    config.kind = kind;
    ExpectEnginesEquivalent(config, std::string(SsdKindName(kind)));
  }
}

// restart_days = 0 is the sharpest off-by-one trap: lockstep restarts the
// *next* day (its dark check runs before the restart-day comparison), so the
// scheduler's dark-day jump must land on day + 1, not day.
TEST(FleetEquivalenceTest, PowerLossUniverseAcrossRestartLatencies) {
  for (uint32_t restart_days : {0u, 1u, 5u, 13u}) {
    FleetConfig config = BaseFleet();
    config.kind = SsdKind::kShrinkS;
    config.wear = testing_util::FastWear(config.ecc, /*nominal_pec=*/200);
    config.power_loss_per_device_day = 0.03;
    config.power_loss_restart_days = restart_days;
    ExpectEnginesEquivalent(
        config, "power-loss restart_days=" + std::to_string(restart_days));
  }
}

TEST(FleetEquivalenceTest, FaultyUniverseEverythingOn) {
  FleetConfig config = BaseFleet();
  config.power_loss_per_device_day = 0.02;
  config.power_loss_restart_days = 6;
  ExpectEnginesEquivalent(config, "everything-on");
}

// Early fleet death: the run stops before the horizon and the final snapshot
// carries the exact day the last device died, not a window boundary.
TEST(FleetEquivalenceTest, EarlyFleetDeathSameFinalDay) {
  FleetConfig config = BaseFleet();
  config.kind = SsdKind::kBaseline;
  config.wear = testing_util::FastWear(config.ecc, /*nominal_pec=*/10);
  config.afr = 0.2;  // hasten the last stragglers
  config.days = 5000;
  const EngineRun lockstep =
      RunEngine(config, FleetSchedulerMode::kLockstep, 1);
  const EngineRun event =
      RunEngine(config, FleetSchedulerMode::kEventDriven, 1);
  ASSERT_GT(lockstep.snapshots.size(), 1u);
  EXPECT_LT(lockstep.snapshots.back().day, config.days) << "fleet survived";
  EXPECT_EQ(event.snapshots, lockstep.snapshots);
  EXPECT_EQ(event.digests, lockstep.digests);
}

TEST(FleetEquivalenceTest, EmptyFleetMatches) {
  FleetConfig config = BaseFleet();
  config.devices = 0;
  const EngineRun lockstep =
      RunEngine(config, FleetSchedulerMode::kLockstep, 1);
  const EngineRun event =
      RunEngine(config, FleetSchedulerMode::kEventDriven, 1);
  EXPECT_EQ(event.snapshots, lockstep.snapshots);
}

// Telemetry byte-identity across engines: same sampler CSV, same trace JSON.
// The event engine drains at day barriers exactly as lockstep does, so an
// attached sampler sees every day and the trace carries the same spans,
// death instants, and counter tracks.
TEST(FleetEquivalenceTest, TelemetryBytesMatchAcrossEngines) {
  auto run_telemetry = [](FleetSchedulerMode mode) {
    FleetConfig config = BaseFleet();
    config.kind = SsdKind::kShrinkS;
    config.power_loss_per_device_day = 0.02;
    config.power_loss_restart_days = 4;
    config.scheduler = mode;
    TimeSeriesSampler sampler;
    TraceRecorder trace;
    config.sampler = &sampler;
    config.trace = &trace;
    FleetSim sim(config);
    sim.Run();
    return std::make_pair(sampler.ToCsv(), trace.ToJson());
  };
  const auto lockstep = run_telemetry(FleetSchedulerMode::kLockstep);
  const auto event = run_telemetry(FleetSchedulerMode::kEventDriven);
  EXPECT_EQ(event.first, lockstep.first);
  EXPECT_EQ(event.second, lockstep.second);
}

}  // namespace
}  // namespace salamander
