// Fleet + traffic-engine suite: the multi-tenant engine as the fleet's
// write-demand source. Pins the two contracts the integration must keep:
// (a) disabled traffic is invisible — snapshots, digests, and metric dumps
// are unaffected by anything in the (ignored) tenant template; (b) enabled
// traffic stays bit-identical across thread counts and across the
// lockstep/event schedulers, like every other fleet feature.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fleet/fleet_sim.h"
#include "telemetry/metrics.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

FleetConfig TrafficFleet(SsdKind kind, unsigned threads) {
  FleetConfig config;
  config.kind = kind;
  config.devices = 6;
  config.geometry = testing_util::TinyGeometry();
  config.ecc = FPageEccGeometry{};
  config.wear = testing_util::FastWear(config.ecc, /*nominal_pec=*/20);
  config.msize_opages = 64;
  config.dwpd = 2.0;
  config.dwpd_sigma = 0.3;
  config.afr = 0.05;
  config.days = 120;
  config.sample_every_days = 5;
  config.seed = 24681357;
  config.threads = threads;
  config.traffic.tenants_per_device = 3;
  config.traffic.tenant.ops_per_day = 300.0;
  config.traffic.tenant.read_fraction = 0.5;
  config.traffic.tenant.churn_per_day = 0.01;
  return config;
}

struct RunResult {
  std::vector<FleetSnapshot> snapshots;
  std::vector<uint64_t> digests;
  std::string metrics_json;
};

RunResult RunFleet(const FleetConfig& config) {
  MetricRegistry registry;
  FleetConfig with_metrics = config;
  with_metrics.metrics = &registry;
  FleetSim sim(with_metrics);
  RunResult result;
  result.snapshots = sim.Run();
  result.digests = sim.DeviceDigests();
  result.metrics_json = registry.ToJson();
  return result;
}

TEST(FleetTrafficTest, DisabledTrafficIgnoresTenantTemplate) {
  // With tenants_per_device == 0 the engine forks nothing, so even a wild
  // tenant template must leave every byte of output untouched.
  FleetConfig off = TrafficFleet(SsdKind::kShrinkS, 1);
  off.traffic.tenants_per_device = 0;
  FleetConfig off_other_template = off;
  off_other_template.traffic.tenant.ops_per_day = 99999.0;
  off_other_template.traffic.tenant.zipf_theta = 0.5;
  const RunResult a = RunFleet(off);
  const RunResult b = RunFleet(off_other_template);
  EXPECT_EQ(a.snapshots, b.snapshots);
  EXPECT_EQ(a.digests, b.digests);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.metrics_json.find("fleet.traffic"), std::string::npos);
}

TEST(FleetTrafficTest, EnabledTrafficChangesDemand) {
  FleetConfig on = TrafficFleet(SsdKind::kShrinkS, 1);
  FleetConfig off = on;
  off.traffic.tenants_per_device = 0;
  const RunResult with_traffic = RunFleet(on);
  const RunResult without = RunFleet(off);
  ASSERT_FALSE(with_traffic.snapshots.empty());
  EXPECT_NE(with_traffic.digests, without.digests);
  EXPECT_NE(with_traffic.metrics_json.find("fleet.traffic.writes"),
            std::string::npos);
}

TEST(FleetTrafficTest, ParallelMatchesSerialWithTraffic) {
  for (SsdKind kind : {SsdKind::kBaseline, SsdKind::kRegenS}) {
    const RunResult serial = RunFleet(TrafficFleet(kind, 1));
    const RunResult parallel = RunFleet(TrafficFleet(kind, 4));
    ASSERT_FALSE(serial.snapshots.empty());
    EXPECT_EQ(serial.snapshots, parallel.snapshots);
    EXPECT_EQ(serial.digests, parallel.digests);
    EXPECT_EQ(serial.metrics_json, parallel.metrics_json);
  }
}

TEST(FleetTrafficTest, EventEngineMatchesLockstepWithTraffic) {
  FleetConfig lockstep = TrafficFleet(SsdKind::kShrinkS, 1);
  lockstep.scheduler = FleetSchedulerMode::kLockstep;
  FleetConfig event = TrafficFleet(SsdKind::kShrinkS, 4);
  event.scheduler = FleetSchedulerMode::kEventDriven;
  const RunResult reference = RunFleet(lockstep);
  const RunResult tested = RunFleet(event);
  ASSERT_FALSE(reference.snapshots.empty());
  EXPECT_EQ(reference.snapshots, tested.snapshots);
  EXPECT_EQ(reference.digests, tested.digests);
}

TEST(FleetTrafficTest, EventEngineMatchesLockstepWithTrafficAndPowerLoss) {
  // Traffic demand + dark-day jumps together: the engine's catch-up path
  // must see the same alive-day sequence in both schedulers.
  FleetConfig lockstep = TrafficFleet(SsdKind::kRegenS, 1);
  lockstep.scheduler = FleetSchedulerMode::kLockstep;
  lockstep.power_loss_per_device_day = 0.01;
  lockstep.power_loss_restart_days = 3;
  FleetConfig event = lockstep;
  event.threads = 4;
  event.scheduler = FleetSchedulerMode::kEventDriven;
  const RunResult reference = RunFleet(lockstep);
  const RunResult tested = RunFleet(event);
  ASSERT_FALSE(reference.snapshots.empty());
  EXPECT_EQ(reference.snapshots, tested.snapshots);
  EXPECT_EQ(reference.digests, tested.digests);
}

TEST(FleetTrafficTest, ThreadCountInvarianceWithTraffic) {
  const RunResult reference = RunFleet(TrafficFleet(SsdKind::kRegenS, 1));
  for (unsigned threads : {2u, 3u, 8u}) {
    EXPECT_EQ(RunFleet(TrafficFleet(SsdKind::kRegenS, threads)).digests,
              reference.digests)
        << "threads=" << threads;
  }
}

TEST(FleetTrafficTest, TrafficCountersAggregateAcrossDevices) {
  MetricRegistry registry;
  FleetConfig config = TrafficFleet(SsdKind::kShrinkS, 1);
  config.days = 30;
  FleetSim sim(config);
  (void)sim.Run();
  sim.CollectMetrics(registry);
  const uint64_t ops = registry.GetCounter("fleet.traffic.ops").value();
  const uint64_t reads = registry.GetCounter("fleet.traffic.reads").value();
  const uint64_t writes = registry.GetCounter("fleet.traffic.writes").value();
  EXPECT_GT(ops, 0u);
  EXPECT_EQ(ops, reads + writes);
  // 6 devices x 3 tenants x 300 ops/day x 30 days, halved into writes —
  // the aggregate must be in that ballpark (devices may die early).
  EXPECT_LT(writes, 6u * 3u * 300u * 30u);
}

}  // namespace
}  // namespace salamander
