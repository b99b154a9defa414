// Correlated failure domains on the fleet (ISSUE 10): rack-scoped power
// events, batch-cohort endurance variance, cohort unavailability waves, and
// proactive health-driven drain. The suite pins the determinism contract
// (disabled knobs change no output byte; enabled knobs are bit-identical
// across threads and engines), the exact crash ledger (every scheduled rack
// event crashes every live rack member exactly once), and the drain
// accounting (drained devices retire ahead of wear failure and are counted
// apart from it).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "fleet/event_scheduler.h"
#include "fleet/fleet_sim.h"
#include "telemetry/metrics.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

FleetConfig DomainFleet(SsdKind kind) {
  FleetConfig config;
  config.kind = kind;
  config.devices = 8;
  config.geometry = testing_util::TinyGeometry();
  config.ecc = FPageEccGeometry{};
  // Endurance far beyond the horizon: domain tests that need an exact crash
  // ledger keep every device alive; wear-sensitive tests override this.
  config.wear = testing_util::FastWear(config.ecc, /*nominal_pec=*/100000);
  config.msize_opages = 64;
  config.dwpd = 1.0;
  config.afr = 0.0;  // isolate the domain machinery from random failures
  config.days = 120;
  config.sample_every_days = 5;
  config.seed = 20260807;
  config.threads = 1;
  return config;
}

TEST(FleetDomainTest, DisabledDomainKeepsEveryOutputByteIdentical) {
  FleetConfig plain = DomainFleet(SsdKind::kShrinkS);
  FleetConfig shaped = plain;
  // Topology shape alone must not enable anything: the rack axis needs a
  // nonzero event rate and the cohort axis a nonzero sigma/wave rate.
  shaped.domain.devices_per_rack = 4;
  shaped.domain.batch_cohorts = 2;
  ASSERT_FALSE(shaped.domain.enabled());
  MetricRegistry plain_metrics;
  MetricRegistry shaped_metrics;
  plain.metrics = &plain_metrics;
  shaped.metrics = &shaped_metrics;
  FleetSim a(plain);
  FleetSim b(shaped);
  EXPECT_EQ(a.Run(), b.Run());
  EXPECT_EQ(a.DeviceDigests(), b.DeviceDigests());
  EXPECT_TRUE(b.domain_schedule().rack_power_days.empty());
  EXPECT_TRUE(b.domain_schedule().cohort_wear_factor.empty());
  EXPECT_EQ(b.rack_crashes_total(), 0u);
  EXPECT_EQ(b.drained_devices(), 0u);
  // Disabled features export no instruments at all.
  EXPECT_EQ(shaped_metrics.FindCounter("fleet.domain.rack_crashes"), nullptr);
  EXPECT_EQ(shaped_metrics.FindCounter("fleet.drain.devices_drained"),
            nullptr);
}

TEST(FleetDomainTest, RackEventCrashesEveryRackMemberExactlyOnce) {
  FleetConfig config = DomainFleet(SsdKind::kBaseline);
  // Gentle wear + afr 0: every device survives the horizon, so the crash
  // ledger must balance exactly against the precomputed calendar.
  config.domain.devices_per_rack = 4;
  config.domain.rack_power_loss_per_day = 0.05;
  config.domain.rack_restart_days = 1;
  MetricRegistry metrics;
  config.metrics = &metrics;
  FleetSim sim(config);
  const auto snapshots = sim.Run();
  ASSERT_FALSE(snapshots.empty());
  EXPECT_EQ(snapshots.back().functioning_devices, config.devices);
  const auto& schedule = sim.domain_schedule();
  ASSERT_EQ(schedule.rack_power_days.size(), 2u);
  uint64_t scheduled = 0;
  for (const auto& days : schedule.rack_power_days) {
    EXPECT_TRUE(std::is_sorted(days.begin(), days.end()));
    scheduled += days.size();
  }
  ASSERT_GT(scheduled, 0u) << "rate too low; no rack event fired";
  // Every scheduled rack-day crashed all devices_per_rack members once.
  EXPECT_EQ(sim.rack_crashes_total(),
            scheduled * config.domain.devices_per_rack);
  // Rack crashes ride the power-loss ledger: dark, then journal-replay
  // restart. With nothing else failing, the books balance exactly.
  EXPECT_EQ(sim.power_losses_total(), sim.rack_crashes_total());
  EXPECT_EQ(sim.restarts_total() + sim.restart_failures_total() +
                sim.dark_devices(),
            sim.rack_crashes_total());
  const Counter* exported = metrics.FindCounter("fleet.domain.rack_crashes");
  ASSERT_NE(exported, nullptr);
  EXPECT_EQ(exported->value(), sim.rack_crashes_total());
}

TEST(FleetDomainTest, CohortWearFactorsDeterministicAndShared) {
  FleetConfig config = DomainFleet(SsdKind::kShrinkS);
  config.domain.batch_cohorts = 3;
  config.domain.batch_endurance_sigma = 0.5;
  FleetSim a(config);
  FleetSim b(config);
  // Same seed → identical latent factors, forked per cohort in id order.
  ASSERT_EQ(a.domain_schedule().cohort_wear_factor.size(), 3u);
  EXPECT_EQ(a.domain_schedule().cohort_wear_factor,
            b.domain_schedule().cohort_wear_factor);
  for (double factor : a.domain_schedule().cohort_wear_factor) {
    EXPECT_GT(factor, 0.0);
  }
  FleetConfig reseeded = config;
  reseeded.seed = config.seed + 1;
  FleetSim c(reseeded);
  EXPECT_NE(a.domain_schedule().cohort_wear_factor,
            c.domain_schedule().cohort_wear_factor);
  // And the factors change simulated history: some cohort ages faster.
  EXPECT_EQ(a.Run(), b.Run());
  EXPECT_EQ(a.DeviceDigests(), b.DeviceDigests());
}

TEST(FleetDomainTest, CohortWavePausesEveryCohortMember) {
  FleetConfig config = DomainFleet(SsdKind::kBaseline);
  config.domain.batch_cohorts = 2;
  config.domain.cohort_unavailable_per_day = 0.04;
  config.domain.cohort_unavailable_days = 2;
  FleetSim sim(config);
  const auto snapshots = sim.Run();
  ASSERT_FALSE(snapshots.empty());
  ASSERT_EQ(snapshots.back().functioning_devices, config.devices);
  const auto& schedule = sim.domain_schedule();
  ASSERT_EQ(schedule.cohort_wave_days.size(), 2u);
  uint64_t scheduled = 0;
  for (const auto& days : schedule.cohort_wave_days) {
    scheduled += days.size();
  }
  ASSERT_GT(scheduled, 0u) << "rate too low; no wave fired";
  // Each wave pauses all 4 cohort members for cohort_unavailable_days; waves
  // can overlap (a re-draw inside a pause extends rather than stacks), so
  // the exact total is bounded, not equal.
  EXPECT_GT(sim.cohort_pause_days_total(), 0u);
  EXPECT_LE(sim.cohort_pause_days_total(),
            scheduled * 4 * config.domain.cohort_unavailable_days);
  // Paused days cost write demand: the waved fleet writes less than an
  // identical fleet without waves.
  FleetConfig plain = DomainFleet(SsdKind::kBaseline);
  FleetSim base(plain);
  const auto base_snapshots = base.Run();
  EXPECT_LT(snapshots.back().cumulative_host_writes,
            base_snapshots.back().cumulative_host_writes);
}

TEST(FleetDomainTest, DrainRetiresDevicesAheadOfWearFailure) {
  FleetConfig config = DomainFleet(SsdKind::kShrinkS);
  // Aggressive wear so devices approach death inside the horizon; the drain
  // threshold must catch them first.
  config.wear = testing_util::FastWear(config.ecc, /*nominal_pec=*/20);
  config.dwpd = 2.0;
  config.days = 400;
  config.domain.drain_health_threshold = 0.35;
  MetricRegistry metrics;
  config.metrics = &metrics;
  FleetSim sim(config);
  sim.Run();
  ASSERT_GT(sim.drained_devices(), 0u) << "threshold never crossed";
  EXPECT_GT(sim.drain_migrated_bytes_total(), 0u);
  const Counter* drained = metrics.FindCounter("fleet.drain.devices_drained");
  const Counter* migrated = metrics.FindCounter("fleet.drain.migrated_bytes");
  ASSERT_NE(drained, nullptr);
  ASSERT_NE(migrated, nullptr);
  EXPECT_EQ(drained->value(), sim.drained_devices());
  EXPECT_EQ(migrated->value(), sim.drain_migrated_bytes_total());
  // Proactive retirements are accounted apart from wear deaths: the two
  // ledgers never double-count a device.
  const Counter* wear_failures = metrics.FindCounter("fleet.wear_failures");
  ASSERT_NE(wear_failures, nullptr);
  EXPECT_LE(wear_failures->value() + sim.drained_devices(),
            static_cast<uint64_t>(config.devices));
}

TEST(FleetDomainTest, BitIdenticalAcrossThreadsAndEnginesAllKnobsOn) {
  const auto run = [](unsigned threads, FleetSchedulerMode mode) {
    FleetConfig config = DomainFleet(SsdKind::kRegenS);
    config.wear = testing_util::FastWear(config.ecc, /*nominal_pec=*/40);
    config.days = 200;
    config.domain.devices_per_rack = 4;
    config.domain.rack_power_loss_per_day = 0.02;
    config.domain.rack_restart_days = 2;
    config.domain.batch_cohorts = 3;
    config.domain.batch_endurance_sigma = 0.6;
    config.domain.cohort_unavailable_per_day = 0.02;
    config.domain.cohort_unavailable_days = 1;
    config.domain.drain_health_threshold = 0.3;
    config.threads = threads;
    config.scheduler = mode;
    FleetSim sim(config);
    const auto snapshots = sim.Run();
    return std::make_pair(snapshots, sim.DeviceDigests());
  };
  const auto reference = run(1, FleetSchedulerMode::kLockstep);
  ASSERT_FALSE(reference.first.empty());
  EXPECT_EQ(run(4, FleetSchedulerMode::kLockstep), reference);
  EXPECT_EQ(run(1, FleetSchedulerMode::kEventDriven), reference);
  EXPECT_EQ(run(4, FleetSchedulerMode::kEventDriven), reference);
}

// Satellite: FleetEventQueue restart ordering when a whole domain restarts
// on the same day. The queue's (day, device, kind) order is a total order,
// so the drain sequence must be invariant under every insertion permutation
// — this is what makes same-day domain restarts thread-invariant.
TEST(FleetDomainEventOrderTest, WholeDomainSameDayRestartPermutationPin) {
  // A rack of 4 devices all restarting on day 10, interleaved with one
  // device's step on the same day and unrelated events on other days.
  const std::vector<FleetEvent> canonical = {
      {9, 7, FleetEventKind::kStep},
      {10, 0, FleetEventKind::kStep},
      {10, 0, FleetEventKind::kRestart},
      {10, 1, FleetEventKind::kRestart},
      {10, 2, FleetEventKind::kRestart},
      {10, 3, FleetEventKind::kRestart},
      {11, 1, FleetEventKind::kStep},
  };
  std::vector<FleetEvent> events = canonical;
  std::sort(events.begin(), events.end(),
            [](const FleetEvent& a, const FleetEvent& b) {
              return EventBefore(a, b);
            });
  ASSERT_EQ(events, canonical) << "fixture must be in canonical order";
  // 7! = 5040 insertion orders, every one must drain identically.
  std::vector<size_t> order(events.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  do {
    FleetEventQueue queue;
    for (size_t i : order) {
      queue.Post(events[i]);
    }
    EXPECT_EQ(queue.PopThrough(/*through=*/11), canonical);
  } while (std::next_permutation(order.begin(), order.end()));
}

// Partial drains must respect the same order: popping through day 10 yields
// exactly the day<=10 prefix, and the same-day restart block comes out in
// device order with each device's step before its restart.
TEST(FleetDomainEventOrderTest, PopThroughSplitsAtDayBoundaryCanonically) {
  FleetEventQueue queue;
  queue.Post({11, 1, FleetEventKind::kStep});
  queue.Post({10, 3, FleetEventKind::kRestart});
  queue.Post({10, 0, FleetEventKind::kRestart});
  queue.Post({10, 0, FleetEventKind::kStep});
  const std::vector<FleetEvent> due = queue.PopThrough(10);
  const std::vector<FleetEvent> expected = {
      {10, 0, FleetEventKind::kStep},
      {10, 0, FleetEventKind::kRestart},
      {10, 3, FleetEventKind::kRestart},
  };
  EXPECT_EQ(due, expected);
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.NextDay(), 11u);
}

}  // namespace
}  // namespace salamander
