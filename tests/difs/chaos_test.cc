// Chaos tests: the diFS recovery machinery against the fault injector —
// lossy/duplicating/delaying event channels, transient device errors, node
// outages, lost drain acks, and whole-device crashes. The contract under
// test: zero chunk loss while concurrent failures stay below R, convergence
// after every fault burst, and bit-identical behavior across repeated runs.
#include <gtest/gtest.h>

#include <memory>

#include "difs/cluster.h"
#include "faults/fault_injector.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestSsdConfig;
using testing_util::TinyGeometry;

struct ChaosOptions {
  FaultConfig device_faults;
  FaultConfig cluster_faults;
  uint32_t nodes = 6;
  uint32_t nominal_pec = 1000000;  // effectively wear-free by default
  SsdKind kind = SsdKind::kShrinkS;
  bool grace_drain = false;
};

DifsCluster MakeChaosCluster(const ChaosOptions& options) {
  DifsConfig config;
  config.nodes = options.nodes;
  config.devices_per_node = 1;
  config.replication = 3;
  config.chunk_opages = 64;
  config.fill_fraction = 0.5;
  config.seed = 424242;
  config.faults = std::make_shared<FaultInjector>(options.cluster_faults,
                                                  /*stream_id=*/1000);
  auto factory = [options](uint32_t index) {
    SsdConfig ssd_config =
        TestSsdConfig(options.kind, TinyGeometry(), options.nominal_pec,
                      /*seed=*/1000 + index);
    if (options.grace_drain) {
      ssd_config.minidisk.drain_before_decommission = true;
      ssd_config.minidisk.max_draining = 3;
    }
    ssd_config.faults = std::make_shared<FaultInjector>(options.device_faults,
                                                        /*stream_id=*/index);
    return std::make_unique<SsdDevice>(options.kind, ssd_config);
  };
  return DifsCluster(config, factory);
}

FaultConfig LossyChannel(double p = 0.2) {
  FaultConfig config;
  config.event_drop = p;
  config.event_duplicate = p;
  config.event_delay = p;
  config.seed = 77;
  return config;
}

// A crashed device's brick notifications travel the same lossy channel as
// everything else; resync must make recovery whole regardless of what gets
// through. One crash at a time keeps concurrent failures below R = 3.
TEST(ChaosTest, CrashUnderLossyEventChannelLosesNoChunks) {
  ChaosOptions options;
  options.device_faults = LossyChannel();
  DifsCluster cluster = MakeChaosCluster(options);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const uint64_t total = cluster.total_chunks();
  ASSERT_GT(total, 0u);

  for (uint32_t victim = 0; victim < 3; ++victim) {
    cluster.device(victim).Crash();
    ASSERT_TRUE(cluster.StepWrites(200).ok());
    cluster.ForceReconcile();
    ASSERT_TRUE(cluster.CheckInvariants().ok());
    EXPECT_EQ(cluster.pending_recovery_backlog(), 0u)
        << "burst " << victim << " did not converge";
  }
  EXPECT_EQ(cluster.chunks_lost(), 0u);
  EXPECT_EQ(cluster.chunks_under_replicated(), 0u);
  EXPECT_EQ(cluster.chunks_fully_replicated(), total);
  EXPECT_GT(cluster.stats().replicas_recovered, 0u);
}

// Total event-channel loss: every notification is dropped. Periodic
// reconciliation alone must discover the crashed device and recover.
TEST(ChaosTest, ResyncRecoversFromTotalEventLoss) {
  ChaosOptions options;
  options.device_faults.event_drop = 1.0;
  options.device_faults.seed = 5;
  DifsCluster cluster = MakeChaosCluster(options);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const uint64_t total = cluster.total_chunks();

  cluster.device(0).Crash();
  // Nothing arrives via events; ForceReconcile's ResyncDevice pass must
  // notice the failed device by inspecting ground truth.
  cluster.ForceReconcile();
  ASSERT_TRUE(cluster.CheckInvariants().ok());
  EXPECT_EQ(cluster.chunks_lost(), 0u);
  EXPECT_EQ(cluster.chunks_under_replicated(), 0u);
  EXPECT_EQ(cluster.chunks_fully_replicated(), total);
  EXPECT_GT(cluster.stats().resync_repairs, 0u);
}

// Duplicate delivery of every event must be idempotent: same recovery, same
// bookkeeping, no double-counted losses or phantom capacity.
TEST(ChaosTest, DuplicatedEventsAreIdempotent) {
  ChaosOptions options;
  options.device_faults.event_duplicate = 1.0;
  options.device_faults.seed = 6;
  DifsCluster cluster = MakeChaosCluster(options);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const uint64_t total = cluster.total_chunks();

  cluster.device(1).Crash();
  cluster.ForceReconcile();
  ASSERT_TRUE(cluster.CheckInvariants().ok());
  EXPECT_EQ(cluster.chunks_lost(), 0u);
  EXPECT_EQ(cluster.chunks_fully_replicated(), total);
  // Each replica on the crashed device is lost exactly once despite every
  // kDecommissioned arriving twice.
  EXPECT_EQ(cluster.stats().replicas_lost,
            cluster.stats().replicas_recovered);
}

TEST(ChaosTest, TransientUnavailabilityIsRetriedWithBackoff) {
  ChaosOptions options;
  options.device_faults.transient_unavailable = 0.3;
  options.device_faults.seed = 9;
  DifsCluster cluster = MakeChaosCluster(options);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_TRUE(cluster.StepWrites(300).ok());
  ASSERT_TRUE(cluster.StepReads(300).ok());
  const DifsStats& stats = cluster.stats();
  EXPECT_GT(stats.transient_retries, 0u);
  EXPECT_GT(stats.backoff_ns, 0u);
  // p=0.3 with 4 retries: give-ups are possible but must be rare next to
  // retries (a give-up needs 5 consecutive busy draws).
  EXPECT_LT(stats.transient_giveups * 50, stats.transient_retries + 50);
  EXPECT_EQ(cluster.chunks_lost(), 0u);
  ASSERT_TRUE(cluster.CheckInvariants().ok());
}

TEST(ChaosTest, NodeOutageSkipsWritesAndRejoins) {
  ChaosOptions options;
  options.cluster_faults.node_outage = 1.0;  // every maintenance tick
  options.cluster_faults.seed = 11;
  DifsCluster cluster = MakeChaosCluster(options);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  // Maintenance ticks fire every 256 ops (auto interval with faults
  // attached); run enough ops to cycle through several outages + rejoins.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster.StepWrites(300).ok());
    ASSERT_TRUE(cluster.StepReads(100).ok());
  }
  const DifsStats& stats = cluster.stats();
  EXPECT_GT(stats.node_outages, 1u);
  EXPECT_GT(stats.outage_write_skips, 0u);
  // Outages are transient: after the soak the cluster converges with no
  // chunk loss (no data was destroyed, only unreachable).
  for (int i = 0; i < 16 && cluster.outage_node() >= 0; ++i) {
    ASSERT_TRUE(cluster.StepWrites(256).ok());
  }
  cluster.ForceReconcile();
  ASSERT_TRUE(cluster.CheckInvariants().ok());
  EXPECT_EQ(cluster.chunks_lost(), 0u);
  EXPECT_EQ(cluster.pending_recovery_backlog(), 0u);
}

// Lost AckDrains leave mDisks in kDraining limbo; resync must re-send the
// ack so the device can reclaim the space.
TEST(ChaosTest, LostAckDrainIsEventuallyResent) {
  ChaosOptions options;
  options.kind = SsdKind::kShrinkS;
  options.nominal_pec = 25;  // wear fast enough to trigger drains
  options.grace_drain = true;
  options.nodes = 5;
  options.cluster_faults.ack_drain_lost = 0.5;
  options.cluster_faults.seed = 13;
  DifsCluster cluster = MakeChaosCluster(options);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  uint64_t steps = 0;
  while (cluster.stats().acks_lost == 0 && steps < 600000 &&
         cluster.alive_devices() >= 3) {
    ASSERT_TRUE(cluster.StepWrites(500).ok());
    steps += 500;
  }
  ASSERT_GT(cluster.stats().acks_lost, 0u) << "no ack was ever lost";
  // Every drain is eventually resolved: the periodic resync re-sends acks
  // that were lost on the wire (each retry is a fresh 50/50 draw), so no
  // alive device is left with an mDisk stuck in kDraining limbo. Re-sends
  // can ack the same drain more than once (device-side the ack is
  // idempotent), so the assertion is on device state, not counter equality.
  for (int i = 0; i < 32; ++i) {
    cluster.ForceReconcile();
  }
  EXPECT_GT(cluster.stats().drains_acked, 0u);
  for (uint32_t d = 0; d < cluster.device_count(); ++d) {
    if (!cluster.device(d).failed()) {
      EXPECT_EQ(cluster.device(d).manager().draining_minidisks(), 0u)
          << "device " << d << " stuck in drain limbo";
    }
  }
  ASSERT_TRUE(cluster.CheckInvariants().ok());
}

// Queue-overflow drops (bounded pending_events_) are a different beast from
// injected channel drops: the device counts them, and the cluster resyncs
// the moment it sees the counter move — here already at construction, where
// a 4-event queue can't hold the 12-event format burst.
TEST(ChaosTest, OverflowDropsTriggerImmediateResync) {
  DifsConfig config;
  config.nodes = 4;
  config.devices_per_node = 1;
  config.replication = 3;
  config.chunk_opages = 64;
  config.fill_fraction = 0.5;
  config.seed = 99;
  DifsCluster cluster(
      config, [](uint32_t index) {
        SsdConfig ssd_config =
            TestSsdConfig(SsdKind::kShrinkS, TinyGeometry(),
                          /*nominal_pec=*/1000000, /*seed=*/1000 + index);
        ssd_config.minidisk.max_pending_events = 4;
        return std::make_unique<SsdDevice>(SsdKind::kShrinkS, ssd_config);
      });
  // 8 of each device's 12 kCreated events overflowed, yet the resync
  // registered every mDisk: full placement capacity, nothing missing.
  EXPECT_EQ(cluster.free_slots(), 48u);
  EXPECT_GT(cluster.stats().resync_repairs, 0u);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  EXPECT_EQ(cluster.total_chunks(), 8u);
  ASSERT_TRUE(cluster.CheckInvariants().ok());
}

// The full mix at once, repeated twice: identical seeds must produce
// identical stats — the injector's schedule is deterministic and
// independent of anything but its own streams.
TEST(ChaosTest, RepeatedRunsAreBitIdentical) {
  const auto run = [] {
    ChaosOptions options;
    options.device_faults = LossyChannel(0.1);
    options.device_faults.transient_unavailable = 0.1;
    options.device_faults.program_fail = 0.002;
    options.device_faults.read_corrupt = 0.002;
    options.cluster_faults.node_outage = 0.2;
    options.cluster_faults.ack_drain_lost = 0.2;
    options.cluster_faults.seed = 17;
    DifsCluster cluster = MakeChaosCluster(options);
    EXPECT_TRUE(cluster.Bootstrap().ok());
    cluster.device(2).Crash();
    EXPECT_TRUE(cluster.StepWrites(600).ok());
    EXPECT_TRUE(cluster.StepReads(300).ok());
    cluster.ForceReconcile();
    EXPECT_TRUE(cluster.CheckInvariants().ok());
    return cluster.stats();
  };
  const DifsStats a = run();
  const DifsStats b = run();
  EXPECT_EQ(a.foreground_opage_writes, b.foreground_opage_writes);
  EXPECT_EQ(a.recovery_opage_writes, b.recovery_opage_writes);
  EXPECT_EQ(a.replicas_recovered, b.replicas_recovered);
  EXPECT_EQ(a.replicas_lost, b.replicas_lost);
  EXPECT_EQ(a.chunks_lost, b.chunks_lost);
  EXPECT_EQ(a.transient_retries, b.transient_retries);
  EXPECT_EQ(a.transient_giveups, b.transient_giveups);
  EXPECT_EQ(a.backoff_ns, b.backoff_ns);
  EXPECT_EQ(a.resync_passes, b.resync_passes);
  EXPECT_EQ(a.resync_repairs, b.resync_repairs);
  EXPECT_EQ(a.node_outages, b.node_outages);
  EXPECT_EQ(a.outage_write_skips, b.outage_write_skips);
  EXPECT_EQ(a.acks_lost, b.acks_lost);
  EXPECT_EQ(a.uncorrectable_reads, b.uncorrectable_reads);
  EXPECT_EQ(a.scrub_repairs, b.scrub_repairs);
  EXPECT_EQ(a.maintenance_ticks, b.maintenance_ticks);
}

// An attached-but-all-zero injector must not change behavior at all: the
// injector performs no draws, so the cluster (and device) RNG schedules are
// untouched relative to a run with no injector.
TEST(ChaosTest, ZeroProbabilityInjectorChangesNothing) {
  const auto run = [](bool attach_injectors) {
    ChaosOptions options;
    if (!attach_injectors) {
      DifsConfig config;
      config.nodes = options.nodes;
      config.devices_per_node = 1;
      config.replication = 3;
      config.chunk_opages = 64;
      config.fill_fraction = 0.5;
      config.seed = 424242;
      auto factory = [options](uint32_t index) {
        return std::make_unique<SsdDevice>(
            options.kind, TestSsdConfig(options.kind, TinyGeometry(),
                                        options.nominal_pec,
                                        /*seed=*/1000 + index));
      };
      DifsCluster cluster(config, factory);
      EXPECT_TRUE(cluster.Bootstrap().ok());
      EXPECT_TRUE(cluster.StepWrites(400).ok());
      EXPECT_TRUE(cluster.StepReads(200).ok());
      return cluster.stats();
    }
    DifsCluster cluster = MakeChaosCluster(options);  // zero-prob faults
    EXPECT_TRUE(cluster.Bootstrap().ok());
    EXPECT_TRUE(cluster.StepWrites(400).ok());
    EXPECT_TRUE(cluster.StepReads(200).ok());
    return cluster.stats();
  };
  const DifsStats with = run(true);
  const DifsStats without = run(false);
  EXPECT_EQ(with.foreground_opage_writes, without.foreground_opage_writes);
  EXPECT_EQ(with.recovery_opage_writes, without.recovery_opage_writes);
  EXPECT_EQ(with.replicas_lost, without.replicas_lost);
  EXPECT_EQ(with.replicas_recovered, without.replicas_recovered);
  EXPECT_EQ(with.uncorrectable_reads, without.uncorrectable_reads);
  EXPECT_EQ(with.transient_retries, 0u);
  EXPECT_EQ(with.acks_lost, 0u);
}

// A device op that stays busy is retried kMaxTransientRetries times; retry r
// waits kTransientBackoffBaseNs << r, so the give-up costs exactly the sum
// of that schedule and nothing else.
TEST(ChaosTest, TransientGiveUpCostsTheWholeBackoffSchedule) {
  DifsConfig config;
  config.nodes = 4;
  config.devices_per_node = 1;
  config.replication = 3;
  config.chunk_opages = 16;
  config.fill_fraction = 0.25;
  config.seed = 97;
  config.maintenance_interval_ops = 1u << 30;  // keep maintenance out of the delta
  FaultConfig faults;
  faults.transient_unavailable = 1.0;  // every device op stays busy forever
  faults.seed = 13;
  auto factory = [&faults](uint32_t index) {
    SsdConfig ssd_config =
        TestSsdConfig(SsdKind::kShrinkS, TinyGeometry(),
                      /*nominal_pec=*/1000000, /*seed=*/1000 + index);
    ssd_config.faults = std::make_shared<FaultInjector>(faults, index);
    return std::make_unique<SsdDevice>(SsdKind::kShrinkS, ssd_config);
  };
  DifsCluster cluster(config, factory);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_GT(cluster.total_chunks(), 0u);

  const uint64_t backoff_before = cluster.stats().backoff_ns;
  const uint64_t retries_before = cluster.stats().transient_retries;
  const uint64_t giveups_before = cluster.stats().transient_giveups;
  SimDuration cost = 0;
  const Status read = cluster.ReadChunkAt(0, 0, &cost);
  EXPECT_EQ(read.code(), StatusCode::kUnavailable);

  // base * (2^0 + ... + 2^(retries - 1)).
  const uint64_t expected =
      kTransientBackoffBaseNs * ((uint64_t{1} << kMaxTransientRetries) - 1);
  EXPECT_EQ(cluster.stats().transient_retries - retries_before,
            kMaxTransientRetries);
  EXPECT_EQ(cluster.stats().transient_giveups - giveups_before, 1u);
  EXPECT_EQ(cluster.stats().backoff_ns - backoff_before, expected);
  // The read never succeeded, so its whole cost is backoff.
  EXPECT_EQ(cost, expected);
}

}  // namespace
}  // namespace salamander
