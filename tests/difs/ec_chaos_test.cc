// EC cluster chaos & integrity tests: injected node outages and lost drain
// acks against the maintenance machinery, checksum-verified cell reads with
// exact detected==injected accounting, reconstruction-floor retention, and
// metric export with difs.*-parity names.
#include <gtest/gtest.h>

#include <memory>

#include "difs/ec_cluster.h"
#include "faults/fault_injector.h"
#include "telemetry/metrics.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestSsdConfig;
using testing_util::TinyGeometry;

struct EcChaosOptions {
  FaultConfig device_faults;
  FaultConfig cluster_faults;
  uint32_t nodes = 7;
  uint32_t nominal_pec = 1000000;  // effectively wear-free by default
  bool grace_drain = false;
};

EcCluster MakeEcChaosCluster(const EcChaosOptions& options) {
  EcConfig config;
  config.nodes = options.nodes;
  config.devices_per_node = 1;
  config.data_cells = 4;
  config.parity_cells = 2;
  config.cell_opages = 64;
  config.fill_fraction = 0.4;
  config.seed = 515;
  config.faults = std::make_shared<FaultInjector>(options.cluster_faults,
                                                  /*stream_id=*/1000);
  auto factory = [options](uint32_t index) {
    SsdConfig ssd_config =
        TestSsdConfig(SsdKind::kShrinkS, TinyGeometry(), options.nominal_pec,
                      /*seed=*/7000 + index * 23);
    if (options.grace_drain) {
      ssd_config.minidisk.drain_before_decommission = true;
      ssd_config.minidisk.max_draining = 3;
    }
    ssd_config.faults = std::make_shared<FaultInjector>(options.device_faults,
                                                        /*stream_id=*/index);
    return std::make_unique<SsdDevice>(SsdKind::kShrinkS, ssd_config);
  };
  return EcCluster(config, factory);
}

uint64_t InjectedReadCorrupt(EcCluster& cluster) {
  uint64_t injected = 0;
  for (uint32_t i = 0; i < cluster.device_count(); ++i) {
    const FaultInjector* injector = cluster.device(i).faults();
    if (injector != nullptr) {
      injected += injector->stats().count(FaultSite::kReadCorrupt);
    }
  }
  return injected;
}

// An injected outage makes one node unreachable: cell writes to it are
// skipped (not failed), reads route around it, and the node rejoins after
// its tick countdown with no stripe ever lost — data was unreachable, never
// destroyed.
TEST(EcChaosTest, NodeOutageSkipsWritesAndRejoins) {
  EcChaosOptions options;
  options.cluster_faults.node_outage = 1.0;  // every maintenance tick
  options.cluster_faults.seed = 11;
  EcCluster cluster = MakeEcChaosCluster(options);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  // Maintenance ticks fire every 256 ops (auto interval with an injector
  // attached); cycle through several outages and rejoins.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster.StepWrites(300).ok());
    ASSERT_TRUE(cluster.StepReads(100).ok());
  }
  const EcStats& stats = cluster.stats();
  EXPECT_GT(stats.maintenance_ticks, 0u);
  EXPECT_GT(stats.node_outages, 1u);
  EXPECT_GT(stats.outage_write_skips, 0u);
  for (int i = 0; i < 16 && cluster.outage_node() >= 0; ++i) {
    ASSERT_TRUE(cluster.StepWrites(256).ok());
  }
  cluster.ForceReconcile();
  EXPECT_TRUE(cluster.CheckInvariants().ok());
  EXPECT_EQ(cluster.stats().stripes_lost, 0u);
}

// The EC analog of diFS read-repair: every checksum mismatch on a cell read
// retires the cell and rebuilds it from the k survivors, and the
// detected==injected accounting is exact across foreground, degraded, and
// rebuild reads.
TEST(EcChaosTest, CorruptionIsDetectedExactlyAndRebuilt) {
  EcChaosOptions options;
  options.device_faults.read_corrupt = 0.05;
  options.device_faults.seed = 9;
  EcCluster cluster = MakeEcChaosCluster(options);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  for (int burst = 0; burst < 4; ++burst) {
    ASSERT_TRUE(cluster.StepWrites(150).ok());
    ASSERT_TRUE(cluster.StepReads(300).ok());
  }
  cluster.ForceReconcile();
  EXPECT_TRUE(cluster.CheckInvariants().ok());
  const uint64_t injected = InjectedReadCorrupt(cluster);
  EXPECT_GT(injected, 0u);
  EXPECT_EQ(cluster.stats().integrity_detected, injected);
  EXPECT_GT(cluster.stats().integrity_marked_bad, 0u);
  EXPECT_GT(cluster.stats().cells_rebuilt, 0u);
  EXPECT_EQ(cluster.stats().stripes_lost, 0u);
}

// With every device corrupting every read, retiring cells would march every
// stripe below its reconstruction floor. MarkCellBad must refuse at k live
// cells: corrupt cells are retained, and stripe loss from corruption alone
// is impossible by construction.
TEST(EcChaosTest, ReconstructionFloorRetainsCorruptCells) {
  EcChaosOptions options;
  options.device_faults.read_corrupt = 1.0;
  options.device_faults.seed = 9;
  EcCluster cluster = MakeEcChaosCluster(options);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_TRUE(cluster.StepReads(600).ok());
  cluster.ForceReconcile();
  EXPECT_TRUE(cluster.CheckInvariants().ok());
  EXPECT_GT(cluster.stats().integrity_retained_cells, 0u);
  EXPECT_EQ(cluster.stats().stripes_lost, 0u);
  for (StripeId s = 0; s < cluster.total_stripes(); ++s) {
    EXPECT_GE(cluster.stripe(s).live_cells(), 4u) << "stripe " << s;
  }
}

// Lost AckDrains leave mDisks in kDraining limbo (EC retires the cells
// immediately — no grace window — but the device still waits for the ack).
// Maintenance must re-send until the device can reclaim the space.
TEST(EcChaosTest, LostAckDrainIsEventuallyResent) {
  EcChaosOptions options;
  options.nominal_pec = 25;  // wear fast enough to trigger drains
  options.grace_drain = true;
  options.cluster_faults.ack_drain_lost = 0.5;
  options.cluster_faults.seed = 13;
  EcCluster cluster = MakeEcChaosCluster(options);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  uint64_t steps = 0;
  while (cluster.stats().acks_lost == 0 && steps < 600000 &&
         cluster.alive_devices() >= 6) {
    ASSERT_TRUE(cluster.StepWrites(500).ok());
    steps += 500;
  }
  ASSERT_GT(cluster.stats().acks_lost, 0u) << "no ack was ever lost";
  // Each maintenance re-send is a fresh 50/50 draw; drive reconciliation
  // until no alive device is stuck in drain limbo.
  for (int i = 0; i < 32; ++i) {
    cluster.ForceReconcile();
    EXPECT_TRUE(cluster.CheckInvariants().ok());
  }
  EXPECT_GT(cluster.stats().drains_acked, 0u);
  for (uint32_t d = 0; d < cluster.device_count(); ++d) {
    if (!cluster.device(d).failed()) {
      EXPECT_EQ(cluster.device(d).manager().draining_minidisks(), 0u)
          << "device " << d << " stuck in drain limbo";
    }
  }
  EXPECT_EQ(cluster.stats().stripes_lost, 0u);
}

// The ec.* metric names mirror difs.* so fleet dashboards can treat the two
// cluster kinds uniformly.
TEST(EcChaosTest, CollectMetricsExportsDifsParityNames) {
  EcChaosOptions options;
  options.device_faults.read_corrupt = 0.05;
  options.device_faults.seed = 9;
  options.cluster_faults.node_outage = 0.5;
  options.cluster_faults.seed = 11;
  EcCluster cluster = MakeEcChaosCluster(options);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_TRUE(cluster.StepWrites(300).ok());
  ASSERT_TRUE(cluster.StepReads(300).ok());

  MetricRegistry registry;
  cluster.CollectMetrics(registry);
  const auto counter = [&registry](const char* name) {
    const Counter* c = registry.FindCounter(name);
    return c == nullptr ? ~uint64_t{0} : c->value();
  };
  EXPECT_EQ(counter("ec.foreground_logical_writes"),
            cluster.stats().foreground_logical_writes);
  EXPECT_EQ(counter("ec.cells_rebuilt"), cluster.stats().cells_rebuilt);
  EXPECT_EQ(counter("ec.node_outages"), cluster.stats().node_outages);
  EXPECT_EQ(counter("ec.integrity.detected"),
            cluster.stats().integrity_detected);
  EXPECT_EQ(counter("ec.integrity.marked_bad"),
            cluster.stats().integrity_marked_bad);
  EXPECT_EQ(counter("ec.integrity.retained_cells"),
            cluster.stats().integrity_retained_cells);
  EXPECT_NE(registry.FindGauge("ec.alive_devices"), nullptr);
  EXPECT_NE(registry.FindGauge("ec.pending_rebuild_backlog"), nullptr);
  // Cluster-level injected faults land in their own subtree.
  EXPECT_NE(registry.FindCounter("cluster_faults.injected.node_outage"),
            nullptr);
}

// The full chaos mix twice with identical seeds: stats must be
// bit-identical — the EC maintenance/injector schedule is deterministic.
TEST(EcChaosTest, RepeatedRunsAreBitIdentical) {
  const auto run = [] {
    EcChaosOptions options;
    options.device_faults.transient_unavailable = 0.1;
    options.device_faults.read_corrupt = 0.02;
    options.device_faults.event_drop = 0.1;
    options.device_faults.seed = 21;
    options.cluster_faults.node_outage = 0.2;
    options.cluster_faults.ack_drain_lost = 0.2;
    options.cluster_faults.seed = 17;
    EcCluster cluster = MakeEcChaosCluster(options);
    EXPECT_TRUE(cluster.Bootstrap().ok());
    cluster.device(2).Crash();
    EXPECT_TRUE(cluster.StepWrites(600).ok());
    EXPECT_TRUE(cluster.StepReads(300).ok());
    cluster.ForceReconcile();
    EXPECT_TRUE(cluster.CheckInvariants().ok());
    return cluster.stats();
  };
  const EcStats a = run();
  const EcStats b = run();
  EXPECT_EQ(a.foreground_device_writes, b.foreground_device_writes);
  EXPECT_EQ(a.cells_lost, b.cells_lost);
  EXPECT_EQ(a.cells_rebuilt, b.cells_rebuilt);
  EXPECT_EQ(a.degraded_reads, b.degraded_reads);
  EXPECT_EQ(a.integrity_detected, b.integrity_detected);
  EXPECT_EQ(a.integrity_marked_bad, b.integrity_marked_bad);
  EXPECT_EQ(a.node_outages, b.node_outages);
  EXPECT_EQ(a.acks_lost, b.acks_lost);
  EXPECT_EQ(a.maintenance_ticks, b.maintenance_ticks);
  EXPECT_EQ(a.stripes_lost, b.stripes_lost);
}

}  // namespace
}  // namespace salamander
