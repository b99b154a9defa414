// Erasure-coded cluster tests: RS(k+m) placement, (1+m)-fold write fan-out,
// k-fold rebuild traffic, degraded reads, and loss bounds.
#include <gtest/gtest.h>

#include <set>

#include "difs/ec_cluster.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestSsdConfig;
using testing_util::TinyGeometry;

std::function<std::unique_ptr<SsdDevice>(uint32_t)> Factory(
    uint32_t nominal_pec) {
  return [nominal_pec](uint32_t index) {
    return std::make_unique<SsdDevice>(
        SsdKind::kShrinkS,
        TestSsdConfig(SsdKind::kShrinkS, TinyGeometry(), nominal_pec,
                      /*seed=*/7000 + index * 23));
  };
}

EcConfig TestConfig(uint32_t nodes = 7) {
  EcConfig config;
  config.nodes = nodes;
  config.data_cells = 4;
  config.parity_cells = 2;
  config.cell_opages = 64;
  config.fill_fraction = 0.4;
  config.seed = 515;
  return config;
}

TEST(EcClusterTest, BootstrapPlacesNodeDisjointStripes) {
  EcCluster cluster(TestConfig(), Factory(1000000));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_GT(cluster.total_stripes(), 0u);
  EXPECT_EQ(cluster.stripes_fully_redundant(), cluster.total_stripes());
  for (StripeId s = 0; s < cluster.total_stripes(); ++s) {
    const Stripe& stripe = cluster.stripe(s);
    ASSERT_EQ(stripe.cells.size(), 6u);
    std::set<uint32_t> nodes;
    for (const CellLocation& cell : stripe.cells) {
      nodes.insert(cluster.node_of_device(cell.device));
    }
    EXPECT_EQ(nodes.size(), 6u) << "stripe " << s;
  }
}

TEST(EcClusterTest, CellIndicesAreStable) {
  EcCluster cluster(TestConfig(), Factory(1000000));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const Stripe& stripe = cluster.stripe(0);
  for (uint32_t c = 0; c < stripe.cells.size(); ++c) {
    EXPECT_EQ(stripe.cells[c].cell, c);
  }
}

TEST(EcClusterTest, WritesFanOutToDataPlusParity) {
  EcCluster cluster(TestConfig(), Factory(1000000));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const uint64_t before = cluster.stats().foreground_device_writes;
  ASSERT_TRUE(cluster.StepWrites(100).ok());
  // 1 data + 2 parity device writes per logical write.
  EXPECT_EQ(cluster.stats().foreground_device_writes - before, 300u);
  EXPECT_EQ(cluster.stats().foreground_logical_writes, 100u);
}

TEST(EcClusterTest, HealthyReadsAreNotDegraded) {
  EcCluster cluster(TestConfig(), Factory(1000000));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_TRUE(cluster.StepReads(500).ok());
  EXPECT_EQ(cluster.stats().degraded_reads, 0u);
}

TEST(EcClusterTest, StepsRequireBootstrap) {
  EcCluster cluster(TestConfig(), Factory(1000000));
  EXPECT_EQ(cluster.StepWrites(1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster.StepReads(1).code(), StatusCode::kFailedPrecondition);
}

// Ages until at least `target` cells are lost.
void AgeCluster(EcCluster& cluster, uint64_t target, uint64_t max_steps) {
  uint64_t steps = 0;
  while (cluster.stats().cells_lost < target && steps < max_steps &&
         cluster.alive_devices() >= 6) {
    ASSERT_TRUE(cluster.StepWrites(500).ok());
    steps += 500;
  }
}

TEST(EcClusterTest, RebuildRestoresFullRedundancy) {
  EcCluster cluster(TestConfig(/*nodes=*/8), Factory(/*nominal_pec=*/25));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  AgeCluster(cluster, 3, 300000);
  ASSERT_GT(cluster.stats().cells_lost, 0u);
  EXPECT_GT(cluster.stats().cells_rebuilt, 0u);
  EXPECT_EQ(cluster.stripes_degraded(), 0u);
  EXPECT_EQ(cluster.stats().stripes_lost, 0u);
}

TEST(EcClusterTest, RebuildReadsKTimesTheLostData) {
  EcCluster cluster(TestConfig(/*nodes=*/8), Factory(/*nominal_pec=*/25));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  AgeCluster(cluster, 3, 300000);
  const EcStats& stats = cluster.stats();
  ASSERT_GT(stats.cells_rebuilt, 0u);
  // Every rebuild writes one cell (64 oPages) and reads k = 4 cells.
  EXPECT_EQ(stats.rebuild_opage_writes, stats.cells_rebuilt * 64);
  EXPECT_EQ(stats.rebuild_opage_reads, stats.cells_rebuilt * 4 * 64);
}

TEST(EcClusterTest, RebuiltStripesStayNodeDisjoint) {
  EcCluster cluster(TestConfig(/*nodes=*/8), Factory(/*nominal_pec=*/25));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  AgeCluster(cluster, 5, 400000);
  ASSERT_GT(cluster.stats().cells_rebuilt, 0u);
  for (StripeId s = 0; s < cluster.total_stripes(); ++s) {
    const Stripe& stripe = cluster.stripe(s);
    if (stripe.lost) {
      continue;
    }
    std::set<uint32_t> nodes;
    uint32_t live = 0;
    for (const CellLocation& cell : stripe.cells) {
      if (cell.live) {
        nodes.insert(cluster.node_of_device(cell.device));
        ++live;
      }
    }
    EXPECT_EQ(nodes.size(), live) << "stripe " << s;
  }
}

// The core's invariant check covers EC too: slot maps and cell records agree
// in both directions, free-slot counts match, live cells stay node-disjoint,
// and every stripe is lost exactly when it fell below k live cells — before
// aging, through rebuild waves, and after a forced reconcile.
TEST(EcClusterTest, InvariantsHoldThroughRebuildAndReconcile) {
  EcCluster cluster(TestConfig(/*nodes=*/8), Factory(/*nominal_pec=*/25));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  EXPECT_TRUE(cluster.CheckInvariants().ok());
  AgeCluster(cluster, 5, 400000);
  ASSERT_GT(cluster.stats().cells_rebuilt, 0u);
  EXPECT_TRUE(cluster.CheckInvariants().ok());
  cluster.ForceReconcile();
  const Status invariants = cluster.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants;
}

TEST(EcClusterTest, DeterministicForSameSeed) {
  auto run = [] {
    EcCluster cluster(TestConfig(/*nodes=*/8), Factory(25));
    EXPECT_TRUE(cluster.Bootstrap().ok());
    EXPECT_TRUE(cluster.StepWrites(30000).ok());
    return std::make_tuple(cluster.stats().cells_lost,
                           cluster.stats().cells_rebuilt,
                           cluster.stats().rebuild_opage_reads);
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// Tick scheduling — the discrete-event hooks behind MaybeRunMaintenance
// ---------------------------------------------------------------------------

TEST(EcClusterTest, MaintenanceDormantWithoutInjectors) {
  EcCluster cluster(TestConfig(), Factory(1000000));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  EXPECT_TRUE(cluster.MaintenanceDormant());
  EXPECT_EQ(cluster.OpsUntilMaintenanceTick(), UINT64_MAX);
  ASSERT_TRUE(cluster.StepWrites(600).ok());
  EXPECT_EQ(cluster.stats().maintenance_ticks, 0u);
}

TEST(EcClusterTest, ExplicitIntervalSchedulesTicks) {
  EcConfig config = TestConfig();
  config.maintenance_interval_ops = 8;
  EcCluster cluster(config, Factory(1000000));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  EXPECT_FALSE(cluster.MaintenanceDormant());
  EXPECT_EQ(cluster.OpsUntilMaintenanceTick(), 8u);
  ASSERT_TRUE(cluster.StepWrites(3).ok());
  EXPECT_EQ(cluster.OpsUntilMaintenanceTick(), 5u);
  const uint64_t before = cluster.stats().maintenance_ticks;
  ASSERT_TRUE(cluster.StepWrites(5).ok());
  EXPECT_EQ(cluster.stats().maintenance_ticks, before + 1);
  EXPECT_EQ(cluster.OpsUntilMaintenanceTick(), 8u);
}

TEST(EcClusterTest, ClusterInjectorWakesAutoMaintenance) {
  EcConfig config = TestConfig();
  config.faults = std::make_shared<FaultInjector>(FaultConfig{}, 7);
  EcCluster cluster(config, Factory(1000000));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  EXPECT_FALSE(cluster.MaintenanceDormant());
  EXPECT_LE(cluster.OpsUntilMaintenanceTick(), 256u);
}

}  // namespace
}  // namespace salamander
