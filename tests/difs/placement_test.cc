// Pluggable placement policies, criticality-ordered recovery, and proactive
// health-driven drain on both cluster flavors (ISSUE 10). The
// PlacementDeterminism* suites pin the determinism contract — a uniform (or
// null) policy reproduces the legacy draws bit-for-bit; domain-spread never
// co-locates two copies in one rack, falling back counted when the topology
// cannot satisfy it — plus the hedge/dark-domain interaction and the drain
// accounting being separate from reactive recovery.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "common/units.h"
#include "difs/cluster.h"
#include "difs/ec_cluster.h"
#include "difs/placement.h"
#include "ecc/tiredness.h"
#include "flash/wear_model.h"
#include "sched/queueing.h"
#include "ssd/ssd_device.h"
#include "telemetry/metrics.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestSsdConfig;
using testing_util::TinyGeometry;

std::function<std::unique_ptr<SsdDevice>(uint32_t)> Factory(
    uint64_t base_seed, uint32_t nominal_pec = 1000000) {
  return [base_seed, nominal_pec](uint32_t index) {
    return std::make_unique<SsdDevice>(
        SsdKind::kShrinkS,
        TestSsdConfig(SsdKind::kShrinkS, TinyGeometry(), nominal_pec,
                      base_seed + index * 17));
  };
}

DifsConfig PlacementConfig(uint32_t nodes, uint32_t nodes_per_rack,
                           std::shared_ptr<PlacementPolicy> policy) {
  DifsConfig config;
  config.nodes = nodes;
  config.devices_per_node = 1;
  config.replication = 3;
  config.chunk_opages = 16;
  config.fill_fraction = 0.4;
  config.seed = 20260807;
  config.nodes_per_rack = nodes_per_rack;
  config.placement = std::move(policy);
  return config;
}

// Collects the full placement table: per chunk, the (device, mdisk, slot)
// triple of every live replica, in replica order. Equal tables mean the two
// clusters drew identical placements.
std::vector<std::vector<std::tuple<uint32_t, MinidiskId, uint32_t>>>
PlacementTable(const DifsCluster& cluster) {
  std::vector<std::vector<std::tuple<uint32_t, MinidiskId, uint32_t>>> table;
  for (ChunkId id = 0; id < cluster.total_chunks(); ++id) {
    std::vector<std::tuple<uint32_t, MinidiskId, uint32_t>> replicas;
    for (const ReplicaLocation& r : cluster.chunk(id).replicas) {
      if (r.live) {
        replicas.emplace_back(r.device, r.mdisk, r.slot);
      }
    }
    table.push_back(std::move(replicas));
  }
  return table;
}

void ExpectRackDisjoint(const DifsCluster& cluster) {
  for (ChunkId id = 0; id < cluster.total_chunks(); ++id) {
    std::set<uint32_t> racks;
    uint32_t live = 0;
    for (const ReplicaLocation& r : cluster.chunk(id).replicas) {
      if (r.live && !r.draining) {
        ++live;
        racks.insert(cluster.rack_of_device(r.device));
      }
    }
    EXPECT_EQ(racks.size(), live) << "chunk " << id << " co-locates a rack";
  }
}

TEST(PlacementDeterminismTest, UniformPolicyBitIdenticalToNullPolicy) {
  DifsCluster with_policy(
      PlacementConfig(6, /*nodes_per_rack=*/2, MakeUniformPlacement()),
      Factory(101));
  DifsCluster without(PlacementConfig(6, /*nodes_per_rack=*/2, nullptr),
                      Factory(101));
  ASSERT_TRUE(with_policy.Bootstrap().ok());
  ASSERT_TRUE(without.Bootstrap().ok());
  EXPECT_EQ(PlacementTable(with_policy), PlacementTable(without));
  // Same post-bootstrap traffic: the draw sequences must stay in lockstep.
  (void)with_policy.StepWrites(256);
  (void)without.StepWrites(256);
  (void)with_policy.StepReads(128);
  (void)without.StepReads(128);
  EXPECT_EQ(PlacementTable(with_policy), PlacementTable(without));
  EXPECT_EQ(with_policy.stats().placement_domain_rejections, 0u);
  EXPECT_EQ(with_policy.stats().placement_domain_fallbacks, 0u);
  EXPECT_TRUE(with_policy.CheckInvariants().ok());
}

TEST(PlacementDeterminismTest, DomainSpreadNeverColocatesReplicasInOneRack) {
  // 6 nodes in 3 racks of 2, replication 3: a spread placement must use all
  // three racks for every chunk.
  DifsCluster cluster(
      PlacementConfig(6, /*nodes_per_rack=*/2, MakeDomainSpreadPlacement(2)),
      Factory(202));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ExpectRackDisjoint(cluster);
  (void)cluster.StepWrites(512);
  cluster.ForceReconcile();
  ExpectRackDisjoint(cluster);
  // Three racks for three replicas: the constraint is satisfiable, so no
  // placement ever had to fall back to the unconstrained probe.
  EXPECT_EQ(cluster.stats().placement_domain_fallbacks, 0u);
  EXPECT_TRUE(cluster.CheckInvariants().ok());
  EXPECT_EQ(cluster.chunks_lost(), 0u);
}

TEST(PlacementDeterminismTest, SingleRackTopologyFallsBackCounted) {
  // Every node in one rack: domain-spread is unsatisfiable beyond the first
  // replica, so placements fall back — counted — to plain node-disjointness.
  DifsCluster cluster(
      PlacementConfig(4, /*nodes_per_rack=*/4, MakeDomainSpreadPlacement(4)),
      Factory(303));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  EXPECT_GT(cluster.stats().placement_domain_fallbacks, 0u);
  // Fallback placements still honor node-disjointness.
  for (ChunkId id = 0; id < cluster.total_chunks(); ++id) {
    std::set<uint32_t> nodes;
    uint32_t live = 0;
    for (const ReplicaLocation& r : cluster.chunk(id).replicas) {
      if (r.live) {
        ++live;
        nodes.insert(cluster.node_of_device(r.device));
      }
    }
    EXPECT_EQ(nodes.size(), live) << "chunk " << id;
  }
  EXPECT_TRUE(cluster.CheckInvariants().ok());
}

TEST(PlacementDeterminismTest, DomainSpreadHoldsThroughRecovery) {
  DifsCluster cluster(
      PlacementConfig(8, /*nodes_per_rack=*/2, MakeDomainSpreadPlacement(2)),
      Factory(404));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  (void)cluster.StepWrites(128);
  // Brick one device; recovery must re-place its replicas without ever
  // pairing two copies in one rack.
  cluster.device(1).Crash(SsdDevice::CrashKind::kPermanent);
  (void)cluster.StepWrites(256);
  cluster.ForceReconcile();
  EXPECT_EQ(cluster.chunks_lost(), 0u);
  EXPECT_EQ(cluster.chunks_under_replicated(), 0u);
  ExpectRackDisjoint(cluster);
  EXPECT_TRUE(cluster.CheckInvariants().ok());
}

TEST(PlacementDeterminismTest, CriticalityOrderDeterministicAndConvergent) {
  // Criticality ordering is a triage policy: it permutes the order within a
  // recovery pass (and therefore which placement draws each chunk consumes)
  // but must stay fully deterministic — two identical runs replay the same
  // placements bit-for-bit — and must converge to the same health as FIFO:
  // every chunk healed, nothing lost, invariants clean.
  const auto run = [](bool criticality) {
    DifsConfig config =
        PlacementConfig(8, /*nodes_per_rack=*/2, MakeDomainSpreadPlacement(2));
    config.criticality_ordered_recovery = criticality;
    DifsCluster cluster(config, Factory(505));
    EXPECT_TRUE(cluster.Bootstrap().ok());
    (void)cluster.StepWrites(128);
    // A two-device repair storm: some chunks drop to 1 readable copy.
    cluster.device(2).Crash(SsdDevice::CrashKind::kPermanent);
    cluster.device(5).Crash(SsdDevice::CrashKind::kPermanent);
    (void)cluster.StepWrites(256);
    cluster.ForceReconcile();
    EXPECT_TRUE(cluster.CheckInvariants().ok());
    EXPECT_EQ(cluster.chunks_lost(), 0u);
    EXPECT_EQ(cluster.chunks_under_replicated(), 0u);
    return PlacementTable(cluster);
  };
  // Bit-identical replay with the triage on.
  EXPECT_EQ(run(true), run(true));
  // FIFO heals the same chunk set to the same replication (asserted inside
  // run); the placements themselves legitimately differ between orderings.
  const auto fifo = run(false);
  EXPECT_EQ(fifo.size(), run(true).size());
}

TEST(PlacementDeterminismTest, ProactiveDrainMigratesAndAccountsSeparately) {
  // Fast-wearing devices: the health score decays inside the test horizon
  // and the drain threshold must evacuate flagged devices ahead of death,
  // with the traffic accounted under drain_*, not recovery_*.
  DifsConfig config =
      PlacementConfig(6, /*nodes_per_rack=*/2, MakeDomainSpreadPlacement(2));
  config.drain_health_threshold = 0.6;
  DifsCluster cluster(config, Factory(606, /*nominal_pec=*/12));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  MetricRegistry registry;
  for (int round = 0; round < 400; ++round) {
    (void)cluster.StepWrites(128);
    cluster.ForceReconcile();
    if (cluster.stats().drain_devices_flagged > 0 &&
        cluster.stats().drain_replicas_migrated > 0) {
      break;
    }
  }
  const DifsStats& stats = cluster.stats();
  ASSERT_GT(stats.drain_devices_flagged, 0u) << "threshold never crossed";
  EXPECT_GT(stats.drain_replicas_migrated, 0u);
  EXPECT_GT(stats.drain_opage_writes, 0u);
  EXPECT_EQ(stats.drain_opage_writes,
            stats.drain_replicas_migrated * config.chunk_opages);
  // A completed drain leaves no live replica on the flagged device.
  if (stats.drain_devices_completed > 0) {
    for (ChunkId id = 0; id < cluster.total_chunks(); ++id) {
      for (const ReplicaLocation& r : cluster.chunk(id).replicas) {
        if (r.live && !r.draining) {
          EXPECT_TRUE(!cluster.device(r.device).failed() ||
                      cluster.device(r.device).transiently_dark());
        }
      }
    }
  }
  EXPECT_TRUE(cluster.CheckInvariants().ok());
  EXPECT_EQ(cluster.chunks_lost(), 0u);
  // The exported subtree mirrors the stats ledger, under difs.drain.* —
  // disjoint from difs.recovery_opage_writes.
  cluster.CollectMetrics(registry);
  const Counter* drain_writes =
      registry.FindCounter("difs.drain.opage_writes");
  const Counter* recovery_writes =
      registry.FindCounter("difs.recovery_opage_writes");
  ASSERT_NE(drain_writes, nullptr);
  ASSERT_NE(recovery_writes, nullptr);
  EXPECT_EQ(drain_writes->value(), stats.drain_opage_writes);
  EXPECT_EQ(recovery_writes->value(), stats.recovery_opage_writes);
}

// The drain threshold alone must wake EC maintenance, exactly as it does for
// replication: with no injector attached anywhere, a dormant maintenance path
// would never score device health and the fast-wearing devices would die with
// their cells still on them.
TEST(PlacementDeterminismTest, EcProactiveDrainRunsWithoutInjector) {
  EcConfig config;
  config.nodes = 6;
  config.devices_per_node = 1;
  config.data_cells = 2;
  config.parity_cells = 2;
  config.cell_opages = 16;
  config.fill_fraction = 0.4;
  config.seed = 20260807;
  config.nodes_per_rack = 2;
  config.placement = MakeDomainSpreadPlacement(2);
  config.drain_health_threshold = 0.6;
  EcCluster cluster(config, Factory(606, /*nominal_pec=*/12));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  EXPECT_FALSE(cluster.MaintenanceDormant());
  for (int round = 0; round < 400; ++round) {
    (void)cluster.StepWrites(128);
    cluster.ForceReconcile();
    if (cluster.stats().drain_devices_flagged > 0 &&
        cluster.stats().drain_cells_migrated > 0) {
      break;
    }
  }
  const EcStats& stats = cluster.stats();
  ASSERT_GT(stats.drain_devices_flagged, 0u) << "threshold never crossed";
  EXPECT_GT(stats.drain_cells_migrated, 0u);
  MetricRegistry registry;
  cluster.CollectMetrics(registry);
  const std::pair<const char*, uint64_t> exported[] = {
      {"ec.drain.devices_flagged", stats.drain_devices_flagged},
      {"ec.drain.devices_completed", stats.drain_devices_completed},
      {"ec.drain.cells_migrated", stats.drain_cells_migrated},
      {"ec.drain.opage_reads", stats.drain_opage_reads},
      {"ec.drain.opage_writes", stats.drain_opage_writes},
      {"ec.drain.migrations_parked", stats.drain_migrations_parked},
      {"ec.drain.brownout_deferrals", stats.drain_brownout_deferrals},
      {"ec.drain.sched_sheds", stats.drain_sched_sheds},
  };
  for (const auto& [name, value] : exported) {
    const Counter* counter = registry.FindCounter(name);
    ASSERT_NE(counter, nullptr) << name;
    EXPECT_EQ(counter->value(), value) << name;
  }
}

TEST(PlacementDeterminismTest, EcDomainSpreadNeverColocatesCellsInOneRack) {
  EcConfig config;
  config.nodes = 8;
  config.devices_per_node = 1;
  config.data_cells = 2;
  config.parity_cells = 2;
  config.cell_opages = 16;
  config.fill_fraction = 0.4;
  config.seed = 20260807;
  config.nodes_per_rack = 2;
  config.placement = MakeDomainSpreadPlacement(2);
  EcCluster cluster(config, Factory(707));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  (void)cluster.StepWrites(256);
  cluster.ForceReconcile();
  for (StripeId id = 0; id < cluster.total_stripes(); ++id) {
    std::set<uint32_t> racks;
    uint32_t live = 0;
    for (const CellLocation& cell : cluster.stripe(id).cells) {
      if (cell.live) {
        ++live;
        racks.insert(cluster.rack_of_device(cell.device));
      }
    }
    EXPECT_EQ(racks.size(), live) << "stripe " << id;
  }
  EXPECT_EQ(cluster.stats().placement_domain_fallbacks, 0u);
  EXPECT_EQ(cluster.stats().stripes_lost, 0u);
}

TEST(PlacementDeterminismTest, EcUniformPolicyBitIdenticalToNullPolicy) {
  const auto run = [](std::shared_ptr<PlacementPolicy> policy) {
    EcConfig config;
    config.nodes = 6;
    config.devices_per_node = 1;
    config.data_cells = 2;
    config.parity_cells = 2;
    config.cell_opages = 16;
    config.fill_fraction = 0.4;
    config.seed = 20260807;
    config.nodes_per_rack = 2;
    config.placement = std::move(policy);
    EcCluster cluster(config, Factory(808));
    EXPECT_TRUE(cluster.Bootstrap().ok());
    (void)cluster.StepWrites(256);
    std::vector<std::vector<std::pair<uint32_t, bool>>> table;
    for (StripeId id = 0; id < cluster.total_stripes(); ++id) {
      std::vector<std::pair<uint32_t, bool>> cells;
      for (const CellLocation& cell : cluster.stripe(id).cells) {
        cells.emplace_back(cell.device, cell.live);
      }
      table.push_back(std::move(cells));
    }
    return table;
  };
  EXPECT_EQ(run(MakeUniformPlacement()), run(nullptr));
}

// ISSUE 10 satellite: hedged reads when the only alternate replicas sit in
// a dark (powered-off) domain. The hedge scan must skip dark devices and
// fall back to the primary path — never admit a modeled duplicate against a
// powered-off device, and never shed the read.
TEST(PlacementDeterminismTest, HedgeFallsBackWhenAlternateRackDark) {
  DifsConfig config =
      PlacementConfig(6, /*nodes_per_rack=*/2, MakeDomainSpreadPlacement(2));
  config.suspect_grace_ticks = 1000;  // windows stay open for the whole test
  config.sched.queue_depth = 64;
  config.sched.arrival_interval_ns = 1;  // heavy load: hedges would fire
  config.sched.hedge_threshold_ns = 1;
  DifsCluster cluster(config, Factory(909));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  (void)cluster.StepWrites(64);

  // Saturate the queues so every primary admission breaches the 1 ns hedge
  // threshold, then verify hedges do fire with all devices healthy.
  (void)cluster.StepReads(256);
  const uint64_t hedged_healthy = cluster.stats().sched_hedged_reads;
  ASSERT_GT(hedged_healthy, 0u) << "load too light to trigger hedging";

  // Pick a chunk and pull the power on every replica holder except the
  // primary's two alternates' racks — i.e. crash ALL alternates of chunk 0,
  // leaving only one live serving replica.
  const Chunk& chunk = cluster.chunk(0);
  std::vector<uint32_t> holders;
  for (const ReplicaLocation& r : chunk.replicas) {
    if (r.live) {
      holders.push_back(r.device);
    }
  }
  ASSERT_EQ(holders.size(), 3u);
  // Keep the lowest-index holder as the serving primary (ReadChunkAt probes
  // replicas in stored order) and take the whole rack of each alternate
  // dark, the correlated-failure shape a rack power event produces.
  for (size_t i = 1; i < holders.size(); ++i) {
    cluster.device(holders[i]).Crash(SsdDevice::CrashKind::kPowerLoss);
  }

  // The primary replica pick is random, so a read can still land on a dark
  // holder (and fail at the device, as a suspect read must). The hedge
  // property is orthogonal: a hedge admission may never touch a dark
  // device's queue. Since the dark queues receive submissions ONLY via a
  // dark primary pick, any iteration whose dark submission count is flat
  // had a healthy primary — and with both alternates dark, such a read has
  // no hedge candidate at all and must fall back without hedging.
  const auto dark_submitted = [&] {
    uint64_t n = 0;
    for (size_t i = 1; i < holders.size(); ++i) {
      const DeviceQueue* queue = cluster.device_queue(holders[i]);
      n += queue->stats().submitted[static_cast<size_t>(
          OpClass::kForegroundRead)];
    }
    return n;
  };
  uint64_t served = 0;
  uint64_t healthy_primary_reads = 0;
  for (int i = 0; i < 96; ++i) {
    const uint64_t dark_before = dark_submitted();
    const uint64_t hedged_before = cluster.stats().sched_hedged_reads;
    const uint64_t sheds_before = cluster.stats().sched_read_sheds;
    SimDuration cost = 0;
    const Status read = cluster.ReadChunkAt(0, i % 16, &cost);
    served += read.ok() ? 1 : 0;
    if (dark_submitted() == dark_before) {
      // Healthy primary, dark alternates only: the hedge scan must have
      // fallen back to the primary path — no hedge, and no shed introduced
      // by the scan (a shed here would mean the read was refused outright).
      ++healthy_primary_reads;
      EXPECT_EQ(cluster.stats().sched_hedged_reads, hedged_before)
          << "read " << i << " hedged against a dark domain";
      if (read.ok()) {
        EXPECT_EQ(cluster.stats().sched_read_sheds, sheds_before);
      }
    }
  }
  ASSERT_GT(served, 0u);
  ASSERT_GT(healthy_primary_reads, 0u) << "no read ever drew the healthy "
                                          "primary; fixture broken";
  EXPECT_TRUE(cluster.CheckInvariants().ok());
}

}  // namespace
}  // namespace salamander
