// DifsCluster integration tests for the deterministic queueing layer
// (ISSUE 9): queue delay folding into reported costs, bounded-depth sheds
// with ledger reconciliation, hedged reads, brownout degradation, and
// bit-identical replay with every feature (jitter, hedging, SLO) enabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/units.h"
#include "difs/cluster.h"
#include "difs/ec_cluster.h"
#include "sched/queueing.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestSsdConfig;
using testing_util::TinyGeometry;

constexpr uint32_t kNodes = 4;

DifsCluster MakeSchedCluster(const SchedConfig& sched, uint64_t seed = 4242) {
  DifsConfig config;
  config.nodes = kNodes;
  config.devices_per_node = 1;
  config.replication = 3;
  config.chunk_opages = 16;
  config.fill_fraction = 0.25;
  config.seed = seed;
  config.sched = sched;
  auto factory = [](uint32_t index) {
    return std::make_unique<SsdDevice>(
        SsdKind::kShrinkS,
        TestSsdConfig(SsdKind::kShrinkS, TinyGeometry(),
                      /*nominal_pec=*/1000000, /*seed=*/1000 + index));
  };
  return DifsCluster(config, factory);
}

// Runs the same targeted mixed read/write sequence and returns per-op costs.
std::vector<SimDuration> RunMixed(DifsCluster& cluster, uint64_t ops,
                                  uint64_t* unavailable = nullptr) {
  std::vector<SimDuration> costs;
  const uint64_t chunks = cluster.total_chunks();
  for (uint64_t i = 0; i < ops; ++i) {
    SimDuration cost = 0;
    const Status status =
        (i % 2 == 0)
            ? cluster.WriteChunkAt(i % chunks, i % 16, &cost)
            : cluster.ReadChunkAt((i * 7) % chunks, (i * 3) % 16, &cost);
    if (!status.ok() && unavailable != nullptr &&
        status.code() == StatusCode::kUnavailable) {
      ++*unavailable;
    }
    costs.push_back(cost);
  }
  return costs;
}

SimDuration Percentile(std::vector<SimDuration> costs, double p) {
  std::sort(costs.begin(), costs.end());
  const size_t index =
      static_cast<size_t>(p * static_cast<double>(costs.size() - 1));
  return costs[index];
}

// queue_depth == 0 must disable the layer wholesale: no queues attached, no
// sched stats, and op costs identical to a cluster that never saw a
// SchedConfig — even when the *other* knobs are set.
TEST(ClusterSchedTest, DisabledLayerIsInvisible) {
  SchedConfig noisy;  // everything but queue_depth set
  noisy.arrival_interval_ns = 1000;
  noisy.hedge_threshold_ns = 1;
  noisy.slo_p99_ns = 1;
  noisy.retry_jitter_ns = 500;
  DifsCluster with = MakeSchedCluster(noisy);
  DifsCluster without = MakeSchedCluster(SchedConfig{});
  ASSERT_TRUE(with.Bootstrap().ok());
  ASSERT_TRUE(without.Bootstrap().ok());
  const std::vector<SimDuration> a = RunMixed(with, 200);
  const std::vector<SimDuration> b = RunMixed(without, 200);
  EXPECT_EQ(a, b);
  EXPECT_EQ(with.stats().sched_wait_ns, 0u);
  EXPECT_EQ(with.stats().sched_read_sheds, 0u);
  EXPECT_EQ(with.stats().sched_write_sheds, 0u);
  EXPECT_EQ(with.sched_clock_ns(), 0u);
  for (uint32_t d = 0; d < kNodes; ++d) {
    EXPECT_EQ(with.device_queue(d), nullptr);
    EXPECT_EQ(without.device_queue(d), nullptr);
  }
  EXPECT_EQ(with.brownout(), nullptr);
}

// At ~2x sustainable read load (and far past it for writes) the queue delay
// must fold into reported costs: every op costs at least its unqueued price,
// the total surcharge equals the cluster's sched_wait_ns ledger, and the
// mixed-traffic tail spreads to p99 > 2x p50.
TEST(ClusterSchedTest, OverloadFoldsQueueDelayIntoCosts) {
  SchedConfig sched;
  sched.queue_depth = 4096;  // deep: this test wants waits, not sheds
  sched.arrival_interval_ns = 8 * kMicrosecond;
  DifsCluster queued = MakeSchedCluster(sched);
  DifsCluster unqueued = MakeSchedCluster(SchedConfig{});
  ASSERT_TRUE(queued.Bootstrap().ok());
  ASSERT_TRUE(unqueued.Bootstrap().ok());
  const std::vector<SimDuration> with = RunMixed(queued, 600);
  const std::vector<SimDuration> base = RunMixed(unqueued, 600);
  ASSERT_EQ(with.size(), base.size());
  uint64_t surcharge = 0;
  for (size_t i = 0; i < with.size(); ++i) {
    ASSERT_GE(with[i], base[i]) << "op " << i << " got cheaper under load";
    surcharge += with[i] - base[i];
  }
  EXPECT_GT(surcharge, 0u);
  EXPECT_EQ(surcharge, queued.stats().sched_wait_ns);
  EXPECT_EQ(queued.stats().sched_read_sheds, 0u);
  EXPECT_EQ(queued.stats().sched_write_sheds, 0u);
  EXPECT_GT(Percentile(with, 0.99), 2 * Percentile(with, 0.50));
  uint64_t max_depth = 0;
  for (uint32_t d = 0; d < kNodes; ++d) {
    ASSERT_NE(queued.device_queue(d), nullptr);
    max_depth = std::max(max_depth, queued.device_queue(d)->stats().max_depth);
  }
  EXPECT_GT(max_depth, 1u);
}

// A bounded queue under sustained overload sheds: foreground ops come back
// kUnavailable after their retry budget, whole-op (no replica is touched),
// and the cluster's shed counters reconcile exactly with the per-device
// queue give-up ledger.
TEST(ClusterSchedTest, BoundedDepthShedsAndLedgerReconciles) {
  SchedConfig sched;
  sched.queue_depth = 2;
  sched.arrival_interval_ns = 2 * kMicrosecond;
  DifsCluster cluster = MakeSchedCluster(sched);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  uint64_t unavailable = 0;
  RunMixed(cluster, 600, &unavailable);
  const DifsStats& stats = cluster.stats();
  EXPECT_GT(unavailable, 0u);
  EXPECT_GT(stats.sched_write_sheds + stats.sched_read_sheds, 0u);
  EXPECT_EQ(unavailable, stats.sched_write_sheds + stats.sched_read_sheds);
  uint64_t giveups = 0;
  uint64_t shed_attempts = 0;
  uint64_t retries = 0;
  for (uint32_t d = 0; d < kNodes; ++d) {
    const DeviceQueueStats& q = cluster.device_queue(d)->stats();
    giveups += q.shed_giveups;
    shed_attempts += q.sheds_total();
    retries += q.shed_retries;
  }
  // No recovery or scrub ran, so every give-up is a shed foreground op.
  EXPECT_EQ(giveups, stats.sched_write_sheds + stats.sched_read_sheds);
  EXPECT_GT(retries, 0u);
  EXPECT_GE(shed_attempts, giveups);
  // Shed writes never touched a replica: metadata stays coherent.
  ASSERT_TRUE(cluster.CheckInvariants().ok());
  EXPECT_EQ(cluster.chunks_lost(), 0u);
}

// When the primary replica's queue estimate breaches the hedge threshold,
// the read fans a modeled duplicate to the least-loaded alternate and
// completes on the faster path.
TEST(ClusterSchedTest, HedgedReadsFireUnderSkewedLoad) {
  SchedConfig sched;
  sched.queue_depth = 4096;
  sched.arrival_interval_ns = 4 * kMicrosecond;
  sched.hedge_threshold_ns = 30 * kMicrosecond;
  DifsCluster cluster = MakeSchedCluster(sched);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  RunMixed(cluster, 800);
  const DifsStats& stats = cluster.stats();
  EXPECT_GT(stats.sched_hedged_reads, 0u);
  EXPECT_LE(stats.sched_hedge_wins, stats.sched_hedged_reads);
  EXPECT_GT(stats.sched_hedge_wins, 0u);
}

// Brownout: a breached foreground p99 SLO defers scrub and background
// recovery (counted), and the cluster exits brownout once the foreground
// tail recovers — after which deferred work proceeds and converges.
TEST(ClusterSchedTest, BrownoutDefersBackgroundWorkAndRecovers) {
  SchedConfig sched;
  sched.queue_depth = 4096;
  sched.arrival_interval_ns = 50 * kMicrosecond;
  sched.slo_p99_ns = 300 * kMicrosecond;  // writes (~700us+) breach, reads don't
  sched.brownout_window_ops = 32;
  DifsCluster cluster = MakeSchedCluster(sched);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_NE(cluster.brownout(), nullptr);
  const uint64_t chunks = cluster.total_chunks();

  // Overload with writes until a window's p99 breaches the SLO.
  for (uint64_t i = 0; i < 128; ++i) {
    ASSERT_TRUE(cluster.WriteChunkAt(i % chunks, i % 16).ok());
  }
  ASSERT_TRUE(cluster.brownout()->active());
  EXPECT_GE(cluster.brownout()->stats().entered, 1u);

  // Scrub yields its whole budget while browned out.
  EXPECT_EQ(cluster.ScrubStep(10), 0u);
  EXPECT_GT(cluster.stats().brownout_scrub_deferrals, 0u);

  // A crash during brownout parks its recovery work instead of competing
  // with foreground traffic (the next write's event wave surfaces the loss).
  cluster.device(0).Crash();
  ASSERT_TRUE(cluster.WriteChunkAt(0, 0).ok());
  EXPECT_GT(cluster.stats().brownout_recovery_deferrals, 0u);

  // Light read-only traffic brings the windowed p99 back under the SLO.
  for (uint64_t i = 0; i < 256 && cluster.brownout()->active(); ++i) {
    (void)cluster.ReadChunkAt((i * 5) % chunks, i % 16);
  }
  EXPECT_FALSE(cluster.brownout()->active());
  EXPECT_GE(cluster.brownout()->stats().exited, 1u);

  // Deferred work now proceeds: scrub consumes budget again and the parked
  // recovery backlog drains to convergence.
  EXPECT_GT(cluster.ScrubStep(10), 0u);
  cluster.ForceReconcile();
  ASSERT_TRUE(cluster.CheckInvariants().ok());
  EXPECT_EQ(cluster.pending_recovery_backlog(), 0u);
  EXPECT_EQ(cluster.chunks_lost(), 0u);
}

// Replaying the same seed with every feature on (bounded depth, retry
// jitter, hedging, SLO brownout, a crash mid-run) is bit-identical: same
// per-op costs, same counters, same per-device queue state.
TEST(SchedDeterminismTest, DifsFullFeatureReplayIsBitIdentical) {
  SchedConfig sched;
  sched.queue_depth = 8;
  sched.arrival_interval_ns = 4 * kMicrosecond;
  sched.retry_jitter_ns = 2 * kMicrosecond;
  sched.hedge_threshold_ns = 30 * kMicrosecond;
  sched.slo_p99_ns = 300 * kMicrosecond;
  sched.brownout_window_ops = 32;
  auto run = [&](std::vector<SimDuration>* costs) {
    DifsCluster cluster = MakeSchedCluster(sched);
    EXPECT_TRUE(cluster.Bootstrap().ok());
    *costs = RunMixed(cluster, 300);
    cluster.device(1).Crash();
    std::vector<SimDuration> tail = RunMixed(cluster, 300);
    costs->insert(costs->end(), tail.begin(), tail.end());
    cluster.ScrubStep(50);
    cluster.ForceReconcile();
    return cluster;
  };
  std::vector<SimDuration> costs_a;
  std::vector<SimDuration> costs_b;
  DifsCluster a = run(&costs_a);
  DifsCluster b = run(&costs_b);
  EXPECT_EQ(costs_a, costs_b);
  EXPECT_EQ(a.sched_clock_ns(), b.sched_clock_ns());
  const DifsStats& sa = a.stats();
  const DifsStats& sb = b.stats();
  EXPECT_EQ(sa.sched_read_sheds, sb.sched_read_sheds);
  EXPECT_EQ(sa.sched_write_sheds, sb.sched_write_sheds);
  EXPECT_EQ(sa.sched_recovery_sheds, sb.sched_recovery_sheds);
  EXPECT_EQ(sa.sched_scrub_sheds, sb.sched_scrub_sheds);
  EXPECT_EQ(sa.sched_wait_ns, sb.sched_wait_ns);
  EXPECT_EQ(sa.sched_hedged_reads, sb.sched_hedged_reads);
  EXPECT_EQ(sa.sched_hedge_wins, sb.sched_hedge_wins);
  EXPECT_EQ(sa.brownout_scrub_deferrals, sb.brownout_scrub_deferrals);
  EXPECT_EQ(sa.brownout_recovery_deferrals, sb.brownout_recovery_deferrals);
  for (uint32_t d = 0; d < kNodes; ++d) {
    const DeviceQueueStats& qa = a.device_queue(d)->stats();
    const DeviceQueueStats& qb = b.device_queue(d)->stats();
    EXPECT_EQ(qa.submitted_total(), qb.submitted_total()) << "device " << d;
    EXPECT_EQ(qa.sheds_total(), qb.sheds_total()) << "device " << d;
    EXPECT_EQ(qa.wait_ns_total, qb.wait_ns_total) << "device " << d;
    EXPECT_EQ(qa.retry_backoff_ns, qb.retry_backoff_ns) << "device " << d;
    EXPECT_EQ(qa.max_depth, qb.max_depth) << "device " << d;
  }
}

// ---- EcCluster integration --------------------------------------------------

EcCluster MakeSchedEcCluster(const SchedConfig& sched) {
  EcConfig config;
  config.nodes = 7;
  config.data_cells = 4;
  config.parity_cells = 2;
  config.cell_opages = 64;
  config.fill_fraction = 0.4;
  config.seed = 515;
  config.sched = sched;
  auto factory = [](uint32_t index) {
    return std::make_unique<SsdDevice>(
        SsdKind::kShrinkS,
        TestSsdConfig(SsdKind::kShrinkS, TinyGeometry(),
                      /*nominal_pec=*/1000000, /*seed=*/7000 + index * 23));
  };
  return EcCluster(config, factory);
}

std::vector<SimDuration> RunMixedEc(EcCluster& cluster, uint64_t ops,
                                    uint64_t* unavailable = nullptr) {
  std::vector<SimDuration> costs;
  const uint64_t stripes = cluster.total_stripes();
  const uint32_t k = cluster.data_cells();
  for (uint64_t i = 0; i < ops; ++i) {
    SimDuration cost = 0;
    const Status status =
        (i % 2 == 0)
            ? cluster.WriteLogicalAt(i % stripes, i % k, i % 16, &cost)
            : cluster.ReadLogicalAt((i * 7) % stripes, (i * 3) % k, i % 16,
                                    &cost);
    if (!status.ok() && unavailable != nullptr &&
        status.code() == StatusCode::kUnavailable) {
      ++*unavailable;
    }
    costs.push_back(cost);
  }
  return costs;
}

// Bounded-depth sheds in the EC data path are whole-op (no cell is written
// when any target queue refuses) and the cluster's shed counters reconcile
// exactly with the per-device give-up ledger.
TEST(ClusterSchedTest, EcBoundedDepthShedsAndLedgerReconciles) {
  SchedConfig sched;
  sched.queue_depth = 2;
  sched.arrival_interval_ns = 2 * kMicrosecond;
  EcCluster cluster = MakeSchedEcCluster(sched);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  uint64_t unavailable = 0;
  RunMixedEc(cluster, 600, &unavailable);
  const EcStats& stats = cluster.stats();
  EXPECT_GT(unavailable, 0u);
  EXPECT_EQ(unavailable, stats.sched_write_sheds + stats.sched_read_sheds);
  uint64_t giveups = 0;
  for (uint32_t d = 0; d < cluster.device_count(); ++d) {
    giveups += cluster.device_queue(d)->stats().shed_giveups;
  }
  // No rebuild traffic ran, so every give-up is a shed foreground op.
  EXPECT_EQ(giveups, stats.sched_write_sheds + stats.sched_read_sheds);
  EXPECT_EQ(stats.stripes_lost, 0u);
}

// Hammering one data cell piles service time onto its device while the k
// reconstruction sources stay comparatively idle, so the modeled
// reconstruction hedge fires once the primary's estimate crosses the
// threshold.
TEST(ClusterSchedTest, EcHedgedReconstructionFiresOnHotCell) {
  SchedConfig sched;
  sched.queue_depth = 4096;
  sched.arrival_interval_ns = 4 * kMicrosecond;
  sched.hedge_threshold_ns = 30 * kMicrosecond;
  EcCluster cluster = MakeSchedEcCluster(sched);
  ASSERT_TRUE(cluster.Bootstrap().ok());
  for (uint64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(cluster.ReadLogicalAt(0, 0, i % 16).ok());
  }
  EXPECT_GT(cluster.stats().sched_hedged_reads, 0u);
  EXPECT_LE(cluster.stats().sched_hedge_wins,
            cluster.stats().sched_hedged_reads);
}

// EC full-feature replay (bounded depth, jitter, hedging, SLO brownout, a
// crash mid-run, forced convergence) is bit-identical run to run.
TEST(SchedDeterminismTest, EcFullFeatureReplayIsBitIdentical) {
  SchedConfig sched;
  sched.queue_depth = 8;
  sched.arrival_interval_ns = 4 * kMicrosecond;
  sched.retry_jitter_ns = 2 * kMicrosecond;
  sched.hedge_threshold_ns = 30 * kMicrosecond;
  sched.slo_p99_ns = 300 * kMicrosecond;
  sched.brownout_window_ops = 32;
  auto run = [&](std::vector<SimDuration>* costs) {
    EcCluster cluster = MakeSchedEcCluster(sched);
    EXPECT_TRUE(cluster.Bootstrap().ok());
    *costs = RunMixedEc(cluster, 300);
    cluster.device(1).Crash();
    std::vector<SimDuration> tail = RunMixedEc(cluster, 300);
    costs->insert(costs->end(), tail.begin(), tail.end());
    cluster.ForceReconcile();
    return cluster;
  };
  std::vector<SimDuration> costs_a;
  std::vector<SimDuration> costs_b;
  EcCluster a = run(&costs_a);
  EcCluster b = run(&costs_b);
  EXPECT_EQ(costs_a, costs_b);
  EXPECT_EQ(a.sched_clock_ns(), b.sched_clock_ns());
  const EcStats& sa = a.stats();
  const EcStats& sb = b.stats();
  EXPECT_EQ(sa.sched_read_sheds, sb.sched_read_sheds);
  EXPECT_EQ(sa.sched_write_sheds, sb.sched_write_sheds);
  EXPECT_EQ(sa.sched_rebuild_sheds, sb.sched_rebuild_sheds);
  EXPECT_EQ(sa.sched_wait_ns, sb.sched_wait_ns);
  EXPECT_EQ(sa.sched_hedged_reads, sb.sched_hedged_reads);
  EXPECT_EQ(sa.sched_hedge_wins, sb.sched_hedge_wins);
  EXPECT_EQ(sa.brownout_rebuild_deferrals, sb.brownout_rebuild_deferrals);
  for (uint32_t d = 0; d < a.device_count(); ++d) {
    const DeviceQueueStats& qa = a.device_queue(d)->stats();
    const DeviceQueueStats& qb = b.device_queue(d)->stats();
    EXPECT_EQ(qa.submitted_total(), qb.submitted_total()) << "device " << d;
    EXPECT_EQ(qa.sheds_total(), qb.sheds_total()) << "device " << d;
    EXPECT_EQ(qa.wait_ns_total, qb.wait_ns_total) << "device " << d;
    EXPECT_EQ(qa.max_depth, qb.max_depth) << "device " << d;
  }
}

}  // namespace
}  // namespace salamander
