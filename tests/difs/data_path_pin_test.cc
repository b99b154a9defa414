// Pins the cluster data path of both redundancy schemes. One seeded
// targeted-op sequence runs against a DifsCluster and an EcCluster with
// every cluster mechanism switched on at once: queueing with hedged reads
// and brownout, a cluster injector (node outages, lost AckDrains), device
// injectors (transient unavailability, silent read corruption, torn
// journals), power losses inside and past a suspect window, and proactive
// drain. Each test compares a digest of every op's (status code, cost_ns)
// and a digest of the final stats() against values recorded from an earlier
// build, so a change meant to keep cluster behaviour byte-identical must
// leave both unchanged.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "difs/cluster.h"
#include "difs/ec_cluster.h"
#include "ecc/tiredness.h"
#include "faults/fault_injector.h"
#include "flash/wear_model.h"
#include "ssd/ssd_device.h"

namespace salamander {
namespace {

// 32 blocks x 16 fPages x 4 oPages = 2048 oPages per device, in 64-oPage
// mDisks; a low nominal P/E count makes mDisks retire and regenerate within
// the run, so recovery copies and rebuilds happen alongside the faults.
std::function<std::unique_ptr<SsdDevice>(uint32_t)> DeviceFactory(
    uint64_t base_seed) {
  FlashGeometry geometry;
  geometry.channels = 1;
  geometry.dies_per_channel = 1;
  geometry.planes_per_die = 1;
  geometry.blocks_per_plane = 32;
  geometry.fpages_per_block = 16;
  FPageEccGeometry ecc;
  const WearModelConfig wear = WearModel::Calibrate(
      ComputeTirednessLevel(ecc, 0).max_tolerable_rber, /*nominal_pec=*/2);
  return [=](uint32_t index) {
    FaultConfig faults;
    faults.transient_unavailable = 0.002;
    faults.read_corrupt = 0.004;
    faults.torn_journal_write = 0.5;
    faults.seed = base_seed + index;
    SsdConfig config = MakeSsdConfig(SsdKind::kRegenS, geometry, wear,
                                     FlashLatencyConfig{}, ecc,
                                     base_seed + index * 17);
    config.minidisk.msize_opages = 64;
    config.minidisk.drain_before_decommission = true;
    config.faults = std::make_shared<FaultInjector>(faults, index);
    return std::make_unique<SsdDevice>(SsdKind::kRegenS, config);
  };
}

// The knobs both clusters share, all switched on.
void EnableEverything(ClusterConfig& config) {
  config.fill_fraction = 0.5;
  config.seed = 20261019;
  config.maintenance_interval_ops = 16;
  config.suspect_grace_ticks = 24;
  config.drain_health_threshold = 0.97;
  config.sched.queue_depth = 8;
  config.sched.arrival_interval_ns = 60000;
  config.sched.retry_jitter_ns = 1000;
  config.sched.hedge_threshold_ns = 5000;
  config.sched.slo_p99_ns = 3000000;
  config.sched.brownout_window_ops = 64;
  FaultConfig cluster_faults;
  cluster_faults.node_outage = 0.05;
  cluster_faults.ack_drain_lost = 0.5;
  cluster_faults.seed = 77;
  config.faults = std::make_shared<FaultInjector>(cluster_faults, 1000);
}

// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((word >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  // Every counter of a stats struct made only of uint64_t fields.
  template <typename Stats>
  void AddStats(const Stats& stats) {
    static_assert(std::is_trivially_copyable_v<Stats>);
    static_assert(sizeof(Stats) % sizeof(uint64_t) == 0);
    uint64_t words[sizeof(Stats) / sizeof(uint64_t)];
    std::memcpy(words, &stats, sizeof(Stats));
    for (uint64_t word : words) {
      Add(word);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

constexpr uint64_t kOps = 20000;

// Drives kOps seeded ops, two writes to one read: `op(is_write, draw, &cost)`
// issues one targeted op. Device 1 loses power at op 2000 and restarts
// inside its suspect window; device 4 loses power at op 8000 and restarts
// after its window expired. `between(i)` runs after every op.
template <typename Cluster, typename Op>
uint64_t DriveOps(Cluster& cluster, Op op,
                  const std::function<void(uint64_t)>& between) {
  Rng rng(424242);
  Digest digest;
  for (uint64_t i = 0; i < kOps; ++i) {
    if (i == 2000) {
      cluster.device(1).Crash(SsdDevice::CrashKind::kPowerLoss);
    } else if (i == 2200) {
      digest.Add(static_cast<uint64_t>(cluster.device(1).Restart().code()));
    } else if (i == 8000) {
      cluster.device(4).Crash(SsdDevice::CrashKind::kPowerLoss);
    } else if (i == 14000) {
      digest.Add(static_cast<uint64_t>(cluster.device(4).Restart().code()));
    }
    const bool is_write = rng.UniformU64(3) != 0;
    SimDuration cost = 0;
    const Status status = op(is_write, rng.NextU64(), &cost);
    digest.Add(static_cast<uint64_t>(status.code()));
    digest.Add(cost);
    between(i);
  }
  return digest.value();
}

TEST(DataPathPinTest, Replication) {
  DifsConfig config;
  EnableEverything(config);
  config.nodes = 6;
  config.replication = 3;
  config.chunk_opages = 64;
  DifsCluster cluster(config, DeviceFactory(3100));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const uint64_t ops = DriveOps(
      cluster,
      [&](bool is_write, uint64_t draw, SimDuration* cost) {
        const ChunkId chunk = draw % cluster.total_chunks();
        const uint64_t offset = (draw >> 20) % cluster.chunk_opages();
        return is_write ? cluster.WriteChunkAt(chunk, offset, cost)
                        : cluster.ReadChunkAt(chunk, offset, cost);
      },
      [&](uint64_t i) {
        if (i % 200 == 199) {
          (void)cluster.ScrubStep(16);
        }
      });
  cluster.ForceReconcile();
  ASSERT_TRUE(cluster.CheckInvariants().ok());

  const DifsStats& stats = cluster.stats();
  // Every mechanism the pin claims to cover actually ran.
  EXPECT_GT(stats.sched_write_sheds + stats.sched_read_sheds, 0u);
  EXPECT_GT(stats.sched_hedged_reads, 0u);
  EXPECT_GT(cluster.brownout()->stats().entered, 0u);
  EXPECT_GT(stats.node_outages, 0u);
  EXPECT_GT(stats.acks_lost, 0u);
  EXPECT_GT(stats.transient_retries, 0u);
  EXPECT_GT(stats.integrity_detected, 0u);
  EXPECT_GT(stats.suspect_devices_returned, 0u);
  EXPECT_GT(stats.suspect_windows_expired, 0u);
  EXPECT_GT(stats.drain_devices_flagged, 0u);
  EXPECT_GT(stats.replicas_recovered, 0u);

  Digest final_stats;
  final_stats.AddStats(stats);
  EXPECT_EQ(ops, 0x477532d15eab9008ULL) << std::hex << ops;
  EXPECT_EQ(final_stats.value(), 0x0aa0486f964f04d8ULL)
      << std::hex << final_stats.value();
}

TEST(DataPathPinTest, ErasureCoding) {
  EcConfig config;
  EnableEverything(config);
  config.nodes = 8;
  config.data_cells = 4;
  config.parity_cells = 2;
  config.cell_opages = 64;
  EcCluster cluster(config, DeviceFactory(5300));
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const uint64_t ops = DriveOps(
      cluster,
      [&](bool is_write, uint64_t draw, SimDuration* cost) {
        const StripeId stripe = draw % cluster.total_stripes();
        const uint32_t cell =
            static_cast<uint32_t>((draw >> 16) % cluster.data_cells());
        const uint64_t offset = (draw >> 24) % cluster.cell_opages();
        return is_write ? cluster.WriteLogicalAt(stripe, cell, offset, cost)
                        : cluster.ReadLogicalAt(stripe, cell, offset, cost);
      },
      [](uint64_t) {});
  cluster.ForceReconcile();
  ASSERT_TRUE(cluster.CheckInvariants().ok());

  const EcStats& stats = cluster.stats();
  EXPECT_GT(stats.sched_write_sheds + stats.sched_read_sheds, 0u);
  EXPECT_GT(stats.sched_hedged_reads, 0u);
  EXPECT_GT(cluster.brownout()->stats().entered, 0u);
  EXPECT_GT(stats.node_outages, 0u);
  EXPECT_GT(stats.acks_lost, 0u);
  EXPECT_GT(stats.integrity_detected, 0u);
  EXPECT_GT(stats.degraded_reads, 0u);
  EXPECT_GT(stats.suspect_devices_returned, 0u);
  EXPECT_GT(stats.suspect_windows_expired, 0u);
  EXPECT_GT(stats.drain_devices_flagged, 0u);
  EXPECT_GT(stats.cells_rebuilt, 0u);

  Digest final_stats;
  final_stats.AddStats(stats);
  EXPECT_EQ(ops, 0x738384943fe18cb0ULL) << std::hex << ops;
  EXPECT_EQ(final_stats.value(), 0x899924e43da3f8cbULL)
      << std::hex << final_stats.value();
}

}  // namespace
}  // namespace salamander
