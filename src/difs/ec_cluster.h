// Erasure-coded distributed storage on Salamander devices.
//
// The paper argues a diFS absorbs minidisk failures through its "existing,
// end-to-end redundancy mechanisms"; in production that is increasingly
// erasure coding (RS(k+m)) rather than 3-way replication. This cluster
// stores *stripes*: k data cells + m parity cells, each cell one mDisk slot
// on a distinct node. Any m cell losses are tolerated; rebuilding one lost
// cell reads k surviving cells (k x reconstruction traffic — the classic EC
// trade against replication's 1 x), and every foreground write updates its
// data cell plus all m parity cells.
//
// Minidisk-granular failures interact with EC in Salamander's favour: a lost
// 1 MiB cell costs k MiB of rebuild reads, so shedding capacity in mDisk
// units instead of whole devices divides each rebuild burst by the number of
// mDisks per device, exactly as with replication.
#ifndef SALAMANDER_DIFS_EC_CLUSTER_H_
#define SALAMANDER_DIFS_EC_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "difs/cluster_core.h"

namespace salamander {

using StripeId = uint64_t;

struct EcConfig : ClusterConfig {
  // RS(k + m) spreads k+m cells over distinct nodes: the default RS(4+2)
  // layout needs more nodes than replication's default.
  EcConfig() { nodes = 9; }

  // RS(k + m): tolerate any m cell losses per stripe.
  uint32_t data_cells = 4;    // k
  uint32_t parity_cells = 2;  // m
  // Cell size in oPages; Salamander devices set mSize equal to this.
  uint64_t cell_opages = 64;
};

// Rejects configs EcCluster cannot run: k >= 1, m >= 1, k + m <= 255 (the
// packed slot ref's 8-bit cell field), nodes >= k + m, cell_opages >= 1, and
// a valid sched config. The constructor aborts on an invalid config in every
// build mode.
Status ValidateEcConfig(const EcConfig& config);

struct EcStats : ClusterStats {
  uint64_t foreground_logical_writes = 0;  // logical oPage updates
  uint64_t foreground_device_writes = 0;   // data + parity device writes
  uint64_t rebuild_opage_reads = 0;        // k-way reconstruction reads
  uint64_t rebuild_opage_writes = 0;       // rebuilt cell writes
  uint64_t cells_lost = 0;
  uint64_t cells_rebuilt = 0;
  uint64_t degraded_reads = 0;             // reads served via reconstruction
  uint64_t stripes_lost = 0;               // > m concurrent cell losses
  uint64_t rebuild_deferred = 0;

  uint64_t integrity_retained_cells = 0;  // corrupt cell kept: stripe at k

  uint64_t suspect_cells_revived = 0;     // survived the power loss intact
  uint64_t suspect_cells_stale = 0;       // missed/lost writes: rebuilt

  uint64_t sched_rebuild_sheds = 0;    // rebuild attempts refused admission
  uint64_t brownout_rebuild_deferrals = 0;  // rebuild waves parked under SLO

  uint64_t drain_cells_migrated = 0;   // cells moved off ahead of failure

  uint64_t rebuild_read_bytes() const { return rebuild_opage_reads * 4096; }
  uint64_t rebuild_write_bytes() const { return rebuild_opage_writes * 4096; }
};

// One cell's placement; `cell` is the stable index within the stripe.
using CellLocation = SlotLocation;

struct Stripe : UnitRecord {
  std::vector<CellLocation> cells;  // indexed by cell number, stable

  uint32_t live_cells() const { return ReadableMembers(cells); }
};

class EcCluster : public ClusterCore {
 public:
  EcCluster(const EcConfig& config,
            const std::function<std::unique_ptr<SsdDevice>(uint32_t)>&
                device_factory);

  // Issues `logical_writes` random logical oPage updates; each writes its
  // data cell and all m parity cells (the EC read-modify-write).
  Status StepWrites(uint64_t logical_writes);

  // Issues `reads` random logical oPage reads. A read whose data cell is
  // missing is served degraded: k surviving cells are read to reconstruct.
  Status StepReads(uint64_t reads);

  // ---- Targeted foreground ops (the traffic engine's entry points) --------
  // Same semantics as one StepWrites/StepReads iteration with the caller
  // choosing the logical location. A TrafficEngine address maps as
  //   stripe    = addr / (data_cells * cell_opages)
  //   data_cell = (addr / cell_opages) % data_cells
  //   offset    = addr % cell_opages
  // When `cost_ns` is non-null it receives the op's simulated service time:
  // the data and parity cells are written in parallel (slowest wins); a
  // degraded read waits for its slowest reconstruction source.

  // kDataLoss when the stripe is lost; kInvalidArgument out of range.
  Status WriteLogicalAt(StripeId stripe_id, uint32_t data_cell,
                        uint64_t offset, SimDuration* cost_ns = nullptr);
  Status ReadLogicalAt(StripeId stripe_id, uint32_t data_cell,
                       uint64_t offset, SimDuration* cost_ns = nullptr);

  uint32_t data_cells() const { return config_.data_cells; }
  uint64_t cell_opages() const { return config_.cell_opages; }
  // Logical oPage address space a traffic engine should target.
  uint64_t logical_opages() const {
    return stripes_.size() * config_.data_cells * config_.cell_opages;
  }

  const EcStats& stats() const { return stats_; }
  uint64_t total_stripes() const { return stripes_.size(); }
  uint64_t stripes_fully_redundant() const { return CountUnits(true); }
  uint64_t stripes_degraded() const { return CountUnits(false); }
  const Stripe& stripe(StripeId id) const { return stripes_[id]; }

  // Scrapes EcStats with difs.*-parity names ("<prefix>ec.*"), redundancy-
  // health gauges, and every device's "<prefix>ssd.*" subtree. Cluster-level
  // injected faults land under "<prefix>cluster_faults.". Additive — collect
  // once per cluster (see telemetry/collect.h).
  void CollectMetrics(MetricRegistry& registry,
                      const std::string& prefix = "") const;

 private:
  // ---- Scheme hooks (see ClusterCore) --------------------------------------
  const ClusterConfig& cfg() const override { return config_; }
  ClusterStats& core_stats() override { return stats_; }
  SchemeCounters counters() override;
  uint64_t unit_count() const override { return stripes_.size(); }
  UnitRecord& unit(UnitId id) override { return stripes_[id]; }
  std::vector<SlotLocation>& members(UnitId id) override {
    return stripes_[id].cells;
  }
  void ReserveUnits(uint64_t count) override { stripes_.reserve(count); }
  void AddUnit(std::vector<SlotLocation> placed) override;
  StatusOr<SimDuration> WriteMember(SlotLocation& member,
                                    uint64_t offset) override {
    return WriteCell(member, offset);
  }
  bool RestoreOne(UnitId id) override { return RebuildOneCell(id); }
  // EC forgoes replication's grace window: parity can reconstruct any cell,
  // so a draining mDisk is retired immediately (its cells lost and queued
  // for rebuild, exactly as a decommission) and the drain is acked at once.
  void HandleMdiskDraining(uint32_t device_index, MinidiskId mdisk) override;

  // Reconstructs one missing cell of `stripe_id` from k live cells.
  bool RebuildOneCell(StripeId stripe_id);
  // Writes one cell oPage (no transient retry); on success returns the
  // device write latency and counts a foreground device write.
  StatusOr<SimDuration> WriteCell(CellLocation& cell, uint64_t offset);
  // Shared body of StepReads and ReadLogicalAt. Draws no RNG.
  Status ReadLogicalBody(Stripe& stripe, uint32_t data_cell, uint64_t offset,
                         SimDuration* cost_ns);

  EcConfig config_;
  EcStats stats_;
  std::vector<Stripe> stripes_;
};

}  // namespace salamander

#endif  // SALAMANDER_DIFS_EC_CLUSTER_H_
