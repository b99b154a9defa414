// Distributed replicated storage simulator (the paper's diFS).
//
// The cluster stores fixed-size *chunks*, each replicated on R distinct
// nodes. A chunk replica occupies one slot of one mDisk: on Salamander
// devices mSize == chunk size so a replica maps 1:1 onto an mDisk (the
// paper's design); on a baseline device the single monolithic "mDisk" hosts
// many slots, so one brick loses them all at once — exactly the failure-
// granularity contrast of Fig. 1.
//
// The cluster consumes each device's MinidiskEvent stream:
//   kDecommissioned -> replicas on that mDisk are lost; the recovery
//                      scheduler re-replicates each affected chunk from a
//                      survivor onto a node not already hosting it.
//   kCreated        -> new placement capacity (RegenS regeneration).
//
// Recovery performs *real* device I/O: the copy reads the survivor and
// writes the target, so recovery traffic wears flash exactly as §4.3
// discusses. Simulation "time" is driven by bytes written (constant-rate
// workload assumption); the fleet layer converts to wall-clock via DWPD.
#ifndef SALAMANDER_DIFS_CLUSTER_H_
#define SALAMANDER_DIFS_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "difs/cluster_core.h"
#include "integrity/scrub_cursor.h"

namespace salamander {

using ChunkId = uint64_t;

struct DifsConfig : ClusterConfig {
  uint32_t replication = 3;
  // diFS access-unit size in oPages (the paper's "equally-sized access
  // units"); Salamander devices set mSize equal to this.
  uint64_t chunk_opages = 64;

  // Optional trace recorder (not owned; must outlive the cluster). The
  // cluster emits instant events — recovery waves, chunk losses, node
  // outages/rejoins — on lane `trace_tid`, timestamped with the simulated
  // time last passed to DifsCluster::set_trace_time_us() (the harness
  // advances it once per day / burst). nullptr disables recording with no
  // behavioral or RNG-stream impact.
  TraceRecorder* trace = nullptr;
  uint32_t trace_tid = 0;
};

// Rejects configs DifsCluster cannot run: replication >= 1, nodes >= R,
// chunk_opages >= 1, and a valid sched config. The constructor aborts on an
// invalid config in every build mode.
Status ValidateDifsConfig(const DifsConfig& config);

struct DifsStats : ClusterStats {
  uint64_t foreground_opage_writes = 0;
  uint64_t recovery_opage_writes = 0;  // §4.3 recovery traffic (writes)
  uint64_t recovery_opage_reads = 0;   // reads from survivor replicas
  uint64_t replicas_recovered = 0;     // successful re-replications
  uint64_t replicas_lost = 0;          // replica failures observed
  uint64_t chunks_lost = 0;            // all replicas gone: data loss
  uint64_t recovery_deferred = 0;      // no eligible target at the time
  uint64_t scrub_repairs = 0;          // pages rewritten after kDataLoss

  // ---- End-to-end integrity & scrub ---------------------------------------
  // Corrupt replica NOT retired because it was the chunk's last readable
  // copy — corrupt data beats no data (cf. Tai et al., live recovery).
  uint64_t integrity_retained_last_copies = 0;
  uint64_t integrity_survivor_reads = 0;  // foreground reads re-served
  uint64_t scrub_opage_reads = 0;      // background scrub device reads
  uint64_t scrub_detected = 0;         // corruptions first seen by scrub
  uint64_t scrub_passes = 0;           // full scrub sweeps completed

  // ---- Queueing & graceful degradation (sched) ----------------------------
  uint64_t sched_recovery_sheds = 0;  // recovery copies aborted by admission
  uint64_t sched_scrub_sheds = 0;     // scrub positions skipped by admission
  uint64_t brownout_scrub_deferrals = 0;     // ScrubStep calls deferred
  uint64_t brownout_recovery_deferrals = 0;  // recovery passes deferred

  uint64_t drain_replicas_migrated = 0;  // replicas moved off ahead of failure
  uint64_t suspect_replicas_revived = 0;  // replicas reconciled as fresh
  uint64_t suspect_replicas_stale = 0;    // replicas pruned as stale

  uint64_t recovery_bytes() const { return recovery_opage_writes * 4096; }
};

using ReplicaLocation = SlotLocation;

struct Chunk : UnitRecord {
  std::vector<ReplicaLocation> replicas;

  // Replicas counting toward the replication factor (live, not draining).
  uint32_t live_replicas() const { return HealthyMembers(replicas); }
  // Replicas the data can still be read from (includes draining ones).
  uint32_t readable_replicas() const { return ReadableMembers(replicas); }
};

class DifsCluster : public ClusterCore {
 public:
  // `device_factory(global_index)` builds each device; indices are assigned
  // node-major (device i lives on node i / devices_per_node).
  DifsCluster(const DifsConfig& config,
              const std::function<std::unique_ptr<SsdDevice>(uint32_t)>&
                  device_factory);

  // Issues `opage_writes` foreground writes: each picks a random chunk and
  // offset and writes it through all live replicas (one logical write = R
  // device writes). Device events are processed as they appear.
  Status StepWrites(uint64_t opage_writes);

  // Reads `opage_reads` random chunk pages from random live replicas.
  // Uncorrectable reads are repaired by rewriting the page from RAM state
  // (scrub), counted in stats. Every read verifies the chunk's end-to-end
  // checksum: a mismatch retires the replica, re-serves the read from a
  // survivor, and re-replicates through the recovery scheduler (read-repair).
  Status StepReads(uint64_t opage_reads);

  // ---- Targeted foreground ops (the traffic engine's entry points) --------
  // Same semantics as one StepWrites/StepReads iteration, but the caller
  // chooses (chunk, offset) — a TrafficEngine address maps as
  // chunk = addr / chunk_opages(), offset = addr % chunk_opages(). When
  // `cost_ns` is non-null it receives the op's simulated service time:
  // replicas are written in parallel so a write costs its slowest replica
  // write plus any transient-retry backoff; a read costs the replica read
  // (plus the survivor re-serve after read-repair) plus backoff.

  // Writes `offset` of chunk `chunk_id` through all live replicas.
  // kDataLoss when the chunk is lost; kInvalidArgument out of range.
  Status WriteChunkAt(ChunkId chunk_id, uint64_t offset,
                      SimDuration* cost_ns = nullptr);
  // Reads `offset` of chunk `chunk_id` from a randomly chosen readable
  // replica (the replica draw comes from the cluster RNG, exactly as in
  // StepReads). kDataLoss when the chunk is lost or unreadable;
  // kUnavailable when every readable copy is behind a node outage.
  Status ReadChunkAt(ChunkId chunk_id, uint64_t offset,
                     SimDuration* cost_ns = nullptr);

  // Logical oPage address space a traffic engine should target:
  // total_chunks() * chunk_opages().
  uint64_t chunk_opages() const { return config_.chunk_opages; }
  uint64_t logical_opages() const {
    return chunks_.size() * config_.chunk_opages;
  }

  // Background scrub: walks up to `opage_budget` replica oPages behind a
  // deterministic cursor (no RNG draws), performing real device reads — so
  // scrub traffic wears flash per §4.3 — and repairing any corruption it
  // detects through the same read-repair path. Returns the number of oPages
  // actually read. A zero budget is a no-op.
  uint64_t ScrubStep(uint64_t opage_budget);

  // ---- Introspection -----------------------------------------------------

  const DifsStats& stats() const { return stats_; }
  uint64_t total_chunks() const { return chunks_.size(); }
  uint64_t chunks_fully_replicated() const { return CountUnits(true); }
  uint64_t chunks_under_replicated() const { return CountUnits(false); }
  uint64_t chunks_lost() const { return stats_.chunks_lost; }
  const Chunk& chunk(ChunkId id) const { return chunks_[id]; }
  // Chunks parked until placement capacity appears (recovery deferred).
  uint64_t chunks_waiting_capacity() const { return waiting_capacity_.size(); }
  uint64_t pending_recovery_backlog() const {
    return pending_recoveries_.size();
  }

  // Simulated timestamp stamped onto trace events the cluster emits (see
  // DifsConfig::trace). The harness advances it once per day / burst.
  void set_trace_time_us(uint64_t ts_us) { trace_time_us_ = ts_us; }

  // Scrapes DifsStats (re-replication bytes, resync rounds, retry/backoff,
  // drain outcomes), replication-health gauges, and every device's
  // "<prefix>ssd.*" subtree into "<prefix>difs.*". Cluster-level injected
  // faults land under "<prefix>cluster_faults.". Additive — collect once per
  // cluster (see telemetry/collect.h).
  void CollectMetrics(MetricRegistry& registry,
                      const std::string& prefix = "") const;

 private:
  // ---- Scheme hooks (see ClusterCore) --------------------------------------
  const ClusterConfig& cfg() const override { return config_; }
  ClusterStats& core_stats() override { return stats_; }
  SchemeCounters counters() override;
  uint64_t unit_count() const override { return chunks_.size(); }
  UnitRecord& unit(UnitId id) override { return chunks_[id]; }
  std::vector<SlotLocation>& members(UnitId id) override {
    return chunks_[id].replicas;
  }
  void ReserveUnits(uint64_t count) override { chunks_.reserve(count); }
  void AddUnit(std::vector<SlotLocation> placed) override;
  StatusOr<SimDuration> WriteMember(SlotLocation& member,
                                    uint64_t offset) override {
    return WriteSlot(member, offset);
  }
  bool RestoreOne(UnitId id) override { return RecoverOneReplica(id); }
  // Grace-window drain: replicas on the draining mDisk stay readable but no
  // longer count toward R; the drain is acked once each has been
  // re-replicated (or lost).
  void HandleMdiskDraining(uint32_t device_index, MinidiskId mdisk) override;

  // After `chunk` reached full replication, releases its draining replicas
  // and acks drains whose last pending chunk this was.
  void ReleaseDrainingReplicas(Chunk& chunk);
  // Attempts to restore one missing replica of `chunk_id`. Returns true on
  // success, false if no eligible target or no live source exists.
  bool RecoverOneReplica(ChunkId chunk_id);
  // Shared body of StepReads and ReadChunkAt. Preserves the legacy RNG draw
  // order exactly: candidates -> live_index -> offset — when `offset_ptr` is
  // null the offset is drawn from the cluster RNG *after* the replica pick,
  // as StepReads always has; a caller-provided offset skips that draw.
  Status ReadChunkImpl(ChunkId chunk_id, const uint64_t* offset_ptr,
                       SimDuration* cost_ns);

  DifsConfig config_;
  DifsStats stats_;
  std::vector<Chunk> chunks_;
  // Scrub position: major = chunk id, minor = replica * chunk_opages +
  // offset (flattened so the two-level cursor covers all three axes).
  ScrubCursor scrub_cursor_;
};

}  // namespace salamander

#endif  // SALAMANDER_DIFS_CLUSTER_H_
