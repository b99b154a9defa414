// The machinery every diFS redundancy scheme shares.
//
// A cluster stores fixed-size *units* (replicated chunks, erasure-coded
// stripes). Each unit is a set of *members* (replicas, cells), and each
// member occupies one slot of one mDisk on a distinct node. Everything that
// does not depend on how the members encode the data lives here, written
// once: device state and slot maps, MinidiskEvent ingestion, placement, the
// pending/waiting recovery queues, bootstrap placement, maintenance ticks,
// node outages, resync, suspect windows and their freshness rule (a member
// is fresh iff !stale), proactive drain and migration, the foreground write
// fan-out, the shed and finish exits of every foreground op, the
// whole-member copy, recovery admission, queue admission and brownout,
// corruption observation, invariants, the redundancy-health count, and the
// shared metrics. DifsCluster (R replicas) and EcCluster (RS(k+m)) derive
// from ClusterCore and supply only what the scheme defines: the unit record,
// which members a write targets, the foreground read bodies, how one missing
// member is restored (its sources), and the drain protocol. The fixed
// per-scheme differences are SchemeTraits, never config options.
#ifndef SALAMANDER_DIFS_CLUSTER_CORE_H_
#define SALAMANDER_DIFS_CLUSTER_CORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/minidisk.h"
#include "difs/placement.h"
#include "faults/fault_injector.h"
#include "integrity/checksum.h"
#include "sched/queueing.h"
#include "ssd/ssd_device.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace salamander {

using UnitId = uint64_t;

// Bounded retry for kUnavailable device errors (busy planes), replication
// only: retry r backs off kTransientBackoffBaseNs << r of simulated time,
// accumulated in ClusterStats::backoff_ns.
inline constexpr uint32_t kMaxTransientRetries = 4;
inline constexpr uint64_t kTransientBackoffBaseNs = 10000;  // 10 us
// The largest shift the retry budget allows must not overflow `base << r`.
static_assert((kTransientBackoffBaseNs << kMaxTransientRetries) >>
                  kMaxTransientRetries ==
              kTransientBackoffBaseNs);

// Knobs both cluster flavors share (DifsConfig and EcConfig extend it).
struct ClusterConfig {
  uint32_t nodes = 6;
  uint32_t devices_per_node = 1;
  // Fraction of initial cluster slots to fill with unit members.
  double fill_fraction = 0.6;
  uint64_t seed = 1;

  // Per-device service queues, admission control, hedged reads, and the
  // brownout SLO guard. sched.queue_depth == 0 (default) disables the whole
  // layer: no queues, no extra RNG streams, byte-identical outputs.
  SchedConfig sched;

  // ---- Failure domains, placement & proactive drain -------------------------

  // Nodes per rack / power domain. Consecutive nodes share a rack
  // (rack = node / nodes_per_rack); 0 or 1 keeps every node its own rack.
  // Pure topology: consumed only by domain-aware policies and harnesses,
  // never by the baseline data path.
  uint32_t nodes_per_rack = 0;

  // Pluggable placement policy (see difs/placement.h). nullptr — the
  // default — and UniformPlacement both reproduce the legacy single-draw
  // linear probe bit-for-bit; a constraining policy (DomainSpreadPlacement)
  // adds a constrained probe pass with counted fallbacks.
  std::shared_ptr<PlacementPolicy> placement;

  // When true, each recovery pass drains its budgeted batch in criticality
  // order — units with fewer readable members first (ties by unit id) —
  // instead of FIFO. Changes only the order within a pass, so quiescent
  // outcomes are identical; during a repair storm with admission control the
  // units nearest loss get the queue room first.
  bool criticality_ordered_recovery = false;

  // Proactive health-driven drain: when > 0, each maintenance tick scores
  // every device (SsdDevice::HealthScore) and devices at or below the
  // threshold are flagged and their members migrated off ahead of failure,
  // accounted under drain_* (separate from reactive recovery traffic). The
  // threshold alone keeps maintenance awake. 0 (default) disables the scan.
  double drain_health_threshold = 0.0;
  // Look-ahead horizon for the tiring-forecast half of the health score, as
  // a fraction of each page's current P/E count (see
  // Ftl::ForecastTiringOPages).
  double drain_pec_horizon = 0.25;

  // ---- Maintenance & chaos --------------------------------------------------

  // Every this many foreground ops the cluster runs a maintenance tick:
  // event-channel reconciliation (ResyncDevice for every reachable device),
  // node outage/rejoin processing, suspect windows, proactive drain, and a
  // retry of parked recoveries. 0 = automatic: 256 when a fault injector is
  // attached or drain is enabled, never otherwise — so a fault-free
  // cluster's behavior (and RNG schedule) is untouched.
  uint64_t maintenance_interval_ops = 0;

  // Cluster-level chaos injector (node outages, lost AckDrains). Distinct
  // instance from the per-device injectors; nullptr disables.
  std::shared_ptr<FaultInjector> faults;

  // When > 0, a device that goes dark from a transient power loss is held
  // "suspect" for this many maintenance ticks instead of having its members
  // declared lost immediately. If it restarts within the window, surviving
  // members are reconciled in place (the scheme's freshness rule plus the
  // device's rolled-back set decide) and no recovery traffic is spent; on
  // expiry the device is treated exactly like a brick. 0 (default) keeps the
  // legacy declare-immediately behavior and touches no code path.
  uint64_t suspect_grace_ticks = 0;
};

// Rules every scheme shares: enough nodes for `width` node-disjoint members,
// a non-empty member size, fill_fraction in (0, 1], drain_health_threshold
// in [0, 1], a finite non-negative drain_pec_horizon, and a valid sched
// config.
Status ValidateClusterConfig(const ClusterConfig& config, uint32_t width,
                             uint64_t unit_opages);

// Counters both cluster flavors keep under the same name. Counters whose
// name differs per scheme (replicas_lost vs cells_lost, ...) stay in
// DifsStats/EcStats and reach the core through ClusterCore::counters().
struct ClusterStats {
  uint64_t drains_started = 0;      // kDraining events observed
  uint64_t drains_acked = 0;        // drains completed with AckDrain
  uint64_t acks_lost = 0;           // AckDrains that never reached a device
  uint64_t node_outages = 0;        // injected outages started
  uint64_t outage_write_skips = 0;  // member writes skipped, node out
  uint64_t maintenance_ticks = 0;
  uint64_t resync_passes = 0;       // ResyncDevice invocations
  uint64_t resync_repairs = 0;      // discrepancies repaired by resync
  // Device-level kDataLoss on reads the cluster issued.
  uint64_t uncorrectable_reads = 0;

  // Bounded retry with backoff for kUnavailable device errors. Replication
  // only: EC issues no transient retries, so these stay 0 there.
  uint64_t transient_retries = 0;   // kUnavailable ops retried
  uint64_t transient_giveups = 0;   // ops still kUnavailable after retries
  uint64_t backoff_ns = 0;          // simulated backoff time accumulated

  // Members lost while STILL draining (forced drain finish or a brick during
  // the grace window). Replication only: EC retires draining mDisks at once.
  uint64_t drain_window_losses = 0;
  // Largest amount of recovery I/O performed in one event wave (one
  // ProcessEvents call) — the burstiness contrast of Fig. 1 / §4.3: a
  // whole-device failure forces one huge wave, mDisk failures many tiny
  // ones. Replication only.
  uint64_t max_wave_recovery_opages = 0;
  uint64_t recovery_waves = 0;      // waves with any recovery I/O

  // ---- End-to-end integrity ------------------------------------------------
  // Silently corrupt fpage reads observed (checksum mismatches). Exact:
  // equals the sum of the per-device injectors' read_corrupt site counters,
  // because every injected draw happens under a cluster-issued read and the
  // cluster snapshots each device's FTL corruption counter after every read.
  uint64_t integrity_detected = 0;
  uint64_t integrity_marked_bad = 0;  // members retired for corruption

  // ---- Queueing & graceful degradation (all 0 while sched is disabled) -----
  uint64_t sched_read_sheds = 0;   // foreground reads refused at admission
  uint64_t sched_write_sheds = 0;  // foreground writes refused whole
  uint64_t sched_wait_ns = 0;      // foreground queue wait + shed backoff
  uint64_t sched_hedged_reads = 0; // reads that fanned out a hedge
  uint64_t sched_hedge_wins = 0;   // hedge path completed first

  // ---- Failure domains, placement & proactive drain -------------------------
  // Candidates vetoed by the placement policy's constrained pass.
  uint64_t placement_domain_rejections = 0;
  // Placements that exhausted the constrained pass and fell back to the
  // node-disjoint baseline. 0 means every placement honored the domain
  // constraint (CheckInvariants then enforces rack-disjointness).
  uint64_t placement_domain_fallbacks = 0;
  uint64_t drain_devices_flagged = 0;    // devices whose health tripped
  uint64_t drain_devices_completed = 0;  // flagged devices fully evacuated
  uint64_t drain_opage_reads = 0;        // proactive migration reads
  uint64_t drain_opage_writes = 0;       // proactive migration writes
  uint64_t drain_migrations_parked = 0;  // no target / copy aborted; retried
  uint64_t drain_brownout_deferrals = 0; // drain passes yielded to brownout
  // Drain migrations refused by queue admission. Sub-count of the recovery
  // sheds (drain I/O rides OpClass::kRecovery), so the device-giveup ledger
  // stays exact.
  uint64_t drain_sched_sheds = 0;

  // ---- Suspect windows (crash-restart) --------------------------------------
  uint64_t suspect_windows_started = 0;   // devices that went dark on grace
  uint64_t suspect_windows_expired = 0;   // windows that ended in loss
  uint64_t suspect_devices_returned = 0;  // devices back within the window
};

// One member's location: a slot within an mDisk of a device. Replicas and
// cells share the record; `cell` means something only for EC, `draining`
// only for replication.
struct SlotLocation {
  // Stable index within an EC stripe (0..k-1 data, k..k+m-1 parity).
  uint32_t cell = 0;
  uint32_t device = 0;  // global device index
  MinidiskId mdisk = 0;
  uint32_t slot = 0;    // unit slot within the mDisk
  bool live = false;
  // The mDisk is draining (grace-period decommissioning): still readable,
  // no longer counted toward the unit's width.
  bool draining = false;
  // True when the most recent foreground write targeting this member did
  // not land (node outage skip, dark device, draining replica): its bytes
  // lag the unit's checksum generation. A member of a device that returns
  // within its suspect window is fresh iff it is not stale (and the device
  // rolled back none of its LBAs). Recovery copies start fresh; migration
  // carries the flag along.
  bool stale = false;
};

// Members the data can still be read from (draining ones included).
uint32_t ReadableMembers(const std::vector<SlotLocation>& members);
// Members counting toward the unit's width (live, not draining).
uint32_t HealthyMembers(const std::vector<SlotLocation>& members);

// Identity and integrity metadata every unit carries.
struct UnitRecord {
  UnitId id = 0;
  bool lost = false;
  // End-to-end integrity metadata: checksum stamped over the unit's logical
  // contents (id + write generation) at bootstrap and restamped on every
  // foreground write; recovery copies it verbatim with the data.
  uint64_t checksum = 0;
  uint64_t generation = 0;
};

class ClusterCore {
 public:
  virtual ~ClusterCore() = default;

  // Places units (width node-disjoint members each) up to the configured
  // fill fraction and writes every LBA of every member (initial load).
  Status Bootstrap();

  // Drains device events and runs the recovery scheduler (also invoked
  // internally by the foreground ops).
  void ProcessEvents();

  // Full reconciliation: resyncs every reachable device against cluster
  // bookkeeping, retries parked recoveries, and drives recovery to
  // quiescence — bypassing brownout and recovery admission. Chaos tests call
  // this after a fault burst to assert convergence.
  void ForceReconcile();

  // Cross-checks the cluster's bookkeeping: slot maps <-> unit member
  // records (both directions), free-slot accounting and draining_pending
  // coherence, node-disjointness of live non-draining members (and
  // rack-disjointness when no placement fell back), the width bound, and
  // lost <-> below-floor consistency. kInternal with a description on the
  // first violation. O(cluster); run after every recovery wave in debug
  // builds, and by tests/soaks at will.
  Status CheckInvariants() const;

  // ---- Tick scheduling (discrete-event drivers) ---------------------------
  // Instead of polling after every op, an event-driven harness asks once
  // when the next maintenance tick is due and jumps there.

  // True when maintenance can never fire: auto interval (0), drain disabled,
  // and no injector attached anywhere. A dormant cluster posts no
  // maintenance events at all.
  bool MaintenanceDormant() const;
  // Foreground ops until the next maintenance tick fires (>= 1);
  // UINT64_MAX when dormant.
  uint64_t OpsUntilMaintenanceTick() const;

  // ---- Introspection -----------------------------------------------------
  uint32_t alive_devices() const;
  uint64_t free_slots() const;
  // Live cluster capacity in bytes, across all devices.
  uint64_t live_capacity_bytes() const;
  uint64_t initial_capacity_bytes() const { return initial_capacity_bytes_; }
  // Total host data written across all devices (time axis for aging plots).
  uint64_t total_bytes_written() const;
  SsdDevice& device(uint32_t index) { return *devices_[index].device; }
  const SsdDevice& device(uint32_t index) const {
    return *devices_[index].device;
  }
  uint32_t device_count() const {
    return static_cast<uint32_t>(devices_.size());
  }
  // Device indices are node-major (device i lives on node i / devices_per_node).
  uint32_t node_of_device(uint32_t device) const {
    return device / cfg().devices_per_node;
  }
  // Failure-domain topology: consecutive nodes share a rack.
  uint32_t rack_of_node(uint32_t node) const {
    const uint32_t per_rack = cfg().nodes_per_rack;
    return node / (per_rack == 0 ? 1 : per_rack);
  }
  uint32_t rack_of_device(uint32_t device) const {
    return rack_of_node(node_of_device(device));
  }
  // Node currently unreachable due to an injected outage, or -1.
  int32_t outage_node() const { return outage_node_; }

  // ---- Queueing & graceful degradation introspection ----------------------
  // Simulated arrival clock: advances sched.arrival_interval_ns per
  // foreground op while queueing is enabled; stays 0 otherwise.
  uint64_t sched_clock_ns() const { return sched_clock_ns_; }
  // Per-device service queue; nullptr when queueing is disabled.
  const DeviceQueue* device_queue(uint32_t index) const {
    return devices_[index].device->queue();
  }
  // Brownout controller; nullptr unless sched.slo_p99_ns > 0.
  const BrownoutController* brownout() const { return brownout_.get(); }

 protected:
  static constexpr int64_t kFreeSlot = -1;
  // Slot on a draining mDisk that can take no new data.
  static constexpr int64_t kUnavailableSlot = -2;

  // Fixed differences between redundancy schemes.
  struct SchemeTraits {
    // Metric root ("difs." / "ec.") and the nouns the scheme's counters use
    // ("replicas"/"cells", "recovery"/"rebuild").
    const char* metric_root;
    const char* member_noun;
    const char* repair_noun;
    // Unit noun and loss wording for the data-loss log line.
    const char* unit_noun;
    const char* loss_text;
    uint32_t width;        // members a fully healthy unit holds: R or k+m
    uint32_t floor;        // fewer readable members than this: unit lost
    uint64_t unit_opages;  // member size in oPages (chunk / cell)
    // Slot refs pack (unit << ref_cell_bits) | cell; 0 stores the unit id.
    uint32_t ref_cell_bits;
    // Retry core-issued device ops that fail kUnavailable (see
    // kMaxTransientRetries); false issues each op exactly once and counts
    // nothing.
    bool retries_transient_errors;
    // PickTarget's inner pass that avoids devices with active drains.
    bool avoid_draining_devices;
    // Resync repairs triggered by dropped events count as delivered events.
    bool resync_repairs_are_events;
    // Track recovery waves (recovery_waves / max_wave_recovery_opages).
    bool wave_stats;
  };

  // Scheme-named counters the core bumps (see ClusterStats).
  struct SchemeCounters {
    uint64_t& foreground_writes;  // foreground_opage/logical_writes
    uint64_t& members_lost;       // replicas_lost / cells_lost
    uint64_t& units_lost;         // chunks_lost / stripes_lost
    uint64_t& members_restored;   // replicas_recovered / cells_rebuilt
    uint64_t& restore_opage_writes;
    uint64_t& restore_deferred;
    uint64_t& recovery_sheds;     // sched_recovery_sheds / sched_rebuild_sheds
    uint64_t& brownout_recovery_deferrals;
    uint64_t& drain_migrated;
    uint64_t& suspect_revived;
    uint64_t& suspect_stale;
    uint64_t& integrity_retained;
  };

  struct DeviceState {
    std::unique_ptr<SsdDevice> device;
    uint32_t slots_per_mdisk = 0;
    // Per live mDisk: slot -> slot ref, kFreeSlot, or kUnavailableSlot.
    std::unordered_map<MinidiskId, std::vector<int64_t>> slots;
    uint64_t free_slot_count = 0;
    // Draining mDisks -> members still awaiting re-replication before ack
    // (replication's grace window; always empty for EC).
    std::unordered_map<MinidiskId, uint32_t> draining_pending;
    // Last value of device->dropped_events() the cluster has seen; when the
    // counter moves, the event stream is incomplete and a resync runs.
    uint64_t observed_dropped_events = 0;
    // Last value of the device FTL's silent_corrupt_fpage_reads counter the
    // cluster has reconciled into integrity_detected.
    uint64_t observed_silent_corrupt = 0;
    // ---- Suspect window (crash-restart) ----
    // Device is dark but within its grace window: bookkeeping untouched.
    bool suspect = false;
    uint64_t suspect_ticks_left = 0;
    // The darkness has been fully handled (window expired -> losses
    // declared); prevents re-opening a window for the same outage. Cleared
    // when the device serves again.
    bool down_handled = false;
    // ---- Proactive health-driven drain ----
    // Health score tripped the drain threshold: members are being migrated
    // off and PickTarget refuses to place new data here. Sticky — a device
    // this close to death is never un-flagged.
    bool health_draining = false;
    // Evacuation completed (counted once in drain_devices_completed).
    bool health_drain_done = false;
  };

  ClusterCore(const SchemeTraits& scheme, uint64_t rng_seed,
              uint64_t codec_seed);
  // Movable (the core holds no pointers into itself or its derived class);
  // devices are uniquely owned, so never copyable.
  ClusterCore(ClusterCore&&) = default;
  ClusterCore& operator=(ClusterCore&&) = default;
  ClusterCore(const ClusterCore&) = delete;
  ClusterCore& operator=(const ClusterCore&) = delete;

  // Builds every device (`factory(global_index)`), ingests its format
  // events, and configures queueing. Called from the derived constructor
  // once the config is in place; aborts when a device's mDisk is smaller
  // than one member.
  void AttachDevices(
      const std::function<std::unique_ptr<SsdDevice>(uint32_t)>& factory);

  // Aborts with `who: invalid config: ...` unless `status` is OK — invalid
  // configs are rejected in every build mode.
  static void RequireValid(const char* who, const Status& status);

  // ---- Scheme hooks ---------------------------------------------------------
  virtual const ClusterConfig& cfg() const = 0;
  virtual ClusterStats& core_stats() = 0;
  virtual SchemeCounters counters() = 0;
  virtual uint64_t unit_count() const = 0;
  virtual UnitRecord& unit(UnitId id) = 0;
  virtual std::vector<SlotLocation>& members(UnitId id) = 0;
  // Sizes the unit table for the bootstrap fill; AddUnit appends the next
  // unit (id == unit_count()) with its placed members.
  virtual void ReserveUnits(uint64_t count) = 0;
  virtual void AddUnit(std::vector<SlotLocation> placed) = 0;
  // Writes one oPage of a member (the bootstrap load and WriteUnit).
  virtual StatusOr<SimDuration> WriteMember(SlotLocation& member,
                                            uint64_t offset) = 0;
  // Restores one missing member of `id` (copy one replica / reconstruct one
  // cell from k). False when no source or target exists or the copy aborted.
  virtual bool RestoreOne(UnitId id) = 0;
  // The scheme's drain protocol for a kDraining mDisk.
  virtual void HandleMdiskDraining(uint32_t device_index, MinidiskId mdisk) = 0;

  // ---- Slot maps ------------------------------------------------------------
  int64_t PackRef(UnitId id, uint32_t cell) const {
    return static_cast<int64_t>(
        scheme_.ref_cell_bits == 0 ? id : (id << scheme_.ref_cell_bits) | cell);
  }
  UnitId RefUnit(int64_t ref) const {
    return static_cast<UnitId>(ref) >> scheme_.ref_cell_bits;
  }
  int64_t RefOf(UnitId id, const SlotLocation& member) const {
    return PackRef(id, member.cell);
  }
  // Marks the free slot at `at` as holding member `at` of `id`.
  void ClaimSlot(UnitId id, const SlotLocation& at);
  // Releases the slot at `at` if it still holds member `at` of `id` (no-op
  // once the mDisk is gone or the slot moved on). Drain-aware: on a draining mDisk the slot becomes
  // unavailable — never new free capacity — and the drain is acked once its
  // last pending slot is released. This also covers a claim for an
  // in-flight copy whose target started draining mid-copy, since the drain
  // counted the claim as pending.
  void ReleaseSlot(UnitId id, const SlotLocation& at);
  // The live member of `id` recorded at (device, mdisk, slot), or nullptr.
  SlotLocation* FindMember(UnitId id, uint32_t device_index, MinidiskId mdisk,
                           uint32_t slot);
  // Sorted snapshot of a device's known mDisks: handlers mutate the slot
  // map, and unordered_map order must never influence simulation behavior.
  std::vector<MinidiskId> KnownMdisks(uint32_t device_index) const;

  // ---- Event ingestion ------------------------------------------------------
  // Returns the number of events processed.
  size_t ApplyDeviceEvents(uint32_t device_index);
  void HandleMdiskCreated(uint32_t device_index, MinidiskId mdisk);
  // Every member on the mDisk is lost; units below their floor are lost,
  // the rest queue for recovery.
  void HandleMdiskLoss(uint32_t device_index, MinidiskId mdisk);
  // After a member of `id` went away: declares the unit lost below its
  // floor, otherwise queues it for recovery when below width (if `enqueue`).
  void AfterMemberLoss(UnitId id, bool enqueue);

  // ---- Recovery & placement ---------------------------------------------------
  // One pass over the pending-recovery queue; returns how many members were
  // restored. While the cluster is in brownout the pass is deferred
  // (counted) unless ForceReconcile is driving convergence.
  uint64_t DrainPendingRecoveries();
  void RequeueWaiting();
  // Random start, linear probe over devices for a free slot on a node not in
  // `exclude_nodes` (see the .cc for the pass structure); fills the device,
  // mDisk and slot of `*target`.
  bool PickTarget(const std::vector<uint32_t>& exclude_nodes,
                  SlotLocation* target);
  // Every source, then the target, must find recovery-class queue room; the
  // first refusal sheds the copy (counted in recovery_sheds). Always true
  // while queueing is off or ForceReconcile runs.
  bool AdmitRecovery(std::span<SlotLocation* const> sources,
                     uint32_t target_device);
  void CompleteRecovery(uint32_t device_index, SimDuration latency);
  // Reads every oPage of copy source `source` (retried per the scheme). On
  // success counts them in `opage_reads` and charges the read to the
  // source's queue as one recovery-class op; false on a device read error.
  bool ReadWholeMember(const SlotLocation& source, uint64_t& opage_reads);
  // Writes every oPage of member `target` of `id` into its claimed slot,
  // counting each write in `opage_writes`, and charges the whole copy to
  // the target's queue as one recovery-class op. False when the target died
  // mid-copy: its events are surfaced and the claim released.
  bool CopyToTarget(UnitId id, const SlotLocation& target,
                    uint64_t& opage_writes);
  // Non-lost units at full width (`at_width`) or below it.
  uint64_t CountUnits(bool at_width) const;

  // ---- Proactive health-driven drain ------------------------------------------
  // Scores every device and flags those at or below drain_health_threshold;
  // then migrates members off flagged devices. Runs inside MaintenanceTick
  // (before its final ProcessEvents); a no-op when the threshold is 0.
  void ProactiveDrainTick();
  // Moves one live member off a flagged device onto a PickTarget-chosen slot
  // (real read + writes, drain_* accounted, admission-controlled under
  // OpClass::kRecovery). Returns false when parked (no target, shed, or the
  // copy aborted) — the next tick retries.
  bool MigrateMemberOff(UnitId id, size_t index);

  // ---- Foreground helpers -------------------------------------------------------
  bool QueueingEnabled() const { return queueing_; }
  DeviceQueue* Queue(uint32_t device_index) {
    return devices_[device_index].device->queue();
  }
  // One foreground arrival on the simulated clock (queueing only).
  void AdvanceSchedClock();
  // Writes one oPage of a member: refuses dead or draining members, skips
  // (counted) members behind an outage, retries per the scheme.
  StatusOr<SimDuration> WriteSlot(SlotLocation& member, uint64_t offset);
  // Reads one oPage of a member, retried per the scheme.
  StatusOr<ReadResult> ReadSlot(const SlotLocation& member, uint64_t offset);
  // The foreground write both schemes share. Member i of `id` is targeted
  // iff i == data_cell or i >= first_parity (replication passes 0, 0: every
  // replica; EC its data cell and k). Admission is all-or-nothing over the
  // targets; then the unit's generation and checksum are restamped and
  // `offset` of every live target is written in index order, a failed
  // member going stale. The fan-out is parallel: the op costs its slowest
  // member write plus retry backoff and queue wait. kDataLoss when the unit
  // is lost; kUnavailable when admission sheds the whole op (no member is
  // touched, so none goes stale). Draws no RNG.
  Status WriteUnit(UnitId id, uint32_t data_cell, uint32_t first_parity,
                   uint64_t offset, SimDuration* cost_ns);
  // Ends a foreground op: folds `wait_ns` into sched_wait_ns, reports
  // latency + wait as the op's cost, feeds the brownout controller (if on),
  // surfaces device events when asked (writes), and runs maintenance.
  void FinishForeground(uint64_t wait_ns, SimDuration latency,
                        SimDuration* cost_ns, bool process_events = false);
  // Shed exit: counts the refused op in `sheds`, finishes it, and returns
  // kUnavailable naming `what`.
  Status ShedForeground(uint64_t& sheds, uint64_t wait_ns, SimDuration latency,
                        SimDuration* cost_ns, const char* what);

  // ---- End-to-end integrity ------------------------------------------------------
  // Folds the device FTL's silent-corruption counter into integrity_detected
  // and returns how many corrupt fpage reads the last operation performed.
  // Called after every device read so the accounting is exact even when a
  // range read aborts partway.
  uint64_t ObserveCorruption(uint32_t device_index);
  // Retires a corrupt member: releases its slot, marks it dead, and queues
  // the unit for recovery unless `enqueue` is false (recovery already has it
  // in hand). Refuses to drop a unit to its floor — corrupt data beats no
  // data (cf. Tai et al., live recovery) — returning false and counting
  // integrity_retained instead.
  bool MarkBad(UnitId id, SlotLocation& member, bool enqueue);

  // ---- Robustness machinery ------------------------------------------------------
  // True while `device_index`'s node is under an injected outage.
  bool NodeOut(uint32_t device_index) const {
    return outage_node_ >= 0 &&
           node_of_device(device_index) == static_cast<uint32_t>(outage_node_);
  }
  // Delivers AckDrain to the device, subject to injected ack loss, node
  // outage, and transient retry. True when the device accepted the ack.
  bool SendAckDrain(uint32_t device_index, MinidiskId mdisk);
  // Diffs device-reported mDisk state against cluster bookkeeping and
  // repairs discrepancies (missed kCreated/kDraining/kDecommissioned, lost
  // AckDrain). Also the suspect-window interception point: a transiently
  // dark device with a grace window opens (or keeps) its window here
  // instead of being treated as failed. Returns the number of repairs.
  uint64_t ResyncDevice(uint32_t device_index);
  // ResyncDevice over every reachable device.
  void ReconcileAll();
  // Ticks open suspect windows: resolves devices that returned, declares
  // losses for windows that expired. Runs first in every maintenance tick.
  void UpdateSuspectWindows();
  // A suspect device restarted within its window: drain its re-announcement
  // events, then reconcile every member the cluster still records there —
  // fresh members (scheme rule, no LBA rolled back) stay, stale ones are
  // pruned and recovered unless the unit sits at its floor.
  void ResolveSuspect(uint32_t device_index);
  // Outage lottery / rejoin countdown + suspect windows + ReconcileAll +
  // parked-recovery retry + proactive drain; runs every
  // maintenance_interval_ops foreground ops.
  void MaintenanceTick();
  void MaybeRunMaintenance();
  uint64_t MaintenanceIntervalOps() const;

  // Emits a trace instant when a recorder is attached (replication only).
  void Trace(const char* name);

  static StatusCode ResultCode(const Status& status) { return status.code(); }
  template <typename T>
  static StatusCode ResultCode(const StatusOr<T>& result) {
    return result.status().code();
  }
  // Runs `op`; when the scheme retries transient errors, retries kUnavailable
  // up to kMaxTransientRetries times with exponential (simulated-time)
  // backoff.
  template <typename Op>
  auto WithTransientRetry(Op op) -> decltype(op()) {
    auto result = op();
    if (!scheme_.retries_transient_errors) {
      return result;
    }
    ClusterStats& stats = core_stats();
    for (uint32_t retry = 0;
         ResultCode(result) == StatusCode::kUnavailable &&
         retry < kMaxTransientRetries;
         ++retry) {
      ++stats.transient_retries;
      stats.backoff_ns += kTransientBackoffBaseNs << retry;
      result = op();
    }
    if (ResultCode(result) == StatusCode::kUnavailable) {
      ++stats.transient_giveups;
    }
    return result;
  }

  // Shared CollectMetrics blocks under "<prefix><metric_root>": drains,
  // chaos, integrity, sched, suspect, placement, drain, device gauges, every
  // device's ssd.* subtree, and the cluster injector's faults.
  void CollectCoreMetrics(MetricRegistry& registry,
                          const std::string& prefix) const;

  SchemeTraits scheme_;
  Rng rng_;
  ChecksumCodec codec_;
  std::vector<DeviceState> devices_;
  std::deque<UnitId> pending_recoveries_;
  // Units whose recovery found no eligible target; retried only when the
  // cluster's placement capacity changes (new mDisks, member losses), not
  // on every foreground operation.
  std::vector<UnitId> waiting_capacity_;
  uint64_t initial_capacity_bytes_ = 0;
  bool bootstrapped_ = false;
  // Injected node outage: at most one node is out at a time.
  int32_t outage_node_ = -1;
  uint32_t outage_ticks_left_ = 0;
  uint64_t ops_since_maintenance_ = 0;
  // Optional trace recorder (not owned) and the lane/time stamped on events.
  TraceRecorder* trace_ = nullptr;
  uint32_t trace_tid_ = 0;
  uint64_t trace_time_us_ = 0;
  // ---- Queueing & graceful degradation state ----
  bool queueing_ = false;        // sched.enabled(), fixed at construction
  uint64_t sched_clock_ns_ = 0;  // simulated arrival clock (queueing only)
  std::unique_ptr<BrownoutController> brownout_;
  // ForceReconcile overrides the brownout recovery deferral and recovery
  // admission: tests and soaks use it to assert convergence.
  bool reconcile_override_ = false;
};

}  // namespace salamander

#endif  // SALAMANDER_DIFS_CLUSTER_CORE_H_
