#include "difs/cluster_core.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "telemetry/collect.h"

namespace salamander {

uint32_t ReadableMembers(const std::vector<SlotLocation>& members) {
  uint32_t n = 0;
  for (const SlotLocation& m : members) {
    n += m.live ? 1 : 0;
  }
  return n;
}

uint32_t HealthyMembers(const std::vector<SlotLocation>& members) {
  uint32_t n = 0;
  for (const SlotLocation& m : members) {
    n += (m.live && !m.draining) ? 1 : 0;
  }
  return n;
}

ClusterCore::ClusterCore(const SchemeTraits& scheme, uint64_t rng_seed,
                         uint64_t codec_seed)
    : scheme_(scheme), rng_(rng_seed), codec_(codec_seed) {}

void ClusterCore::RequireValid(const char* who, const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: invalid config: %s\n", who,
                 status.message().c_str());
    std::abort();
  }
}

Status ValidateClusterConfig(const ClusterConfig& config, uint32_t width,
                             uint64_t unit_opages) {
  if (config.nodes < width) {
    return InvalidArgumentError(
        "nodes must cover every member of a unit on a distinct node");
  }
  if (unit_opages == 0) {
    return InvalidArgumentError("unit size must be >= 1 oPage");
  }
  // Written so that NaN fails every range check.
  if (!(config.fill_fraction > 0.0 && config.fill_fraction <= 1.0)) {
    return InvalidArgumentError("fill_fraction must be in (0, 1]");
  }
  if (!(config.drain_health_threshold >= 0.0 &&
        config.drain_health_threshold <= 1.0)) {
    return InvalidArgumentError("drain_health_threshold must be in [0, 1]");
  }
  if (!(config.drain_pec_horizon >= 0.0) ||
      !std::isfinite(config.drain_pec_horizon)) {
    return InvalidArgumentError("drain_pec_horizon must be finite and >= 0");
  }
  return ValidateSchedConfig(config.sched);
}

void ClusterCore::AttachDevices(
    const std::function<std::unique_ptr<SsdDevice>(uint32_t)>& factory) {
  const ClusterConfig& config = cfg();
  const uint32_t total_devices = config.nodes * config.devices_per_node;
  devices_.reserve(total_devices);
  for (uint32_t i = 0; i < total_devices; ++i) {
    DeviceState state;
    state.device = factory(i);
    state.slots_per_mdisk = static_cast<uint32_t>(
        state.device->msize_opages() / scheme_.unit_opages);
    if (state.slots_per_mdisk == 0) {
      RequireValid("cluster",
                   InvalidArgumentError("slots_per_mdisk must be >= 1: "
                                        "mDisk smaller than one member"));
    }
    devices_.push_back(std::move(state));
    ApplyDeviceEvents(i);  // initial format events populate the slot maps
    initial_capacity_bytes_ += devices_[i].device->live_capacity_bytes();
  }
  queueing_ = config.sched.enabled();
  if (queueing_) {
    // Per-device jitter streams fork in device-ID order from a dedicated
    // root, so enabling queueing perturbs no other stream and parallel
    // harnesses see the same forks as serial ones.
    Rng sched_root(config.seed ^ 0x5c4ed0ee5c4ed0eeULL);
    for (DeviceState& state : devices_) {
      state.device->ConfigureQueue(config.sched, sched_root.ForkSeed());
    }
    if (config.sched.slo_p99_ns > 0) {
      brownout_ = std::make_unique<BrownoutController>(
          config.sched.slo_p99_ns, config.sched.brownout_window_ops);
    }
  }
}

void ClusterCore::Trace(const char* name) {
  if (trace_ != nullptr) {
    trace_->Instant(name, "difs", trace_time_us_, trace_tid_);
  }
}

// ---------------------------------------------------------------------------
// Slot maps
// ---------------------------------------------------------------------------

void ClusterCore::ClaimSlot(UnitId id, const SlotLocation& at) {
  DeviceState& state = devices_[at.device];
  state.slots[at.mdisk][at.slot] = RefOf(id, at);
  --state.free_slot_count;
}

void ClusterCore::ReleaseSlot(UnitId id, const SlotLocation& at) {
  DeviceState& state = devices_[at.device];
  auto it = state.slots.find(at.mdisk);
  if (it == state.slots.end() || it->second[at.slot] != RefOf(id, at)) {
    return;  // mDisk decommissioned meanwhile: HandleMdiskLoss dropped it
  }
  auto pending_it = state.draining_pending.find(at.mdisk);
  if (pending_it == state.draining_pending.end()) {
    it->second[at.slot] = kFreeSlot;
    ++state.free_slot_count;
    return;
  }
  it->second[at.slot] = kUnavailableSlot;
  if (--pending_it->second == 0) {
    state.draining_pending.erase(pending_it);
    state.slots.erase(it);
    if (SendAckDrain(at.device, at.mdisk)) {
      ++core_stats().drains_acked;
    }
  }
}

SlotLocation* ClusterCore::FindMember(UnitId id, uint32_t device_index,
                                      MinidiskId mdisk, uint32_t slot) {
  for (SlotLocation& m : members(id)) {
    if (m.live && m.device == device_index && m.mdisk == mdisk &&
        m.slot == slot) {
      return &m;
    }
  }
  return nullptr;
}

std::vector<MinidiskId> ClusterCore::KnownMdisks(uint32_t device_index) const {
  const DeviceState& state = devices_[device_index];
  std::vector<MinidiskId> known;
  known.reserve(state.slots.size());
  for (const auto& [mdisk, slots] : state.slots) {
    known.push_back(mdisk);
  }
  std::sort(known.begin(), known.end());
  return known;
}

// ---------------------------------------------------------------------------
// Event ingestion
// ---------------------------------------------------------------------------

size_t ClusterCore::ApplyDeviceEvents(uint32_t device_index) {
  if (NodeOut(device_index)) {
    return 0;  // unreachable node: its events wait until it rejoins
  }
  DeviceState& state = devices_[device_index];
  if (state.device->transiently_dark()) {
    return 0;  // powered off: unreachable, delivers nothing until restart
  }
  const std::vector<MinidiskEvent> events = state.device->TakeEvents();
  for (const MinidiskEvent& event : events) {
    switch (event.type) {
      case MinidiskEventType::kCreated:
        HandleMdiskCreated(device_index, event.mdisk);
        break;
      case MinidiskEventType::kDecommissioned:
        HandleMdiskLoss(device_index, event.mdisk);
        break;
      case MinidiskEventType::kDraining:
        HandleMdiskDraining(device_index, event.mdisk);
        break;
    }
  }
  if (state.device->dropped_events() != state.observed_dropped_events) {
    // Queue overflow dropped lifecycle events (a brick under a full queue
    // drops kDecommissioned): resync against ground truth immediately so no
    // unit is left pointing at capacity that no longer exists.
    state.observed_dropped_events = state.device->dropped_events();
    const uint64_t repairs = ResyncDevice(device_index);
    if (scheme_.resync_repairs_are_events) {
      return events.size() + static_cast<size_t>(repairs);
    }
  }
  return events.size();
}

void ClusterCore::HandleMdiskCreated(uint32_t device_index, MinidiskId mdisk) {
  DeviceState& state = devices_[device_index];
  if (state.slots.count(mdisk) != 0) {
    return;  // duplicate delivery (or resync already registered it)
  }
  // A delayed kCreated can arrive after the mDisk has already moved on (or
  // the whole device bricked); registering capacity that no longer exists
  // would corrupt placement, so verify against device ground truth.
  const SsdDevice& device = *state.device;
  if (device.failed() || mdisk >= device.total_minidisks()) {
    return;
  }
  const MinidiskState mstate = device.manager().minidisk(mdisk).state;
  if (mstate != MinidiskState::kLive && mstate != MinidiskState::kDraining) {
    return;  // decommissioned (or never formatted) by the time we heard
  }
  state.slots[mdisk].assign(state.slots_per_mdisk, kFreeSlot);
  state.free_slot_count += state.slots_per_mdisk;
  if (mstate == MinidiskState::kDraining) {
    // Created and already draining (both events in flight): process the
    // drain transition immediately so the slots are never handed out.
    HandleMdiskDraining(device_index, mdisk);
  }
}

void ClusterCore::HandleMdiskLoss(uint32_t device_index, MinidiskId mdisk) {
  DeviceState& state = devices_[device_index];
  auto it = state.slots.find(mdisk);
  if (it == state.slots.end()) {
    return;  // already handled (e.g. decommission then brick replay)
  }
  ClusterStats& stats = core_stats();
  for (uint32_t slot = 0; slot < it->second.size(); ++slot) {
    const int64_t ref = it->second[slot];
    if (ref == kFreeSlot) {
      --state.free_slot_count;
      continue;
    }
    if (ref == kUnavailableSlot) {
      continue;  // empty or already-released slot on a draining mDisk
    }
    const UnitId id = RefUnit(ref);
    if (SlotLocation* m = FindMember(id, device_index, mdisk, slot)) {
      m->live = false;
      ++counters().members_lost;
      if (m->draining) {
        // The grace window closed (forced finish or brick) before this
        // unit was re-replicated off the draining mDisk.
        ++stats.drain_window_losses;
      }
    }
    AfterMemberLoss(id, /*enqueue=*/true);
  }
  state.draining_pending.erase(mdisk);
  state.slots.erase(it);
}

void ClusterCore::AfterMemberLoss(UnitId id, bool enqueue) {
  UnitRecord& record = unit(id);
  if (record.lost) {
    return;
  }
  const std::vector<SlotLocation>& list = members(id);
  if (ReadableMembers(list) < scheme_.floor) {
    record.lost = true;
    ++counters().units_lost;
    SALA_LOG(kWarning) << scheme_.unit_noun << " " << id << " "
                       << scheme_.loss_text;
    Trace("chunk_lost");
  } else if (enqueue && HealthyMembers(list) < scheme_.width) {
    pending_recoveries_.push_back(id);
  }
}

void ClusterCore::ProcessEvents() {
  const uint64_t wave_start = counters().restore_opage_writes;
  for (;;) {
    size_t events = 0;
    for (uint32_t i = 0; i < devices_.size(); ++i) {
      events += ApplyDeviceEvents(i);
    }
    if (events > 0) {
      // The placement landscape changed; parked recoveries get another shot.
      RequeueWaiting();
    }
    if (DrainPendingRecoveries() == 0) {
      break;
    }
  }
  const uint64_t wave = counters().restore_opage_writes - wave_start;
  if (wave == 0) {
    return;
  }
  if (scheme_.wave_stats) {
    ClusterStats& stats = core_stats();
    ++stats.recovery_waves;
    stats.max_wave_recovery_opages =
        std::max(stats.max_wave_recovery_opages, wave);
    Trace("recovery_wave");
    if (trace_ != nullptr) {
      trace_->CounterSample("recovery_wave_opages", trace_time_us_,
                            static_cast<double>(wave), trace_tid_);
    }
  }
#ifndef NDEBUG
  // Every recovery wave must leave the bookkeeping self-consistent; a
  // violation here is a cluster bug, not an injected fault.
  const Status invariants = CheckInvariants();
  if (!invariants.ok()) {
    SALA_LOG(kError) << "after recovery wave: " << invariants;
    assert(false && "cluster invariants violated after recovery wave");
  }
#endif
}

// ---------------------------------------------------------------------------
// Recovery & placement
// ---------------------------------------------------------------------------

void ClusterCore::RequeueWaiting() {
  for (UnitId id : waiting_capacity_) {
    pending_recoveries_.push_back(id);
  }
  waiting_capacity_.clear();
}

uint64_t ClusterCore::DrainPendingRecoveries() {
  if (brownout_ != nullptr && brownout_->active() && !reconcile_override_ &&
      !pending_recoveries_.empty()) {
    // Brownout: foreground p99 is over the SLO, so background recovery
    // yields the spindle. The backlog stays queued and drains once a window
    // recovers (or ForceReconcile demands convergence).
    ++counters().brownout_recovery_deferrals;
    return 0;
  }
  uint64_t restored = 0;
  // Process only the entries present at pass start; copies can enqueue more
  // (by wearing the target), which the caller's loop handles next pass.
  std::vector<UnitId> batch(pending_recoveries_.begin(),
                            pending_recoveries_.end());
  pending_recoveries_.clear();
  if (cfg().criticality_ordered_recovery) {
    // Repair-storm triage: units closest to loss (fewest readable members,
    // ties by id) get the pass's placement slots and queue room first.
    // Criticality is snapshotted at batch start, and the sort is stable, so
    // the ordering is fully deterministic. The SET of units healed matches
    // FIFO when capacity suffices, but individual placements may differ —
    // recoveries consume the shared placement draws in batch order.
    std::stable_sort(batch.begin(), batch.end(), [&](UnitId a, UnitId b) {
      const uint32_t ra = ReadableMembers(members(a));
      const uint32_t rb = ReadableMembers(members(b));
      if (ra != rb) {
        return ra < rb;
      }
      return a < b;
    });
  }
  for (const UnitId id : batch) {
    const UnitRecord& record = unit(id);
    const std::vector<SlotLocation>& list = members(id);
    if (record.lost) {
      continue;
    }
    // Bring back to full width, one member at a time.
    bool stuck = false;
    while (HealthyMembers(list) < scheme_.width && !record.lost) {
      const uint32_t healthy_before = HealthyMembers(list);
      if (!RestoreOne(id)) {
        stuck = true;
        break;
      }
      ++restored;
      if (HealthyMembers(list) <= healthy_before) {
        // The restore succeeded but read-repair retired a corrupt source in
        // the same call: net-zero progress. With every source failing its
        // checksum (pathological blanket corruption) this would loop
        // forever — park instead and retry on the next event wave.
        stuck = true;
        break;
      }
    }
    if (stuck && !record.lost && HealthyMembers(list) < scheme_.width) {
      ++counters().restore_deferred;
      // Park it until the placement landscape changes (ProcessEvents
      // re-queues parked units when new events arrive).
      waiting_capacity_.push_back(id);
    }
  }
  return restored;
}

bool ClusterCore::PickTarget(const std::vector<uint32_t>& exclude_nodes,
                             SlotLocation* target) {
  // Random start, linear probe: keeps placement spread without a full scan.
  // The outer domain pass runs only for a constraining placement policy:
  // pass 0 additionally requires the policy to accept the candidate node,
  // pass 1 is the counted fallback to plain node-disjointness. Policies that
  // never constrain (uniform, or none) skip straight to pass 1, sharing the
  // single start draw — so they replay the legacy draw sequence and
  // placements bit-for-bit. The inner passes (replication only): devices
  // with active drains are visibly dying, so avoid placing new members
  // there unless nothing else has space.
  const uint32_t n = static_cast<uint32_t>(devices_.size());
  const uint32_t start = static_cast<uint32_t>(rng_.UniformU64(n));
  const PlacementPolicy* policy = cfg().placement.get();
  const bool constrained = policy != nullptr && policy->Constrains();
  ClusterStats& stats = core_stats();
  for (int domain_pass = constrained ? 0 : 1; domain_pass < 2; ++domain_pass) {
    for (int pass = scheme_.avoid_draining_devices ? 0 : 1; pass < 2; ++pass) {
      for (uint32_t probe = 0; probe < n; ++probe) {
        const uint32_t device_index = (start + probe) % n;
        DeviceState& state = devices_[device_index];
        if (state.free_slot_count == 0 || state.device->failed() ||
            NodeOut(device_index)) {
          continue;
        }
        if (state.health_draining) {
          continue;  // being evacuated proactively; placing here would churn
        }
        if (pass == 0 && !state.draining_pending.empty()) {
          continue;  // dying device; only a last resort
        }
        const uint32_t node = node_of_device(device_index);
        if (std::find(exclude_nodes.begin(), exclude_nodes.end(), node) !=
            exclude_nodes.end()) {
          continue;
        }
        if (domain_pass == 0 && !policy->Allows(node, exclude_nodes)) {
          ++stats.placement_domain_rejections;
          continue;
        }
        for (auto& [mdisk, slots] : state.slots) {
          for (uint32_t slot = 0; slot < slots.size(); ++slot) {
            if (slots[slot] == kFreeSlot) {
              target->device = device_index;
              target->mdisk = mdisk;
              target->slot = slot;
              return true;
            }
          }
        }
        // free_slot_count said there was space but none found: accounting
        // drift would be a bug.
        assert(false && "free_slot_count out of sync");
      }
    }
    if (domain_pass == 0) {
      // Every domain-eligible candidate is exhausted; the fallback pass may
      // now co-locate within a rack rather than fail the placement.
      ++stats.placement_domain_fallbacks;
    }
  }
  return false;
}

bool ClusterCore::AdmitRecovery(std::span<SlotLocation* const> sources,
                                uint32_t target_device) {
  if (!QueueingEnabled() || reconcile_override_) {
    return true;
  }
  const auto admit = [&](uint32_t device_index) {
    return Queue(device_index)
        ->Admit(OpClass::kRecovery, sched_clock_ns_)
        .admitted;
  };
  bool admitted = true;
  for (size_t i = 0; admitted && i < sources.size(); ++i) {
    admitted = admit(sources[i]->device);
  }
  if (admitted && admit(target_device)) {
    return true;
  }
  ++counters().recovery_sheds;
  return false;
}

void ClusterCore::CompleteRecovery(uint32_t device_index,
                                   SimDuration latency) {
  if (QueueingEnabled() && !reconcile_override_) {
    Queue(device_index)->Complete(OpClass::kRecovery, latency);
  }
}

bool ClusterCore::ReadWholeMember(const SlotLocation& source,
                                  uint64_t& opage_reads) {
  SsdDevice& device = *devices_[source.device].device;
  auto read = WithTransientRetry([&] {
    return device.ReadRange(
        source.mdisk, static_cast<uint64_t>(source.slot) * scheme_.unit_opages,
        scheme_.unit_opages);
  });
  if (!read.ok()) {
    return false;
  }
  opage_reads += scheme_.unit_opages;
  CompleteRecovery(source.device, read.value().latency);
  return true;
}

bool ClusterCore::CopyToTarget(UnitId id, const SlotLocation& target,
                               uint64_t& opage_writes) {
  SsdDevice& device = *devices_[target.device].device;
  const uint64_t base = static_cast<uint64_t>(target.slot) * scheme_.unit_opages;
  SimDuration copy_write_ns = 0;
  for (uint64_t offset = 0; offset < scheme_.unit_opages; ++offset) {
    auto write = WithTransientRetry(
        [&] { return device.Write(target.mdisk, base + offset); });
    if (!write.ok()) {
      // Target died mid-copy (its own wear, or the write's wear): abandon.
      // The events just processed may have started draining (or dropped) the
      // very mDisk we claimed; ReleaseSlot handles both.
      ApplyDeviceEvents(target.device);
      ReleaseSlot(id, target);
      return false;
    }
    copy_write_ns += write.value();
    ++opage_writes;
  }
  // The whole copy occupies the target's queue as one recovery-class op.
  CompleteRecovery(target.device, copy_write_ns);
  return true;
}

// ---------------------------------------------------------------------------
// Proactive health-driven drain
// ---------------------------------------------------------------------------

void ClusterCore::ProactiveDrainTick() {
  const ClusterConfig& config = cfg();
  if (config.drain_health_threshold <= 0.0) {
    return;
  }
  ClusterStats& stats = core_stats();
  if (brownout_ != nullptr && brownout_->active() && !reconcile_override_) {
    // Drain migrations are background traffic like reactive recovery: yield
    // to the foreground SLO, retry once a window recovers.
    ++stats.drain_brownout_deferrals;
    return;
  }
  // Flag newly unhealthy devices, in id order (deterministic; HealthScore is
  // a pure read, so the scan draws no RNG).
  bool any_flagged = false;
  for (DeviceState& state : devices_) {
    if (!state.health_draining && !state.device->failed() &&
        state.device->HealthScore(config.drain_pec_horizon) <=
            config.drain_health_threshold) {
      state.health_draining = true;
      ++stats.drain_devices_flagged;
      Trace("health_drain_start");
    }
    any_flagged |= state.health_draining && !state.device->failed();
  }
  if (!any_flagged) {
    return;
  }
  // One migration pass per tick: walk units in id order and move live
  // members off flagged devices. MigrateMemberOff repoints the record in
  // place; a parked move (no target, shed, aborted copy) retries next tick.
  // Indices are re-checked every iteration because a migration's own wear
  // events can reshape the member records under us.
  for (UnitId id = 0; id < unit_count(); ++id) {
    if (unit(id).lost) {
      continue;
    }
    const std::vector<SlotLocation>& list = members(id);
    for (size_t i = 0; i < list.size(); ++i) {
      const SlotLocation& m = list[i];
      if (!m.live || m.draining) {
        continue;
      }
      const DeviceState& state = devices_[m.device];
      if (!state.health_draining || state.device->failed() ||
          NodeOut(m.device)) {
        continue;
      }
      if (!MigrateMemberOff(id, i)) {
        ++stats.drain_migrations_parked;
      }
    }
  }
  // A flagged device with no occupied slots left has been fully evacuated.
  for (DeviceState& state : devices_) {
    if (!state.health_draining || state.health_drain_done ||
        state.device->failed()) {
      continue;
    }
    bool occupied = false;
    for (const auto& [mdisk, slots] : state.slots) {
      occupied = std::any_of(slots.begin(), slots.end(),
                             [](int64_t ref) { return ref >= 0; });
      if (occupied) {
        break;
      }
    }
    if (!occupied) {
      state.health_drain_done = true;
      ++stats.drain_devices_completed;
    }
  }
}

bool ClusterCore::MigrateMemberOff(UnitId id, size_t index) {
  SlotLocation& member = members(id)[index];
  // Every node holding a live non-draining member — including the source's
  // — is excluded, so the move is a strict spread improvement and the
  // placement policy sees the same used-node set recovery would.
  std::vector<uint32_t> exclude_nodes;
  for (const SlotLocation& m : members(id)) {
    if (m.live && !m.draining) {
      exclude_nodes.push_back(node_of_device(m.device));
    }
  }
  // The moved copy keeps its cell and staleness — resync owns freshness.
  SlotLocation target{.cell = member.cell, .live = true, .stale = member.stale};
  if (!PickTarget(exclude_nodes, &target)) {
    return false;
  }
  ClusterStats& stats = core_stats();
  // Drain I/O rides the recovery class so the priority order and the shed
  // ledger stay intact; the drain-specific sub-counter lets benches report
  // proactive-vs-reactive pressure separately.
  SlotLocation* const source = &member;
  if (!AdmitRecovery({&source, 1}, target.device)) {
    ++stats.drain_sched_sheds;
    return false;
  }
  ClaimSlot(id, target);

  if (!ReadWholeMember(member, stats.drain_opage_reads)) {
    ++stats.uncorrectable_reads;
    ReleaseSlot(id, target);
    return false;
  }
  if (ObserveCorruption(member.device) > 0) {
    // Copying would propagate corruption: hand the member to the reactive
    // read-repair path instead of migrating it.
    ReleaseSlot(id, target);
    MarkBad(id, member, /*enqueue=*/true);
    return false;
  }
  // A target that dies mid-copy parks the migration for the next tick.
  if (!CopyToTarget(id, target, stats.drain_opage_writes)) {
    return false;
  }

  // Release the source slot and repoint the record in place.
  ReleaseSlot(id, member);
  member = target;
  ++counters().drain_migrated;
  // The copy wears the target; surface any resulting events (`member` must
  // not be touched past this point — event handling can reshape the unit).
  ApplyDeviceEvents(target.device);
  return true;
}

// ---------------------------------------------------------------------------
// Bootstrap and foreground helpers
// ---------------------------------------------------------------------------

Status ClusterCore::Bootstrap() {
  if (bootstrapped_) {
    return FailedPreconditionError("Bootstrap: already bootstrapped");
  }
  bootstrapped_ = true;
  uint64_t total_slots = 0;
  for (const DeviceState& state : devices_) {
    total_slots += state.free_slot_count;
  }
  const uint64_t target_units = static_cast<uint64_t>(
      static_cast<double>(total_slots) * cfg().fill_fraction / scheme_.width);
  ReserveUnits(target_units);
  const bool cell_indexed = scheme_.ref_cell_bits > 0;
  for (UnitId id = 0; id < target_units; ++id) {
    std::vector<SlotLocation> placed;
    std::vector<uint32_t> used_nodes;
    for (uint32_t c = 0; c < scheme_.width; ++c) {
      SlotLocation m{.cell = cell_indexed ? c : 0, .live = true};
      if (!PickTarget(used_nodes, &m)) {
        // The cluster cannot hold more fully redundant units; roll back the
        // partial placement and stop.
        for (const SlotLocation& p : placed) {
          ReleaseSlot(id, p);
        }
        return OkStatus();
      }
      ClaimSlot(id, m);
      used_nodes.push_back(node_of_device(m.device));
      placed.push_back(m);
    }
    AddUnit(std::move(placed));
    // Initial load: write every LBA of every member. Failures are tolerated
    // — if the load itself wears out an mDisk, the event wave in
    // ProcessEvents repairs the affected units.
    for (SlotLocation& m : members(id)) {
      for (uint64_t offset = 0; offset < scheme_.unit_opages; ++offset) {
        (void)WriteMember(m, offset);
      }
    }
    ProcessEvents();
  }
  return OkStatus();
}

void ClusterCore::AdvanceSchedClock() {
  if (QueueingEnabled()) {
    sched_clock_ns_ += cfg().sched.arrival_interval_ns;  // one arrival
  }
}

void ClusterCore::FinishForeground(uint64_t wait_ns, SimDuration latency,
                                   SimDuration* cost_ns, bool process_events) {
  core_stats().sched_wait_ns += wait_ns;
  const SimDuration total = latency + wait_ns;
  if (cost_ns != nullptr) {
    *cost_ns = total;
  }
  if (brownout_ != nullptr) {
    brownout_->RecordForeground(total);
  }
  if (process_events) {
    ProcessEvents();
  }
  MaybeRunMaintenance();
}

Status ClusterCore::ShedForeground(uint64_t& sheds, uint64_t wait_ns,
                                   SimDuration latency, SimDuration* cost_ns,
                                   const char* what) {
  ++sheds;
  FinishForeground(wait_ns, latency, cost_ns);
  return UnavailableError(what);
}

Status ClusterCore::WriteUnit(UnitId id, uint32_t data_cell,
                              uint32_t first_parity, uint64_t offset,
                              SimDuration* cost_ns) {
  UnitRecord& record = unit(id);
  if (record.lost) {
    return DataLossError("WriteUnit: unit lost");
  }
  std::vector<SlotLocation>& list = members(id);
  const auto targeted = [&](size_t i) {
    return i == data_cell || i >= first_parity;
  };
  ClusterStats& stats = core_stats();
  uint64_t sched_extra_ns = 0;  // parallel admission wait + shed backoff
  if (QueueingEnabled()) {
    AdvanceSchedClock();
    // Member writes fan out in parallel, so the op's queue delay is the max
    // across its target devices. Admission is all-or-nothing: the first
    // refusal sheds the whole op before any member is touched, so the
    // unit's generation, checksum and members all stay consistent — a
    // partial fan-out would leave stale replicas, or parity out of sync
    // with data. Targets the write skips anyway (dead, draining, behind an
    // outage) admit trivially.
    for (size_t i = 0; i < list.size(); ++i) {
      const SlotLocation& m = list[i];
      if (!targeted(i) || !m.live || m.draining || NodeOut(m.device)) {
        continue;
      }
      const QueueAdmission admission =
          Queue(m.device)->Admit(OpClass::kForegroundWrite, sched_clock_ns_);
      sched_extra_ns = std::max(sched_extra_ns,
                                admission.wait_ns + admission.backoff_ns);
      if (!admission.admitted) {
        return ShedForeground(stats.sched_write_sheds, sched_extra_ns, 0,
                              cost_ns, "WriteUnit: shed at admission");
      }
    }
  }
  const uint64_t backoff_before = stats.backoff_ns;
  SimDuration slowest = 0;
  // The write changes the unit's contents: restamp its checksum metadata.
  ++record.generation;
  record.checksum = codec_.Stamp(record.id, record.generation);
  for (size_t i = 0; i < list.size(); ++i) {
    SlotLocation& m = list[i];
    if (!targeted(i) || !m.live) {
      continue;
    }
    // A failure is tolerated: the member's device just decommissioned,
    // bricked or went dark (the event wave below repairs the unit), or the
    // member sits behind an outage or on a draining mDisk. Either way it
    // missed this write and is stale until a later write lands.
    auto write = WriteMember(m, offset);
    m.stale = !write.ok();
    if (m.stale) {
      continue;
    }
    if (QueueingEnabled()) {
      Queue(m.device)->Complete(OpClass::kForegroundWrite, write.value());
    }
    slowest = std::max(slowest, write.value());
  }
  ++counters().foreground_writes;
  FinishForeground(sched_extra_ns,
                   slowest + (stats.backoff_ns - backoff_before), cost_ns,
                   /*process_events=*/true);
  return OkStatus();
}

StatusOr<SimDuration> ClusterCore::WriteSlot(SlotLocation& member,
                                             uint64_t offset) {
  if (!member.live || member.draining) {
    return FailedPreconditionError("member not writable");
  }
  if (NodeOut(member.device)) {
    // Unreachable node: the write is skipped, not queued; the member goes
    // stale and resync-driven recovery handles it if the mDisk dies out.
    ++core_stats().outage_write_skips;
    return UnavailableError("WriteSlot: node under outage");
  }
  SsdDevice& device = *devices_[member.device].device;
  return WithTransientRetry([&] {
    return device.Write(
        member.mdisk,
        static_cast<uint64_t>(member.slot) * scheme_.unit_opages + offset);
  });
}

StatusOr<ReadResult> ClusterCore::ReadSlot(const SlotLocation& member,
                                           uint64_t offset) {
  SsdDevice& device = *devices_[member.device].device;
  return WithTransientRetry([&] {
    return device.Read(
        member.mdisk,
        static_cast<uint64_t>(member.slot) * scheme_.unit_opages + offset);
  });
}

// ---------------------------------------------------------------------------
// End-to-end integrity
// ---------------------------------------------------------------------------

uint64_t ClusterCore::ObserveCorruption(uint32_t device_index) {
  DeviceState& state = devices_[device_index];
  const uint64_t now = state.device->ftl().stats().silent_corrupt_fpage_reads;
  const uint64_t delta = now - state.observed_silent_corrupt;
  state.observed_silent_corrupt = now;
  core_stats().integrity_detected += delta;
  return delta;
}

bool ClusterCore::MarkBad(UnitId id, SlotLocation& member, bool enqueue) {
  if (!member.live) {
    return false;
  }
  if (!unit(id).lost && ReadableMembers(members(id)) <= scheme_.floor) {
    // At the floor: a real system keeps the corrupt bytes and attempts
    // partial recovery rather than deleting data it cannot rebuild (Tai et
    // al.'s live-recovery argument) — and losing the unit here would turn
    // every detected corruption into data loss.
    ++counters().integrity_retained;
    return false;
  }
  ReleaseSlot(id, member);
  member.live = false;
  ++counters().members_lost;
  ++core_stats().integrity_marked_bad;
  Trace("replica_marked_bad");
  AfterMemberLoss(id, enqueue);
  return true;
}

// ---------------------------------------------------------------------------
// Maintenance, reconciliation, suspect windows
// ---------------------------------------------------------------------------

bool ClusterCore::SendAckDrain(uint32_t device_index, MinidiskId mdisk) {
  FaultInjector* faults = cfg().faults.get();
  if (NodeOut(device_index) ||
      (faults != nullptr && faults->LosesAckDrain())) {
    // The ack never reaches the device: its mDisk stays in kDraining limbo
    // until a later ResyncDevice notices and re-sends.
    ++core_stats().acks_lost;
    return false;
  }
  SsdDevice& device = *devices_[device_index].device;
  return WithTransientRetry([&] { return device.AckDrain(mdisk); }).ok();
}

bool ClusterCore::MaintenanceDormant() const {
  // Auto mode: periodic reconciliation only pays for itself when faults can
  // desynchronize cluster and device state. Without any injector the
  // maintenance path stays completely dormant, so the fault-free RNG
  // schedule (and every bench output) is untouched.
  const ClusterConfig& config = cfg();
  if (config.maintenance_interval_ops != 0 || config.faults != nullptr) {
    return false;
  }
  // Proactive drain samples health on the maintenance tick; with the
  // threshold enabled the path must run even in a fault-free cluster.
  if (config.drain_health_threshold > 0.0) {
    return false;
  }
  for (const DeviceState& state : devices_) {
    if (state.device->faults() != nullptr) {
      return false;
    }
  }
  return true;
}

uint64_t ClusterCore::MaintenanceIntervalOps() const {
  const uint64_t interval = cfg().maintenance_interval_ops;
  return interval == 0 ? 256 : interval;
}

uint64_t ClusterCore::OpsUntilMaintenanceTick() const {
  if (MaintenanceDormant()) {
    return UINT64_MAX;
  }
  const uint64_t interval = MaintenanceIntervalOps();
  // The tick fires on the op that brings the counter up to `interval`.
  return interval > ops_since_maintenance_
             ? interval - ops_since_maintenance_
             : 1;
}

void ClusterCore::MaybeRunMaintenance() {
  if (MaintenanceDormant()) {
    return;
  }
  if (++ops_since_maintenance_ >= MaintenanceIntervalOps()) {
    ops_since_maintenance_ = 0;
    MaintenanceTick();
  }
}

void ClusterCore::MaintenanceTick() {
  ClusterStats& stats = core_stats();
  ++stats.maintenance_ticks;
  FaultInjector* faults = cfg().faults.get();
  if (outage_node_ >= 0) {
    if (--outage_ticks_left_ == 0) {
      // Rejoin: the node's devices are reachable again; the ReconcileAll
      // below replays whatever state changed while it was dark.
      outage_node_ = -1;
      Trace("node_rejoin");
    }
  } else if (faults != nullptr && faults->StartsNodeOutage()) {
    outage_node_ = static_cast<int32_t>(faults->OutageNode(cfg().nodes));
    outage_ticks_left_ = faults->OutageTicks();
    ++stats.node_outages;
    Trace("node_outage");
  }
  UpdateSuspectWindows();
  ReconcileAll();
  // Reconciliation may have changed the placement landscape (new mDisks
  // registered, drains acked): parked recoveries get another shot.
  RequeueWaiting();
  // Proactive health-driven drain (no-op at threshold 0) before the final
  // event pass, so migration wear surfaces in the same tick.
  ProactiveDrainTick();
  ProcessEvents();
}

void ClusterCore::ReconcileAll() {
  for (uint32_t i = 0; i < devices_.size(); ++i) {
    ResyncDevice(i);
  }
}

uint64_t ClusterCore::ResyncDevice(uint32_t device_index) {
  if (NodeOut(device_index)) {
    return 0;
  }
  DeviceState& state = devices_[device_index];
  ClusterStats& stats = core_stats();
  // A transiently dark device with a grace window configured is suspect, not
  // dead: hold all bookkeeping (no loss declarations, no recovery) until the
  // window resolves — UpdateSuspectWindows() owns both outcomes. With the
  // window already expired (down_handled) the normal flow below applies,
  // which is the legacy treat-as-brick path.
  const uint64_t grace = cfg().suspect_grace_ticks;
  if (grace > 0 && state.device->transiently_dark() && !state.down_handled) {
    if (!state.suspect) {
      state.suspect = true;
      state.suspect_ticks_left = grace;
      ++stats.suspect_windows_started;
      Trace("suspect_window_open");
    }
    return 0;
  }
  ++stats.resync_passes;
  uint64_t repairs = 0;
  // Pass 1: mDisks the cluster believes in whose device-side state moved on
  // without us hearing (dropped/delayed kDecommissioned or kDraining).
  const SsdDevice& device = *state.device;
  for (MinidiskId mdisk : KnownMdisks(device_index)) {
    if (device.failed() || mdisk >= device.total_minidisks() ||
        device.manager().minidisk(mdisk).state ==
            MinidiskState::kDecommissioned) {
      HandleMdiskLoss(device_index, mdisk);
      ++repairs;
      continue;
    }
    if (device.manager().minidisk(mdisk).state == MinidiskState::kDraining &&
        state.draining_pending.count(mdisk) == 0) {
      HandleMdiskDraining(device_index, mdisk);
      ++repairs;
    }
  }
  // Pass 2: device-side mDisks the cluster has no record of — a missed
  // kCreated (new capacity), or a drain whose ack was lost after the cluster
  // finished with (and forgot) the mDisk.
  if (!device.failed()) {
    for (MinidiskId mdisk = 0; mdisk < device.total_minidisks(); ++mdisk) {
      if (state.slots.count(mdisk) != 0) {
        continue;
      }
      const MinidiskState mstate = device.manager().minidisk(mdisk).state;
      if (mstate == MinidiskState::kLive) {
        HandleMdiskCreated(device_index, mdisk);
        ++repairs;
      } else if (mstate == MinidiskState::kDraining) {
        if (SendAckDrain(device_index, mdisk)) {
          ++stats.drains_acked;
          ++repairs;
        }
      }
    }
  }
  stats.resync_repairs += repairs;
  return repairs;
}

void ClusterCore::UpdateSuspectWindows() {
  ClusterStats& stats = core_stats();
  for (uint32_t i = 0; i < devices_.size(); ++i) {
    DeviceState& state = devices_[i];
    if (!state.device->failed()) {
      // Serving again: a post-expiry return goes through the normal resync
      // path (its mDisks re-register as fresh capacity), so the outage is no
      // longer "handled" state worth remembering.
      state.down_handled = false;
    }
    if (!state.suspect) {
      continue;
    }
    if (!state.device->transiently_dark()) {
      // Restarted within the window (or upgraded to a brick, in which case
      // the emitted brick events / resync declare the losses right after).
      state.suspect = false;
      state.suspect_ticks_left = 0;
      if (!state.device->failed()) {
        ++stats.suspect_devices_returned;
        ResolveSuspect(i);
      }
      continue;
    }
    if (--state.suspect_ticks_left == 0) {
      // Grace expired: from here the device is treated exactly like a brick.
      state.suspect = false;
      state.down_handled = true;
      ++stats.suspect_windows_expired;
      Trace("suspect_window_expired");
      for (MinidiskId mdisk : KnownMdisks(i)) {
        HandleMdiskLoss(i, mdisk);
      }
    }
  }
}

void ClusterCore::ResolveSuspect(uint32_t device_index) {
  DeviceState& state = devices_[device_index];
  Trace("suspect_device_returned");
  // The restart queued re-announcements (kCreated per survivor); drain them
  // first. HandleMdiskCreated dedupes against mDisks the cluster still
  // tracks, so this only registers capacity the cluster had forgotten.
  ApplyDeviceEvents(device_index);
  // Reconcile every member the cluster still records on this device against
  // the replayed device state. A member is fresh iff its mDisk survived, it
  // is not stale (it missed no foreground write that targeted it), and the
  // device reports no rolled-back page in its LBA range (its last pre-crash
  // writes were made durable). Anything else is pruned and
  // recovered through the normal path — unless the unit sits at its floor,
  // where stale bytes beat losing the unit.
  const SsdDevice& device = *state.device;
  const uint64_t unit_opages = scheme_.unit_opages;
  for (MinidiskId mdisk : KnownMdisks(device_index)) {
    if (mdisk >= device.total_minidisks() ||
        device.manager().minidisk(mdisk).state ==
            MinidiskState::kDecommissioned) {
      HandleMdiskLoss(device_index, mdisk);
      continue;
    }
    auto it = state.slots.find(mdisk);
    if (it == state.slots.end()) {
      continue;
    }
    for (uint32_t slot = 0; slot < it->second.size(); ++slot) {
      const int64_t ref = it->second[slot];
      if (ref < 0) {
        continue;  // free or unavailable slot: nothing stored
      }
      const UnitId id = RefUnit(ref);
      SlotLocation* m = FindMember(id, device_index, mdisk, slot);
      if (m == nullptr) {
        continue;
      }
      const UnitRecord& record = unit(id);
      const bool fresh =
          !m->stale &&
          !device.AnyRolledBackInRange(
              mdisk, static_cast<uint64_t>(slot) * unit_opages, unit_opages);
      if (fresh) {
        ++counters().suspect_revived;
        continue;
      }
      ++counters().suspect_stale;
      if (!record.lost && ReadableMembers(members(id)) <= scheme_.floor) {
        // At the floor: stale data beats no data. Keep it; a later
        // foreground write (or recovery) freshens it in place.
        continue;
      }
      // Prune: release the slot and recover from fresh members.
      ReleaseSlot(id, *m);
      m->live = false;
      ++counters().members_lost;
      AfterMemberLoss(id, /*enqueue=*/true);
      // The map may have been erased by a drain ack inside ReleaseSlot.
      it = state.slots.find(mdisk);
      if (it == state.slots.end()) {
        break;
      }
    }
  }
  // The device's remaining resync discrepancies (e.g. a drain it finished
  // while dark) go through the normal path now that it serves again.
  ResyncDevice(device_index);
}

void ClusterCore::ForceReconcile() {
  // Convergence beats graceful degradation here: chaos tests assert a
  // drained backlog after ForceReconcile, so the brownout deferral (and the
  // recovery admission gate) stand aside for its duration.
  reconcile_override_ = true;
  // A few rounds of reconcile + recover: recovery can itself change the
  // landscape (wear out a target, finish a drain), so iterate until a round
  // makes no progress. Bounded — parked units with genuinely no capacity
  // (or capacity behind an outage) stay parked.
  for (int round = 0; round < 8; ++round) {
    ReconcileAll();
    RequeueWaiting();
    const uint64_t restored_before = counters().members_restored;
    ProcessEvents();
    if (counters().members_restored == restored_before &&
        pending_recoveries_.empty()) {
      break;
    }
  }
  reconcile_override_ = false;
}

// ---------------------------------------------------------------------------
// Invariants, metrics, introspection
// ---------------------------------------------------------------------------

Status ClusterCore::CheckInvariants() const {
  // The scheme hooks hand out mutable records; nothing below mutates them.
  ClusterCore& self = const_cast<ClusterCore&>(*this);
  const auto where = [](uint32_t d, MinidiskId mdisk) {
    return " (device " + std::to_string(d) + ", mdisk " +
           std::to_string(mdisk) + ")";
  };
  // Direction 1: every slot-map entry points at a unit with exactly one
  // matching live member record; free-slot counts and draining_pending
  // match what the maps actually contain.
  for (uint32_t d = 0; d < devices_.size(); ++d) {
    const DeviceState& state = devices_[d];
    uint64_t free_count = 0;
    std::unordered_map<MinidiskId, uint32_t> occupied_per_mdisk;
    for (const auto& [mdisk, slots] : state.slots) {
      for (uint32_t slot = 0; slot < slots.size(); ++slot) {
        const int64_t ref = slots[slot];
        if (ref == kFreeSlot) {
          ++free_count;
          continue;
        }
        if (ref == kUnavailableSlot) {
          continue;
        }
        const UnitId id = RefUnit(ref);
        if (ref < 0 || id >= unit_count()) {
          return InternalError("slot maps unknown unit ref " +
                               std::to_string(ref) + where(d, mdisk));
        }
        uint32_t matches = 0;
        bool draining = false;
        for (const SlotLocation& m : self.members(id)) {
          if (m.live && m.device == d && m.mdisk == mdisk && m.slot == slot &&
              RefOf(id, m) == ref) {
            ++matches;
            draining = m.draining;
          }
        }
        if (matches != 1) {
          return InternalError("slot " + std::to_string(slot) + where(d, mdisk) +
                               " has " + std::to_string(matches) +
                               " live member records for unit " +
                               std::to_string(id));
        }
        ++occupied_per_mdisk[mdisk];
        if ((state.draining_pending.count(mdisk) != 0) != draining) {
          return InternalError("member draining flag out of sync" +
                               where(d, mdisk));
        }
      }
    }
    if (free_count != state.free_slot_count) {
      return InternalError("device " + std::to_string(d) +
                           " free_slot_count=" +
                           std::to_string(state.free_slot_count) +
                           " but slot maps hold " + std::to_string(free_count));
    }
    for (const auto& [mdisk, pending] : state.draining_pending) {
      if (state.slots.count(mdisk) == 0) {
        return InternalError("draining_pending for unmapped mdisk" +
                             where(d, mdisk));
      }
      const auto occupied_it = occupied_per_mdisk.find(mdisk);
      const uint32_t occupied =
          occupied_it == occupied_per_mdisk.end() ? 0 : occupied_it->second;
      if (pending != occupied) {
        return InternalError("draining_pending=" + std::to_string(pending) +
                             " but " + std::to_string(occupied) +
                             " slots occupied" + where(d, mdisk));
      }
    }
  }
  // Direction 2: every live member record is backed by its slot; live
  // non-draining members are node-disjoint (rack-disjoint when no placement
  // fell back) and within the width; the lost flag agrees with the floor.
  const ClusterConfig& config = cfg();
  const bool racks_enforced = config.placement != nullptr &&
                              config.placement->Constrains() &&
                              self.core_stats().placement_domain_fallbacks == 0;
  for (UnitId id = 0; id < unit_count(); ++id) {
    const std::string name = "unit " + std::to_string(id);
    const std::vector<SlotLocation>& list = self.members(id);
    std::vector<uint32_t> nodes;
    for (const SlotLocation& m : list) {
      if (!m.live) {
        continue;
      }
      const DeviceState& state = devices_[m.device];
      const auto it = state.slots.find(m.mdisk);
      if (it == state.slots.end() || it->second[m.slot] != RefOf(id, m)) {
        return InternalError(name + " live member not backed by slot map" +
                             where(m.device, m.mdisk));
      }
      if (!m.draining) {
        nodes.push_back(node_of_device(m.device));
      }
    }
    std::sort(nodes.begin(), nodes.end());
    if (std::adjacent_find(nodes.begin(), nodes.end()) != nodes.end()) {
      return InternalError(name + " has two live members on one node");
    }
    if (racks_enforced) {
      std::vector<uint32_t> racks;
      racks.reserve(nodes.size());
      for (const uint32_t node : nodes) {
        racks.push_back(rack_of_node(node));
      }
      std::sort(racks.begin(), racks.end());
      if (std::adjacent_find(racks.begin(), racks.end()) != racks.end()) {
        return InternalError(name +
                             " has two live members in one rack despite "
                             "zero domain fallbacks");
      }
    }
    if (nodes.size() > scheme_.width) {
      return InternalError(name + " over-replicated: " +
                           std::to_string(nodes.size()));
    }
    const bool below_floor = ReadableMembers(list) < scheme_.floor;
    if (self.unit(id).lost && !below_floor) {
      return InternalError(name + " marked lost but still readable");
    }
    if (!self.unit(id).lost && !list.empty() && below_floor) {
      return InternalError(name + " below its floor but not marked lost");
    }
  }
  return OkStatus();
}

void ClusterCore::CollectCoreMetrics(MetricRegistry& registry,
                                     const std::string& prefix) const {
  ClusterCore& self = const_cast<ClusterCore&>(*this);
  const ClusterStats& stats = self.core_stats();
  const SchemeCounters named = self.counters();
  const ClusterConfig& config = cfg();
  const std::string root = prefix + scheme_.metric_root;
  const std::string member = scheme_.member_noun;
  const std::string repair = scheme_.repair_noun;
  const auto counter = [&](const std::string& name, uint64_t value) {
    registry.GetCounter(root + name).Add(value);
  };
  const auto gauge = [&](const std::string& name, double value) {
    registry.GetGauge(root + name).Add(value);
  };
  counter("drains_started", stats.drains_started);
  counter("drains_acked", stats.drains_acked);
  counter("acks_lost", stats.acks_lost);
  counter("node_outages", stats.node_outages);
  counter("outage_write_skips", stats.outage_write_skips);
  counter("maintenance_ticks", stats.maintenance_ticks);
  counter("integrity.detected", stats.integrity_detected);
  counter("integrity.marked_bad", stats.integrity_marked_bad);
  // Optional instruments only exist when their feature is on, keeping
  // legacy metric exports byte-identical (per-device queue internals land
  // under "<prefix>ssd.sched.*" via SsdDevice::CollectMetrics below).
  if (config.sched.enabled()) {
    counter("sched.read_sheds", stats.sched_read_sheds);
    counter("sched.write_sheds", stats.sched_write_sheds);
    counter("sched." + repair + "_sheds", named.recovery_sheds);
    counter("sched.wait_ns", stats.sched_wait_ns);
    counter("sched.hedged_reads", stats.sched_hedged_reads);
    counter("sched.hedge_wins", stats.sched_hedge_wins);
    counter("sched.brownout_" + repair + "_deferrals",
            named.brownout_recovery_deferrals);
    if (brownout_ != nullptr) {
      counter("sched.brownout_windows", brownout_->stats().windows);
      counter("sched.brownout_entered", brownout_->stats().entered);
      counter("sched.brownout_exited", brownout_->stats().exited);
      gauge("sched.brownout_active", brownout_->active() ? 1.0 : 0.0);
    }
  }
  if (config.suspect_grace_ticks > 0) {
    counter("suspect.windows_started", stats.suspect_windows_started);
    counter("suspect.windows_expired", stats.suspect_windows_expired);
    counter("suspect.devices_returned", stats.suspect_devices_returned);
    counter("suspect." + member + "_revived", named.suspect_revived);
    counter("suspect." + member + "_stale", named.suspect_stale);
  }
  if (config.placement != nullptr && config.placement->Constrains()) {
    counter("placement.domain_rejections", stats.placement_domain_rejections);
    counter("placement.domain_fallbacks", stats.placement_domain_fallbacks);
  }
  if (config.drain_health_threshold > 0.0) {
    counter("drain.devices_flagged", stats.drain_devices_flagged);
    counter("drain.devices_completed", stats.drain_devices_completed);
    counter("drain." + member + "_migrated", named.drain_migrated);
    counter("drain.opage_reads", stats.drain_opage_reads);
    counter("drain.opage_writes", stats.drain_opage_writes);
    counter("drain.migrations_parked", stats.drain_migrations_parked);
    counter("drain.brownout_deferrals", stats.drain_brownout_deferrals);
    counter("drain.sched_sheds", stats.drain_sched_sheds);
  }
  gauge("alive_devices", static_cast<double>(alive_devices()));
  gauge("free_slots", static_cast<double>(free_slots()));
  for (const DeviceState& state : devices_) {
    state.device->CollectMetrics(registry, prefix);
  }
  if (config.faults != nullptr) {
    // Distinct prefix: the per-device injector counters collected by
    // SsdDevice::CollectMetrics live under "<prefix>faults.".
    CollectFaultMetrics(registry, config.faults->stats(), prefix + "cluster_");
  }
}

uint32_t ClusterCore::alive_devices() const {
  uint32_t alive = 0;
  for (const DeviceState& state : devices_) {
    alive += state.device->failed() ? 0 : 1;
  }
  return alive;
}

uint64_t ClusterCore::free_slots() const {
  uint64_t total = 0;
  for (const DeviceState& state : devices_) {
    total += state.free_slot_count;
  }
  return total;
}

uint64_t ClusterCore::CountUnits(bool at_width) const {
  ClusterCore& self = const_cast<ClusterCore&>(*this);
  uint64_t n = 0;
  for (UnitId id = 0; id < unit_count(); ++id) {
    const bool full = HealthyMembers(self.members(id)) >= scheme_.width;
    n += (!self.unit(id).lost && full == at_width) ? 1 : 0;
  }
  return n;
}

uint64_t ClusterCore::live_capacity_bytes() const {
  uint64_t total = 0;
  for (const DeviceState& state : devices_) {
    total += state.device->live_capacity_bytes();
  }
  return total;
}

uint64_t ClusterCore::total_bytes_written() const {
  uint64_t total = 0;
  for (const DeviceState& state : devices_) {
    total += state.device->bytes_written();
  }
  return total;
}

}  // namespace salamander
