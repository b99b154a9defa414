#include "difs/ec_cluster.h"

#include <algorithm>
#include <string>

namespace salamander {

Status ValidateEcConfig(const EcConfig& config) {
  if (config.data_cells < 1) {
    return InvalidArgumentError("data_cells (k) must be >= 1");
  }
  if (config.parity_cells < 1) {
    return InvalidArgumentError("parity_cells (m) must be >= 1");
  }
  if (config.data_cells + config.parity_cells > 0xff) {
    return InvalidArgumentError(
        "data_cells + parity_cells must be <= 255 (packed slot ref)");
  }
  return ValidateClusterConfig(
      config, config.data_cells + config.parity_cells, config.cell_opages);
}

EcCluster::EcCluster(
    const EcConfig& config,
    const std::function<std::unique_ptr<SsdDevice>(uint32_t)>& device_factory)
    : ClusterCore(
          SchemeTraits{.metric_root = "ec.",
                       .member_noun = "cells",
                       .repair_noun = "rebuild",
                       .unit_noun = "stripe",
                       .loss_text = "lost more than m cells",
                       .width = config.data_cells + config.parity_cells,
                       .floor = config.data_cells,
                       .unit_opages = config.cell_opages,
                       .ref_cell_bits = 8,
                       .retries_transient_errors = false,
                       .avoid_draining_devices = false,
                       .resync_repairs_are_events = false,
                       .wave_stats = false},
          config.seed ^ 0xececececececececULL,
          config.seed ^ 0xc8ec5a17c8ec5a17ULL),
      config_(config) {
  RequireValid("EcCluster", ValidateEcConfig(config_));
  AttachDevices(device_factory);
}

ClusterCore::SchemeCounters EcCluster::counters() {
  return SchemeCounters{
      .foreground_writes = stats_.foreground_logical_writes,
      .members_lost = stats_.cells_lost,
      .units_lost = stats_.stripes_lost,
      .members_restored = stats_.cells_rebuilt,
      .restore_opage_writes = stats_.rebuild_opage_writes,
      .restore_deferred = stats_.rebuild_deferred,
      .recovery_sheds = stats_.sched_rebuild_sheds,
      .brownout_recovery_deferrals = stats_.brownout_rebuild_deferrals,
      .drain_migrated = stats_.drain_cells_migrated,
      .suspect_revived = stats_.suspect_cells_revived,
      .suspect_stale = stats_.suspect_cells_stale,
      .integrity_retained = stats_.integrity_retained_cells};
}

void EcCluster::AddUnit(std::vector<SlotLocation> placed) {
  Stripe stripe;
  stripe.id = stripes_.size();
  stripe.checksum = codec_.Stamp(stripe.id, stripe.generation);
  stripe.cells = std::move(placed);
  stripes_.push_back(std::move(stripe));
}

void EcCluster::HandleMdiskDraining(uint32_t device_index, MinidiskId mdisk) {
  if (devices_[device_index].slots.count(mdisk) == 0) {
    return;  // duplicate delivery: the drain was already processed
  }
  ++stats_.drains_started;
  HandleMdiskLoss(device_index, mdisk);
  if (SendAckDrain(device_index, mdisk)) {
    ++stats_.drains_acked;
  }
}

// ---------------------------------------------------------------------------
// Rebuild
// ---------------------------------------------------------------------------

bool EcCluster::RebuildOneCell(StripeId stripe_id) {
  Stripe& stripe = stripes_[stripe_id];
  // Outer retry: a source whose read comes back corrupt is retired (it is
  // itself reconstructable from parity) and reconstruction restarts with a
  // fresh source set. Bounded — each retry permanently removes a live cell.
  for (;;) {
    // Reconstruction needs any k live cells; the rebuilt cell must land on a
    // node hosting none of the stripe's live cells.
    std::vector<CellLocation*> sources;
    std::vector<uint32_t> exclude_nodes;
    uint32_t missing_cell = UINT32_MAX;
    for (CellLocation& cell : stripe.cells) {
      if (cell.live) {
        exclude_nodes.push_back(node_of_device(cell.device));
        if (sources.size() < config_.data_cells && !NodeOut(cell.device)) {
          sources.push_back(&cell);
        }
      } else if (missing_cell == UINT32_MAX) {
        missing_cell = cell.cell;
      }
    }
    if (missing_cell == UINT32_MAX ||
        sources.size() < config_.data_cells) {
      return false;
    }
    CellLocation target{.cell = missing_cell, .live = true};
    if (!PickTarget(exclude_nodes, &target)) {
      return false;
    }
    // Rebuild traffic rides the kRecovery class on every source and the
    // target; any refusal sheds the whole attempt and the stripe parks in
    // waiting_capacity_ for a later wave (deferral machinery, not loss).
    if (!AdmitRecovery(sources, target.device)) {
      return false;
    }
    ClaimSlot(stripe_id, target);

    // Read k surviving cells in full: the k-fold reconstruction traffic.
    bool retry = false;
    for (CellLocation* source : sources) {
      (void)ReadWholeMember(*source, stats_.rebuild_opage_reads);
      // Feeding a silently-corrupt cell into reconstruction would bake the
      // corruption into the rebuilt cell: drop the source and start over
      // (the rebuild loop already owns this stripe — no re-enqueue, or
      // blanket corruption would keep the queue alive forever). If MarkBad
      // refused (stripe at the reconstruction floor), proceed — corrupt
      // bytes beat no bytes.
      if (ObserveCorruption(source->device) > 0 &&
          MarkBad(stripe_id, *source, /*enqueue=*/false)) {
        ReleaseSlot(stripe_id, target);
        retry = true;
        break;
      }
    }
    if (retry) {
      continue;
    }

    // Write the reconstructed cell.
    if (!CopyToTarget(stripe_id, target, stats_.rebuild_opage_writes)) {
      return false;
    }
    stripe.cells[missing_cell] = target;
    ++stats_.cells_rebuilt;
    ApplyDeviceEvents(target.device);
    return true;
  }
}

// ---------------------------------------------------------------------------
// Foreground I/O
// ---------------------------------------------------------------------------

StatusOr<SimDuration> EcCluster::WriteCell(CellLocation& cell,
                                           uint64_t offset) {
  auto write = WriteSlot(cell, offset);
  if (write.ok()) {
    ++stats_.foreground_device_writes;
  }
  return write;
}

Status EcCluster::StepWrites(uint64_t logical_writes) {
  if (stripes_.empty()) {
    return FailedPreconditionError("StepWrites: bootstrap first");
  }
  for (uint64_t i = 0; i < logical_writes; ++i) {
    const StripeId stripe_id = rng_.UniformU64(stripes_.size());
    if (stripes_[stripe_id].lost) {
      continue;
    }
    // A logical update touches one data cell's LBA and all parity cells:
    // EC's (1 + m)-fold write amplification.
    const uint32_t data_cell =
        static_cast<uint32_t>(rng_.UniformU64(config_.data_cells));
    const uint64_t offset = rng_.UniformU64(config_.cell_opages);
    (void)WriteUnit(stripe_id, data_cell, config_.data_cells, offset, nullptr);
  }
  return OkStatus();
}

Status EcCluster::WriteLogicalAt(StripeId stripe_id, uint32_t data_cell,
                                 uint64_t offset, SimDuration* cost_ns) {
  if (stripes_.empty()) {
    return FailedPreconditionError("WriteLogicalAt: bootstrap first");
  }
  if (stripe_id >= stripes_.size() || data_cell >= config_.data_cells ||
      offset >= config_.cell_opages) {
    return InvalidArgumentError("WriteLogicalAt: location out of range");
  }
  Status status =
      WriteUnit(stripe_id, data_cell, config_.data_cells, offset, cost_ns);
  if (status.code() == StatusCode::kDataLoss) {
    return DataLossError("WriteLogicalAt: stripe lost");
  }
  return status;
}

Status EcCluster::ReadLogicalBody(Stripe& stripe, uint32_t data_cell,
                                  uint64_t offset, SimDuration* cost_ns) {
  SimDuration latency = 0;
  AdvanceSchedClock();
  CellLocation& cell = stripe.cells[data_cell];
  // A transiently dark device (suspect grace window) still holds its cells
  // live, but cannot serve I/O: such reads fall through to the degraded
  // path below and reconstruct from the k healthy cells instead of failing.
  if (cell.live && !NodeOut(cell.device) &&
      !devices_[cell.device].device->failed()) {
    uint64_t sched_extra_ns = 0;  // primary-path queue wait + shed backoff
    std::vector<DeviceQueue*> hedge_queues;
    uint64_t hedge_extra_ns = 0;
    if (QueueingEnabled()) {
      const QueueAdmission admission =
          Queue(cell.device)->Admit(OpClass::kForegroundRead, sched_clock_ns_);
      if (!admission.admitted) {
        return ShedForeground(stats_.sched_read_sheds, admission.backoff_ns,
                              0, cost_ns, "ReadLogicalBody: shed at admission");
      }
      sched_extra_ns = admission.wait_ns + admission.backoff_ns;
      // Hedge: a *modeled* reconstruction fan-out over k alternate cells.
      // No second device read is issued (that would perturb fault-injection
      // draws and add real wear); the fan-out completes at its slowest
      // source, so it only fires when every source queue has room and the
      // slowest source wait still beats the primary's. Each source queue is
      // then charged the primary's service time as a proxy.
      if (config_.sched.hedge_threshold_ns > 0 &&
          admission.wait_ns > config_.sched.hedge_threshold_ns) {
        uint64_t slowest_wait = 0;
        bool room = true;
        for (CellLocation& source : stripe.cells) {
          if (hedge_queues.size() == config_.data_cells) {
            break;
          }
          if (!source.live || NodeOut(source.device) ||
              devices_[source.device].device->failed() ||
              source.cell == data_cell) {
            continue;
          }
          DeviceQueue* alt = Queue(source.device);
          alt->AdvanceTo(sched_clock_ns_);
          if (alt->depth() >= config_.sched.queue_depth) {
            room = false;  // a full source would shed: no hedge
            break;
          }
          slowest_wait = std::max(
              slowest_wait, alt->EstimateWaitNs(OpClass::kForegroundRead));
          hedge_queues.push_back(alt);
        }
        if (room && hedge_queues.size() == config_.data_cells &&
            slowest_wait < admission.wait_ns) {
          for (DeviceQueue* alt : hedge_queues) {
            (void)alt->Admit(OpClass::kForegroundRead, sched_clock_ns_);
          }
          hedge_extra_ns = slowest_wait;
          ++stats_.sched_hedged_reads;
        } else {
          hedge_queues.clear();
        }
      }
    }
    auto read = ReadSlot(cell, offset);
    if (read.ok()) {
      latency = read.value().latency;
    }
    const uint64_t corrupt = ObserveCorruption(cell.device);
    if (read.ok() && corrupt > 0) {
      // End-to-end verify against the stripe's checksum stamp. EC
      // read-repair: retire the corrupt data cell, re-serve the read
      // degraded from k clean cells, and let the rebuild queue restore
      // full redundancy.
      const uint64_t observed = codec_.CorruptObservation(stripe.checksum);
      if (!ChecksumCodec::Verify(stripe.checksum, observed) &&
          MarkBad(stripe.id, cell, /*enqueue=*/true)) {
        ++stats_.degraded_reads;
        SimDuration slowest_source = 0;
        uint32_t refetched = 0;
        for (CellLocation& source : stripe.cells) {
          if (!source.live || NodeOut(source.device) ||
              refetched == config_.data_cells) {
            continue;
          }
          auto refetch = ReadSlot(source, offset);
          if (refetch.ok()) {
            slowest_source = std::max(slowest_source, refetch.value().latency);
          }
          (void)ObserveCorruption(source.device);
          ++refetched;
        }
        // The degraded re-serve fans its k source reads out in parallel,
        // after the corrupt read already returned: sequential with it.
        latency += slowest_source;
        ProcessEvents();
      }
    }
    if (QueueingEnabled()) {
      if (read.ok()) {
        Queue(cell.device)->Complete(OpClass::kForegroundRead, latency);
        for (DeviceQueue* alt : hedge_queues) {
          alt->Complete(OpClass::kForegroundRead, latency);
        }
      }
      if (!hedge_queues.empty() && hedge_extra_ns < sched_extra_ns) {
        ++stats_.sched_hedge_wins;
        sched_extra_ns = hedge_extra_ns;  // op completes on the faster path
      }
    }
    FinishForeground(sched_extra_ns, latency, cost_ns);
    return read.ok() ? OkStatus() : read.status();
  }
  // Degraded read: reconstruct from k live cells (same offset in each).
  ++stats_.degraded_reads;
  uint64_t degraded_extra_ns = 0;  // slowest source's queue wait
  bool marked_bad = false;
  uint32_t fetched = 0;
  for (CellLocation& source : stripe.cells) {
    if (!source.live || NodeOut(source.device) ||
        devices_[source.device].device->failed() ||
        fetched == config_.data_cells) {
      continue;
    }
    if (QueueingEnabled()) {
      const QueueAdmission admission = Queue(source.device)
          ->Admit(OpClass::kForegroundRead, sched_clock_ns_);
      degraded_extra_ns = std::max(
          degraded_extra_ns, admission.wait_ns + admission.backoff_ns);
      if (!admission.admitted) {
        // Reconstruction needs every source: one refusal sheds the op.
        return ShedForeground(stats_.sched_read_sheds, degraded_extra_ns,
                              latency, cost_ns,
                              "ReadLogicalBody: degraded shed");
      }
    }
    auto read = ReadSlot(source, offset);
    ++fetched;
    if (read.ok()) {
      // Reconstruction reads fan out in parallel: slowest source wins.
      latency = std::max(latency, read.value().latency);
      if (QueueingEnabled()) {
        Queue(source.device)
            ->Complete(OpClass::kForegroundRead, read.value().latency);
      }
    }
    if (ObserveCorruption(source.device) > 0 && read.ok()) {
      const uint64_t observed = codec_.CorruptObservation(stripe.checksum);
      if (!ChecksumCodec::Verify(stripe.checksum, observed)) {
        // A corrupt reconstruction input: retire it (rebuild will replace
        // it from parity) — a real system retries with another of the m
        // spare combinations.
        marked_bad = MarkBad(stripe.id, source, /*enqueue=*/true) || marked_bad;
      }
    }
  }
  if (marked_bad) {
    ProcessEvents();
  }
  FinishForeground(degraded_extra_ns, latency, cost_ns);
  return fetched >= config_.data_cells
             ? OkStatus()
             : DataLossError("degraded read below k sources");
}

Status EcCluster::StepReads(uint64_t reads) {
  if (stripes_.empty()) {
    return FailedPreconditionError("StepReads: bootstrap first");
  }
  for (uint64_t i = 0; i < reads; ++i) {
    Stripe& stripe = stripes_[rng_.UniformU64(stripes_.size())];
    if (stripe.lost) {
      continue;
    }
    const uint32_t data_cell =
        static_cast<uint32_t>(rng_.UniformU64(config_.data_cells));
    const uint64_t offset = rng_.UniformU64(config_.cell_opages);
    (void)ReadLogicalBody(stripe, data_cell, offset, nullptr);
  }
  return OkStatus();
}

Status EcCluster::ReadLogicalAt(StripeId stripe_id, uint32_t data_cell,
                                uint64_t offset, SimDuration* cost_ns) {
  if (stripes_.empty()) {
    return FailedPreconditionError("ReadLogicalAt: bootstrap first");
  }
  if (stripe_id >= stripes_.size() || data_cell >= config_.data_cells ||
      offset >= config_.cell_opages) {
    return InvalidArgumentError("ReadLogicalAt: location out of range");
  }
  Stripe& stripe = stripes_[stripe_id];
  if (stripe.lost) {
    return DataLossError("ReadLogicalAt: stripe lost");
  }
  return ReadLogicalBody(stripe, data_cell, offset, cost_ns);
}

// ---------------------------------------------------------------------------
// Metrics and introspection
// ---------------------------------------------------------------------------

void EcCluster::CollectMetrics(MetricRegistry& registry,
                               const std::string& prefix) const {
  CollectCoreMetrics(registry, prefix);
  const std::string root = prefix + "ec.";
  const auto counter = [&](const char* name, uint64_t value) {
    registry.GetCounter(root + name).Add(value);
  };
  const auto gauge = [&](const char* name, uint64_t value) {
    registry.GetGauge(root + name).Add(static_cast<double>(value));
  };
  counter("foreground_logical_writes", stats_.foreground_logical_writes);
  counter("foreground_device_writes", stats_.foreground_device_writes);
  counter("rebuild_opage_reads", stats_.rebuild_opage_reads);
  counter("rebuild_opage_writes", stats_.rebuild_opage_writes);
  counter("rebuild_read_bytes", stats_.rebuild_read_bytes());
  counter("cells_lost", stats_.cells_lost);
  counter("cells_rebuilt", stats_.cells_rebuilt);
  counter("degraded_reads", stats_.degraded_reads);
  counter("stripes_lost", stats_.stripes_lost);
  counter("rebuild_deferred", stats_.rebuild_deferred);
  counter("integrity.retained_cells", stats_.integrity_retained_cells);
  gauge("total_stripes", total_stripes());
  gauge("stripes_fully_redundant", stripes_fully_redundant());
  gauge("stripes_degraded", stripes_degraded());
  gauge("pending_rebuild_backlog",
        pending_recoveries_.size() + waiting_capacity_.size());
}

}  // namespace salamander
