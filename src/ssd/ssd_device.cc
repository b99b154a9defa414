#include "ssd/ssd_device.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace salamander {

namespace {

const SsdConfig& RequireValidSsdConfig(const SsdConfig& config) {
  const Status status = ValidateSsdConfig(config);
  if (!status.ok()) {
    std::fprintf(stderr, "SsdDevice: invalid config: %s\n",
                 status.message().c_str());
    std::abort();
  }
  return config;
}

}  // namespace

Status ValidateSsdConfig(const SsdConfig& config) {
  // NaN fails both comparisons, so it is rejected too.
  if (!(config.brick_bad_block_fraction >= 0.0 &&
        config.brick_bad_block_fraction <= 1.0)) {
    return InvalidArgumentError("brick_bad_block_fraction must be in [0, 1]");
  }
  return OkStatus();
}

std::string_view SsdKindName(SsdKind kind) {
  switch (kind) {
    case SsdKind::kBaseline:
      return "baseline";
    case SsdKind::kCvss:
      return "cvss";
    case SsdKind::kShrinkS:
      return "shrinks";
    case SsdKind::kRegenS:
      return "regens";
  }
  return "unknown";
}

SsdConfig MakeSsdConfig(SsdKind kind, const FlashGeometry& geometry,
                        const WearModelConfig& wear,
                        const FlashLatencyConfig& latency,
                        const FPageEccGeometry& ecc, uint64_t seed,
                        unsigned regen_max_level) {
  SsdConfig config;
  config.ftl.geometry = geometry;
  config.ftl.wear = wear;
  config.ftl.latency = latency;
  config.ftl.ecc_geometry = ecc;
  config.ftl.seed = seed;
  config.minidisk.seed = seed + 1;

  // Capacity the minidisk manager will find available at format time.
  const uint64_t raw_opages = geometry.total_opages();
  const uint64_t gc_reserve =
      static_cast<uint64_t>(config.ftl.gc_low_watermark_blocks + 1) *
      geometry.fpages_per_block * geometry.opages_per_fpage;
  const uint64_t reserve = std::max(
      static_cast<uint64_t>(static_cast<double>(raw_opages) *
                            MinidiskManager::kOpRatio),
      gc_reserve);
  const uint64_t available = raw_opages > reserve ? raw_opages - reserve : 0;

  switch (kind) {
    case SsdKind::kBaseline:
      config.ftl.retirement = RetirementGranularity::kBlockWorstPage;
      config.ftl.max_usable_level = 0;
      // One monolithic volume spanning everything available.
      config.minidisk.msize_opages = available;
      config.brick_bad_block_fraction = 0.025;  // [14]
      break;
    case SsdKind::kCvss:
      // Reliability-preserving block-granular retirement: a block retires
      // when its worst page can no longer meet the ECC budget (running weak
      // pages past their tolerance would violate UBER, which no shipping
      // design does). CVSS's difference from baseline is shrinking instead
      // of bricking; its difference from ShrinkS is wasting the block's
      // still-strong pages at each retirement.
      config.ftl.retirement = RetirementGranularity::kBlockWorstPage;
      config.ftl.max_usable_level = 0;
      // Capacity shrinks at erase-block granularity.
      config.minidisk.msize_opages = static_cast<uint64_t>(
          geometry.fpages_per_block) * geometry.opages_per_fpage;
      break;
    case SsdKind::kShrinkS:
      config.ftl.retirement = RetirementGranularity::kPage;
      config.ftl.max_usable_level = 0;
      break;
    case SsdKind::kRegenS:
      config.ftl.retirement = RetirementGranularity::kPage;
      config.ftl.max_usable_level = regen_max_level;
      break;
  }
  return config;
}

SsdDevice::SsdDevice(SsdKind kind, const SsdConfig& config)
    : kind_(kind),
      config_(RequireValidSsdConfig(config)),
      ftl_(std::make_unique<Ftl>(config.ftl)),
      manager_(std::make_unique<MinidiskManager>(ftl_.get(),
                                                 config.minidisk)) {
  initial_capacity_bytes_ = manager_->live_capacity_bytes();
  if (config_.faults != nullptr) {
    ftl_->SetFaultInjector(config_.faults.get());
  }
}

uint64_t SsdDevice::live_capacity_bytes() const {
  return failed_ ? 0 : manager_->live_capacity_bytes();
}

uint64_t SsdDevice::bytes_written() const {
  return ftl_->stats().host_writes * config_.ftl.geometry.opage_bytes;
}

double SsdDevice::HealthScore(double pec_horizon_fraction) const {
  if (failed_) {
    return 0.0;
  }
  const double capacity =
      initial_capacity_bytes_ == 0
          ? 1.0
          : static_cast<double>(live_capacity_bytes()) /
                static_cast<double>(initial_capacity_bytes_);
  const uint64_t span = ftl_->usable_opages();
  const double tiring =
      span == 0
          ? 1.0
          : std::min(1.0, static_cast<double>(ftl_->ForecastTiringOPages(
                              pec_horizon_fraction)) /
                              static_cast<double>(span));
  return capacity * (1.0 - tiring);
}

Status SsdDevice::Write(MinidiskId mdisk, uint64_t lba,
                        SimDuration& latency) {
  if (failed_) {
    return DeviceFailedError("Write: device bricked");
  }
  if (config_.faults != nullptr && config_.faults->TransientlyUnavailable()) {
    return UnavailableError("Write: busy plane (injected)");
  }
  Status status = manager_->Write(mdisk, lba, latency);
  CheckBrick();
  return status;
}

StatusOr<ReadResult> SsdDevice::Read(MinidiskId mdisk, uint64_t lba) {
  if (failed_) {
    return DeviceFailedError("Read: device bricked");
  }
  if (config_.faults != nullptr && config_.faults->TransientlyUnavailable()) {
    return UnavailableError("Read: busy plane (injected)");
  }
  return manager_->Read(mdisk, lba);
}

StatusOr<RangeReadResult> SsdDevice::ReadRange(MinidiskId mdisk, uint64_t lba,
                                               uint64_t count) {
  if (failed_) {
    return DeviceFailedError("ReadRange: device bricked");
  }
  if (config_.faults != nullptr && config_.faults->TransientlyUnavailable()) {
    return UnavailableError("ReadRange: busy plane (injected)");
  }
  return manager_->ReadRange(mdisk, lba, count);
}

Status SsdDevice::AckDrain(MinidiskId mdisk) {
  if (failed_) {
    return DeviceFailedError("AckDrain: device bricked");
  }
  if (config_.faults != nullptr && config_.faults->TransientlyUnavailable()) {
    return UnavailableError("AckDrain: busy plane (injected)");
  }
  Status status = manager_->AckDrain(mdisk);
  CheckBrick();
  return status;
}

Status SsdDevice::Flush() {
  if (failed_) {
    return DeviceFailedError("Flush: device bricked");
  }
  Status status = manager_->Flush();
  CheckBrick();
  return status;
}

void SsdDevice::Crash(CrashKind kind) {
  if (kind == CrashKind::kPowerLoss) {
    if (failed_) {
      return;  // already dark or bricked; nothing further to lose
    }
    failed_ = true;
    transient_ = true;
    // Silent darkness: no events — peers only observe unreachability. The
    // volatile write buffers die with the power; the unsynced journal tail
    // may additionally tear when an injector is attached.
    const uint64_t torn =
        config_.faults != nullptr
            ? config_.faults->TornJournalRecords(ftl_->journal().unsynced())
            : 0;
    ftl_->SimulatePowerLoss(torn);
    return;
  }
  if (failed_ && !transient_) {
    return;
  }
  // Brick — possibly upgrading a transient outage to a permanent one, in
  // which case the whole-device-failure events fire now.
  failed_ = true;
  transient_ = false;
  EmitBrickEvents();
}

Status SsdDevice::Restart() {
  if (!failed_) {
    return FailedPreconditionError("Restart: device is not crashed");
  }
  if (!transient_) {
    return FailedPreconditionError("Restart: device permanently bricked");
  }
  Status replay = ftl_->Replay();
  if (!replay.ok()) {
    return replay;  // stays dark; the caller may treat it as bricked
  }
  manager_->Replay();
  // Anything queued before the outage is stale relative to the replayed
  // state; the re-announcements below are the authoritative resync. The
  // overflow counter survives (it is monotone by contract).
  pending_events_.clear();
  delayed_events_.clear();
  brick_events_emitted_ = false;
  for (MinidiskId id = 0; id < manager_->total_minidisks(); ++id) {
    const MinidiskState state = manager_->minidisk(id).state;
    if (state == MinidiskState::kDecommissioned) {
      continue;
    }
    // kCreated re-announces existence; a still-draining mDisk immediately
    // follows with kDraining so live-set trackers (which treat kCreated as
    // add and kDraining as remove) converge to the true live set.
    if (pending_events_.size() >= config_.minidisk.max_pending_events) {
      ++dropped_events_;
      continue;
    }
    pending_events_.push_back(
        MinidiskEvent{MinidiskEventType::kCreated, id});
    if (state == MinidiskState::kDraining) {
      if (pending_events_.size() >= config_.minidisk.max_pending_events) {
        ++dropped_events_;
        continue;
      }
      pending_events_.push_back(
          MinidiskEvent{MinidiskEventType::kDraining, id});
    }
  }
  failed_ = false;
  transient_ = false;
  ++restarts_;
  return OkStatus();
}

bool SsdDevice::AnyRolledBackInRange(MinidiskId mdisk, uint64_t lba,
                                     uint64_t count) const {
  if (ftl_->rolled_back_count() == 0 || mdisk >= manager_->total_minidisks()) {
    return false;
  }
  const uint64_t first = manager_->minidisk(mdisk).first_lpo;
  for (uint64_t i = 0; i < count; ++i) {
    if (ftl_->LpoRolledBack(first + lba + i)) {
      return true;
    }
  }
  return false;
}

void SsdDevice::EmitBrickEvents() {
  if (brick_events_emitted_) {
    return;
  }
  brick_events_emitted_ = true;
  // Whole-device failure == all remaining mDisks fail at once (§4.3);
  // draining mDisks lose their grace window along with everything else.
  for (MinidiskId id = 0; id < manager_->total_minidisks(); ++id) {
    if (manager_->minidisk(id).state != MinidiskState::kDecommissioned) {
      if (pending_events_.size() >= config_.minidisk.max_pending_events) {
        ++dropped_events_;
        continue;
      }
      pending_events_.push_back(
          MinidiskEvent{MinidiskEventType::kDecommissioned, id});
    }
  }
}

std::vector<MinidiskEvent> SsdDevice::TakeEventsSlow() {
  // Manager events first (decommissions that preceded a brick in the same
  // operation), then any synthesized whole-device-failure notifications.
  FaultInjector* faults = config_.faults.get();
  // Crash mid-drain fires at the event-poll boundary: the host learns of the
  // loss on the very poll that would have carried drain progress.
  if (faults != nullptr && !failed_ && manager_->draining_minidisks() > 0 &&
      faults->CrashesDuringDrain()) {
    Crash();
  }
  std::vector<MinidiskEvent> incoming = manager_->TakeEvents();
  incoming.insert(incoming.end(), pending_events_.begin(),
                  pending_events_.end());
  pending_events_.clear();
  if (faults == nullptr && delayed_events_.empty()) {
    return incoming;
  }
  // Previously delayed events mature one wave per poll and are delivered
  // ahead of fresh ones (they are older).
  std::vector<MinidiskEvent> out;
  for (DelayedEvent& delayed : delayed_events_) {
    --delayed.waves_left;
    if (delayed.waves_left == 0) {
      out.push_back(delayed.event);
    }
  }
  std::erase_if(delayed_events_,
                [](const DelayedEvent& d) { return d.waves_left == 0; });
  for (const MinidiskEvent& event : incoming) {
    if (faults == nullptr) {
      out.push_back(event);
      continue;
    }
    // Fixed draw order per event — drop, delay, duplicate — so each site's
    // schedule is independent of the others' outcomes.
    if (faults->DropsEvent()) {
      continue;
    }
    const uint32_t waves = faults->EventDelayWaves();
    if (waves > 0 &&
        delayed_events_.size() < config_.minidisk.max_pending_events) {
      delayed_events_.push_back(DelayedEvent{event, waves});
      continue;
    }
    out.push_back(event);
    if (faults->DuplicatesEvent()) {
      out.push_back(event);
    }
  }
  return out;
}

void SsdDevice::CollectMetrics(MetricRegistry& registry,
                               const std::string& prefix) const {
  registry.GetGauge(prefix + "ssd.failed").Add(failed_ ? 1.0 : 0.0);
  registry.GetGauge(prefix + "ssd.live_minidisks")
      .Add(static_cast<double>(manager_->live_minidisks()));
  registry.GetGauge(prefix + "ssd.total_minidisks")
      .Add(static_cast<double>(manager_->total_minidisks()));
  registry.GetGauge(prefix + "ssd.draining_minidisks")
      .Add(static_cast<double>(manager_->draining_minidisks()));
  registry.GetGauge(prefix + "ssd.live_capacity_bytes")
      .Add(static_cast<double>(live_capacity_bytes()));
  registry.GetGauge(prefix + "ssd.pending_event_depth")
      .Add(static_cast<double>(pending_event_depth()));
  registry.GetCounter(prefix + "ssd.decommissioned_total")
      .Add(manager_->decommissioned_total());
  registry.GetCounter(prefix + "ssd.regenerated_total")
      .Add(manager_->regenerated_total());
  registry.GetCounter(prefix + "ssd.drains_forced")
      .Add(manager_->drains_forced());
  registry.GetCounter(prefix + "ssd.dropped_events").Add(dropped_events());
  // Crash-restart instruments only materialize once a power loss happened,
  // keeping crash-free metric exports byte-identical to older builds.
  if (ftl_->power_losses() > 0 || restarts_ > 0) {
    registry.GetCounter(prefix + "ssd.restarts").Add(restarts_);
    registry.GetGauge(prefix + "ssd.transiently_dark")
        .Add(transiently_dark() ? 1.0 : 0.0);
  }
  // Queue instruments only exist when a service queue is attached, keeping
  // queueing-free metric exports byte-identical to older builds.
  if (queue_ != nullptr) {
    CollectDeviceQueueMetrics(*queue_, registry, prefix + "ssd.");
  }
  ftl_->CollectMetrics(registry, prefix);
  if (config_.faults != nullptr) {
    CollectFaultMetrics(registry, config_.faults->stats(), prefix);
  }
}

}  // namespace salamander
