#include "core/minidisk_manager.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace salamander {

namespace {

const MinidiskConfig& RequireValidMinidiskConfig(
    const MinidiskConfig& config) {
  const Status status = ValidateMinidiskConfig(config);
  if (!status.ok()) {
    std::fprintf(stderr, "MinidiskManager: invalid config: %s\n",
                 status.message().c_str());
    std::abort();
  }
  return config;
}

uint64_t ReserveOPages(const Ftl& ftl) {
  const uint64_t raw = ftl.config().geometry.total_opages();
  const uint64_t op_reserve = static_cast<uint64_t>(
      static_cast<double>(raw) * MinidiskManager::kOpRatio);
  return std::max(op_reserve, ftl.gc_reserve_opages());
}

}  // namespace

Status ValidateMinidiskConfig(const MinidiskConfig& config) {
  if (config.msize_opages == 0) {
    return InvalidArgumentError("msize_opages must be >= 1");
  }
  if (!std::isfinite(config.drain_forecast_horizon) ||
      config.drain_forecast_horizon < 0.0) {
    return InvalidArgumentError(
        "drain_forecast_horizon must be finite and >= 0");
  }
  return OkStatus();
}

// Soft horizon for starting grace drains: leave enough slack that drains can
// complete (be re-replicated and acked) before the hard deficit arrives.
static uint64_t DrainHeadroom(const MinidiskConfig& config) {
  if (!config.drain_before_decommission) {
    return 0;
  }
  return static_cast<uint64_t>(config.max_draining) * config.msize_opages;
}

MinidiskManager::MinidiskManager(Ftl* ftl, const MinidiskConfig& config)
    : ftl_(ftl),
      config_(RequireValidMinidiskConfig(config)),
      rng_(config.seed ^ 0xa5a5a5a5a5a5a5a5ULL),
      reserve_opages_(ReserveOPages(*ftl)) {
  assert(ftl_ != nullptr);
  FormatDevice();
}

void MinidiskManager::FormatDevice() {
  const uint64_t usable = ftl_->usable_opages();
  // A drain-capable device withholds headroom for in-flight drains, whose
  // data occupies flash after the mDisk stops being advertised capacity.
  const uint64_t reserve = reserve_opages_ + DrainHeadroom(config_);
  const uint64_t available = usable > reserve ? usable - reserve : 0;
  const uint64_t count = available / config_.msize_opages;
  for (uint64_t i = 0; i < count; ++i) {
    CreateMinidisk(/*tiredness_level=*/0);
  }
}

MinidiskId MinidiskManager::CreateMinidisk(unsigned tiredness_level,
                                           bool regenerated) {
  Minidisk md;
  md.id = static_cast<MinidiskId>(minidisks_.size());
  md.state = MinidiskState::kLive;
  md.first_lpo = ftl_->ExtendLogicalSpace(config_.msize_opages);
  md.size_opages = config_.msize_opages;
  md.tiredness_level = tiredness_level;
  minidisks_.push_back(md);
  valid_counts_.push_back(0);
  written_.emplace_back(config_.msize_opages, false);
  ++live_minidisks_;
  live_logical_opages_ += config_.msize_opages;
  PushEvent(MinidiskEvent{MinidiskEventType::kCreated, md.id});
  // An mDisk must never be announced and then forgotten by a power loss, so
  // the create record is synced immediately.
  ftl_->AppendJournalRecord(JournalRecord{
      JournalRecordType::kMdiskCreate, md.id, md.first_lpo, md.size_opages,
      static_cast<uint64_t>(tiredness_level) |
          (static_cast<uint64_t>(regenerated) << 8)});
  ftl_->SyncJournal();
  return md.id;
}

bool MinidiskManager::IsLive(MinidiskId mdisk) const {
  return mdisk < minidisks_.size() &&
         minidisks_[mdisk].state == MinidiskState::kLive;
}

uint64_t MinidiskManager::live_capacity_bytes() const {
  return static_cast<uint64_t>(live_minidisks_) * config_.msize_opages *
         ftl_->config().geometry.opage_bytes;
}

Status MinidiskManager::Write(MinidiskId mdisk, uint64_t lba,
                              SimDuration& latency) {
  if (mdisk >= minidisks_.size()) {
    return NotFoundError("Write: unknown mDisk " + std::to_string(mdisk));
  }
  if (minidisks_[mdisk].state == MinidiskState::kDraining) {
    return FailedPreconditionError("Write: mDisk " + std::to_string(mdisk) +
                                   " is draining (read-only)");
  }
  if (minidisks_[mdisk].state != MinidiskState::kLive) {
    return FailedPreconditionError("Write: mDisk " + std::to_string(mdisk) +
                                   " is decommissioned");
  }
  if (lba >= minidisks_[mdisk].size_opages) {
    return OutOfRangeError("Write: lba " + std::to_string(lba));
  }
  const uint64_t lpo = minidisks_[mdisk].first_lpo + lba;
  // A refused attempt leaves `latency` unchanged, so only a retried
  // attempt's cost is ever reported.
  Status status = ftl_->Write(lpo, latency);
  if (status.code() == StatusCode::kResourceExhausted) {
    // The device ran out of space mid-write because wear outpaced
    // decommissioning. Shed capacity and retry. Eq. 2's accounting can lag
    // physical reality (in-service pages fragmented across mostly-dead
    // blocks), so if the deficit formula sees no problem, force-shed anyway:
    // the FTL's failed allocation is ground truth.
    RunCapacityMaintenance();
    if (minidisks_[mdisk].state == MinidiskState::kLive && ShedCapacityNow()) {
      if (minidisks_[mdisk].state != MinidiskState::kLive) {
        return CapacityExhaustedError(
            "Write: mDisk decommissioned while shedding capacity");
      }
      status = ftl_->Write(lpo, latency);
    }
  }
  if (status.ok() && !written_[mdisk].Test(lba)) {
    written_[mdisk].Set(lba);
    ++valid_counts_[mdisk];
  }
  ++writes_since_forecast_;
  RunCapacityMaintenance();
  return status;
}

StatusOr<ReadResult> MinidiskManager::Read(MinidiskId mdisk, uint64_t lba) {
  if (mdisk >= minidisks_.size()) {
    return NotFoundError("Read: unknown mDisk " + std::to_string(mdisk));
  }
  if (minidisks_[mdisk].state == MinidiskState::kDecommissioned) {
    return FailedPreconditionError("Read: mDisk " + std::to_string(mdisk) +
                                   " is decommissioned");
  }
  if (lba >= minidisks_[mdisk].size_opages) {
    return OutOfRangeError("Read: lba " + std::to_string(lba));
  }
  return ftl_->Read(minidisks_[mdisk].first_lpo + lba);
}

StatusOr<RangeReadResult> MinidiskManager::ReadRange(MinidiskId mdisk,
                                                     uint64_t lba,
                                                     uint64_t count) {
  if (mdisk >= minidisks_.size()) {
    return NotFoundError("ReadRange: unknown mDisk " + std::to_string(mdisk));
  }
  if (minidisks_[mdisk].state == MinidiskState::kDecommissioned) {
    return FailedPreconditionError("ReadRange: mDisk " +
                                   std::to_string(mdisk) +
                                   " is decommissioned");
  }
  if (lba + count > minidisks_[mdisk].size_opages) {
    return OutOfRangeError("ReadRange: lba " + std::to_string(lba) + " +" +
                           std::to_string(count));
  }
  return ftl_->ReadRange(minidisks_[mdisk].first_lpo + lba, count);
}

void MinidiskManager::RunCapacityMaintenanceRound() {
  // Drain transitions first: their only role here is ordering (the FTL
  // already updated its accounting); keeping the queue short bounds memory.
  ftl_->TakeTransitions();

  // Eq. 2: while physical capacity cannot back logical capacity + reserve,
  // shed capacity. Without the grace period this decommissions (trims) a
  // victim per round; with it, the hard deficit force-finishes drains and a
  // soft horizon starts new ones early enough for the host to re-replicate.
  while (CapacityDeficit()) {
    if (!ShedCapacityNow()) {
      break;
    }
  }
  if (config_.drain_before_decommission) {
    // Proactive policy: refresh the wear forecast periodically and treat
    // soon-to-tire capacity as already lost when deciding to open grace
    // windows, so the diFS gets its head start before the deficit is real.
    uint64_t forecast = 0;
    if (config_.drain_forecast_horizon > 0.0) {
      if (writes_since_forecast_ >= config_.forecast_interval_writes ||
          forecast_tiring_opages_ == 0) {
        forecast_tiring_opages_ =
            ftl_->ForecastTiringOPages(config_.drain_forecast_horizon);
        writes_since_forecast_ = 0;
      }
      forecast = forecast_tiring_opages_;
    }
    while (live_minidisks_ > 0 &&
           draining_.size() < config_.max_draining &&
           ftl_->usable_opages() < live_logical_opages_ +
                                       draining_logical_opages_ +
                                       reserve_opages_ +
                                       DrainHeadroom(config_) + forecast) {
      Decommission(PickVictim());  // starts a drain
    }
  }

  // RegenS: mint new mDisks from accumulated limbo capacity. Claim only when
  // a full mDisk's worth is reclaimable, so regenerated mDisks appear as
  // discrete kCreated events (Fig. 1 b4).
  while (ftl_->reclaimable_limbo_opages() >= config_.msize_opages) {
    const uint64_t claimed =
        ftl_->ClaimLimboCapacity(config_.msize_opages);
    if (claimed < config_.msize_opages) {
      break;  // stale limbo accounting; try again after more transitions
    }
    ++regenerated_total_;
    // Regenerated capacity comes predominantly from level >= 1 pages.
    CreateMinidisk(/*tiredness_level=*/std::min(
                       ftl_->config().max_usable_level, 1u),
                   /*regenerated=*/true);
    // If claiming overshot into the reserve, shed immediately.
    if (CapacityDeficit()) {
      ShedCapacityNow();
    }
  }
}

MinidiskId MinidiskManager::PickVictim() {
  assert(live_minidisks_ > 0);
  switch (config_.victim_policy) {
    case VictimPolicy::kLowestId: {
      for (const Minidisk& md : minidisks_) {
        if (md.state == MinidiskState::kLive) {
          return md.id;
        }
      }
      break;
    }
    case VictimPolicy::kRandom: {
      uint64_t skip = rng_.UniformU64(live_minidisks_);
      for (const Minidisk& md : minidisks_) {
        if (md.state == MinidiskState::kLive) {
          if (skip == 0) {
            return md.id;
          }
          --skip;
        }
      }
      break;
    }
    case VictimPolicy::kLeastValid: {
      MinidiskId best = 0;
      uint64_t best_valid = UINT64_MAX;
      for (const Minidisk& md : minidisks_) {
        if (md.state == MinidiskState::kLive &&
            valid_counts_[md.id] < best_valid) {
          best_valid = valid_counts_[md.id];
          best = md.id;
        }
      }
      return best;
    }
  }
  assert(false && "no live minidisk");
  return 0;
}

void MinidiskManager::TrimMinidisk(MinidiskId mdisk) {
  Minidisk& md = minidisks_[mdisk];
  for (uint64_t lba = 0; lba < md.size_opages; ++lba) {
    // In-range trims cannot fail; the range was allocated at creation.
    Status trim_status = ftl_->Trim(md.first_lpo + lba);
    assert(trim_status.ok());
    (void)trim_status;
  }
  written_[mdisk].ClearAll();
  valid_counts_[mdisk] = 0;
}

void MinidiskManager::Decommission(MinidiskId victim) {
  Minidisk& md = minidisks_[victim];
  assert(md.state == MinidiskState::kLive);
  --live_minidisks_;
  live_logical_opages_ -= md.size_opages;
  if (config_.drain_before_decommission) {
    // Grace period: keep the data readable until the host acks.
    md.state = MinidiskState::kDraining;
    draining_.push_back(victim);
    draining_logical_opages_ += md.size_opages;
    PushEvent(MinidiskEvent{MinidiskEventType::kDraining, victim});
    ftl_->AppendJournalRecord(
        JournalRecord{JournalRecordType::kMdiskDrain, victim, 0, 0, 0});
    return;
  }
  TrimMinidisk(victim);
  md.state = MinidiskState::kDecommissioned;
  ++decommissioned_total_;
  PushEvent(MinidiskEvent{MinidiskEventType::kDecommissioned, victim});
  ftl_->AppendJournalRecord(
      JournalRecord{JournalRecordType::kMdiskDrop, victim, 0, 0, 0});
}

void MinidiskManager::FinishDrain(MinidiskId mdisk, bool forced) {
  Minidisk& md = minidisks_[mdisk];
  assert(md.state == MinidiskState::kDraining);
  auto it = std::find(draining_.begin(), draining_.end(), mdisk);
  assert(it != draining_.end());
  draining_.erase(it);
  draining_logical_opages_ -= md.size_opages;
  TrimMinidisk(mdisk);
  md.state = MinidiskState::kDecommissioned;
  ++decommissioned_total_;
  if (forced) {
    ++drains_forced_;
  }
  PushEvent(MinidiskEvent{MinidiskEventType::kDecommissioned, mdisk});
  ftl_->AppendJournalRecord(JournalRecord{JournalRecordType::kMdiskDrop,
                                          mdisk, static_cast<uint64_t>(forced),
                                          0, 0});
}

bool MinidiskManager::ShedCapacityNow() {
  // Shed a live victim first: its chunks still have replicas elsewhere and
  // recover through the normal path. Force-closing an un-acked drain is the
  // last resort — it guarantees a grace-window violation for data whose
  // re-replication the host may not have completed yet.
  if (live_minidisks_ > 0) {
    const MinidiskId victim = PickVictim();
    if (config_.drain_before_decommission) {
      // Immediate reclaim bypasses the grace period: full decommission
      // inline.
      Minidisk& md = minidisks_[victim];
      --live_minidisks_;
      live_logical_opages_ -= md.size_opages;
      TrimMinidisk(victim);
      md.state = MinidiskState::kDecommissioned;
      ++decommissioned_total_;
      PushEvent(MinidiskEvent{MinidiskEventType::kDecommissioned, victim});
      ftl_->AppendJournalRecord(
          JournalRecord{JournalRecordType::kMdiskDrop, victim, 0, 0, 0});
      return true;
    }
    Decommission(victim);
    return true;
  }
  if (!draining_.empty()) {
    FinishDrain(draining_.front(), /*forced=*/true);
    return true;
  }
  return false;
}

Status MinidiskManager::AckDrain(MinidiskId mdisk) {
  if (mdisk >= minidisks_.size()) {
    return NotFoundError("AckDrain: unknown mDisk " + std::to_string(mdisk));
  }
  if (minidisks_[mdisk].state != MinidiskState::kDraining) {
    return FailedPreconditionError("AckDrain: mDisk " +
                                   std::to_string(mdisk) +
                                   " is not draining");
  }
  FinishDrain(mdisk, /*forced=*/false);
  return OkStatus();
}

void MinidiskManager::PushEvent(MinidiskEvent event) {
  if (events_.size() >= config_.max_pending_events) {
    ++dropped_events_;
    return;
  }
  events_.push_back(event);
}

std::vector<MinidiskEvent> MinidiskManager::TakeEvents() {
  std::vector<MinidiskEvent> out;
  out.swap(events_);
  return out;
}

void MinidiskManager::Replay() {
  minidisks_.clear();
  valid_counts_.clear();
  written_.clear();
  draining_.clear();
  events_.clear();  // a restarted host resyncs from state, not a stale queue
  live_minidisks_ = 0;
  live_logical_opages_ = 0;
  draining_logical_opages_ = 0;
  decommissioned_total_ = 0;
  regenerated_total_ = 0;
  drains_forced_ = 0;
  forecast_tiring_opages_ = 0;
  writes_since_forecast_ = 0;
  // dropped_events_ survives: it is the monotone overflow signal hosts
  // reconcile against, and forgetting it would hide a pre-crash overflow.

  // mDisk lifecycle records replay in append order; the compactor preserves
  // per-mDisk create -> drain/drop ordering, so states converge either way.
  for (const JournalRecord& r : ftl_->journal().records()) {
    switch (r.type) {
      case JournalRecordType::kMdiskCreate: {
        assert(minidisks_.size() == r.a && "mDisk ids must be sequential");
        Minidisk md;
        md.id = static_cast<MinidiskId>(r.a);
        md.state = MinidiskState::kLive;
        md.first_lpo = r.b;
        md.size_opages = r.c;
        md.tiredness_level = static_cast<unsigned>(r.d & 0xff);
        minidisks_.push_back(md);
        valid_counts_.push_back(0);
        written_.emplace_back(md.size_opages, false);
        ++live_minidisks_;
        live_logical_opages_ += md.size_opages;
        regenerated_total_ += (r.d >> 8) & 1;
        break;
      }
      case JournalRecordType::kMdiskDrain: {
        Minidisk& md = minidisks_[r.a];
        md.state = MinidiskState::kDraining;
        --live_minidisks_;
        live_logical_opages_ -= md.size_opages;
        draining_.push_back(md.id);
        draining_logical_opages_ += md.size_opages;
        break;
      }
      case JournalRecordType::kMdiskDrop: {
        Minidisk& md = minidisks_[r.a];
        if (md.state == MinidiskState::kDraining) {
          auto it = std::find(draining_.begin(), draining_.end(), md.id);
          assert(it != draining_.end());
          draining_.erase(it);
          draining_logical_opages_ -= md.size_opages;
        } else if (md.state == MinidiskState::kLive) {
          --live_minidisks_;
          live_logical_opages_ -= md.size_opages;
        }
        md.state = MinidiskState::kDecommissioned;
        ++decommissioned_total_;
        drains_forced_ += r.b != 0 ? 1 : 0;
        break;
      }
      default:
        break;  // FTL-level records; Ftl::Replay() already consumed them
    }
  }

  // Written-LBA bitmaps come from the replayed mapping: an LBA is valid iff
  // its logical page survived on flash (buffered and rolled-back writes are
  // gone, exactly matching what a read would now return).
  for (const Minidisk& md : minidisks_) {
    if (md.state == MinidiskState::kDecommissioned) {
      continue;
    }
    for (uint64_t lba = 0; lba < md.size_opages; ++lba) {
      if (ftl_->PhysicalSlot(md.first_lpo + lba) != Ftl::kUnmappedSlot) {
        written_[md.id].Set(lba);
        ++valid_counts_[md.id];
      }
    }
  }
}

}  // namespace salamander
