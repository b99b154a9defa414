#include "faults/fault_injector.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace salamander {

std::string_view FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kProgramFail:
      return "program_fail";
    case FaultSite::kEraseFail:
      return "erase_fail";
    case FaultSite::kReadCorrupt:
      return "read_corrupt";
    case FaultSite::kTransientUnavailable:
      return "transient_unavailable";
    case FaultSite::kEventDrop:
      return "event_drop";
    case FaultSite::kEventDuplicate:
      return "event_duplicate";
    case FaultSite::kEventDelay:
      return "event_delay";
    case FaultSite::kCrashDuringDrain:
      return "crash_during_drain";
    case FaultSite::kNodeOutage:
      return "node_outage";
    case FaultSite::kAckDrainLost:
      return "ack_drain_lost";
    case FaultSite::kPowerLoss:
      return "power_loss";
    case FaultSite::kTornJournalWrite:
      return "torn_journal_write";
    case FaultSite::kRackPowerLoss:
      return "rack_power_loss";
    case FaultSite::kCohortUnavailable:
      return "cohort_unavailable";
    case FaultSite::kSiteCount:
      break;
  }
  return "unknown";
}

Status ValidateFaultConfig(const FaultConfig& config) {
  const struct {
    const char* name;
    double p;
  } probabilities[] = {
      {"program_fail", config.program_fail},
      {"erase_fail", config.erase_fail},
      {"read_corrupt", config.read_corrupt},
      {"transient_unavailable", config.transient_unavailable},
      {"event_drop", config.event_drop},
      {"event_duplicate", config.event_duplicate},
      {"event_delay", config.event_delay},
      {"crash_during_drain", config.crash_during_drain},
      {"node_outage", config.node_outage},
      {"ack_drain_lost", config.ack_drain_lost},
      {"power_loss", config.power_loss},
      {"torn_journal_write", config.torn_journal_write},
      {"rack_power_loss", config.rack_power_loss},
      {"cohort_unavailable", config.cohort_unavailable},
  };
  for (const auto& [name, p] : probabilities) {
    if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
      char buffer[128];
      std::snprintf(buffer, sizeof(buffer),
                    "FaultConfig: %s must be in [0, 1], got %g", name, p);
      return InvalidArgumentError(buffer);
    }
  }
  return OkStatus();
}

FaultInjector::FaultInjector(const FaultConfig& config, uint64_t stream_id)
    : config_(config), enabled_(true) {
  const Status status = ValidateFaultConfig(config);
  if (!status.ok()) {
    std::fprintf(stderr, "FaultInjector: invalid config: %s\n",
                 status.message().c_str());
    std::abort();
  }
  // Same fork-in-id-order derivation the fleet uses for device streams:
  // walk the root forward `stream_id` forks, then take ours. Each injector
  // gets an independent family regardless of construction order.
  Rng root(config.seed);
  for (uint64_t i = 0; i < stream_id; ++i) {
    (void)root.Fork();
  }
  Rng parent = root.Fork();
  for (size_t site = 0; site < kSites; ++site) {
    streams_[site] = parent.Fork();
  }
}

bool FaultInjector::Draw(FaultSite site, double p) {
  if (!enabled_ || p <= 0.0) {
    return false;
  }
  if (!stream(site).Bernoulli(p)) {
    return false;
  }
  ++stats_.injected[static_cast<size_t>(site)];
  return true;
}

bool FaultInjector::ProgramFails() {
  return Draw(FaultSite::kProgramFail, config_.program_fail);
}

bool FaultInjector::EraseFails() {
  return Draw(FaultSite::kEraseFail, config_.erase_fail);
}

bool FaultInjector::CorruptsRead() {
  return Draw(FaultSite::kReadCorrupt, config_.read_corrupt);
}

bool FaultInjector::TransientlyUnavailable() {
  return Draw(FaultSite::kTransientUnavailable, config_.transient_unavailable);
}

bool FaultInjector::DropsEvent() {
  return Draw(FaultSite::kEventDrop, config_.event_drop);
}

bool FaultInjector::DuplicatesEvent() {
  return Draw(FaultSite::kEventDuplicate, config_.event_duplicate);
}

uint32_t FaultInjector::EventDelayWaves() {
  if (!Draw(FaultSite::kEventDelay, config_.event_delay)) {
    return 0;
  }
  return static_cast<uint32_t>(
      stream(FaultSite::kEventDelay).UniformInRange(1, kEventDelayWavesMax));
}

bool FaultInjector::CrashesDuringDrain() {
  return Draw(FaultSite::kCrashDuringDrain, config_.crash_during_drain);
}

bool FaultInjector::StartsNodeOutage() {
  return Draw(FaultSite::kNodeOutage, config_.node_outage);
}

uint32_t FaultInjector::OutageNode(uint32_t node_count) {
  if (node_count == 0) {
    return 0;
  }
  return static_cast<uint32_t>(
      stream(FaultSite::kNodeOutage).UniformU64(node_count));
}

uint32_t FaultInjector::OutageTicks() {
  return static_cast<uint32_t>(
      stream(FaultSite::kNodeOutage).UniformInRange(1, kNodeOutageTicksMax));
}

bool FaultInjector::LosesAckDrain() {
  return Draw(FaultSite::kAckDrainLost, config_.ack_drain_lost);
}

bool FaultInjector::LosesPower() {
  return Draw(FaultSite::kPowerLoss, config_.power_loss);
}

uint64_t FaultInjector::TornJournalRecords(uint64_t unsynced_count) {
  if (unsynced_count == 0) {
    return 0;
  }
  if (!Draw(FaultSite::kTornJournalWrite, config_.torn_journal_write)) {
    return 0;
  }
  return stream(FaultSite::kTornJournalWrite)
      .UniformInRange(1, unsynced_count);
}

bool FaultInjector::RackLosesPower() {
  return Draw(FaultSite::kRackPowerLoss, config_.rack_power_loss);
}

bool FaultInjector::CohortGoesUnavailable() {
  return Draw(FaultSite::kCohortUnavailable, config_.cohort_unavailable);
}

}  // namespace salamander
