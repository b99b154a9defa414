// Deterministic cross-layer fault injection (chaos engineering for the
// simulator).
//
// The production simulator only ever produces one well-behaved failure:
// wear-driven decommissioning delivered over a perfectly reliable event
// channel. The FaultInjector widens that to the failure classes a real
// storage stack must absorb — program/erase failures and silent bit
// corruption in the flash, dropped/duplicated/delayed lifecycle events and
// crashes at the device boundary, node outages and lost acknowledgements in
// the diFS — so the recovery machinery in src/difs can be exercised against
// arbitrary partial failures, not just the one it was written for.
//
// Determinism rules (they mirror PR 1's per-device Rng discipline):
//  * Every injection site owns an independent Rng stream, forked from the
//    injector's root in fixed FaultSite order. Enabling or re-tuning one
//    site never shifts another site's schedule.
//  * Injector roots are seeded from FaultConfig::seed plus a caller-chosen
//    stream id (one injector per device, one per cluster), never from the
//    simulation's existing Rng streams — so a disabled injector leaves every
//    pre-existing stream, and therefore every bench output, bit-identical.
//  * A disabled injector (or a site with probability zero) performs no Rng
//    draws at all.
//  * An injector is owned by exactly one device (or one cluster) and is only
//    called from the thread currently stepping that owner, the same
//    discipline that makes parallel fleet stepping bit-identical.
#ifndef SALAMANDER_FAULTS_FAULT_INJECTOR_H_
#define SALAMANDER_FAULTS_FAULT_INJECTOR_H_

#include <cstdint>
#include <string_view>

#include "common/rng.h"
#include "common/status.h"

namespace salamander {

// Every place the injector can perturb the stack. Order is part of the
// determinism contract: per-site streams are forked in this order, so the
// enum may be appended to but never reordered.
enum class FaultSite : uint8_t {
  kProgramFail = 0,        // flash: fPage program-status failure
  kEraseFail,              // flash: block erase failure
  kReadCorrupt,            // flash: silent corruption beyond the ECC budget
  kTransientUnavailable,   // device: busy plane, host op returns kUnavailable
  kEventDrop,              // device: lifecycle event lost on the channel
  kEventDuplicate,         // device: lifecycle event delivered twice
  kEventDelay,             // device: lifecycle event delivered waves later
  kCrashDuringDrain,       // device: whole-device crash mid-drain
  kNodeOutage,             // diFS: node unreachable, rejoins later
  kAckDrainLost,           // diFS: AckDrain never reaches the device
  kPowerLoss,              // device: transient power loss (restartable)
  kTornJournalWrite,       // ftl: unsynced journal tail torn at power loss
  kRackPowerLoss,          // domain: whole-rack power loss (all devices)
  kCohortUnavailable,      // domain: batch cohort transiently unavailable
  kSiteCount,
};

std::string_view FaultSiteName(FaultSite site);

// Per-site injection probabilities. All default to zero: a
// default-constructed config injects nothing even when "enabled".
struct FaultConfig {
  // ---- Flash layer (consulted by FlashChip) ------------------------------
  double program_fail = 0.0;   // per fPage program
  double erase_fail = 0.0;     // per block erase
  double read_corrupt = 0.0;   // per fPage read: uncorrectable after retries

  // ---- Device boundary (consulted by SsdDevice) --------------------------
  double transient_unavailable = 0.0;  // per host op
  double event_drop = 0.0;             // per event leaving TakeEvents
  double event_duplicate = 0.0;        // per event leaving TakeEvents
  double event_delay = 0.0;            // per event leaving TakeEvents
  // Per TakeEvents call while the device has draining mDisks: brick it.
  double crash_during_drain = 0.0;

  // ---- diFS layer (consulted by DifsCluster) -----------------------------
  double node_outage = 0.0;  // per cluster maintenance tick
  double ack_drain_lost = 0.0;  // per AckDrain send

  // ---- Crash-restart (consulted by the fleet sim / SsdDevice) ------------
  double power_loss = 0.0;  // per device-day: transient power loss
  // On power loss: probability that the unsynced journal tail is torn; when
  // it hits, Uniform[1, unsynced] trailing records are discarded.
  double torn_journal_write = 0.0;

  // ---- Correlated failure domains (consulted by harnesses) ----------------
  double rack_power_loss = 0.0;      // per rack-day: rack loses power
  double cohort_unavailable = 0.0;   // per cohort-day: batch cohort pauses

  uint64_t seed = 0xc4a05f0011ec7edULL;
};

// A delayed event matures after Uniform[1, kEventDelayWavesMax] subsequent
// TakeEvents calls.
inline constexpr uint32_t kEventDelayWavesMax = 3;
// A node outage lasts Uniform[1, kNodeOutageTicksMax] maintenance ticks.
inline constexpr uint32_t kNodeOutageTicksMax = 4;
static_assert(kEventDelayWavesMax >= 1 && kNodeOutageTicksMax >= 1);

// kInvalidArgument naming the first probability that is not finite and in
// [0, 1]. FaultInjector's constructor aborts on an invalid config in every
// build mode.
Status ValidateFaultConfig(const FaultConfig& config);

// Injection counts per site, for assertions and soak reports.
struct FaultStats {
  static constexpr int kSites = static_cast<int>(FaultSite::kSiteCount);

  uint64_t injected[static_cast<size_t>(FaultSite::kSiteCount)] = {};

  uint64_t count(FaultSite site) const {
    return injected[static_cast<size_t>(site)];
  }
  uint64_t total() const {
    uint64_t sum = 0;
    for (uint64_t n : injected) {
      sum += n;
    }
    return sum;
  }
};

class FaultInjector {
 public:
  // Permanently disabled: every decision helper returns "no fault" without
  // touching any Rng state.
  FaultInjector() = default;

  // Enabled injector. `stream_id` selects an independent stream family from
  // the same config seed (one id per device in device-index order, a
  // distinct id for the cluster), mirroring Rng::Fork()'s fork-in-id-order
  // discipline. Aborts when ValidateFaultConfig rejects `config`.
  FaultInjector(const FaultConfig& config, uint64_t stream_id);

  bool enabled() const { return enabled_; }
  const FaultConfig& config() const { return config_; }
  const FaultStats& stats() const { return stats_; }

  // ---- Decision helpers. Disabled or probability-zero sites return the
  // ---- "no fault" answer with zero Rng draws.

  bool ProgramFails();
  bool EraseFails();
  bool CorruptsRead();
  bool TransientlyUnavailable();
  bool DropsEvent();
  bool DuplicatesEvent();
  // 0 = deliver now; N > 0 = hold the event for N TakeEvents waves.
  uint32_t EventDelayWaves();
  bool CrashesDuringDrain();
  bool StartsNodeOutage();
  // Drawn from the kNodeOutage stream after StartsNodeOutage() hits.
  uint32_t OutageNode(uint32_t node_count);
  uint32_t OutageTicks();
  bool LosesAckDrain();
  bool LosesPower();
  // 0 = journal tail intact; N > 0 = the N most recent unsynced records are
  // torn (never more than `unsynced_count`). Zero draws when the site is
  // dormant or there is nothing unsynced to tear.
  uint64_t TornJournalRecords(uint64_t unsynced_count);
  bool RackLosesPower();
  bool CohortGoesUnavailable();

 private:
  static constexpr size_t kSites = static_cast<size_t>(FaultSite::kSiteCount);

  // Bernoulli(p) on the site's own stream; counts a hit in stats_.
  bool Draw(FaultSite site, double p);
  Rng& stream(FaultSite site) {
    return streams_[static_cast<size_t>(site)];
  }

  FaultConfig config_;
  bool enabled_ = false;
  Rng streams_[kSites];
  FaultStats stats_;
};

}  // namespace salamander

#endif  // SALAMANDER_FAULTS_FAULT_INJECTOR_H_
