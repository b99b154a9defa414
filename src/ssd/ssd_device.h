// Host-facing SSD device models (paper §3, §4 baselines).
//
// One concrete class covers all four designs the paper discusses — the
// differences are retirement granularity, the tiredness-level cap, the
// failure-unit (mDisk) size, and the brick rule:
//
//   kBaseline — conventional firmware: block-granular retirement (worst page
//               kills the block), one monolithic volume, device bricks when
//               retired blocks exceed a small threshold (2.5%, [14]).
//   kCvss     — capacity-variant SSD [16]: block-granular retirement by
//               *average* block RBER; capacity shrinks block by block.
//   kShrinkS  — Salamander shrink mode: page-granular retirement, 1 MiB
//               mDisks, capacity shrinks mDisk by mDisk.
//   kRegenS   — Salamander regenerating mode: ShrinkS plus revival of tired
//               pages at lower code rates (L1 by default) and regeneration of
//               new mDisks from revived capacity.
#ifndef SALAMANDER_SSD_SSD_DEVICE_H_
#define SALAMANDER_SSD_SSD_DEVICE_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/minidisk.h"
#include "core/minidisk_manager.h"
#include "faults/fault_injector.h"
#include "ftl/ftl.h"
#include "sched/queueing.h"
#include "telemetry/collect.h"
#include "telemetry/metrics.h"

namespace salamander {

enum class SsdKind : uint8_t { kBaseline, kCvss, kShrinkS, kRegenS };

std::string_view SsdKindName(SsdKind kind);

struct SsdConfig {
  FtlConfig ftl;
  MinidiskConfig minidisk;
  // Brick when retired_blocks / total_blocks exceeds this (0 disables).
  // Conventional SSDs use ~2.5% [14].
  double brick_bad_block_fraction = 0.0;
  // Chaos injector for this device (shared so the owner of the fleet can
  // inspect stats). nullptr — the default — leaves every code path and RNG
  // stream exactly as it was without injection.
  std::shared_ptr<FaultInjector> faults;
};

// Rejects an SsdConfig whose brick_bad_block_fraction is not in [0, 1] (NaN
// included). The nested FTL and mDisk configs are checked by their own
// validators. The SsdDevice constructor aborts on it in every build mode.
Status ValidateSsdConfig(const SsdConfig& config);

// Builds the canonical configuration for a device kind on top of shared
// flash geometry / wear / latency settings. `regen_max_level` applies to
// kRegenS only (the paper recommends 1, i.e. L < 2).
SsdConfig MakeSsdConfig(SsdKind kind, const FlashGeometry& geometry,
                        const WearModelConfig& wear,
                        const FlashLatencyConfig& latency,
                        const FPageEccGeometry& ecc, uint64_t seed,
                        unsigned regen_max_level = 1);

class SsdDevice {
 public:
  SsdDevice(SsdKind kind, const SsdConfig& config);

  SsdKind kind() const { return kind_; }
  std::string_view kind_name() const { return SsdKindName(kind_); }

  // ---- Host I/O (fails with kDeviceFailed once bricked) -------------------

  // On success adds the write's latency to `latency`; on failure leaves it
  // unchanged (see MinidiskManager::Write).
  Status Write(MinidiskId mdisk, uint64_t lba, SimDuration& latency);
  // The same write, returning its latency.
  StatusOr<SimDuration> Write(MinidiskId mdisk, uint64_t lba) {
    SimDuration latency = 0;
    Status status = Write(mdisk, lba, latency);
    if (!status.ok()) {
      return status;
    }
    return latency;
  }
  StatusOr<ReadResult> Read(MinidiskId mdisk, uint64_t lba);
  StatusOr<RangeReadResult> ReadRange(MinidiskId mdisk, uint64_t lba,
                                      uint64_t count);

  // Host flush command: drains the device's NV write buffer to flash.
  Status Flush();

  // Acknowledges a kDraining mDisk (grace-period decommissioning): the host
  // confirms its data is re-replicated and the device reclaims the space.
  Status AckDrain(MinidiskId mdisk);

  // mDisk lifecycle events since the last call. When the device bricks, a
  // kDecommissioned event is emitted for every still-live mDisk (a whole-
  // device failure is "logically equivalent to retiring all flash blocks
  // simultaneously", §4.3).
  std::vector<MinidiskEvent> TakeEvents() {
    // Without an injector nothing can be drawn, so an empty set of queues
    // means an empty poll; this is the common case after a host write.
    if (config_.faults == nullptr && pending_event_depth() == 0) {
      return {};
    }
    return TakeEventsSlow();
  }

  // How a crash ends: for good, or until someone plugs the rack back in.
  enum class CrashKind : uint8_t {
    kPermanent,  // brick: all mDisks fail at once, never comes back
    kPowerLoss,  // transient: goes dark silently, restartable via Restart()
  };

  // Immediate whole-device failure (chaos harness / fault drills).
  //
  // kPermanent bricks the device and queues kDecommissioned for every
  // non-decommissioned mDisk, exactly as a wear-driven brick would. Calling
  // it on a transiently dark device upgrades the outage to a brick (the
  // events fire then). Idempotent once permanent.
  //
  // kPowerLoss models pulled power: the device goes dark *silently* (no
  // events — peers only observe unreachability), the FTL's volatile write
  // buffers are lost, and — when a fault injector is attached — the unsynced
  // journal tail may tear (FaultSite::kTornJournalWrite). A no-op on an
  // already-failed device.
  void Crash(CrashKind kind = CrashKind::kPermanent);

  // Brings a transiently dark device back: replays the FTL journal, rebuilds
  // the mDisk table, and queues re-announcement events (kCreated per
  // surviving live mDisk; kCreated + kDraining per still-draining one) so a
  // host can resync from announced state. kFailedPrecondition if the device
  // is not crashed or is permanently bricked. If journal replay itself fails
  // the error is returned and the device stays dark.
  Status Restart();

  // ---- State ---------------------------------------------------------------

  // True once the device can no longer serve I/O (bricked or zero capacity).
  bool failed() const { return failed_; }
  // True while dark from a transient power loss (restartable); a bricked
  // device is failed() but not transiently dark.
  bool transiently_dark() const { return failed_ && transient_; }
  uint64_t restarts() const { return restarts_; }

  // True if any LBA in [lba, lba + count) of `mdisk` lost its last
  // acknowledged write to a power loss — the device-side staleness signal a
  // diFS uses when reconciling a returned device (see Ftl::LpoRolledBack).
  bool AnyRolledBackInRange(MinidiskId mdisk, uint64_t lba,
                            uint64_t count) const;
  uint64_t live_capacity_bytes() const;
  uint32_t live_minidisks() const { return manager_->live_minidisks(); }
  uint32_t total_minidisks() const { return manager_->total_minidisks(); }
  bool IsMinidiskLive(MinidiskId id) const { return manager_->IsLive(id); }
  uint64_t msize_opages() const { return manager_->msize_opages(); }
  uint64_t initial_capacity_bytes() const { return initial_capacity_bytes_; }

  // Composite health in [0, 1] from telemetry the device already maintains:
  // the surviving-capacity fraction (ShrinkS decay shows up here) discounted
  // by the fraction of in-service flash forecast to tire within the next
  // `pec_horizon_fraction` of its P/E count (catches CVSS-style devices whose
  // capacity holds steady until the first retirement bricks them). 0 when
  // failed. Pure read — no RNG, no state change — so health-driven policies
  // stay deterministic. O(total fPages); see Ftl::ForecastTiringOPages.
  double HealthScore(double pec_horizon_fraction = 0.25) const;

  const Ftl& ftl() const { return *ftl_; }
  const MinidiskManager& manager() const { return *manager_; }

  // Total host data written so far, in bytes (lifetime accounting).
  uint64_t bytes_written() const;

  // Lifecycle events discarded because a queue hit
  // minidisk.max_pending_events (manager queue + the device's own brick
  // queue). Injected event drops are *not* counted here — those model
  // channel loss, not overflow — they live in faults->stats().
  uint64_t dropped_events() const {
    return manager_->dropped_events() + dropped_events_;
  }

  const FaultInjector* faults() const { return config_.faults.get(); }

  // Lifecycle events queued and not yet taken, across the manager queue, the
  // device's brick queue, and injected-delay holdbacks.
  uint64_t pending_event_depth() const {
    return manager_->pending_events() + pending_events_.size() +
           delayed_events_.size();
  }

  // ---- Service queue (deterministic queueing layer, ISSUE 9) --------------
  // Attaches a simulated-time service queue to this device. The owner (a
  // cluster, in device-ID order) forks `jitter_seed` from its own dedicated
  // sched stream; never derive it arithmetically from the device index.
  // Without this call the device has no queue and every code path is exactly
  // the pre-queueing one.
  void ConfigureQueue(const SchedConfig& config, uint64_t jitter_seed) {
    queue_ = std::make_unique<DeviceQueue>(config, jitter_seed);
  }
  DeviceQueue* queue() { return queue_.get(); }
  const DeviceQueue* queue() const { return queue_.get(); }

  // Scrapes device state — event-queue depth/overflow, mDisk lifecycle
  // totals, capacity gauges — plus the FTL's "<prefix>ftl.*"/"<prefix>flash.*"
  // instruments and this device's injected-fault counters into
  // "<prefix>ssd.*". When a service queue is attached, its admission/wait
  // instruments land under "<prefix>ssd.sched.*". Additive — collect once
  // per device (see telemetry/collect.h).
  void CollectMetrics(MetricRegistry& registry,
                      const std::string& prefix = "") const;

 private:
  // TakeEvents past its inline empty-poll test.
  std::vector<MinidiskEvent> TakeEventsSlow();
  // Bricks the device once it has no live or draining mDisk left, or once
  // its retired-block fraction passes brick_bad_block_fraction. Inline: it
  // runs after every write and almost never acts.
  void CheckBrick() {
    if (failed_) {
      return;
    }
    // A device whose remaining mDisks are all draining is read-only, not
    // dead (SSDs "either fail entirely (i.e., brick) or become read-only",
    // §2): it keeps serving recovery reads until the drains are acked.
    bool brick = manager_->live_minidisks() == 0 &&
                 manager_->draining_minidisks() == 0;
    if (!brick && config_.brick_bad_block_fraction > 0.0) {
      const double bad_fraction =
          static_cast<double>(ftl_->retired_blocks()) /
          static_cast<double>(config_.ftl.geometry.total_blocks());
      brick = bad_fraction > config_.brick_bad_block_fraction;
    }
    if (brick) {
      failed_ = true;
      EmitBrickEvents();
    }
  }
  void EmitBrickEvents();

  SsdKind kind_;
  SsdConfig config_;
  std::unique_ptr<Ftl> ftl_;
  std::unique_ptr<MinidiskManager> manager_;
  uint64_t initial_capacity_bytes_ = 0;
  bool failed_ = false;
  bool transient_ = false;  // dark from power loss, not bricked
  uint64_t restarts_ = 0;
  bool brick_events_emitted_ = false;
  std::vector<MinidiskEvent> pending_events_;
  // Events held back by injected delivery delay; each matures after
  // `waves_left` further TakeEvents() calls.
  struct DelayedEvent {
    MinidiskEvent event;
    uint32_t waves_left = 0;
  };
  std::vector<DelayedEvent> delayed_events_;
  uint64_t dropped_events_ = 0;  // overflow drops (see dropped_events())
  // Service queue (nullptr unless ConfigureQueue was called).
  std::unique_ptr<DeviceQueue> queue_;
};

}  // namespace salamander

#endif  // SALAMANDER_SSD_SSD_DEVICE_H_
