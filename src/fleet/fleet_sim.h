// Fleet aging simulator (Fig. 3a / 3b).
//
// Simulates a batch of SSDs deployed together under a sustained write
// workload (expressed as drive-writes-per-day) plus a background annual
// failure rate for non-wear failures. Tracks, day by day, how many devices
// still function and how much capacity the fleet retains — the two curves
// the paper contrasts between baseline (cliff-edge bricks) and Salamander
// (gradual shrink + regeneration).
//
// Every device is an independent stochastic process: all of its randomness
// (endurance variance, workload addresses, the AFR failure draw) comes from
// streams forked off the fleet RNG in device-ID order at construction. Run()
// can therefore step devices on a thread pool (`FleetConfig::threads`) and
// still produce snapshots byte-identical to a serial run.
#ifndef SALAMANDER_FLEET_FLEET_SIM_H_
#define SALAMANDER_FLEET_FLEET_SIM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "faults/fault_injector.h"
#include "fleet/event_scheduler.h"
#include "ssd/ssd_device.h"
#include "telemetry/metrics.h"
#include "telemetry/sampler.h"
#include "telemetry/trace.h"
#include "workload/aging.h"
#include "workload/traffic.h"

namespace salamander {

// Which engine advances simulated time.
enum class FleetSchedulerMode : uint8_t {
  // Reference engine: one global barrier per simulated day, every slot
  // visited every day (dead and dark ones included). Kept as the golden
  // implementation the event-driven core is diffed against.
  kLockstep = 0,
  // Discrete-event engine: devices post their next interesting event into a
  // (day, device, kind)-ordered queue and time advances in jumps, so days on
  // which a device is dead or dark cost zero stepping work. Produces
  // bit-identical snapshots, metrics, and per-device state — the
  // FleetEquivalence/FleetScheduler suites enforce it.
  kEventDriven = 1,
};

// Multi-tenant traffic as the fleet's demand source (alternative to the flat
// `dwpd` knob). When enabled, every device slot owns a TrafficEngine whose
// per-day *write* demand replaces `writes_per_day`, so per-device load
// varies over time (diurnal swings, bursts) and tenant skew concentrates
// wear through the AgingDriver's zipfian address stream.
struct FleetTrafficConfig {
  // 0 — the default — disables the traffic engine entirely: no extra RNG
  // forks, no per-slot engines, every pre-existing output byte-identical.
  uint32_t tenants_per_device = 0;
  // Template applied to every tenant. `ops_per_day` is per tenant in oPages;
  // a device's mean daily write demand is
  // tenants_per_device * ops_per_day * (1 - read_fraction).
  TenantConfig tenant;

  // Tenant arrival shapes rotate steady/diurnal/bursty (with staggered
  // phases) instead of cloning the template's shape.
  static constexpr bool kMixedArrivals = true;
  // Address skew the tenants impose within each device: the fraction of
  // oPage writes drawn zipfian-hot (AgingConfig::zipfian_fraction) at the
  // tenant template's theta. Fully skewed: the regime where hot-spot wear
  // concentrates and ShrinkS/RegenS diverge from CVSS.
  static constexpr double kDeviceZipfianFraction = 1.0;

  bool enabled() const { return tenants_per_device > 0; }
};

// Day-granular admission control in front of each device (the fleet-level
// face of the per-op queueing layer in src/sched/). Daily write demand joins
// a bounded per-slot backlog; a fixed service capacity drains it each day and
// only the served oPages reach flash. Demand that overflows the bound is shed
// (counted, never written) — so an overloaded fleet degrades by queueing and
// shedding instead of silently wearing flash at the offered rate. The model
// is pure arithmetic on slot-local state: zero RNG draws, so parallel ==
// serial == lockstep stays bit-identical with no extra discipline.
struct FleetQueueConfig {
  // Per-device service capacity in oPages/day. 0 — the default — disables
  // the queue entirely: no backlog state, no digest contribution, every
  // pre-existing output byte-identical.
  uint64_t service_opages_per_day = 0;
  // Backlog bound in oPages; demand beyond it is shed. 0 = unbounded backlog
  // (no sheds, demand is only deferred).
  uint64_t queue_opages = 0;

  bool enabled() const { return service_opages_per_day > 0; }
};

// Correlated failure domains (ISSUE 10). Devices belong to two orthogonal
// domain axes: a *rack* (placement / power domain, `device / devices_per_rack`)
// and a *manufacturing-batch cohort* (`device % batch_cohorts`). Each axis can
// inject correlated events:
//   - rack power loss: every device in the rack crashes (kPowerLoss) the same
//     simulated day and stays dark for `rack_restart_days`;
//   - batch endurance variance: every device in a cohort shares one latent
//     lognormal wear factor (scales WearModelConfig::coefficient), so whole
//     batches age fast or slow together;
//   - cohort unavailability waves: every device in the cohort pauses I/O
//     (draw-free days, no crash) for `cohort_unavailable_days`.
// All schedules are precomputed at construction from dedicated RNG roots
// (one per feature, forked per rack / per cohort in id order), so they are
// bit-identical at any thread count and under either scheduler engine, and a
// disabled feature draws nothing — every pre-existing output byte-identical.
struct FleetDomainConfig {
  // Devices per rack; 0 — the default — disables the rack axis entirely.
  uint32_t devices_per_rack = 0;
  // Per rack-day probability that the rack loses power (all devices crash).
  double rack_power_loss_per_day = 0.0;
  // Days a rack-crashed device stays dark before Restart() is attempted.
  uint32_t rack_restart_days = 1;
  // Manufacturing-batch cohorts; 0 — the default — disables the cohort axis.
  uint32_t batch_cohorts = 0;
  // Lognormal sigma of the shared per-cohort endurance factor (scales the
  // wear model's RBER growth coefficient). 0 disables batch wear variance.
  double batch_endurance_sigma = 0.0;
  // Per cohort-day probability of a transient-unavailability wave.
  double cohort_unavailable_per_day = 0.0;
  uint32_t cohort_unavailable_days = 1;
  // Proactive health-driven drain: when > 0, a device whose
  // SsdDevice::HealthScore(drain_pec_horizon) falls to or below this is
  // retired ahead of failure (its data migrated off in one day, modeled as a
  // capacity-sized bulk move) instead of being ridden to the brick.
  double drain_health_threshold = 0.0;
  double drain_pec_horizon = 0.25;

  bool rack_events_enabled() const {
    return devices_per_rack > 0 && rack_power_loss_per_day > 0.0;
  }
  bool cohort_wear_enabled() const {
    return batch_cohorts > 0 && batch_endurance_sigma > 0.0;
  }
  bool cohort_waves_enabled() const {
    return batch_cohorts > 0 && cohort_unavailable_per_day > 0.0;
  }
  bool drain_enabled() const { return drain_health_threshold > 0.0; }
  bool enabled() const {
    return rack_events_enabled() || cohort_wear_enabled() ||
           cohort_waves_enabled() || drain_enabled();
  }
};

// Precomputed domain-event calendar: per-rack power-loss days and per-cohort
// wave days (each sorted ascending), plus the per-cohort wear factors. Built
// once at FleetSim construction; slots walk it with slot-local cursors.
struct FleetDomainSchedule {
  std::vector<std::vector<uint32_t>> rack_power_days;
  std::vector<std::vector<uint32_t>> cohort_wave_days;
  std::vector<double> cohort_wear_factor;
};

struct FleetConfig {
  SsdKind kind = SsdKind::kBaseline;
  uint32_t devices = 20;
  FlashGeometry geometry;
  WearModelConfig wear;
  FlashLatencyConfig latency;
  FPageEccGeometry ecc;
  // mDisk size for Salamander kinds (oPages); 0 keeps the factory default.
  uint64_t msize_opages = 0;
  // DRAM-resident L2P window per device (FtlConfig::l2p_cache_entries).
  // 0 — the default — keeps the legacy unbounded in-DRAM map: no map-page
  // writes, no extra wear, every output byte-identical.
  uint64_t l2p_cache_entries = 0;

  // Host writes per device per day, as a fraction of *initial* capacity
  // (drive-writes-per-day). The absolute rate stays constant as devices
  // shrink, concentrating wear — as in production.
  double dwpd = 1.0;
  // Per-device workload imbalance: each device's rate is multiplied by a
  // lognormal(0, dwpd_sigma) draw (shard skew in real deployments). This is
  // what spreads wear-out deaths over a window instead of a cliff.
  double dwpd_sigma = 0.0;
  // Multi-tenant traffic source; disabled (every byte identical) by default.
  // When enabled it supersedes `dwpd`/`dwpd_sigma` as the write-demand
  // source (the imbalance draw still happens, keeping disabled streams
  // untouched, but its product is unused).
  FleetTrafficConfig traffic;
  // Per-device admission control (backlog + daily service cap); disabled —
  // every byte identical — by default. Composes with either demand source:
  // whatever `dwpd` or the traffic engine offers for the day is what joins
  // the backlog.
  FleetQueueConfig queue;
  // Annual rate of random (non-wear) whole-device failures, e.g. 0.01 [28].
  double afr = 0.01;
  uint32_t days = 1000;
  uint32_t sample_every_days = 10;
  uint64_t seed = 1;
  // Worker threads for Run(): 1 = serial, 0 = all hardware threads (resolved
  // via ThreadPool::ResolveThreads, floor of 1). Results are identical for
  // every value — parallelism only changes wall-clock.
  unsigned threads = 1;

  // Simulation engine. Event-driven is the default; lockstep remains as the
  // reference implementation for the exact-equivalence gate. Snapshots and
  // telemetry are bit-identical between the two at any `threads`.
  FleetSchedulerMode scheduler = FleetSchedulerMode::kEventDriven;

  // ---- Transient power loss (crash-restart recovery) -----------------------
  // Daily probability that a functioning device loses power and goes dark
  // (SsdDevice::Crash(kPowerLoss)) — distinct from `afr`, which models
  // permanent failures. The draw comes from the device's own injector
  // (FaultSite::kPowerLoss, forked in device-ID order), so outage schedules
  // are bit-identical at any `threads`. 0 — the default — attaches nothing
  // and draws nothing: every pre-existing output stays byte-identical.
  double power_loss_per_device_day = 0.0;
  // Simulated days a power-lost device stays dark before Restart() is
  // attempted (rack power restoration latency, at day granularity).
  uint32_t power_loss_restart_days = 1;

  // ---- Correlated failure domains + proactive drain (ISSUE 10) -------------
  // Disabled by default (every field zero): no extra RNG roots, no schedule,
  // every pre-existing output byte-identical.
  FleetDomainConfig domain;

  // ---- Telemetry hooks (not owned; nullptr = zero-cost detached) -----------
  // All recording happens on the owning thread at day barriers (per-slot
  // sharded counters aside, which workers write race-free), so attached
  // telemetry is bit-identical at any `threads` value.

  // Scraped with CollectMetrics() ("fleet.*" plus the per-device subtrees)
  // when Run() finishes.
  MetricRegistry* metrics = nullptr;
  // Sampled once per simulated day: device health, live mDisk count,
  // revived capacity, event-queue depth, injected-fault totals.
  TimeSeriesSampler* sampler = nullptr;
  // Day spans, device-death instants, and fleet counter tracks
  // (1 simulated day = kTraceUsPerDay of trace time).
  TraceRecorder* trace = nullptr;
  uint32_t trace_tid = 0;
};

// Rejects a FleetConfig the simulator cannot run: `days` and
// `sample_every_days` below 1; `afr`, `power_loss_per_device_day` or a
// domain per-day rate (rack power loss, cohort unavailability) outside
// [0, 1]; a negative `dwpd` or `dwpd_sigma`. An empty fleet (`devices` 0) is
// a valid degenerate run. The FleetSim constructor aborts on any violation
// in every build mode.
Status ValidateFleetConfig(const FleetConfig& config);

// True when some power loss can reach a device of this fleet: rack power
// events are enabled, or `power_loss_per_device_day` is above zero. These are
// the only two paths on which the fleet calls SsdDevice::Crash(kPowerLoss),
// and the fleet journals its devices' FTLs (FtlConfig::journaled) exactly
// when this holds — a fleet no power loss can reach pays for no journal.
bool FleetPowerLossPossible(const FleetConfig& config);

struct FleetSnapshot {
  uint32_t day = 0;
  uint32_t functioning_devices = 0;
  uint64_t capacity_bytes = 0;
  uint64_t cumulative_decommissions = 0;  // mDisk-level failures so far
  uint64_t cumulative_regenerations = 0;  // mDisks minted by RegenS
  uint64_t cumulative_host_writes = 0;    // oPages

  friend bool operator==(const FleetSnapshot&, const FleetSnapshot&) = default;
};

class FleetSim {
 public:
  // Trace-time scale: one simulated day = 1000 us, so a full 4000-day run
  // spans 4 ms of viewer time (see DESIGN.md "Telemetry").
  static constexpr uint64_t kTraceUsPerDay = 1000;

  explicit FleetSim(const FleetConfig& config);

  // Runs the full horizon (or until every device is dead) and returns one
  // snapshot per sampling interval, starting with day 0.
  std::vector<FleetSnapshot> Run();

  // Day on which the fleet first dropped below `fraction` of its devices;
  // std::nullopt if it never did. Valid after Run().
  std::optional<uint32_t> DayDevicesBelow(double fraction) const;
  // Day on which fleet capacity first dropped below `fraction` of initial;
  // std::nullopt if it never did.
  std::optional<uint32_t> DayCapacityBelow(double fraction) const;

  const std::vector<FleetSnapshot>& snapshots() const { return snapshots_; }

  // Admission-queue totals (sums over devices). Valid after Run(); all zero
  // when the queue is disabled.
  uint64_t queue_admitted_total() const;
  uint64_t queue_served_total() const;
  uint64_t queue_shed_total() const;
  // Demand currently parked in backlogs (admitted but not yet served).
  uint64_t queue_backlog_total() const;

  // Failure-domain totals (sums over devices). Valid after Run(); all zero
  // when the corresponding domain feature is disabled.
  uint64_t rack_crashes_total() const;
  uint64_t cohort_pause_days_total() const;
  uint32_t drained_devices() const;
  uint64_t drain_migrated_bytes_total() const;
  // The precomputed domain-event calendar (empty when the axes are off).
  const FleetDomainSchedule& domain_schedule() const { return domain_schedule_; }

  // Power-loss totals (sums over devices). Valid after Run(); all zero when
  // power loss is not injected.
  uint64_t power_losses_total() const;
  uint64_t restarts_total() const;
  uint64_t restart_failures_total() const;
  // Devices currently dark from a transient power loss.
  uint32_t dark_devices() const;

  // Event-scheduler accounting. Valid after Run(); all zero under lockstep.
  FleetSchedulerStats scheduler_stats() const;

  // Order-independent digest of one device's complete post-run state: the
  // FTL StateDigest plus the fleet-level flags and counters the slot owns
  // (liveness, darkness, outage ledger). Two engines that
  // agree on every digest simulated identical histories; the lockstep-vs-
  // event-driven equivalence gate diffs these per device.
  uint64_t DeviceDigest(uint32_t device) const;
  std::vector<uint64_t> DeviceDigests() const;

  // Scrapes fleet-level instruments into "<prefix>fleet.*" and every
  // device's "<prefix>ssd.*"/"<prefix>ftl.*"/"<prefix>flash.*" subtree
  // (additive, so N devices aggregate into fleet totals — see
  // telemetry/collect.h). Called automatically at the end of Run() when
  // FleetConfig::metrics is attached.
  void CollectMetrics(MetricRegistry& registry,
                      const std::string& prefix = "") const;

 private:
  struct DeviceSlot {
    std::unique_ptr<SsdDevice> device;
    std::unique_ptr<AgingDriver> driver;
    // Private stream for fleet-level draws against this device (today: the
    // daily AFR trial). Owned by the slot so that stepping one device never
    // consumes another device's randomness — the property that makes
    // parallel runs bit-identical to serial ones.
    Rng rng;
    // The device's injector, attached only when power_loss_per_device_day
    // > 0 and armed with that probability alone; same object
    // SsdConfig::faults holds. Kept here because the fleet draws
    // LosesPower() from it, which mutates the site stream.
    std::shared_ptr<FaultInjector> faults;
    uint64_t writes_per_day = 0;
    bool random_failure = false;  // killed by the AFR draw
    bool alive = true;

    // ---- Transient power loss (used only when power loss is injected) ------
    bool dark = false;            // powered off, waiting out the outage
    uint32_t dark_until_day = 0;  // first day Restart() is attempted
    uint64_t power_losses = 0;
    uint64_t restarts = 0;
    uint64_t restart_failures = 0;  // journal replay failed: device gone

    // ---- Failure-domain state (used only when the domain axis is on) -------
    // Slot-local cursors into the precomputed schedule; advanced only while
    // stepping this slot, so they are monotone and thread-invariant under
    // both engines.
    uint32_t rack = 0;                // device / devices_per_rack
    uint32_t cohort = 0;              // device % batch_cohorts
    size_t rack_event_cursor = 0;     // next unconsumed rack_power_days entry
    size_t cohort_wave_cursor = 0;    // next unconsumed cohort_wave_days entry
    uint32_t paused_until_day = 0;    // cohort wave: first day I/O resumes
    uint64_t rack_crashes = 0;        // rack power-loss crashes of this device
    uint64_t cohort_pause_days = 0;   // device-days lost to cohort waves
    // Proactive drain: retired ahead of failure by the health threshold.
    bool drained = false;
    uint64_t drain_migrated_bytes = 0;  // live capacity moved off at drain

    // ---- Traffic engine (allocated only when traffic is enabled) -----------
    // Seeded by the 4th per-device fork, still in device-ID order;
    // slot-local, touched only by the worker stepping this slot.
    std::unique_ptr<TrafficEngine> traffic;

    // ---- Admission-control queue (used only when the queue is enabled) -----
    // Pure counters, no RNG; touched only by the worker stepping this slot.
    uint64_t queue_backlog_opages = 0;  // demand admitted but not yet served
    uint64_t queue_admitted_opages = 0;
    uint64_t queue_served_opages = 0;
    uint64_t queue_shed_opages = 0;
    uint64_t queue_backlog_peak = 0;

    // ---- Event-scheduler state (slot-local; written only by the worker
    // executing this slot's event, read by the owner at batch barriers) -----
    uint32_t death_day = 0;        // day `alive` flipped false (if it did)
    uint64_t days_stepped = 0;     // device-days this slot actually simulated
    uint64_t dark_days_skipped = 0;  // dark device-days jumped over
    bool has_next_event = false;   // follow-up event to post at the barrier
    FleetEvent next_event;
  };

  // Advances one device by one day. Touches only `slot` state plus shard
  // `shard` of the counters (each slot has its own shard); safe to call
  // concurrently for distinct slots. The counters may be null (telemetry
  // detached). `restart_days` is the power-loss outage length; a dark day
  // performs zero RNG draws so outage schedules stay bit-identical across
  // `threads`.
  static void StepDevice(DeviceSlot& slot, uint32_t day, double daily_failure,
                         uint32_t restart_days,
                         const FleetQueueConfig& queue,
                         const FleetDomainConfig& domain,
                         const FleetDomainSchedule* schedule, size_t shard,
                         ShardedCounter* steps, ShardedCounter* opages);

  // Executes one scheduler event: advances the device day by day from
  // `event.day` through `window_end` with exact lockstep per-day semantics
  // (same draws, in the same order), jumping over dark days (which lockstep
  // makes draw-free no-ops) in O(1). Leaves the follow-up event, if any, in
  // slot.next_event for the owner to post at the barrier. Same thread-safety
  // contract as StepDevice.
  static void ExecuteEvent(DeviceSlot& slot, const FleetEvent& event,
                           uint32_t window_end, uint32_t horizon_days,
                           double daily_failure, uint32_t restart_days,
                           const FleetQueueConfig& queue,
                           const FleetDomainConfig& domain,
                           const FleetDomainSchedule* schedule,
                           ShardedCounter* steps, ShardedCounter* opages);

  // The two engines behind Run(). Both produce identical snapshots_ and
  // telemetry; the event-driven one skips dead/dark device-days.
  std::vector<FleetSnapshot> RunLockstep();
  std::vector<FleetSnapshot> RunEventDriven();

  // Shared Run() prologue: clears snapshots_, records day 0, arms the
  // telemetry plumbing. Returns the per-day AFR hazard.
  double PrepareRun();

  FleetSnapshot Sample(uint32_t day) const;

  bool telemetry_attached() const {
    return config_.metrics != nullptr || config_.sampler != nullptr ||
           config_.trace != nullptr;
  }
  // Registers the daily probes on config_.sampler (no-op when detached).
  void RegisterSamplerProbes();
  // Owner-thread telemetry for one finished day: drains the sharded
  // counters, emits the day span / death instants / counter tracks, and
  // samples the time series. `alive_before` is each slot's liveness at the
  // start of the day, in slot order.
  void RecordDayTelemetry(uint32_t day, const std::vector<uint8_t>& alive_before);

  uint64_t TotalPendingEventDepth() const;
  uint64_t TotalFaultsInjected() const;

  FleetConfig config_;
  std::vector<DeviceSlot> slots_;
  std::vector<FleetSnapshot> snapshots_;
  FleetDomainSchedule domain_schedule_;
  uint64_t initial_capacity_ = 0;

  // Per-slot sharded day counters, allocated only while telemetry is
  // attached; drained into the cumulative totals below at each day barrier.
  std::unique_ptr<ShardedCounter> day_steps_;
  std::unique_ptr<ShardedCounter> day_opages_;
  uint64_t device_days_stepped_ = 0;
  uint64_t host_opages_written_ = 0;

  // Queue-level scheduler accounting (owner thread only; zero in lockstep).
  FleetSchedulerStats scheduler_stats_;
};

}  // namespace salamander

#endif  // SALAMANDER_FLEET_FLEET_SIM_H_
