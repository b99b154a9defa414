#include "fleet/fleet_sim.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/thread_pool.h"
#include "telemetry/collect.h"

namespace salamander {

namespace {

// NaN fails both comparisons, so it is rejected too.
bool InUnitInterval(double p) { return p >= 0.0 && p <= 1.0; }

}  // namespace

Status ValidateFleetConfig(const FleetConfig& config) {
  if (config.days < 1) {
    return InvalidArgumentError("days must be >= 1");
  }
  if (config.sample_every_days < 1) {
    return InvalidArgumentError("sample_every_days must be >= 1");
  }
  if (!InUnitInterval(config.afr)) {
    return InvalidArgumentError("afr must be in [0, 1]");
  }
  if (!InUnitInterval(config.power_loss_per_device_day)) {
    return InvalidArgumentError("power_loss_per_device_day must be in [0, 1]");
  }
  if (!InUnitInterval(config.domain.rack_power_loss_per_day)) {
    return InvalidArgumentError(
        "domain.rack_power_loss_per_day must be in [0, 1]");
  }
  if (!InUnitInterval(config.domain.cohort_unavailable_per_day)) {
    return InvalidArgumentError(
        "domain.cohort_unavailable_per_day must be in [0, 1]");
  }
  if (!(config.dwpd >= 0.0)) {
    return InvalidArgumentError("dwpd must be >= 0");
  }
  if (!(config.dwpd_sigma >= 0.0)) {
    return InvalidArgumentError("dwpd_sigma must be >= 0");
  }
  return OkStatus();
}

bool FleetPowerLossPossible(const FleetConfig& config) {
  return config.domain.rack_events_enabled() ||
         config.power_loss_per_device_day > 0.0;
}

FleetSim::FleetSim(const FleetConfig& config) : config_(config) {
  const Status valid = ValidateFleetConfig(config_);
  if (!valid.ok()) {
    std::fprintf(stderr, "FleetSim: invalid config: %s\n",
                 valid.message().c_str());
    std::abort();
  }
  // Domain-event calendar first. Each domain feature owns a dedicated RNG
  // root (never the fleet root below), forked per rack / per cohort in id
  // order, so schedules depend only on (seed, feature, rack-or-cohort id) —
  // never on device streams or on each other — and a disabled feature builds
  // nothing and draws nothing.
  const FleetDomainConfig& domain = config_.domain;
  const uint32_t per_rack =
      domain.devices_per_rack == 0 ? 1 : domain.devices_per_rack;
  if (domain.rack_events_enabled()) {
    const uint32_t racks = (config_.devices + per_rack - 1) / per_rack;
    Rng rack_root(config_.seed ^ 0xd0a1d0a1d0a1d0a1ULL);
    domain_schedule_.rack_power_days.resize(racks);
    for (uint32_t r = 0; r < racks; ++r) {
      Rng rack_rng = rack_root.Fork();
      for (uint32_t day = 1; day <= config_.days; ++day) {
        if (rack_rng.Bernoulli(domain.rack_power_loss_per_day)) {
          domain_schedule_.rack_power_days[r].push_back(day);
        }
      }
    }
  }
  if (domain.cohort_wear_enabled()) {
    // One latent endurance factor per manufacturing batch: every device in
    // the cohort shares it, so whole batches age fast or slow together.
    Rng wear_root(config_.seed ^ 0xd0a2d0a2d0a2d0a2ULL);
    domain_schedule_.cohort_wear_factor.resize(domain.batch_cohorts);
    for (uint32_t c = 0; c < domain.batch_cohorts; ++c) {
      Rng cohort_rng = wear_root.Fork();
      domain_schedule_.cohort_wear_factor[c] =
          cohort_rng.LogNormal(0.0, domain.batch_endurance_sigma);
    }
  }
  if (domain.cohort_waves_enabled()) {
    Rng wave_root(config_.seed ^ 0xd0a3d0a3d0a3d0a3ULL);
    domain_schedule_.cohort_wave_days.resize(domain.batch_cohorts);
    for (uint32_t c = 0; c < domain.batch_cohorts; ++c) {
      Rng cohort_rng = wave_root.Fork();
      for (uint32_t day = 1; day <= config_.days; ++day) {
        if (cohort_rng.Bernoulli(domain.cohort_unavailable_per_day)) {
          domain_schedule_.cohort_wave_days[c].push_back(day);
        }
      }
    }
  }
  // Root of the fleet's RNG tree. Every stream any device will ever use is
  // forked from it here, in device-ID order, so stream identity depends only
  // on (seed, device index) — never on how other devices consume randomness
  // or on the order in which devices are later stepped.
  Rng fleet_rng(config_.seed ^ 0xf1ee7f1ee7f1ee70ULL);
  const bool journaled = FleetPowerLossPossible(config_);
  slots_.reserve(config_.devices);
  for (uint32_t i = 0; i < config_.devices; ++i) {
    DeviceSlot slot;
    slot.rack = i / per_rack;
    slot.cohort = domain.batch_cohorts > 0 ? i % domain.batch_cohorts : 0;
    slot.rng = fleet_rng.Fork();
    const uint64_t device_seed = fleet_rng.ForkSeed();
    const uint64_t driver_seed = fleet_rng.ForkSeed();
    WearModelConfig wear = config_.wear;
    if (domain.cohort_wear_enabled()) {
      // Batch variance scales the RBER growth coefficient (not the per-page
      // factor), so it shifts every page of the cohort's devices coherently.
      wear.coefficient *= domain_schedule_.cohort_wear_factor[slot.cohort];
    }
    // RegenS devices keep MakeSsdConfig's default level cap (1, the paper's
    // recommended L < 2).
    SsdConfig ssd_config =
        MakeSsdConfig(config_.kind, config_.geometry, wear,
                      config_.latency, config_.ecc, device_seed);
    if (config_.msize_opages > 0 &&
        (config_.kind == SsdKind::kShrinkS ||
         config_.kind == SsdKind::kRegenS)) {
      ssd_config.minidisk.msize_opages = config_.msize_opages;
    }
    ssd_config.ftl.l2p_cache_entries = config_.l2p_cache_entries;
    ssd_config.ftl.journaled = journaled;
    if (config_.power_loss_per_device_day > 0.0) {
      // Power loss rides the per-device injector so its draws follow the
      // fork-in-id-order discipline; every other site keeps probability 0
      // and therefore draws nothing.
      FaultConfig faults;
      faults.power_loss = config_.power_loss_per_device_day;
      slot.faults = std::make_shared<FaultInjector>(faults, i);
      ssd_config.faults = slot.faults;
    }
    slot.device = std::make_unique<SsdDevice>(config_.kind, ssd_config);
    AgingConfig aging;
    if (config_.traffic.enabled()) {
      // Tenant skew reaches flash through the driver's address stream: the
      // zipfian-hot fraction of oPage writes lands on a hot subset of live
      // mDisks at the tenant template's theta.
      aging.zipfian_fraction = FleetTrafficConfig::kDeviceZipfianFraction;
      aging.zipfian_theta = config_.traffic.tenant.zipf_theta;
    }
    slot.driver =
        std::make_unique<AgingDriver>(slot.device.get(), driver_seed, aging);
    initial_capacity_ += slot.device->live_capacity_bytes();
    const uint64_t per_device_opages =
        slot.device->initial_capacity_bytes() / config_.geometry.opage_bytes;
    const double imbalance =
        config_.dwpd_sigma > 0.0
            ? slot.rng.LogNormal(0.0, config_.dwpd_sigma)
            : 1.0;
    slot.writes_per_day = static_cast<uint64_t>(
        config_.dwpd * imbalance * static_cast<double>(per_device_opages));
    if (config_.traffic.enabled()) {
      // 4th fork per device, still in device-ID order; disabled traffic
      // forks nothing, keeping every pre-existing stream byte-identical.
      const uint64_t traffic_seed = fleet_rng.ForkSeed();
      slot.traffic = std::make_unique<TrafficEngine>(
          MakeUniformTraffic(config_.traffic.tenants_per_device,
                             config_.traffic.tenant, traffic_seed,
                             FleetTrafficConfig::kMixedArrivals),
          std::max<uint64_t>(1, per_device_opages));
    }
    slots_.push_back(std::move(slot));
  }
}

FleetSnapshot FleetSim::Sample(uint32_t day) const {
  FleetSnapshot snapshot;
  snapshot.day = day;
  for (const DeviceSlot& slot : slots_) {
    if (slot.alive && !slot.device->failed()) {
      ++snapshot.functioning_devices;
      snapshot.capacity_bytes += slot.device->live_capacity_bytes();
    }
    snapshot.cumulative_decommissions +=
        slot.device->manager().decommissioned_total();
    snapshot.cumulative_regenerations +=
        slot.device->manager().regenerated_total();
    snapshot.cumulative_host_writes += slot.device->ftl().stats().host_writes;
  }
  return snapshot;
}

void FleetSim::StepDevice(DeviceSlot& slot, uint32_t day,
                          double daily_failure, uint32_t restart_days,
                          const FleetQueueConfig& queue,
                          const FleetDomainConfig& domain,
                          const FleetDomainSchedule* schedule, size_t shard,
                          ShardedCounter* steps, ShardedCounter* opages) {
  if (slot.dark) {
    // Dark from a transient power loss: powered off, so no I/O and no RNG
    // draws — the device's streams stay frozen until the restart day, which
    // keeps outage schedules bit-identical at any `threads`.
    if (day < slot.dark_until_day) {
      return;
    }
    slot.dark = false;
    if (slot.device->Restart().ok()) {
      ++slot.restarts;
    } else {
      // Journal replay failed (or the outage was upgraded to a brick while
      // dark): the device never comes back.
      ++slot.restart_failures;
      slot.alive = false;
      return;
    }
  }
  if (!slot.alive || slot.device->failed()) {
    slot.alive = false;
    return;
  }
  if (schedule != nullptr) {
    // Correlated domain events, from the precomputed calendar — zero RNG
    // draws on the triggered day, so schedules stay bit-identical at any
    // thread count and under either engine. The slot-local cursors skip days
    // missed while the device was dark or dead (an outage cannot re-fire).
    if (slot.rack < schedule->rack_power_days.size()) {
      const std::vector<uint32_t>& days =
          schedule->rack_power_days[slot.rack];
      while (slot.rack_event_cursor < days.size() &&
             days[slot.rack_event_cursor] < day) {
        ++slot.rack_event_cursor;
      }
      if (slot.rack_event_cursor < days.size() &&
          days[slot.rack_event_cursor] == day) {
        // Rack power pulled: every device in the rack crashes this same
        // simulated day and stays dark until rack power is restored. The
        // calendar exists only when rack events are enabled — one arm of
        // FleetPowerLossPossible, so this device's FTL is journaled.
        ++slot.rack_event_cursor;
        slot.device->Crash(SsdDevice::CrashKind::kPowerLoss);
        slot.dark = true;
        slot.dark_until_day = day + domain.rack_restart_days;
        ++slot.rack_crashes;
        ++slot.power_losses;
        return;
      }
    }
    if (slot.cohort < schedule->cohort_wave_days.size()) {
      const std::vector<uint32_t>& days =
          schedule->cohort_wave_days[slot.cohort];
      while (slot.cohort_wave_cursor < days.size() &&
             days[slot.cohort_wave_cursor] < day) {
        ++slot.cohort_wave_cursor;
      }
      if (slot.cohort_wave_cursor < days.size() &&
          days[slot.cohort_wave_cursor] == day) {
        ++slot.cohort_wave_cursor;
        const uint32_t span = std::max(1u, domain.cohort_unavailable_days);
        slot.paused_until_day = std::max(slot.paused_until_day, day + span);
      }
    }
    if (day < slot.paused_until_day) {
      // Cohort-unavailability wave: the device pauses (no I/O, no draws, no
      // crash) — its streams stay frozen exactly like a dark day's.
      ++slot.cohort_pause_days;
      return;
    }
  }
  if (slot.rng.Bernoulli(daily_failure)) {
    // Random infant/controller failure, independent of wear.
    slot.random_failure = true;
    slot.alive = false;
    return;
  }
  if (slot.faults != nullptr && slot.faults->LosesPower()) {
    // Power pulled: the device goes dark silently for `restart_days`; the
    // rest of this day's writes is lost to the outage. The injector exists
    // only at power_loss_per_device_day > 0 — the other arm of
    // FleetPowerLossPossible, so this device's FTL is journaled.
    slot.device->Crash(SsdDevice::CrashKind::kPowerLoss);
    slot.dark = true;
    slot.dark_until_day = day + restart_days;
    ++slot.power_losses;
    return;
  }
  // Traffic-driven fleets take the day's write demand from the slot's
  // tenant engine (variable: diurnal swings, bursts, churn); flat fleets
  // keep the fixed dwpd-derived budget. Only days that reach this point
  // advance the engine, so lockstep and event scheduling — which step the
  // same alive-day sequence — see identical demand streams.
  uint64_t day_writes = slot.traffic != nullptr
                            ? slot.traffic->DayWriteDemand(day)
                            : slot.writes_per_day;
  if (queue.enabled()) {
    // Admission control: the day's demand joins the backlog (bounded —
    // overflow is shed, never written) and the service capacity decides how
    // much actually reaches flash today. Pure slot-local arithmetic, no RNG,
    // so both engines at any thread count agree bit for bit.
    uint64_t admitted = day_writes;
    if (queue.queue_opages > 0) {
      const uint64_t room = queue.queue_opages - std::min(
          queue.queue_opages, slot.queue_backlog_opages);
      admitted = std::min(admitted, room);
    }
    slot.queue_shed_opages += day_writes - admitted;
    slot.queue_admitted_opages += admitted;
    slot.queue_backlog_opages += admitted;
    slot.queue_backlog_peak =
        std::max(slot.queue_backlog_peak, slot.queue_backlog_opages);
    const uint64_t served =
        std::min(slot.queue_backlog_opages, queue.service_opages_per_day);
    slot.queue_backlog_opages -= served;
    slot.queue_served_opages += served;
    day_writes = served;
  }
  AgingResult result = slot.driver->WriteOPages(day_writes);
  if (result.device_failed) {
    slot.alive = false;
  }
  if (domain.drain_enabled() && slot.alive && !slot.device->failed() &&
      slot.device->HealthScore(domain.drain_pec_horizon) <=
          domain.drain_health_threshold) {
    // Proactive health-driven retirement: the health score crossed the
    // threshold, so the device is taken out of service *before* it bricks
    // and its surviving data is migrated off (modeled as a capacity-sized
    // bulk move — the fleet has no chunk map, the clusters do the real I/O
    // variant). Pure read + slot state, zero RNG draws.
    slot.drain_migrated_bytes = slot.device->live_capacity_bytes();
    slot.drained = true;
    slot.alive = false;
  }
  // Telemetry counting touches only this slot's shard; null when detached.
  if (steps != nullptr) {
    steps->Increment(shard);
  }
  if (opages != nullptr) {
    opages->Add(shard, result.opages_written);
  }
}

std::vector<FleetSnapshot> FleetSim::Run() {
  return config_.scheduler == FleetSchedulerMode::kLockstep
             ? RunLockstep()
             : RunEventDriven();
}

double FleetSim::PrepareRun() {
  snapshots_.clear();
  snapshots_.push_back(Sample(0));
  scheduler_stats_ = FleetSchedulerStats{};
  if (telemetry_attached()) {
    // One shard per slot: worker threads never share a shard, and the owner
    // drains them at the day barrier.
    day_steps_ = std::make_unique<ShardedCounter>(slots_.size());
    day_opages_ = std::make_unique<ShardedCounter>(slots_.size());
    RegisterSamplerProbes();
    if (config_.sampler != nullptr) {
      config_.sampler->Sample(0.0);
    }
    if (config_.trace != nullptr) {
      config_.trace->NameLane(config_.trace_tid,
                              std::string("fleet:") +
                                  std::string(SsdKindName(config_.kind)));
    }
  }
  // Convert the annual failure rate to a per-day hazard.
  return 1.0 - std::pow(1.0 - config_.afr, 1.0 / 365.0);
}

std::vector<FleetSnapshot> FleetSim::RunLockstep() {
  const double daily_failure = PrepareRun();
  // Null unless a domain feature is on: the disabled path costs nothing and
  // provably touches no slot state.
  const FleetDomainSchedule* schedule =
      config_.domain.enabled() ? &domain_schedule_ : nullptr;
  // Each worker owns a disjoint slice of slots between day barriers; the
  // sampling/merge below runs on this thread after the barrier, in device-ID
  // order. With threads == 1 the pool executes inline (a plain loop).
  ThreadPool pool(config_.threads);
  std::vector<uint8_t> alive_before;
  for (uint32_t day = 1; day <= config_.days; ++day) {
    if (telemetry_attached()) {
      alive_before.resize(slots_.size());
      for (size_t i = 0; i < slots_.size(); ++i) {
        alive_before[i] = slots_[i].alive ? 1 : 0;
      }
    }
    pool.ParallelFor(slots_.size(), [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        StepDevice(slots_[i], day, daily_failure,
                   config_.power_loss_restart_days, config_.queue,
                   config_.domain, schedule, i,
                   day_steps_.get(), day_opages_.get());
      }
    });
    if (telemetry_attached()) {
      RecordDayTelemetry(day, alive_before);
    }
    uint32_t alive = 0;
    for (const DeviceSlot& slot : slots_) {
      alive += slot.alive ? 1 : 0;
    }
    if (day % config_.sample_every_days == 0 || alive == 0 ||
        day == config_.days) {
      snapshots_.push_back(Sample(day));
    }
    if (alive == 0) {
      break;
    }
  }
  if (config_.metrics != nullptr) {
    CollectMetrics(*config_.metrics);
  }
  return snapshots_;
}

void FleetSim::ExecuteEvent(DeviceSlot& slot, const FleetEvent& event,
                            uint32_t window_end, uint32_t horizon_days,
                            double daily_failure, uint32_t restart_days,
                            const FleetQueueConfig& queue,
                            const FleetDomainConfig& domain,
                            const FleetDomainSchedule* schedule,
                            ShardedCounter* steps, ShardedCounter* opages) {
  const size_t shard = event.device;
  uint32_t day = event.day;
  while (day <= window_end) {
    StepDevice(slot, day, daily_failure, restart_days, queue, domain,
               schedule, shard, steps, opages);
    ++slot.days_stepped;
    if (!slot.alive) {
      // Terminal: dead devices post no further events, so the rest of the
      // horizon costs this slot zero work (lockstep keeps visiting it).
      slot.death_day = day;
      return;
    }
    if (slot.dark) {
      // Power pulled this day. Lockstep burns a draw-free no-op call per
      // dark day; jump straight to the restart day instead. With
      // restart_days == 0 the restart still lands on the *next* day, exactly
      // as lockstep's `day < dark_until_day` guard resolves it.
      const uint32_t wake = std::max(day + 1, slot.dark_until_day);
      slot.dark_days_skipped += wake - (day + 1);
      if (wake > window_end) {
        slot.next_event =
            FleetEvent{wake, event.device, FleetEventKind::kRestart};
        slot.has_next_event = true;
        return;
      }
      day = wake;
      continue;
    }
    ++day;
  }
  if (window_end < horizon_days) {
    slot.next_event =
        FleetEvent{window_end + 1, event.device, FleetEventKind::kStep};
    slot.has_next_event = true;
  }
}

std::vector<FleetSnapshot> FleetSim::RunEventDriven() {
  const double daily_failure = PrepareRun();
  const FleetDomainSchedule* schedule =
      config_.domain.enabled() ? &domain_schedule_ : nullptr;
  const bool telemetry = telemetry_attached();
  const uint32_t sample_every = config_.sample_every_days;
  if (slots_.empty()) {
    // Degenerate fleet: lockstep's day-1 pass sees alive == 0 immediately
    // (days >= 1 is validated at construction).
    snapshots_.push_back(Sample(1));
    if (config_.metrics != nullptr) {
      CollectMetrics(*config_.metrics);
    }
    return snapshots_;
  }
  ThreadPool pool(config_.threads);

  // Every device posts its first event; from here on a slot is visited only
  // when its event comes due. Dead devices post nothing, dark devices post
  // their restart day — the jumps that make idle days free.
  FleetEventQueue queue;
  uint32_t alive = 0;
  for (uint32_t i = 0; i < static_cast<uint32_t>(slots_.size()); ++i) {
    queue.Post(FleetEvent{1, i, FleetEventKind::kStep});
    ++alive;
  }
  // Observation stride: with telemetry attached every day is a drain
  // boundary (daily sampler/trace semantics); detached runs only need to
  // synchronize at snapshot days.
  const uint32_t stride = telemetry ? 1 : sample_every;

  std::vector<uint8_t> alive_before;
  const auto capture_alive = [&] {
    alive_before.resize(slots_.size());
    for (size_t i = 0; i < slots_.size(); ++i) {
      alive_before[i] = slots_[i].alive ? 1 : 0;
    }
  };

  uint32_t day_cursor = 0;
  uint32_t last_death_day = 0;
  while (day_cursor < config_.days && alive > 0) {
    const uint32_t window_end = static_cast<uint32_t>(std::min<uint64_t>(
        config_.days, (static_cast<uint64_t>(day_cursor) / stride + 1) *
                          static_cast<uint64_t>(stride)));
    const bool events_due = !queue.empty() && queue.NextDay() <= window_end;
    if (!events_due) {
      // Idle window: every device is dead, or dark beyond this window.
      // No draws and no state changes happen — only the observations
      // lockstep would also make (daily telemetry, periodic snapshots).
      ++scheduler_stats_.idle_windows;
      if (telemetry) {
        capture_alive();
        RecordDayTelemetry(window_end, alive_before);
      }
      if (window_end % sample_every == 0 || window_end == config_.days) {
        snapshots_.push_back(Sample(window_end));
      }
      day_cursor = window_end;
      continue;
    }

    if (telemetry) {
      capture_alive();
    }
    const std::vector<FleetEvent> batch = queue.PopThrough(window_end);
    ++scheduler_stats_.batches;
    scheduler_stats_.events += batch.size();
    // Same-day event batches execute on the pool: each event touches only
    // its own slot (plus that slot's counter shard), and follow-up events
    // are posted by the owner below in canonical batch order, so the run is
    // bit-identical at any thread count.
    pool.ParallelFor(batch.size(), [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        ExecuteEvent(slots_[batch[i].device], batch[i], window_end,
                     config_.days, daily_failure,
                     config_.power_loss_restart_days, config_.queue,
                     config_.domain, schedule,
                     day_steps_.get(), day_opages_.get());
      }
    });
    for (const FleetEvent& event : batch) {
      DeviceSlot& slot = slots_[event.device];
      if (slot.has_next_event) {
        queue.Post(slot.next_event);
        slot.has_next_event = false;
      } else if (!slot.alive) {
        --alive;
        last_death_day = std::max(last_death_day, slot.death_day);
      }
    }
    if (telemetry) {
      RecordDayTelemetry(window_end, alive_before);
    }
    uint32_t sample_day = window_end;
    if (alive == 0) {
      // Exact lockstep early-stop semantics: the reported day is the day the
      // last device died, which can precede the window barrier — stepping
      // past it was all dead-device no-ops, so state already matches.
      sample_day = last_death_day;
    }
    if (sample_day % sample_every == 0 || alive == 0 ||
        sample_day == config_.days) {
      snapshots_.push_back(Sample(sample_day));
    }
    day_cursor = window_end;
  }
  if (config_.metrics != nullptr) {
    CollectMetrics(*config_.metrics);
  }
  return snapshots_;
}

FleetSchedulerStats FleetSim::scheduler_stats() const {
  FleetSchedulerStats stats = scheduler_stats_;
  for (const DeviceSlot& slot : slots_) {
    stats.days_stepped += slot.days_stepped;
    stats.dark_days_skipped += slot.dark_days_skipped;
  }
  return stats;
}

uint64_t FleetSim::DeviceDigest(uint32_t device) const {
  const DeviceSlot& slot = slots_[device];
  uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto mix = [&digest](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (value >> (byte * 8)) & 0xff;
      digest *= 0x100000001b3ULL;
    }
  };
  mix(slot.device->ftl().StateDigest());
  mix(slot.alive ? 1 : 0);
  mix(slot.dark ? 1 : 0);
  mix(slot.random_failure ? 1 : 0);
  mix(slot.dark_until_day);
  mix(slot.power_losses);
  mix(slot.restarts);
  mix(slot.restart_failures);
  mix(slot.device->live_capacity_bytes());
  mix(slot.device->manager().decommissioned_total());
  mix(slot.device->manager().regenerated_total());
  mix(slot.device->ftl().stats().host_writes);
  if (slot.traffic != nullptr) {
    // Mixed only when traffic is enabled so disabled-fleet digests stay
    // byte-identical to pre-traffic builds.
    mix(slot.traffic->StreamDigest());
    mix(slot.traffic->ops_emitted());
    mix(slot.traffic->writes_emitted());
  }
  if (config_.queue.enabled()) {
    // Same rule as traffic: the admission ledger joins the digest only when
    // the queue exists, keeping disabled-fleet digests byte-identical.
    mix(slot.queue_backlog_opages);
    mix(slot.queue_admitted_opages);
    mix(slot.queue_served_opages);
    mix(slot.queue_shed_opages);
    mix(slot.queue_backlog_peak);
  }
  if (config_.domain.enabled()) {
    // Same rule again: the failure-domain ledger joins only when a domain
    // feature is on, keeping pre-domain digests byte-identical.
    mix(slot.rack_crashes);
    mix(slot.cohort_pause_days);
    mix(slot.paused_until_day);
    mix(slot.drained ? 1 : 0);
    mix(slot.drain_migrated_bytes);
  }
  return digest;
}

std::vector<uint64_t> FleetSim::DeviceDigests() const {
  std::vector<uint64_t> digests;
  digests.reserve(slots_.size());
  for (uint32_t i = 0; i < static_cast<uint32_t>(slots_.size()); ++i) {
    digests.push_back(DeviceDigest(i));
  }
  return digests;
}

void FleetSim::RegisterSamplerProbes() {
  if (config_.sampler == nullptr) {
    return;
  }
  TimeSeriesSampler& sampler = *config_.sampler;
  sampler.AddProbe("fleet.functioning_devices", [this] {
    uint32_t alive = 0;
    for (const DeviceSlot& slot : slots_) {
      alive += (slot.alive && !slot.device->failed()) ? 1 : 0;
    }
    return static_cast<double>(alive);
  });
  sampler.AddProbe("fleet.capacity_bytes", [this] {
    uint64_t capacity = 0;
    for (const DeviceSlot& slot : slots_) {
      if (slot.alive && !slot.device->failed()) {
        capacity += slot.device->live_capacity_bytes();
      }
    }
    return static_cast<double>(capacity);
  });
  sampler.AddProbe("fleet.live_minidisks", [this] {
    uint64_t live = 0;
    for (const DeviceSlot& slot : slots_) {
      live += slot.device->live_minidisks();
    }
    return static_cast<double>(live);
  });
  sampler.AddProbe("fleet.decommissioned_total", [this] {
    uint64_t total = 0;
    for (const DeviceSlot& slot : slots_) {
      total += slot.device->manager().decommissioned_total();
    }
    return static_cast<double>(total);
  });
  // Revived capacity: mDisks minted by RegenS, in bytes.
  sampler.AddProbe("fleet.regenerated_bytes", [this] {
    uint64_t total = 0;
    for (const DeviceSlot& slot : slots_) {
      total += slot.device->manager().regenerated_total() *
               slot.device->msize_opages() *
               config_.geometry.opage_bytes;
    }
    return static_cast<double>(total);
  });
  sampler.AddProbe("fleet.pending_event_depth", [this] {
    return static_cast<double>(TotalPendingEventDepth());
  });
  sampler.AddProbe("fleet.faults_injected_total", [this] {
    return static_cast<double>(TotalFaultsInjected());
  });
  // Queue probes only exist when admission control runs: a disabled queue
  // must leave sampler CSVs (and thus every existing bench artifact)
  // byte-identical.
  if (config_.queue.enabled()) {
    sampler.AddProbe("fleet.sched.backlog_opages", [this] {
      return static_cast<double>(queue_backlog_total());
    });
    sampler.AddProbe("fleet.sched.shed_opages_total", [this] {
      return static_cast<double>(queue_shed_total());
    });
  }
  // Domain probes only exist when the corresponding domain feature is on,
  // for the same byte-identity reason as the queue probes above.
  if (config_.domain.rack_events_enabled()) {
    sampler.AddProbe("fleet.domain.rack_crashes_total", [this] {
      return static_cast<double>(rack_crashes_total());
    });
  }
  if (config_.domain.cohort_waves_enabled()) {
    sampler.AddProbe("fleet.domain.cohort_pause_days_total", [this] {
      return static_cast<double>(cohort_pause_days_total());
    });
  }
  if (config_.domain.drain_enabled()) {
    sampler.AddProbe("fleet.drain.drained_devices", [this] {
      return static_cast<double>(drained_devices());
    });
  }
  // Power-loss probes only exist when power loss is injected, for the same
  // byte-identity reason as the queue probes above.
  if (config_.power_loss_per_device_day > 0.0) {
    sampler.AddProbe("fleet.dark_devices", [this] {
      return static_cast<double>(dark_devices());
    });
    sampler.AddProbe("fleet.power_losses_total", [this] {
      return static_cast<double>(power_losses_total());
    });
    sampler.AddProbe("fleet.restarts_total", [this] {
      return static_cast<double>(restarts_total());
    });
  }
}

void FleetSim::RecordDayTelemetry(uint32_t day,
                                  const std::vector<uint8_t>& alive_before) {
  // Owner thread, after the day barrier: drain the per-slot shards into the
  // cumulative totals (shard order, so totals are reproducible bit for bit).
  device_days_stepped_ += day_steps_->Total();
  host_opages_written_ += day_opages_->Total();
  day_steps_->Reset();
  day_opages_->Reset();
  if (config_.trace != nullptr) {
    const uint64_t start_us = static_cast<uint64_t>(day - 1) * kTraceUsPerDay;
    config_.trace->Span("day " + std::to_string(day), "fleet", start_us,
                        kTraceUsPerDay, config_.trace_tid);
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (alive_before[i] != 0 && !slots_[i].alive) {
        config_.trace->Instant(
            (slots_[i].random_failure ? "device_death:random:"
             : slots_[i].drained     ? "device_death:drained:"
                                      : "device_death:wear:") +
                std::to_string(i),
            "fleet", start_us + kTraceUsPerDay, config_.trace_tid);
      }
    }
    uint32_t alive = 0;
    uint64_t capacity = 0;
    for (const DeviceSlot& slot : slots_) {
      if (slot.alive && !slot.device->failed()) {
        ++alive;
        capacity += slot.device->live_capacity_bytes();
      }
    }
    config_.trace->CounterSample("functioning_devices",
                                 start_us + kTraceUsPerDay,
                                 static_cast<double>(alive),
                                 config_.trace_tid);
    config_.trace->CounterSample("capacity_bytes", start_us + kTraceUsPerDay,
                                 static_cast<double>(capacity),
                                 config_.trace_tid);
  }
  if (config_.sampler != nullptr) {
    config_.sampler->Sample(static_cast<double>(day));
  }
}

uint64_t FleetSim::TotalPendingEventDepth() const {
  uint64_t depth = 0;
  for (const DeviceSlot& slot : slots_) {
    depth += slot.device->pending_event_depth();
  }
  return depth;
}

uint64_t FleetSim::TotalFaultsInjected() const {
  uint64_t total = 0;
  for (const DeviceSlot& slot : slots_) {
    if (slot.device->faults() != nullptr) {
      total += slot.device->faults()->stats().total();
    }
  }
  return total;
}

void FleetSim::CollectMetrics(MetricRegistry& registry,
                              const std::string& prefix) const {
  registry.GetGauge(prefix + "fleet.devices")
      .Add(static_cast<double>(config_.devices));
  uint32_t alive = 0;
  uint64_t capacity = 0;
  uint64_t random_failures = 0;
  uint64_t wear_failures = 0;
  for (const DeviceSlot& slot : slots_) {
    const bool functioning = slot.alive && !slot.device->failed();
    if (functioning) {
      ++alive;
      capacity += slot.device->live_capacity_bytes();
    } else if (slot.random_failure) {
      ++random_failures;
    } else if (slot.drained) {
      // Proactively retired, not a wear death — counted in the gated
      // fleet.drain.* block below. slot.drained is only ever set when the
      // drain knob is on, so wear_failures is unchanged at defaults.
    } else {
      ++wear_failures;
    }
  }
  registry.GetGauge(prefix + "fleet.functioning_devices")
      .Add(static_cast<double>(alive));
  registry.GetGauge(prefix + "fleet.capacity_bytes")
      .Add(static_cast<double>(capacity));
  registry.GetGauge(prefix + "fleet.initial_capacity_bytes")
      .Add(static_cast<double>(initial_capacity_));
  registry.GetCounter(prefix + "fleet.random_failures").Add(random_failures);
  registry.GetCounter(prefix + "fleet.wear_failures").Add(wear_failures);
  registry.GetCounter(prefix + "fleet.device_days_stepped")
      .Add(device_days_stepped_);
  registry.GetCounter(prefix + "fleet.host_opages_written")
      .Add(host_opages_written_);
  registry.GetGauge(prefix + "fleet.pending_event_depth")
      .Add(static_cast<double>(TotalPendingEventDepth()));
  // Scheduler counters exist only in event-driven mode, so lockstep runs —
  // the golden reference — keep their metric dumps byte-identical to the
  // pre-scheduler output.
  if (config_.scheduler == FleetSchedulerMode::kEventDriven) {
    const FleetSchedulerStats sched = scheduler_stats();
    registry.GetCounter(prefix + "fleet.scheduler.batches").Add(sched.batches);
    registry.GetCounter(prefix + "fleet.scheduler.events").Add(sched.events);
    registry.GetCounter(prefix + "fleet.scheduler.idle_windows")
        .Add(sched.idle_windows);
    registry.GetCounter(prefix + "fleet.scheduler.days_stepped")
        .Add(sched.days_stepped);
    registry.GetCounter(prefix + "fleet.scheduler.dark_days_skipped")
        .Add(sched.dark_days_skipped);
  }
  // Traffic counters exist only when the traffic engine is enabled, keeping
  // flat-dwpd metric dumps byte-identical.
  if (config_.traffic.enabled()) {
    uint64_t traffic_ops = 0;
    uint64_t traffic_reads = 0;
    uint64_t traffic_writes = 0;
    for (const DeviceSlot& slot : slots_) {
      traffic_ops += slot.traffic->ops_emitted();
      traffic_reads += slot.traffic->reads_emitted();
      traffic_writes += slot.traffic->writes_emitted();
    }
    registry.GetCounter(prefix + "fleet.traffic.ops").Add(traffic_ops);
    registry.GetCounter(prefix + "fleet.traffic.reads").Add(traffic_reads);
    registry.GetCounter(prefix + "fleet.traffic.writes").Add(traffic_writes);
    registry.GetGauge(prefix + "fleet.traffic.tenants_per_device")
        .Add(static_cast<double>(config_.traffic.tenants_per_device));
  }
  // Admission-queue counters follow the traffic rule: absent unless
  // enabled, keeping queue-free metric dumps byte-identical.
  if (config_.queue.enabled()) {
    registry.GetCounter(prefix + "fleet.sched.admitted_opages")
        .Add(queue_admitted_total());
    registry.GetCounter(prefix + "fleet.sched.served_opages")
        .Add(queue_served_total());
    registry.GetCounter(prefix + "fleet.sched.shed_opages")
        .Add(queue_shed_total());
    registry.GetGauge(prefix + "fleet.sched.backlog_opages")
        .Add(static_cast<double>(queue_backlog_total()));
    uint64_t backlog_peak = 0;
    for (const DeviceSlot& slot : slots_) {
      backlog_peak = std::max(backlog_peak, slot.queue_backlog_peak);
    }
    registry.GetGauge(prefix + "fleet.sched.backlog_peak_opages")
        .Add(static_cast<double>(backlog_peak));
  }
  // Failure-domain counters follow the same rule: each block is absent
  // unless its domain feature is on, keeping domain-free metric dumps
  // byte-identical.
  if (config_.domain.rack_events_enabled()) {
    uint64_t scheduled = 0;
    for (const auto& days : domain_schedule_.rack_power_days) {
      scheduled += days.size();
    }
    registry.GetGauge(prefix + "fleet.domain.racks")
        .Add(static_cast<double>(domain_schedule_.rack_power_days.size()));
    registry.GetCounter(prefix + "fleet.domain.rack_events_scheduled")
        .Add(scheduled);
    registry.GetCounter(prefix + "fleet.domain.rack_crashes")
        .Add(rack_crashes_total());
  }
  if (config_.domain.cohort_wear_enabled()) {
    registry.GetGauge(prefix + "fleet.domain.batch_cohorts")
        .Add(static_cast<double>(config_.domain.batch_cohorts));
  }
  if (config_.domain.cohort_waves_enabled()) {
    uint64_t scheduled = 0;
    for (const auto& days : domain_schedule_.cohort_wave_days) {
      scheduled += days.size();
    }
    registry.GetCounter(prefix + "fleet.domain.cohort_waves_scheduled")
        .Add(scheduled);
    registry.GetCounter(prefix + "fleet.domain.cohort_pause_days")
        .Add(cohort_pause_days_total());
  }
  if (config_.domain.drain_enabled()) {
    registry.GetCounter(prefix + "fleet.drain.devices_drained")
        .Add(drained_devices());
    registry.GetCounter(prefix + "fleet.drain.migrated_bytes")
        .Add(drain_migrated_bytes_total());
  }
  // Power-loss counters follow the same rule: absent unless injected.
  if (config_.power_loss_per_device_day > 0.0) {
    registry.GetCounter(prefix + "fleet.power_loss.events")
        .Add(power_losses_total());
    registry.GetCounter(prefix + "fleet.power_loss.restarts")
        .Add(restarts_total());
    registry.GetCounter(prefix + "fleet.power_loss.restart_failures")
        .Add(restart_failures_total());
    registry.GetGauge(prefix + "fleet.power_loss.dark_devices")
        .Add(static_cast<double>(dark_devices()));
  }
  for (const DeviceSlot& slot : slots_) {
    slot.device->CollectMetrics(registry, prefix);
  }
}

uint64_t FleetSim::queue_admitted_total() const {
  uint64_t total = 0;
  for (const DeviceSlot& slot : slots_) {
    total += slot.queue_admitted_opages;
  }
  return total;
}

uint64_t FleetSim::queue_served_total() const {
  uint64_t total = 0;
  for (const DeviceSlot& slot : slots_) {
    total += slot.queue_served_opages;
  }
  return total;
}

uint64_t FleetSim::queue_shed_total() const {
  uint64_t total = 0;
  for (const DeviceSlot& slot : slots_) {
    total += slot.queue_shed_opages;
  }
  return total;
}

uint64_t FleetSim::queue_backlog_total() const {
  uint64_t total = 0;
  for (const DeviceSlot& slot : slots_) {
    total += slot.queue_backlog_opages;
  }
  return total;
}

uint64_t FleetSim::rack_crashes_total() const {
  uint64_t total = 0;
  for (const DeviceSlot& slot : slots_) {
    total += slot.rack_crashes;
  }
  return total;
}

uint64_t FleetSim::cohort_pause_days_total() const {
  uint64_t total = 0;
  for (const DeviceSlot& slot : slots_) {
    total += slot.cohort_pause_days;
  }
  return total;
}

uint32_t FleetSim::drained_devices() const {
  uint32_t total = 0;
  for (const DeviceSlot& slot : slots_) {
    total += slot.drained ? 1 : 0;
  }
  return total;
}

uint64_t FleetSim::drain_migrated_bytes_total() const {
  uint64_t total = 0;
  for (const DeviceSlot& slot : slots_) {
    total += slot.drain_migrated_bytes;
  }
  return total;
}

uint64_t FleetSim::power_losses_total() const {
  uint64_t total = 0;
  for (const DeviceSlot& slot : slots_) {
    total += slot.power_losses;
  }
  return total;
}

uint64_t FleetSim::restarts_total() const {
  uint64_t total = 0;
  for (const DeviceSlot& slot : slots_) {
    total += slot.restarts;
  }
  return total;
}

uint64_t FleetSim::restart_failures_total() const {
  uint64_t total = 0;
  for (const DeviceSlot& slot : slots_) {
    total += slot.restart_failures;
  }
  return total;
}

uint32_t FleetSim::dark_devices() const {
  uint32_t dark = 0;
  for (const DeviceSlot& slot : slots_) {
    dark += slot.dark ? 1 : 0;
  }
  return dark;
}

std::optional<uint32_t> FleetSim::DayDevicesBelow(double fraction) const {
  const double threshold = fraction * static_cast<double>(config_.devices);
  for (const FleetSnapshot& snapshot : snapshots_) {
    if (static_cast<double>(snapshot.functioning_devices) < threshold) {
      return snapshot.day;
    }
  }
  return std::nullopt;
}

std::optional<uint32_t> FleetSim::DayCapacityBelow(double fraction) const {
  const double threshold =
      fraction * static_cast<double>(initial_capacity_);
  for (const FleetSnapshot& snapshot : snapshots_) {
    if (static_cast<double>(snapshot.capacity_bytes) < threshold) {
      return snapshot.day;
    }
  }
  return std::nullopt;
}

}  // namespace salamander
