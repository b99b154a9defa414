// Chaos soak: hammers diFS clusters with every fault the injector knows —
// flash program/erase failures, silent read corruption, busy planes, event
// drops/duplicates/delays, device crashes mid-drain, node outages, lost
// drain acks — and asserts the robustness contract:
//
//  * zero chunk loss while concurrent failures stay below R;
//  * recovery converges after every burst (no pending backlog left);
//  * cluster invariants hold at every checkpoint;
//  * end-to-end integrity accounting is *exact*: every silently corrupt
//    read the injector produced is observed by the cluster's checksum
//    verification (difs.integrity.detected == faults.injected.read_corrupt,
//    per universe and fleet-wide), and with the background scrubber on
//    (--scrub-opages-per-day > 0) corruption still loses zero chunks;
//  * output is byte-identical across runs and --threads values (each
//    universe owns its devices, injectors, and RNG streams);
//  * with the queueing layer on (--queue-depth > 0), the shed/hedge ledger
//    reconciles exactly: every foreground/recovery/scrub shed the clusters
//    counted appears as a per-device queue giveup, the exported sched.*
//    registry matches the harness sums to the last event, and corruption +
//    power loss + traffic + admission control together still lose zero
//    chunks;
//  * with failure domains on (--nodes-per-rack > 0), a uniform-placement
//    baseline and a domain-spread + criticality-ordered + proactive-drain
//    treatment arm soak the same correlated rack-blackout / cohort-wave
//    schedule; the domain ledger reconciles exactly (injected rack events ==
//    blackouts executed, device restarts == harness restarts), the spread
//    arm loses zero chunks, and with drain on it spends measurably less
//    reactive recovery I/O than the baseline.
//
// Exits nonzero on any violation, so it can run as a CI gate.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "difs/cluster.h"
#include "sched/queueing.h"
#include "ecc/tiredness.h"
#include "faults/fault_injector.h"
#include "flash/wear_model.h"
#include "ftl/ftl.h"
#include "integrity/checksum.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace salamander {
namespace {

struct UniverseResult {
  SsdKind kind = SsdKind::kShrinkS;
  DifsStats stats;
  uint64_t chunks = 0;
  uint64_t under_replicated = 0;
  uint64_t parked = 0;
  uint32_t devices_alive = 0;
  uint64_t injected_device_faults = 0;
  uint64_t injected_cluster_faults = 0;
  uint64_t injected_by_site[FaultStats::kSites] = {};
  bool converged = true;
  bool invariants_ok = true;
  std::string first_violation;
  // Power-loss drill accounting (--power-loss-per-burst > 0 only): every
  // injected power loss must end as a restart or a permanent upgrade.
  uint64_t power_losses = 0;
  uint64_t power_restarts = 0;
  uint64_t permanent_upgrades = 0;
  // Thread-confined telemetry, owned by the universe's worker and merged by
  // the coordinator after the barrier, in universe order.
  MetricRegistry registry;
  TraceRecorder trace;
};

// One simulated fault burst = 1000 us of trace time (see DESIGN.md
// "Telemetry").
constexpr uint64_t kTraceUsPerBurst = 1000;

// Per-device fault mix. Crash-mid-drain is drawn on every event poll of a
// draining device, which happens once per device per foreground op — keep it
// tiny or the whole fleet dies mid-soak.
FaultConfig DeviceFaults(uint64_t seed, double power_loss_per_burst) {
  FaultConfig config;
  config.program_fail = 0.01;
  config.erase_fail = 0.01;
  config.read_corrupt = 0.005;
  config.transient_unavailable = 0.002;
  config.event_drop = 0.02;
  config.event_duplicate = 0.02;
  config.event_delay = 0.02;
  config.crash_during_drain = 0.00002;
  // Power-loss mode only: the harness draws LosesPower() once per device per
  // burst, and every resulting crash tears the journal tail more often than
  // not. Both stay 0.0 by default, which draws nothing — the fault schedule
  // (and every output byte) of a power-loss-free soak is untouched.
  config.power_loss = power_loss_per_burst;
  if (power_loss_per_burst > 0.0) {
    config.torn_journal_write = 0.6;
  }
  config.seed = seed;
  return config;
}

FaultConfig ClusterFaults(uint64_t seed) {
  FaultConfig config;
  config.node_outage = 0.05;  // per maintenance tick
  config.ack_drain_lost = 0.05;
  config.seed = seed;
  return config;
}

// Writes into `result` (stable storage owned by the coordinator) so the
// cluster's trace pointer stays valid for the whole soak.
void RunUniverse(uint64_t universe, uint64_t base_seed, uint64_t bursts,
                 uint64_t scrub_opages_per_day, double power_loss_per_burst,
                 const SchedConfig& sched, UniverseResult& result) {
  result.kind = (universe % 2 == 0) ? SsdKind::kShrinkS : SsdKind::kRegenS;

  const uint32_t lane = static_cast<uint32_t>(universe);
  result.trace.NameLane(lane, "universe " + std::to_string(universe) + ":" +
                                  std::string(SsdKindName(result.kind)));

  DifsConfig config;
  config.nodes = 6;
  config.devices_per_node = 1;
  config.replication = 3;
  config.chunk_opages = 256;
  config.fill_fraction = 0.45;
  config.seed = base_seed + universe;
  config.faults = std::make_shared<FaultInjector>(
      ClusterFaults(base_seed + universe), /*stream_id=*/universe);
  config.trace = &result.trace;
  config.trace_tid = lane;
  // Power-loss mode: a dark device gets a grace window long enough to span a
  // burst's maintenance ticks, so the same-burst restart reconciles it in
  // place instead of triggering a full re-replication wave.
  if (power_loss_per_burst > 0.0) {
    config.suspect_grace_ticks = 8;
  }
  // Queueing layer: disabled by default (zero queues, zero forked streams),
  // so a queue-free soak stays byte-identical to pre-queueing builds.
  config.sched = sched;

  FPageEccGeometry ecc;
  const WearModelConfig wear = WearModel::Calibrate(
      ComputeTirednessLevel(ecc, 0).max_tolerable_rber, /*nominal_pec=*/40);
  std::vector<std::shared_ptr<FaultInjector>> device_injectors;
  auto factory = [&](uint32_t index) {
    SsdConfig ssd_config =
        MakeSsdConfig(result.kind, FlashGeometry::Small(), wear,
                      FlashLatencyConfig{}, ecc, 5000 + index * 17);
    ssd_config.minidisk.msize_opages = 256;
    ssd_config.minidisk.drain_before_decommission = true;
    ssd_config.minidisk.max_draining = 8;
    ssd_config.faults = std::make_shared<FaultInjector>(
        DeviceFaults(base_seed + universe, power_loss_per_burst),
        /*stream_id=*/universe * 64 + index);
    device_injectors.push_back(ssd_config.faults);
    return std::make_unique<SsdDevice>(result.kind, ssd_config);
  };

  DifsCluster cluster(config, factory);
  const auto note_violation = [&](const std::string& what) {
    if (result.first_violation.empty()) {
      result.first_violation = what;
    }
  };
  if (!cluster.Bootstrap().ok()) {
    result.converged = false;
    note_violation("bootstrap failed");
  }

  constexpr uint64_t kWritesPerBurst = 500;
  constexpr uint64_t kReadsPerBurst = 250;
  for (uint64_t burst = 0; burst < bursts; ++burst) {
    if (cluster.alive_devices() < config.replication + 1) {
      break;  // fleet worn down to the edge; stop before losses are expected
    }
    const uint64_t burst_start_us = burst * kTraceUsPerBurst;
    cluster.set_trace_time_us(burst_start_us);
    result.trace.Span("burst " + std::to_string(burst), "chaos",
                      burst_start_us, kTraceUsPerBurst, lane);
    if (burst == bursts / 2) {
      // Crash drill: brick one device outright (one concurrent whole-device
      // failure < R) and require recovery to re-replicate everything it
      // hosted — through the same lossy event channel as everything else.
      result.trace.Instant("crash_drill", "chaos", burst_start_us, lane);
      cluster.device(static_cast<uint32_t>(universe % config.nodes)).Crash();
    }
    // Power-loss lottery: each functioning device may go dark for the rest
    // of the burst (rack power cut). Most outages are transient — the device
    // restarts, replays its journal, and is reconciled in place before the
    // burst's convergence check — but every 4th turns out fatal, and only
    // while enough devices survive to keep concurrent failures under R.
    std::vector<uint32_t> dark_devices;
    if (power_loss_per_burst > 0.0) {
      for (uint32_t d = 0; d < cluster.device_count(); ++d) {
        if (cluster.device(d).failed() ||
            !device_injectors[d]->LosesPower()) {
          continue;
        }
        ++result.power_losses;
        result.trace.Instant("power_loss", "chaos", burst_start_us, lane);
        cluster.device(d).Crash(SsdDevice::CrashKind::kPowerLoss);
        if (result.power_losses % 4 == 0 &&
            cluster.alive_devices() > config.replication + 1) {
          // The outage turns out fatal: upgrade the dark device to a brick
          // (exercises the mid-window upgrade path).
          cluster.device(d).Crash(SsdDevice::CrashKind::kPermanent);
          ++result.permanent_upgrades;
        } else {
          dark_devices.push_back(d);
        }
      }
    }
    (void)cluster.StepWrites(kWritesPerBurst);
    (void)cluster.StepReads(kReadsPerBurst);
    // Background scrub slice for this "day": walks the deterministic cursor,
    // catches latent corruption foreground reads missed, repairs through the
    // same read-repair path. 0 = disabled, zero extra work.
    (void)cluster.ScrubStep(scrub_opages_per_day);
    // Power restored: every still-dark device restarts (journal replay) so
    // the convergence check below sees the whole fleet reachable. A device
    // the crash drill upgraded meanwhile stays bricked.
    for (uint32_t d : dark_devices) {
      if (!cluster.device(d).transiently_dark()) {
        ++result.permanent_upgrades;
        continue;
      }
      if (cluster.device(d).Restart().ok()) {
        ++result.power_restarts;
      } else {
        result.converged = false;
        note_violation("burst " + std::to_string(burst) +
                       ": post-power-loss restart failed");
      }
    }
    cluster.ForceReconcile();
    result.trace.CounterSample("recovery_backlog",
                               burst_start_us + kTraceUsPerBurst,
                               static_cast<double>(
                                   cluster.pending_recovery_backlog()),
                               lane);
    result.trace.CounterSample(
        "alive_devices", burst_start_us + kTraceUsPerBurst,
        static_cast<double>(cluster.alive_devices()), lane);
    const Status invariants = cluster.CheckInvariants();
    if (!invariants.ok()) {
      result.invariants_ok = false;
      note_violation("burst " + std::to_string(burst) + ": " +
                     invariants.ToString());
    }
    if (cluster.pending_recovery_backlog() != 0) {
      result.converged = false;
      note_violation("burst " + std::to_string(burst) +
                     ": recovery backlog not drained");
    }
  }
  // Let any active outage expire (maintenance ticks fire every 256 ops),
  // then reconcile to final quiescence.
  cluster.set_trace_time_us(bursts * kTraceUsPerBurst);
  for (int i = 0; i < 64 && cluster.outage_node() >= 0; ++i) {
    (void)cluster.StepWrites(256);
  }
  if (power_loss_per_burst > 0.0) {
    // Suspect windows resolve on maintenance ticks: give the last burst's
    // restarted devices a few so every window ends as returned or expired
    // before the final counters are reported.
    (void)cluster.StepWrites(768);
  }
  cluster.ForceReconcile();
  const Status invariants = cluster.CheckInvariants();
  if (!invariants.ok()) {
    result.invariants_ok = false;
    note_violation("final: " + invariants.ToString());
  }
  if (cluster.pending_recovery_backlog() != 0) {
    result.converged = false;
    note_violation("final: recovery backlog not drained");
  }
  // Every non-lost chunk is fully replicated or explicitly parked waiting
  // for capacity — nothing falls through the cracks.
  if (cluster.chunks_under_replicated() > cluster.chunks_waiting_capacity()) {
    result.converged = false;
    note_violation("final: under-replicated chunks not tracked");
  }
  // The soak must actually exercise the recovery machinery (the crash drill
  // alone guarantees losses), or a regression that silently disables
  // recovery would still "pass".
  if (cluster.stats().replicas_recovered == 0) {
    result.converged = false;
    note_violation("final: soak exercised no recovery at all");
  }
  // Exact end-to-end integrity accounting: the FTL counts silent corruption
  // at the observation point and the cluster folds the counter after every
  // read it issues, so detection must equal injection to the last event —
  // any gap means a read path without checksum verification.
  uint64_t injected_read_corrupt = 0;
  for (const auto& injector : device_injectors) {
    injected_read_corrupt += injector->stats().count(FaultSite::kReadCorrupt);
  }
  if (cluster.stats().integrity_detected != injected_read_corrupt) {
    result.converged = false;
    note_violation(
        "final: integrity_detected " +
        std::to_string(cluster.stats().integrity_detected) +
        " != injected read_corrupt " + std::to_string(injected_read_corrupt));
  }
  // Exact power-loss accounting: every injector draw became exactly one
  // Crash(kPowerLoss), and every one of those ended as a successful restart
  // or a permanent upgrade — no outage can leak out of the ledger.
  if (power_loss_per_burst > 0.0) {
    uint64_t injected_power_loss = 0;
    for (const auto& injector : device_injectors) {
      injected_power_loss += injector->stats().count(FaultSite::kPowerLoss);
    }
    if (injected_power_loss != result.power_losses) {
      result.converged = false;
      note_violation("final: power_loss crashes " +
                     std::to_string(result.power_losses) +
                     " != injected power_loss " +
                     std::to_string(injected_power_loss));
    }
    uint64_t device_restarts = 0;
    for (uint32_t d = 0; d < cluster.device_count(); ++d) {
      device_restarts += cluster.device(d).restarts();
    }
    if (device_restarts != result.power_restarts) {
      result.converged = false;
      note_violation("final: device restarts " +
                     std::to_string(device_restarts) + " != harness restarts " +
                     std::to_string(result.power_restarts));
    }
    if (result.power_restarts + result.permanent_upgrades !=
        result.power_losses) {
      result.converged = false;
      note_violation("final: power-loss ledger does not balance");
    }
  }

  result.stats = cluster.stats();
  result.chunks = cluster.total_chunks();
  result.under_replicated = cluster.chunks_under_replicated();
  result.parked = cluster.chunks_waiting_capacity();
  result.devices_alive = cluster.alive_devices();
  for (const auto& injector : device_injectors) {
    result.injected_device_faults += injector->stats().total();
    for (int site = 0; site < FaultStats::kSites; ++site) {
      result.injected_by_site[site] += injector->stats().injected[site];
    }
  }
  result.injected_cluster_faults = config.faults->stats().total();
  for (int site = 0; site < FaultStats::kSites; ++site) {
    result.injected_by_site[site] += config.faults->stats().injected[site];
  }
  // Scrape the whole universe — difs stats, every device's subtree, and both
  // injector tiers — into the universe's own (thread-confined) registry.
  cluster.CollectMetrics(result.registry);
}

// ---- Correlated failure domains (--nodes-per-rack > 0 only) ---------------
//
// Two arms soak the same fault universe — identical cluster-fault and
// per-device fault stream families, and an identical rack-blackout /
// cohort-wave schedule (the domain injector is seeded and drawn in the same
// fixed order in both) — differing only in policy. The baseline arm places
// uniformly with reactive recovery only; the treatment arm uses the
// --placement policy (domain-spread by default) plus criticality-ordered
// recovery and, when --drain-health-threshold > 0, proactive health-driven
// drain. The harness demands an exact domain ledger per arm (injected rack
// events == blackouts executed, device restarts == harness restarts, crashes
// balance against restarts + bricks), zero chunk loss from the spread arm,
// and measurably less reactive recovery traffic from spread + drain than
// from the uniform baseline.
struct DomainArmResult {
  std::string placement;
  DifsStats stats;
  uint64_t chunks = 0;
  uint32_t devices_alive = 0;
  uint64_t rack_blackouts = 0;      // whole-rack power events executed
  uint64_t rack_crashes = 0;        // device crashes those events caused
  uint64_t cohort_waves = 0;        // cohort-unavailability events executed
  uint64_t cohort_crashes = 0;      // device crashes those waves caused
  uint64_t domain_restarts = 0;     // dark devices restarted at burst end
  uint64_t domain_bricks = 0;       // dark devices gone permanent meanwhile
  uint64_t injected_rack_events = 0;    // injector-side kRackPowerLoss
  uint64_t injected_cohort_events = 0;  // injector-side kCohortUnavailable
  bool converged = true;
  bool invariants_ok = true;
  bool ledger_exact = true;
  std::string first_violation;
  MetricRegistry registry;
};

void RunDomainArm(const std::string& placement_kind, uint64_t base_seed,
                  uint64_t bursts, uint64_t scrub_opages_per_day,
                  const SchedConfig& sched, uint32_t nodes_per_rack,
                  double rack_power_loss_per_burst,
                  double cohort_unavailable_per_burst, uint32_t batch_cohorts,
                  double batch_endurance_sigma, double drain_health_threshold,
                  DomainArmResult& result) {
  result.placement = placement_kind;
  const bool spread = placement_kind == "domain-spread";
  const SsdKind kind = SsdKind::kShrinkS;
  const auto note_violation = [&](const std::string& what) {
    if (result.first_violation.empty()) {
      result.first_violation = what;
    }
  };

  DifsConfig config;
  config.nodes = 6;
  config.devices_per_node = 1;
  config.replication = 3;
  config.chunk_opages = 256;
  config.fill_fraction = 0.45;
  // Both arms share one seed: identical fault families throughout, so the
  // placement / drain policy is the only difference between them.
  config.seed = base_seed + 977;
  config.faults = std::make_shared<FaultInjector>(ClusterFaults(config.seed),
                                                  /*stream_id=*/977);
  // Dark rack members are suspects, not corpses: power returns within the
  // burst, so the grace window reconciles them in place.
  config.suspect_grace_ticks = 8;
  config.sched = sched;
  config.nodes_per_rack = nodes_per_rack;
  config.placement = spread ? MakeDomainSpreadPlacement(nodes_per_rack)
                            : MakeUniformPlacement();
  if (spread) {
    config.criticality_ordered_recovery = true;
    config.drain_health_threshold = drain_health_threshold;
  }

  // Batch-cohort endurance variance: cohort c = device % cohorts shares one
  // latent wear factor, forked in cohort order from a root both arms derive
  // identically — whole batches age coherently, which is exactly the
  // correlated near-death pattern proactive drain is supposed to catch.
  const uint32_t cohorts = batch_cohorts > 0 ? batch_cohorts : 1;
  std::vector<double> cohort_factor(cohorts, 1.0);
  if (batch_cohorts > 0 && batch_endurance_sigma > 0.0) {
    Rng cohort_root(base_seed ^ 0xd0a2d0a2d0a2d0a2ULL);
    for (uint32_t c = 0; c < cohorts; ++c) {
      Rng fork = cohort_root.Fork();
      cohort_factor[c] = fork.LogNormal(0.0, batch_endurance_sigma);
    }
  }

  // Hotter wear than the main universes (nominal_pec 12 vs 40): the domain
  // arms exist to show batch-cohort endurance variance driving devices to
  // near-death *within* a soak-sized burst budget, so proactive drain has
  // something to catch and reactive recovery something to lose.
  FPageEccGeometry ecc;
  const WearModelConfig base_wear = WearModel::Calibrate(
      ComputeTirednessLevel(ecc, 0).max_tolerable_rber, /*nominal_pec=*/8);
  std::vector<std::shared_ptr<FaultInjector>> device_injectors;
  auto factory = [&](uint32_t index) {
    WearModelConfig wear = base_wear;
    wear.coefficient *= cohort_factor[index % cohorts];
    SsdConfig ssd_config =
        MakeSsdConfig(kind, FlashGeometry::Small(), wear, FlashLatencyConfig{},
                      ecc, 5000 + index * 17);
    ssd_config.minidisk.msize_opages = 256;
    ssd_config.minidisk.drain_before_decommission = true;
    ssd_config.minidisk.max_draining = 8;
    FaultConfig device_faults = DeviceFaults(config.seed, 0.0);
    device_faults.torn_journal_write = 0.6;  // blackout crashes tear tails
    ssd_config.faults = std::make_shared<FaultInjector>(
        device_faults, /*stream_id=*/977 * 64 + index);
    device_injectors.push_back(ssd_config.faults);
    return std::make_unique<SsdDevice>(kind, ssd_config);
  };

  DifsCluster cluster(config, factory);
  if (!cluster.Bootstrap().ok()) {
    result.converged = false;
    note_violation("bootstrap failed");
  }

  // The domain lottery: one injector per arm, seeded identically and drawn
  // in a fixed order (racks then cohorts, once per burst each, independent
  // of cluster state) — the draws ARE the schedule both arms share.
  FaultConfig domain_faults;
  domain_faults.rack_power_loss = rack_power_loss_per_burst;
  domain_faults.cohort_unavailable = cohort_unavailable_per_burst;
  domain_faults.seed = base_seed + 977;
  FaultInjector domain_injector(domain_faults, /*stream_id=*/7);

  const uint32_t device_count = cluster.device_count();
  const uint32_t racks = (device_count + nodes_per_rack - 1) / nodes_per_rack;

  constexpr uint64_t kWritesPerBurst = 500;
  constexpr uint64_t kReadsPerBurst = 250;
  for (uint64_t burst = 0; burst < bursts; ++burst) {
    if (cluster.alive_devices() < config.replication + 1) {
      break;  // fleet worn down to the edge; stop before losses are expected
    }
    cluster.set_trace_time_us(burst * kTraceUsPerBurst);
    std::vector<uint32_t> dark_devices;
    const auto crash_device = [&](uint32_t d, uint64_t& crash_counter) {
      if (cluster.device(d).failed()) {
        return;  // already dark or bricked: one crash per outage
      }
      cluster.device(d).Crash(SsdDevice::CrashKind::kPowerLoss);
      ++crash_counter;
      dark_devices.push_back(d);
    };
    for (uint32_t r = 0; r < racks; ++r) {
      if (!domain_injector.RackLosesPower()) {
        continue;
      }
      ++result.rack_blackouts;
      for (uint32_t d = r * nodes_per_rack;
           d < device_count && d / nodes_per_rack == r; ++d) {
        crash_device(d, result.rack_crashes);
      }
    }
    for (uint32_t c = 0; c < batch_cohorts; ++c) {
      if (!domain_injector.CohortGoesUnavailable()) {
        continue;
      }
      ++result.cohort_waves;
      for (uint32_t d = c; d < device_count; d += batch_cohorts) {
        crash_device(d, result.cohort_crashes);
      }
    }
    (void)cluster.StepWrites(kWritesPerBurst);
    (void)cluster.StepReads(kReadsPerBurst);
    (void)cluster.ScrubStep(scrub_opages_per_day);
    // Power restored: every dark domain member restarts (journal replay)
    // before the convergence check; anything no longer transiently dark went
    // permanent meanwhile and stays down.
    for (uint32_t d : dark_devices) {
      if (!cluster.device(d).transiently_dark()) {
        ++result.domain_bricks;
        continue;
      }
      if (cluster.device(d).Restart().ok()) {
        ++result.domain_restarts;
      } else {
        result.converged = false;
        note_violation("burst " + std::to_string(burst) +
                       ": post-blackout restart failed");
      }
    }
    cluster.ForceReconcile();
    const Status invariants = cluster.CheckInvariants();
    if (!invariants.ok()) {
      result.invariants_ok = false;
      note_violation("burst " + std::to_string(burst) + ": " +
                     invariants.ToString());
    }
    if (cluster.pending_recovery_backlog() != 0) {
      result.converged = false;
      note_violation("burst " + std::to_string(burst) +
                     ": recovery backlog not drained");
    }
  }
  // Outage expiry + suspect-window resolution, exactly as the power-loss
  // soak does before reading final counters.
  cluster.set_trace_time_us(bursts * kTraceUsPerBurst);
  for (int i = 0; i < 64 && cluster.outage_node() >= 0; ++i) {
    (void)cluster.StepWrites(256);
  }
  (void)cluster.StepWrites(768);
  cluster.ForceReconcile();
  const Status invariants = cluster.CheckInvariants();
  if (!invariants.ok()) {
    result.invariants_ok = false;
    note_violation("final: " + invariants.ToString());
  }
  if (cluster.pending_recovery_backlog() != 0) {
    result.converged = false;
    note_violation("final: recovery backlog not drained");
  }
  if (cluster.chunks_under_replicated() > cluster.chunks_waiting_capacity()) {
    result.converged = false;
    note_violation("final: under-replicated chunks not tracked");
  }

  // Exact domain ledger: the injector's event counts, the harness's blackout
  // tallies, and the devices' own restart counters must agree to the event.
  result.injected_rack_events =
      domain_injector.stats().count(FaultSite::kRackPowerLoss);
  result.injected_cohort_events =
      domain_injector.stats().count(FaultSite::kCohortUnavailable);
  if (result.injected_rack_events != result.rack_blackouts) {
    result.ledger_exact = false;
    note_violation("final: injected rack events " +
                   std::to_string(result.injected_rack_events) +
                   " != rack blackouts " +
                   std::to_string(result.rack_blackouts));
  }
  if (result.injected_cohort_events != result.cohort_waves) {
    result.ledger_exact = false;
    note_violation("final: injected cohort events " +
                   std::to_string(result.injected_cohort_events) +
                   " != cohort waves " + std::to_string(result.cohort_waves));
  }
  uint64_t device_restarts = 0;
  for (uint32_t d = 0; d < device_count; ++d) {
    device_restarts += cluster.device(d).restarts();
  }
  if (device_restarts != result.domain_restarts) {
    result.ledger_exact = false;
    note_violation("final: device restarts " +
                   std::to_string(device_restarts) + " != harness restarts " +
                   std::to_string(result.domain_restarts));
  }
  if (result.domain_restarts + result.domain_bricks !=
      result.rack_crashes + result.cohort_crashes) {
    result.ledger_exact = false;
    note_violation("final: domain crash ledger does not balance");
  }

  result.stats = cluster.stats();
  result.chunks = cluster.total_chunks();
  result.devices_alive = cluster.alive_devices();
  cluster.CollectMetrics(result.registry);
}

// Bounded-L2P cross-check (--l2p-cache-entries > 0 only): an identical op
// sequence runs on a legacy (unbounded-map) FTL and a bounded one, in a
// configuration roomy enough that GC never fires — so map-page write-back is
// the *only* source of extra flash programs, and the wear delta must equal
// ftl.l2p.map_writes exactly. The exported ftl.l2p.* registry values are
// then reconciled against the FTL's internal ledger, counter by counter.
struct L2pCrossCheckResult {
  uint64_t map_writes = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t legacy_programs = 0;
  uint64_t bounded_programs = 0;
  bool wear_exact = false;
  bool telemetry_exact = false;
  std::string violation;
};

L2pCrossCheckResult RunL2pCrossCheck(uint64_t cache_entries, uint64_t seed) {
  L2pCrossCheckResult out;
  FtlConfig config;
  config.geometry.channels = 1;
  config.geometry.dies_per_channel = 1;
  config.geometry.planes_per_die = 1;
  config.geometry.blocks_per_plane = 16;
  config.geometry.fpages_per_block = 16;
  config.ecc_geometry = FPageEccGeometry{};
  config.wear = WearModel::Calibrate(
      ComputeTirednessLevel(config.ecc_geometry, 0).max_tolerable_rber,
      /*nominal_pec=*/1000000);
  config.seed = seed;
  Ftl legacy(config);
  FtlConfig bounded_config = config;
  bounded_config.l2p_cache_entries = cache_entries;
  bounded_config.l2p_entries_per_map_page = 64;  // 4 map pages over 256 lpos
  Ftl bounded(bounded_config);

  constexpr uint64_t kLogicalOPages = 256;
  legacy.ExtendLogicalSpace(kLogicalOPages);
  bounded.ExtendLogicalSpace(kLogicalOPages);
  Rng ops(seed ^ 0x12bca);
  for (uint64_t i = 0; i < 384; ++i) {
    const uint64_t lpo = i % kLogicalOPages;  // strided map-page transitions
    const uint64_t kind = ops.UniformInRange(0, 99);
    if (kind < 80) {
      if (!legacy.Write(lpo).ok() || !bounded.Write(lpo).ok()) {
        out.violation = "l2p cross-check: write failed at op " +
                        std::to_string(i);
        return out;
      }
    } else if (kind < 90) {
      (void)legacy.Read(lpo);
      (void)bounded.Read(lpo);
    } else if (kind < 96) {
      if (!legacy.Trim(lpo).ok() || !bounded.Trim(lpo).ok()) {
        out.violation = "l2p cross-check: trim failed at op " +
                        std::to_string(i);
        return out;
      }
    } else {
      if (!legacy.Flush().ok() || !bounded.Flush().ok()) {
        out.violation = "l2p cross-check: flush failed at op " +
                        std::to_string(i);
        return out;
      }
    }
  }
  // The exact-wear argument requires GC-free runs on both sides.
  if (legacy.stats().gc_relocations != 0 ||
      bounded.stats().gc_relocations != 0) {
    out.violation = "l2p cross-check: GC fired in the roomy config";
    return out;
  }

  const Ftl::L2pStats& ledger = bounded.l2p_stats();
  out.map_writes = ledger.map_writes;
  out.hits = ledger.hits;
  out.misses = ledger.misses;
  out.evictions = ledger.evictions;
  out.legacy_programs = legacy.chip().total_programs();
  out.bounded_programs = bounded.chip().total_programs();
  out.wear_exact =
      out.bounded_programs == out.legacy_programs + ledger.map_writes &&
      ledger.map_writes > 0;
  if (!out.wear_exact) {
    out.violation = "l2p cross-check: program delta " +
                    std::to_string(out.bounded_programs -
                                   out.legacy_programs) +
                    " != map_writes " + std::to_string(ledger.map_writes);
    return out;
  }

  // Exported metrics must mirror the internal ledger to the last event.
  MetricRegistry registry;
  bounded.CollectMetrics(registry, "");
  const auto counter = [&](const char* name) {
    const Counter* c = registry.FindCounter(name);
    return c != nullptr ? c->value() : 0;
  };
  out.telemetry_exact =
      counter("ftl.l2p.hits") == ledger.hits &&
      counter("ftl.l2p.misses") == ledger.misses &&
      counter("ftl.l2p.evictions") == ledger.evictions &&
      counter("ftl.l2p.map_writes") == ledger.map_writes &&
      counter("ftl.l2p.replay_rebuilt_pages") == ledger.replay_rebuilt_pages;
  if (!out.telemetry_exact) {
    out.violation =
        "l2p cross-check: exported ftl.l2p.* diverge from the ledger";
  }
  return out;
}

}  // namespace
}  // namespace salamander

int main(int argc, char** argv) {
  using namespace salamander;
  bench::PrintHeader(
      "Chaos soak — fault injection vs. diFS recovery",
      "with concurrent failures < R, the cluster loses zero chunks and "
      "recovery converges after every fault burst");
  ThreadPool pool(bench::ParseThreads(argc, argv));
  const uint64_t universes = bench::ParseU64Flag(argc, argv, "--universes", 6);
  const uint64_t bursts = bench::ParseU64Flag(argc, argv, "--bursts", 12);
  const uint64_t seed = bench::ParseU64Flag(argc, argv, "--seed", 20250805);
  // oPages each universe scrubs per burst; 0 (the default) disables scrub.
  const uint64_t scrub_opages_per_day =
      bench::ParseScrubOPagesPerDay(argc, argv);
  // Per-device, per-burst transient power-loss probability. 0 (the default)
  // draws nothing: the soak is byte-identical to one without the
  // crash-restart machinery. > 0 adds the power-loss lottery, torn journal
  // writes on every crash, and suspect-window reconciliation.
  const double power_loss_per_burst =
      bench::ParseF64Flag(argc, argv, "--power-loss-per-burst", 0.0);
  // DRAM window for the bounded L2P cross-check. 0 (the default) skips the
  // cross-check entirely: the soak output stays byte-identical to builds
  // without the bounded cache.
  const uint64_t l2p_cache_entries = bench::ParseL2pCacheEntries(argc, argv);
  // Correlated failure domains (--nodes-per-rack > 0 only). All knobs
  // default to off/zero and parse strictly even when the section is
  // disabled; with everything at defaults the domain arms never run, no
  // extra RNG streams exist, and the soak output is byte-identical to
  // builds without the feature.
  const uint64_t nodes_per_rack =
      bench::ParseU64Flag(argc, argv, "--nodes-per-rack", 0);
  const double rack_power_loss_per_burst =
      bench::ParseFractionFlag(argc, argv, "--rack-power-loss-per-burst", 0.0);
  const double cohort_unavailable_per_burst = bench::ParseFractionFlag(
      argc, argv, "--cohort-unavailable-per-burst", 0.0);
  const uint64_t batch_cohorts =
      bench::ParseU64Flag(argc, argv, "--batch-cohorts", 0);
  const double batch_endurance_sigma =
      bench::ParseF64Flag(argc, argv, "--batch-endurance-sigma", 0.0);
  const double drain_health_threshold =
      bench::ParseFractionFlag(argc, argv, "--drain-health-threshold", 0.0);
  // Placement policy of the *treatment* arm; the baseline arm is always
  // uniform. Defaults to domain-spread — the policy the section exists to
  // demonstrate.
  const std::string placement_kind =
      bench::ParsePlacementFlag(argc, argv, "domain-spread");
  // Per-device queueing / graceful degradation (--queue-depth > 0 only).
  // Microsecond knobs map onto SchedConfig's ns fields; shed-retry policy
  // keeps the library defaults.
  const bench::SchedFlagValues sched_flags =
      bench::ParseSchedFlags(argc, argv);
  SchedConfig sched;
  sched.queue_depth = sched_flags.queue_depth;
  sched.arrival_interval_ns = sched_flags.arrival_interval_us * kMicrosecond;
  sched.hedge_threshold_ns = sched_flags.hedge_threshold_us * kMicrosecond;
  sched.slo_p99_ns = sched_flags.slo_p99_us * kMicrosecond;
  sched.brownout_window_ops = sched_flags.brownout_window_ops;
  sched.retry_jitter_ns = sched_flags.retry_jitter_us * kMicrosecond;
  {
    const Status sched_valid = ValidateSchedConfig(sched);
    if (!sched_valid.ok()) {
      std::fprintf(stderr, "error: invalid sched config: %s\n",
                   sched_valid.message().c_str());
      return 2;
    }
  }
  const std::string metrics_out = bench::ParseStringFlag(
      argc, argv, "--metrics-out", "BENCH_chaos_metrics.json");
  const std::string trace_out = bench::ParseStringFlag(
      argc, argv, "--trace-out", "BENCH_chaos_trace.json");

  // The integrity machinery the soak leans on is only as good as the codec:
  // gate the run on the codec's randomized self-test.
  const Status codec_ok = ChecksumSelfTest(seed, /*rounds=*/256);
  if (!codec_ok.ok()) {
    std::fprintf(stderr, "checksum self-test failed: %s\n",
                 codec_ok.ToString().c_str());
    return 1;
  }

  std::vector<UniverseResult> results(universes);
  pool.ParallelFor(universes, [&](size_t begin, size_t end) {
    for (size_t u = begin; u < end; ++u) {
      RunUniverse(u, seed, bursts, scrub_opages_per_day, power_loss_per_burst,
                  sched, results[u]);
    }
  });

  // Barrier merge, in universe order: per-universe registries aggregate
  // (counters add) into the exported fleet-wide registry; traces append.
  MetricRegistry merged;
  TraceRecorder merged_trace;
  for (const UniverseResult& r : results) {
    merged.MergeFrom(r.registry);
    merged_trace.MergeFrom(r.trace);
  }

  std::printf(
      "universe\tkind\tchunks\tlost\tunder_repl\tparked\trecovered\t"
      "dev_faults\tclu_faults\tresyncs\trepairs\tretries\toutages\t"
      "acks_lost\tcorrupt\tmarked_bad\tscrub_reads\tscrub_hits\talive\t"
      "status\n");
  bool pass = true;
  for (uint64_t u = 0; u < universes; ++u) {
    const UniverseResult& r = results[u];
    const bool ok = r.invariants_ok && r.converged && r.stats.chunks_lost == 0;
    pass = pass && ok;
    std::printf(
        "%llu\t%s\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t"
        "%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t%llu\t%u\t%s\n",
        static_cast<unsigned long long>(u),
        std::string(SsdKindName(r.kind)).c_str(),
        static_cast<unsigned long long>(r.chunks),
        static_cast<unsigned long long>(r.stats.chunks_lost),
        static_cast<unsigned long long>(r.under_replicated),
        static_cast<unsigned long long>(r.parked),
        static_cast<unsigned long long>(r.stats.replicas_recovered),
        static_cast<unsigned long long>(r.injected_device_faults),
        static_cast<unsigned long long>(r.injected_cluster_faults),
        static_cast<unsigned long long>(r.stats.resync_passes),
        static_cast<unsigned long long>(r.stats.resync_repairs),
        static_cast<unsigned long long>(r.stats.transient_retries),
        static_cast<unsigned long long>(r.stats.node_outages),
        static_cast<unsigned long long>(r.stats.acks_lost),
        static_cast<unsigned long long>(r.stats.integrity_detected),
        static_cast<unsigned long long>(r.stats.integrity_marked_bad),
        static_cast<unsigned long long>(r.stats.scrub_opage_reads),
        static_cast<unsigned long long>(r.stats.scrub_detected),
        r.devices_alive, ok ? "OK" : "FAIL");
    if (!ok) {
      std::printf("  violation: %s\n", r.first_violation.c_str());
    }
  }

  bench::PrintSection("injected fault mix (all universes)");
  uint64_t by_site[FaultStats::kSites] = {};
  for (const UniverseResult& r : results) {
    for (int site = 0; site < FaultStats::kSites; ++site) {
      by_site[site] += r.injected_by_site[site];
    }
  }
  // Reported from the merged registry — and cross-checked against the
  // injectors' own counters, so a telemetry double-collect or missed site
  // fails the soak.
  for (int site = 0; site < FaultStats::kSites; ++site) {
    const std::string site_name(FaultSiteName(static_cast<FaultSite>(site)));
    const Counter* device_tier =
        merged.FindCounter("faults.injected." + site_name);
    const Counter* cluster_tier =
        merged.FindCounter("cluster_faults.injected." + site_name);
    const uint64_t from_registry =
        (device_tier != nullptr ? device_tier->value() : 0) +
        (cluster_tier != nullptr ? cluster_tier->value() : 0);
    // Sites appended after the output format froze only print once they
    // actually fire (matches the CollectFaultMetrics gating).
    if (site >= static_cast<int>(FaultSite::kPowerLoss) &&
        from_registry == 0 && by_site[site] == 0) {
      continue;
    }
    std::printf("%-22s\t%llu\n", site_name.c_str(),
                static_cast<unsigned long long>(from_registry));
    if (from_registry != by_site[site]) {
      pass = false;
      std::printf("  TELEMETRY MISMATCH: injector counted %llu\n",
                  static_cast<unsigned long long>(by_site[site]));
    }
  }

  bench::PrintSection("end-to-end integrity reconciliation");
  // Fleet-wide exactness, from the merged registry alone: every silently
  // corrupt read the device injectors produced was caught by checksum
  // verification somewhere — foreground read-repair, recovery, or scrub.
  const Counter* detected_counter =
      merged.FindCounter("difs.integrity.detected");
  const Counter* injected_counter =
      merged.FindCounter("faults.injected.read_corrupt");
  const uint64_t detected_total =
      detected_counter != nullptr ? detected_counter->value() : 0;
  const uint64_t injected_total =
      injected_counter != nullptr ? injected_counter->value() : 0;
  std::printf("read_corrupt injected\t%llu\n",
              static_cast<unsigned long long>(injected_total));
  std::printf("integrity detected\t%llu\n",
              static_cast<unsigned long long>(detected_total));
  std::printf("replicas marked bad\t%llu\n",
              static_cast<unsigned long long>(
                  merged.GetCounter("difs.integrity.marked_bad").value()));
  std::printf("last copies retained\t%llu\n",
              static_cast<unsigned long long>(
                  merged.GetCounter("difs.integrity.retained_last_copies")
                      .value()));
  std::printf("scrub reads / hits / passes\t%llu / %llu / %llu\n",
              static_cast<unsigned long long>(
                  merged.GetCounter("difs.scrub.opage_reads").value()),
              static_cast<unsigned long long>(
                  merged.GetCounter("difs.scrub.detected").value()),
              static_cast<unsigned long long>(
                  merged.GetCounter("difs.scrub.passes").value()));
  if (detected_total != injected_total) {
    pass = false;
    std::printf("  INTEGRITY MISMATCH: detection must equal injection\n");
  }

  uint64_t power_losses_total = 0;
  uint64_t power_restarts_total = 0;
  uint64_t permanent_upgrades_total = 0;
  if (power_loss_per_burst > 0.0) {
    bench::PrintSection("power-loss reconciliation");
    for (const UniverseResult& r : results) {
      power_losses_total += r.power_losses;
      power_restarts_total += r.power_restarts;
      permanent_upgrades_total += r.permanent_upgrades;
    }
    const Counter* power_loss_counter =
        merged.FindCounter("faults.injected.power_loss");
    const uint64_t power_loss_injected =
        power_loss_counter != nullptr ? power_loss_counter->value() : 0;
    std::printf("power_loss injected\t%llu\n",
                static_cast<unsigned long long>(power_loss_injected));
    std::printf("crashes / restarts / fatal\t%llu / %llu / %llu\n",
                static_cast<unsigned long long>(power_losses_total),
                static_cast<unsigned long long>(power_restarts_total),
                static_cast<unsigned long long>(permanent_upgrades_total));
    std::printf("journal replays\t%llu\n",
                static_cast<unsigned long long>(
                    merged.GetCounter("ftl.journal.replays").value()));
    if (power_loss_injected != power_losses_total ||
        power_restarts_total + permanent_upgrades_total !=
            power_losses_total) {
      pass = false;
      std::printf("  POWER-LOSS MISMATCH: every injected outage must end as "
                  "a restart or a brick\n");
    }
  }

  uint64_t sched_sheds_total = 0;
  uint64_t sched_giveups_total = 0;
  uint64_t sched_hedged_total = 0;
  uint64_t sched_hedge_wins_total = 0;
  bool sched_ledger_exact = true;
  if (sched.enabled()) {
    bench::PrintSection("queueing & graceful degradation reconciliation");
    // Harness-side sums, straight from each universe's DifsStats.
    uint64_t harness_read_sheds = 0;
    uint64_t harness_write_sheds = 0;
    uint64_t harness_recovery_sheds = 0;
    uint64_t harness_scrub_sheds = 0;
    uint64_t harness_wait_ns = 0;
    for (const UniverseResult& r : results) {
      harness_read_sheds += r.stats.sched_read_sheds;
      harness_write_sheds += r.stats.sched_write_sheds;
      harness_recovery_sheds += r.stats.sched_recovery_sheds;
      harness_scrub_sheds += r.stats.sched_scrub_sheds;
      harness_wait_ns += r.stats.sched_wait_ns;
      sched_hedged_total += r.stats.sched_hedged_reads;
      sched_hedge_wins_total += r.stats.sched_hedge_wins;
    }
    sched_sheds_total = harness_read_sheds + harness_write_sheds +
                        harness_recovery_sheds + harness_scrub_sheds;
    // Registry side: cluster-level shed classes and the per-device queue
    // giveup counter, both merged additively across universes.
    const auto counter = [&](const char* name) {
      const Counter* c = merged.FindCounter(name);
      return c != nullptr ? c->value() : 0;
    };
    const uint64_t exported_sheds = counter("difs.sched.read_sheds") +
                                    counter("difs.sched.write_sheds") +
                                    counter("difs.sched.recovery_sheds") +
                                    counter("difs.sched.scrub_sheds");
    sched_giveups_total = counter("ssd.sched.shed_giveups");
    std::printf("queue_depth=%llu arrival_interval_us=%llu "
                "hedge_threshold_us=%llu slo_p99_us=%llu\n",
                static_cast<unsigned long long>(sched_flags.queue_depth),
                static_cast<unsigned long long>(
                    sched_flags.arrival_interval_us),
                static_cast<unsigned long long>(
                    sched_flags.hedge_threshold_us),
                static_cast<unsigned long long>(sched_flags.slo_p99_us));
    std::printf("sheds (read/write/recovery/scrub)\t%llu / %llu / %llu / "
                "%llu\n",
                static_cast<unsigned long long>(harness_read_sheds),
                static_cast<unsigned long long>(harness_write_sheds),
                static_cast<unsigned long long>(harness_recovery_sheds),
                static_cast<unsigned long long>(harness_scrub_sheds));
    std::printf("device queue giveups\t%llu\n",
                static_cast<unsigned long long>(sched_giveups_total));
    std::printf("hedged reads / wins\t%llu / %llu\n",
                static_cast<unsigned long long>(sched_hedged_total),
                static_cast<unsigned long long>(sched_hedge_wins_total));
    std::printf("brownout entered / exited\t%llu / %llu\n",
                static_cast<unsigned long long>(
                    counter("difs.sched.brownout_entered")),
                static_cast<unsigned long long>(
                    counter("difs.sched.brownout_exited")));
    // Exactness, not plausibility: every shed the clusters counted is one
    // giveup at exactly one device queue (hedges pre-check room and
    // ForceReconcile bypasses admission, so neither produces giveups), and
    // the exported registry mirrors the harness ledger event for event.
    if (exported_sheds != sched_sheds_total) {
      sched_ledger_exact = false;
      std::printf("  SCHED MISMATCH: exported sheds %llu != harness %llu\n",
                  static_cast<unsigned long long>(exported_sheds),
                  static_cast<unsigned long long>(sched_sheds_total));
    }
    if (sched_giveups_total != sched_sheds_total) {
      sched_ledger_exact = false;
      std::printf("  SCHED MISMATCH: device giveups %llu != cluster sheds "
                  "%llu\n",
                  static_cast<unsigned long long>(sched_giveups_total),
                  static_cast<unsigned long long>(sched_sheds_total));
    }
    if (counter("difs.sched.wait_ns") != harness_wait_ns) {
      sched_ledger_exact = false;
      std::printf("  SCHED MISMATCH: exported wait_ns != harness ledger\n");
    }
    if (counter("difs.sched.hedged_reads") != sched_hedged_total ||
        counter("difs.sched.hedge_wins") != sched_hedge_wins_total ||
        sched_hedge_wins_total > sched_hedged_total) {
      sched_ledger_exact = false;
      std::printf("  SCHED MISMATCH: hedge ledger does not reconcile\n");
    }
    std::printf("shed/hedge ledger exact\t%s\n",
                sched_ledger_exact ? "YES" : "NO");
    pass = pass && sched_ledger_exact;
  }

  L2pCrossCheckResult l2p;
  if (l2p_cache_entries > 0) {
    bench::PrintSection("bounded-L2P cross-check");
    l2p = RunL2pCrossCheck(l2p_cache_entries, seed);
    std::printf("l2p_cache_entries\t%llu\n",
                static_cast<unsigned long long>(l2p_cache_entries));
    std::printf("hits / misses / evictions\t%llu / %llu / %llu\n",
                static_cast<unsigned long long>(l2p.hits),
                static_cast<unsigned long long>(l2p.misses),
                static_cast<unsigned long long>(l2p.evictions));
    std::printf("map-page programs\t%llu\n",
                static_cast<unsigned long long>(l2p.map_writes));
    std::printf("flash programs (legacy / bounded)\t%llu / %llu\n",
                static_cast<unsigned long long>(l2p.legacy_programs),
                static_cast<unsigned long long>(l2p.bounded_programs));
    std::printf("map-write wear exact\t%s\n", l2p.wear_exact ? "YES" : "NO");
    std::printf("exported == ledger\t%s\n",
                l2p.telemetry_exact ? "YES" : "NO");
    if (!l2p.wear_exact || !l2p.telemetry_exact) {
      pass = false;
      std::printf("  L2P MISMATCH: %s\n", l2p.violation.c_str());
    }
  }

  std::vector<DomainArmResult> domain_arms;
  bool domain_ledger_exact = true;
  if (nodes_per_rack > 0) {
    bench::PrintSection("correlated failure domains");
    // Arm 0: uniform placement, reactive recovery only. Arm 1: the
    // --placement policy plus criticality-ordered recovery and proactive
    // drain. Same seeds, same blackout/wave schedule; thread-confined
    // registries merged here after the barrier, in arm order.
    domain_arms.resize(2);
    const std::string arm_policies[2] = {"uniform", placement_kind};
    pool.ParallelFor(2, [&](size_t begin, size_t end) {
      for (size_t a = begin; a < end; ++a) {
        RunDomainArm(arm_policies[a], seed, bursts, scrub_opages_per_day,
                     sched, static_cast<uint32_t>(nodes_per_rack),
                     rack_power_loss_per_burst, cohort_unavailable_per_burst,
                     static_cast<uint32_t>(batch_cohorts),
                     batch_endurance_sigma, drain_health_threshold,
                     domain_arms[a]);
      }
    });
    std::printf("nodes_per_rack=%llu rack_power_loss_per_burst=%g "
                "cohort_unavailable_per_burst=%g batch_cohorts=%llu "
                "batch_endurance_sigma=%g drain_health_threshold=%g\n",
                static_cast<unsigned long long>(nodes_per_rack),
                rack_power_loss_per_burst, cohort_unavailable_per_burst,
                static_cast<unsigned long long>(batch_cohorts),
                batch_endurance_sigma, drain_health_threshold);
    for (const DomainArmResult& arm : domain_arms) {
      const auto counter = [&](const char* name) {
        const Counter* c = arm.registry.FindCounter(name);
        return c != nullptr ? c->value() : 0;
      };
      std::printf("placement=%s\n", arm.placement.c_str());
      std::printf("  chunks / lost / alive\t%llu / %llu / %u\n",
                  static_cast<unsigned long long>(arm.chunks),
                  static_cast<unsigned long long>(arm.stats.chunks_lost),
                  arm.devices_alive);
      std::printf("  rack blackouts / crashes\t%llu / %llu (injected %llu)\n",
                  static_cast<unsigned long long>(arm.rack_blackouts),
                  static_cast<unsigned long long>(arm.rack_crashes),
                  static_cast<unsigned long long>(arm.injected_rack_events));
      if (batch_cohorts > 0) {
        std::printf(
            "  cohort waves / crashes\t%llu / %llu (injected %llu)\n",
            static_cast<unsigned long long>(arm.cohort_waves),
            static_cast<unsigned long long>(arm.cohort_crashes),
            static_cast<unsigned long long>(arm.injected_cohort_events));
      }
      std::printf("  restarts / bricks\t%llu / %llu\n",
                  static_cast<unsigned long long>(arm.domain_restarts),
                  static_cast<unsigned long long>(arm.domain_bricks));
      std::printf("  reactive recovery opage writes\t%llu\n",
                  static_cast<unsigned long long>(
                      counter("difs.recovery_opage_writes")));
      std::printf("  proactive drain opage writes\t%llu\n",
                  static_cast<unsigned long long>(
                      counter("difs.drain.opage_writes")));
      std::printf("  drain flagged / completed / migrated\t%llu / %llu / "
                  "%llu\n",
                  static_cast<unsigned long long>(
                      counter("difs.drain.devices_flagged")),
                  static_cast<unsigned long long>(
                      counter("difs.drain.devices_completed")),
                  static_cast<unsigned long long>(
                      counter("difs.drain.replicas_migrated")));
      std::printf("  placement rejections / fallbacks\t%llu / %llu\n",
                  static_cast<unsigned long long>(
                      counter("difs.placement.domain_rejections")),
                  static_cast<unsigned long long>(
                      counter("difs.placement.domain_fallbacks")));
      domain_ledger_exact = domain_ledger_exact && arm.ledger_exact;
      if (!(arm.invariants_ok && arm.converged && arm.ledger_exact)) {
        pass = false;
        std::printf("  DOMAIN VIOLATION: %s\n", arm.first_violation.c_str());
      }
      // The headline robustness claim: domain-spread placement survives
      // correlated whole-rack blackouts with zero chunk loss.
      if (arm.placement == "domain-spread" && arm.stats.chunks_lost != 0) {
        pass = false;
        std::printf("  DOMAIN VIOLATION: domain-spread lost chunks under "
                    "correlated blackouts\n");
      }
    }
    // The acceptance comparison: spread + proactive drain must spend
    // measurably less reactive recovery I/O than the uniform baseline on the
    // same fault universe (the drain's migrations are accounted separately).
    if (placement_kind == "domain-spread" && drain_health_threshold > 0.0) {
      const uint64_t baseline_reactive =
          domain_arms[0].stats.recovery_opage_writes;
      const uint64_t treatment_reactive =
          domain_arms[1].stats.recovery_opage_writes;
      std::printf("reactive recovery writes (uniform vs domain-spread+drain)"
                  "\t%llu vs %llu\n",
                  static_cast<unsigned long long>(baseline_reactive),
                  static_cast<unsigned long long>(treatment_reactive));
      if (treatment_reactive >= baseline_reactive) {
        pass = false;
        std::printf("  DOMAIN VIOLATION: proactive drain did not reduce "
                    "reactive recovery traffic\n");
      }
    }
  }

  if (!merged.WriteJsonFile(metrics_out)) {
    std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
    pass = false;
  }
  if (!merged_trace.WriteJsonFile(trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    pass = false;
  }
  std::printf("\nwrote %s (%zu instruments), %s (%zu events)\n",
              metrics_out.c_str(), merged.instrument_count(),
              trace_out.c_str(), merged_trace.event_count());

  FILE* summary = std::fopen("BENCH_chaos.json", "w");
  if (summary == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_chaos.json\n");
    pass = false;
  } else {
    std::fprintf(summary,
                 "{\n"
                 "  \"bench\": \"chaos_soak\",\n"
                 "  \"universes\": %llu,\n"
                 "  \"bursts\": %llu,\n"
                 "  \"seed\": %llu,\n"
                 "  \"scrub_opages_per_day\": %llu,\n"
                 "  \"chunks_lost\": %llu,\n"
                 "  \"replicas_recovered\": %llu,\n"
                 "  \"faults_injected_total\": %llu,\n"
                 "  \"read_corrupt_injected\": %llu,\n"
                 "  \"integrity_detected\": %llu,\n"
                 "  \"integrity_marked_bad\": %llu,\n"
                 "  \"scrub_opage_reads\": %llu,\n"
                 "  \"scrub_detected\": %llu,\n",
                 static_cast<unsigned long long>(universes),
                 static_cast<unsigned long long>(bursts),
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(scrub_opages_per_day),
                 static_cast<unsigned long long>(
                     merged.GetCounter("difs.chunks_lost").value()),
                 static_cast<unsigned long long>(
                     merged.GetCounter("difs.replicas_recovered").value()),
                 static_cast<unsigned long long>(
                     merged.GetCounter("faults.injected_total").value() +
                     merged.GetCounter("cluster_faults.injected_total")
                         .value()),
                 static_cast<unsigned long long>(injected_total),
                 static_cast<unsigned long long>(detected_total),
                 static_cast<unsigned long long>(
                     merged.GetCounter("difs.integrity.marked_bad").value()),
                 static_cast<unsigned long long>(
                     merged.GetCounter("difs.scrub.opage_reads").value()),
                 static_cast<unsigned long long>(
                     merged.GetCounter("difs.scrub.detected").value()));
    if (power_loss_per_burst > 0.0) {
      std::fprintf(summary,
                   "  \"power_loss_per_burst\": %g,\n"
                   "  \"power_losses\": %llu,\n"
                   "  \"power_restarts\": %llu,\n"
                   "  \"power_loss_bricks\": %llu,\n"
                   "  \"journal_replays\": %llu,\n",
                   power_loss_per_burst,
                   static_cast<unsigned long long>(power_losses_total),
                   static_cast<unsigned long long>(power_restarts_total),
                   static_cast<unsigned long long>(permanent_upgrades_total),
                   static_cast<unsigned long long>(
                       merged.GetCounter("ftl.journal.replays").value()));
    }
    if (sched.enabled()) {
      std::fprintf(summary,
                   "  \"queue_depth\": %llu,\n"
                   "  \"sched_sheds_total\": %llu,\n"
                   "  \"sched_shed_giveups\": %llu,\n"
                   "  \"sched_hedged_reads\": %llu,\n"
                   "  \"sched_hedge_wins\": %llu,\n"
                   "  \"sched_ledger_exact\": %s,\n",
                   static_cast<unsigned long long>(sched.queue_depth),
                   static_cast<unsigned long long>(sched_sheds_total),
                   static_cast<unsigned long long>(sched_giveups_total),
                   static_cast<unsigned long long>(sched_hedged_total),
                   static_cast<unsigned long long>(sched_hedge_wins_total),
                   sched_ledger_exact ? "true" : "false");
    }
    if (nodes_per_rack > 0) {
      const auto arm_counter = [&](const DomainArmResult& arm,
                                   const char* name) {
        const Counter* c = arm.registry.FindCounter(name);
        return static_cast<unsigned long long>(c != nullptr ? c->value() : 0);
      };
      std::fprintf(
          summary,
          "  \"nodes_per_rack\": %llu,\n"
          "  \"rack_power_loss_per_burst\": %g,\n"
          "  \"cohort_unavailable_per_burst\": %g,\n"
          "  \"batch_cohorts\": %llu,\n"
          "  \"batch_endurance_sigma\": %g,\n"
          "  \"drain_health_threshold\": %g,\n"
          "  \"domain_placement\": \"%s\",\n"
          "  \"domain_rack_blackouts\": %llu,\n"
          "  \"domain_rack_crashes\": %llu,\n"
          "  \"domain_cohort_waves\": %llu,\n"
          "  \"domain_restarts\": %llu,\n"
          "  \"chunks_lost_baseline\": %llu,\n"
          "  \"chunks_lost_treatment\": %llu,\n"
          "  \"recovery_writes_baseline\": %llu,\n"
          "  \"recovery_writes_treatment\": %llu,\n"
          "  \"drain_writes_treatment\": %llu,\n"
          "  \"drain_devices_flagged\": %llu,\n"
          "  \"domain_ledger_exact\": %s,\n",
          static_cast<unsigned long long>(nodes_per_rack),
          rack_power_loss_per_burst, cohort_unavailable_per_burst,
          static_cast<unsigned long long>(batch_cohorts),
          batch_endurance_sigma, drain_health_threshold,
          domain_arms[1].placement.c_str(),
          static_cast<unsigned long long>(domain_arms[1].rack_blackouts),
          static_cast<unsigned long long>(domain_arms[1].rack_crashes),
          static_cast<unsigned long long>(domain_arms[1].cohort_waves),
          static_cast<unsigned long long>(domain_arms[1].domain_restarts),
          static_cast<unsigned long long>(domain_arms[0].stats.chunks_lost),
          static_cast<unsigned long long>(domain_arms[1].stats.chunks_lost),
          arm_counter(domain_arms[0], "difs.recovery_opage_writes"),
          arm_counter(domain_arms[1], "difs.recovery_opage_writes"),
          arm_counter(domain_arms[1], "difs.drain.opage_writes"),
          arm_counter(domain_arms[1], "difs.drain.devices_flagged"),
          domain_ledger_exact ? "true" : "false");
    }
    if (l2p_cache_entries > 0) {
      std::fprintf(summary,
                   "  \"l2p_cache_entries\": %llu,\n"
                   "  \"l2p_hits\": %llu,\n"
                   "  \"l2p_misses\": %llu,\n"
                   "  \"l2p_evictions\": %llu,\n"
                   "  \"l2p_map_writes\": %llu,\n"
                   "  \"l2p_wear_exact\": %s,\n"
                   "  \"l2p_telemetry_exact\": %s,\n",
                   static_cast<unsigned long long>(l2p_cache_entries),
                   static_cast<unsigned long long>(l2p.hits),
                   static_cast<unsigned long long>(l2p.misses),
                   static_cast<unsigned long long>(l2p.evictions),
                   static_cast<unsigned long long>(l2p.map_writes),
                   l2p.wear_exact ? "true" : "false",
                   l2p.telemetry_exact ? "true" : "false");
    }
    std::fprintf(summary,
                 "  \"metrics_file\": \"%s\",\n"
                 "  \"trace_file\": \"%s\",\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 metrics_out.c_str(), trace_out.c_str(),
                 pass ? "true" : "false");
    std::fclose(summary);
    std::printf("wrote BENCH_chaos.json\n");
  }

  bench::PrintSection("verdict");
  std::printf("CHAOS SOAK: %s\n", pass ? "PASS" : "FAIL");
  std::printf(
      "Determinism contract: this output is byte-identical for any --threads\n"
      "value and across repeated runs with the same --seed.\n");
  return pass ? 0 : 1;
}
