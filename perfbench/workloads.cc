#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/status.h"
#include "difs/cluster.h"
#include "difs/ec_cluster.h"
#include "ecc/tiredness.h"
#include "faults/fault_injector.h"
#include "fleet/fleet_sim.h"
#include "flash/geometry.h"
#include "flash/wear_model.h"
#include "sched/queueing.h"
#include "ssd/ssd_device.h"
#include "telemetry/metrics.h"
#include "workload/traffic.h"

namespace perfbench {
namespace {

using salamander::DifsCluster;
using salamander::DifsConfig;
using salamander::EcCluster;
using salamander::EcConfig;
using salamander::FaultConfig;
using salamander::FaultInjector;
using salamander::FaultSite;
using salamander::FleetConfig;
using salamander::FleetSim;
using salamander::FleetSnapshot;
using salamander::FlashGeometry;
using salamander::FPageEccGeometry;
using salamander::LogHistogram;
using salamander::MetricRegistry;
using salamander::Rng;
using salamander::SchedConfig;
using salamander::SimDuration;
using salamander::SsdConfig;
using salamander::SsdDevice;
using salamander::SsdKind;
using salamander::Status;
using salamander::TenantConfig;
using salamander::TrafficEngine;
using salamander::TrafficOp;
using salamander::WearModel;
using salamander::WearModelConfig;

// ---- fleet_datacenter ------------------------------------------------------
// The datacenter profile's shape. The device count is sized so one
// repetition takes about a second on a 4-vCPU Xeon VM, which leaves room for
// tens of repetitions per run; the median over them damps host noise.
constexpr uint32_t kFleetDevices = 200;
constexpr uint32_t kFleetDays = 1825;

// ---- difs_serve ------------------------------------------------------------
constexpr uint32_t kDifsNodes = 8;
constexpr uint32_t kDifsTenants = 6;
constexpr double kDifsOpsPerTenantDay = 4000.0;
constexpr double kDifsReadFraction = 0.85;
constexpr uint32_t kDifsDays = 40;
constexpr uint64_t kDifsScrubOPagesPerDay = 128;
// Endurance high enough that nothing wears out: this workload measures the
// serving path, not recovery.
constexpr uint32_t kDifsNominalPec = 3000;

// ---- ec_crash --------------------------------------------------------------
constexpr uint32_t kEcNodes = 8;
constexpr uint32_t kEcTenants = 4;
constexpr double kEcOpsPerTenantDay = 2400.0;
constexpr double kEcReadFraction = 0.25;
constexpr uint32_t kEcDays = 16;
// Low enough that mDisks decommission and regenerate during the run.
constexpr uint32_t kEcNominalPec = 70;
// A DRAM map window smaller than each device's L2P map, so map pages page.
constexpr uint64_t kEcL2pCacheEntries = 1024;
constexpr double kEcReadCorrupt = 2e-4;
// One device, drawn from the benchmark's seeded stream, loses power on every
// this many simulated days. A fixed count keeps the crash work the same on
// every seed.
constexpr uint32_t kEcPowerLossEveryDays = 2;
// The cluster ticks maintenance every this many foreground ops; a dark device
// is suspect, not lost, for kEcSuspectGraceTicks ticks after the first one.
constexpr uint64_t kEcMaintenanceIntervalOps = 256;
constexpr uint32_t kEcSuspectGraceTicks = 8;
// A crashed device restarts after this many ops: half the grace window, so it
// always returns as a suspect and its journal replay is reconciled.
constexpr uint64_t kEcDarkOps =
    kEcSuspectGraceTicks / 2 * kEcMaintenanceIntervalOps;

constexpr uint32_t kUnitOPages = 64;  // chunk / cell size == mSize

class Stopwatch {
 public:
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

// FNV-1a over 64-bit words.
class Hash {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (value >> (8 * i)) & 0xff;
      state_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

uint64_t CounterOf(const MetricRegistry& registry, const std::string& name) {
  const salamander::Counter* counter = registry.FindCounter(name);
  return counter == nullptr ? 0 : counter->value();
}

WearModelConfig Wear(uint32_t nominal_pec) {
  const FPageEccGeometry ecc;
  return WearModel::Calibrate(
      salamander::ComputeTirednessLevel(ecc, 0).max_tolerable_rber,
      nominal_pec);
}

// FTL, flash and device counts every workload reads from CollectMetrics, and
// the write amplification derived from them. Returns the host writes.
double AddDeviceCounts(const MetricRegistry& registry, RepResult& out) {
  const double host_writes = CounterOf(registry, "ftl.host_writes");
  const double host_reads = CounterOf(registry, "ftl.host_reads");
  const double gc = CounterOf(registry, "ftl.gc_relocations");
  const double map_writes = CounterOf(registry, "ftl.l2p.map_writes");
  const double l2p_hits = CounterOf(registry, "ftl.l2p.hits");
  const double l2p_misses = CounterOf(registry, "ftl.l2p.misses");
  out.sim["sim_write_amp"] = Ratio(host_writes + gc + map_writes, host_writes);
  out.counts["ftl.gc_relocations_per_host_write"] = Ratio(gc, host_writes);
  out.counts["ftl.erases_per_host_write"] =
      Ratio(CounterOf(registry, "ftl.erases"), host_writes);
  out.counts["ftl.read_retries_per_host_read"] =
      Ratio(CounterOf(registry, "ftl.read_retries"), host_reads);
  out.counts["ftl.l2p.miss_ratio"] =
      Ratio(l2p_misses, l2p_hits + l2p_misses);
  out.counts["ftl.l2p.map_writes_per_host_write"] =
      Ratio(map_writes, host_writes);
  out.counts["flash.programs_per_host_write"] =
      Ratio(CounterOf(registry, "flash.programs"), host_writes);
  out.counts["flash.reads_per_host_read"] =
      Ratio(CounterOf(registry, "flash.reads"), host_reads);
  out.counts["flash.erases"] = CounterOf(registry, "flash.erases");
  out.counts["ssd.decommissioned"] =
      CounterOf(registry, "ssd.decommissioned_total");
  out.counts["ssd.regenerated"] = CounterOf(registry, "ssd.regenerated_total");
  out.counts["ssd.dropped_events"] = CounterOf(registry, "ssd.dropped_events");
  out.counts["ssd.restarts"] = CounterOf(registry, "ssd.restarts");
  out.counts["faults.injected.read_corrupt"] =
      CounterOf(registry, "faults.injected.read_corrupt");
  return host_writes;
}

void AddCollectTime(const TraceSummary& summary, RepResult& out) {
  out.host["telemetry.collect_s"] =
      static_cast<double>(summary[SpanName::kCollectMetrics].total_ns) * 1e-9;
}

// ---- fleet_datacenter ------------------------------------------------------

FleetConfig DatacenterFleet(uint64_t seed) {
  FleetConfig config;
  config.kind = SsdKind::kRegenS;
  config.devices = kFleetDevices;
  config.geometry.channels = 1;
  config.geometry.dies_per_channel = 1;
  config.geometry.planes_per_die = 1;
  config.geometry.blocks_per_plane = 8;
  config.geometry.fpages_per_block = 8;
  config.ecc = FPageEccGeometry{};
  config.wear = Wear(160);
  config.msize_opages = 64;
  config.dwpd = 0.5;
  config.dwpd_sigma = 0.3;
  config.afr = 0.02;
  config.days = kFleetDays;
  config.sample_every_days = 30;
  config.seed = seed;
  config.threads = 1;
  config.scheduler = salamander::FleetSchedulerMode::kEventDriven;
  // Telemetry stays detached (metrics/sampler/trace null): attaching a
  // registry forces a per-day scrape. CollectMetrics runs once afterwards.
  return config;
}

uint64_t DayOrNone(std::optional<uint32_t> day) {
  return day.has_value() ? *day : UINT64_MAX;
}

RepResult RunFleetDatacenter(uint64_t seed, Tracer& tracer) {
  RepResult out;
  const FleetConfig config = DatacenterFleet(seed);
  double host_writes = 0.0;
  const Stopwatch wall;
  {
    std::optional<FleetSim> sim;
    {
      SpanScope setup(tracer, SpanName::kSetup);
      SpanScope ctor(tracer, SpanName::kFleetCtor);
      sim.emplace(config);
    }
    out.setup_s = wall.Seconds();

    std::vector<FleetSnapshot> snapshots;
    const Stopwatch run;
    {
      SpanScope span(tracer, SpanName::kRun);
      snapshots = Traced(tracer, SpanName::kFleetRun, [&] { return sim->Run(); });
    }
    out.run_s = run.Seconds();
    out.ops = static_cast<uint64_t>(config.devices) * config.days;

    MetricRegistry registry;
    {
      SpanScope span(tracer, SpanName::kCollect);
      SpanScope collect(tracer, SpanName::kCollectMetrics);
      sim->CollectMetrics(registry);
    }

    Hash hash;
    for (const FleetSnapshot& s : snapshots) {
      hash.Add(s.day);
      hash.Add(s.functioning_devices);
      hash.Add(s.capacity_bytes);
      hash.Add(s.cumulative_decommissions);
      hash.Add(s.cumulative_regenerations);
      hash.Add(s.cumulative_host_writes);
    }
    for (double fraction : {0.9, 0.5, 0.1}) {
      hash.Add(DayOrNone(sim->DayDevicesBelow(fraction)));
      hash.Add(DayOrNone(sim->DayCapacityBelow(fraction)));
    }
    out.hash = hash.value();

    host_writes = AddDeviceCounts(registry, out);
    const std::optional<uint32_t> half_capacity = sim->DayCapacityBelow(0.5);
    out.sim["sim_lifetime_days"] =
        half_capacity.has_value() ? *half_capacity : config.days;
    const salamander::FleetSchedulerStats sched = sim->scheduler_stats();
    out.counts["fleet.scheduler_events"] = static_cast<double>(sched.events);
    out.counts["fleet.scheduler_batches"] = static_cast<double>(sched.batches);
    out.counts["fleet.days_stepped_frac"] =
        Ratio(static_cast<double>(sched.days_stepped),
              static_cast<double>(out.ops));
  }
  out.wall_s = wall.Seconds();

  if (tracer.enabled()) {
    const TraceSummary summary = Summarize(tracer);
    out.host["fleet.ctor_s"] =
        static_cast<double>(summary[SpanName::kFleetCtor].total_ns) * 1e-9;
    out.host["fleet.run_s"] =
        static_cast<double>(summary[SpanName::kFleetRun].total_ns) * 1e-9;
    out.host["fleet.ns_per_host_write"] =
        Ratio(static_cast<double>(summary[SpanName::kFleetRun].total_ns),
              host_writes);
    AddCollectTime(summary, out);
  }
  return out;
}

// ---- cluster workloads -----------------------------------------------------

// Per-op outcomes of a traffic replay: status/cost hash, and the simulated
// service costs and queue waits of the ops that succeeded. Log histograms keep
// the benchmark's own memory constant, so peak RSS measures the simulator.
struct Replay {
  Hash hash;
  uint64_t ops = 0;
  uint64_t failed = 0;
  LogHistogram read_cost_ns;
  LogHistogram write_cost_ns;
  LogHistogram wait_ns;

  void Record(const TrafficOp& op, const Status& status, SimDuration cost,
              uint64_t wait) {
    ++ops;
    hash.Add(static_cast<uint64_t>(status.code()));
    hash.Add(cost);
    if (!status.ok()) {
      ++failed;
      return;
    }
    (op.is_read ? read_cost_ns : write_cost_ns).Record(cost);
    wait_ns.Record(wait);
  }

  void AddSim(RepResult& out) const {
    out.sim["sim_read_p50_us"] = read_cost_ns.P50() * 1e-3;
    out.sim["sim_read_p999_us"] = read_cost_ns.P999() * 1e-3;
    out.sim["sim_write_p50_us"] = write_cost_ns.P50() * 1e-3;
    out.sim["sim_write_p999_us"] = write_cost_ns.P999() * 1e-3;
    out.sim["sim_read_samples"] = static_cast<double>(read_cost_ns.count());
    out.sim["sim_write_samples"] = static_cast<double>(write_cost_ns.count());
  }
};

// Multi-tenant Zipf traffic with mixed arrival shapes (steady, diurnal,
// bursty).
salamander::TrafficConfig Traffic(uint32_t tenants, double ops_per_day,
                                  double read_fraction, uint64_t seed) {
  TenantConfig tenant;
  tenant.objects = 1 << 14;
  tenant.zipf_theta = 0.99;
  tenant.read_fraction = read_fraction;
  tenant.ops_per_day = ops_per_day;
  return salamander::MakeUniformTraffic(tenants, tenant, seed,
                                        /*mixed_arrivals=*/true);
}

// Seeds for every stochastic part of a cluster workload, forked from the
// benchmark seed in a fixed order.
struct ClusterSeeds {
  uint64_t cluster = 0;
  uint64_t traffic = 0;
  uint64_t power = 0;
  std::vector<uint64_t> devices;

  ClusterSeeds(uint64_t seed, uint32_t device_count) {
    Rng root(seed);
    cluster = root.ForkSeed();
    traffic = root.ForkSeed();
    power = root.ForkSeed();
    for (uint32_t i = 0; i < device_count; ++i) {
      devices.push_back(root.ForkSeed());
    }
  }
};

void AddCallLatencies(const TraceSummary& summary, SpanName read,
                      SpanName write, const std::string& layer,
                      RepResult& out) {
  out.host[layer + ".read_call_ns_p50"] =
      Quantile(summary[read].durations_ns, 0.5);
  out.host[layer + ".read_call_ns_p99"] =
      Quantile(summary[read].durations_ns, 0.99);
  out.host[layer + ".write_call_ns_p50"] =
      Quantile(summary[write].durations_ns, 0.5);
  out.host[layer + ".write_call_ns_p99"] =
      Quantile(summary[write].durations_ns, 0.99);
}

void AddWorkloadHost(const TraceSummary& summary, uint64_t ops_emitted,
                     RepResult& out) {
  out.host["workload.emit_ns_per_op"] =
      Ratio(static_cast<double>(summary[SpanName::kTrafficEmitDay].total_ns),
            static_cast<double>(ops_emitted));
}

// Journal counts the clusters can read per device (CollectMetrics hides them
// on devices that never lost power).
template <typename Cluster>
void AddJournalCounts(Cluster& cluster, RepResult& out) {
  double appends = 0;
  double compactions = 0;
  double replays = 0;
  double buffered = 0;
  for (uint32_t i = 0; i < cluster.device_count(); ++i) {
    const salamander::Ftl& ftl = cluster.device(i).ftl();
    appends += static_cast<double>(ftl.journal().appends());
    compactions += static_cast<double>(ftl.journal().compactions());
    replays += static_cast<double>(ftl.journal_replays());
    buffered += static_cast<double>(ftl.stats().host_writes +
                                    ftl.stats().gc_relocations);
  }
  out.counts["ftl.journal.appends_per_buffered_write"] =
      Ratio(appends, buffered);
  out.counts["ftl.journal.compactions"] = compactions;
  out.counts["ftl.journal.replays"] = replays;
}

// ---- difs_serve ------------------------------------------------------------

DifsConfig ServeConfig(uint64_t cluster_seed) {
  DifsConfig config;
  config.nodes = kDifsNodes;
  config.devices_per_node = 1;
  config.replication = 3;
  config.chunk_opages = kUnitOPages;
  config.fill_fraction = 0.5;
  config.seed = cluster_seed;
  // Per-device queues with hedged reads and SLO brownout. The arrival
  // interval keeps the offered load below saturation: no growing backlog.
  SchedConfig& sched = config.sched;
  // The depth leaves room for a day's scrub burst on one device, so scrub
  // never crowds foreground ops out.
  sched.queue_depth = 256;
  sched.arrival_interval_ns = 56 * salamander::kMicrosecond;
  sched.hedge_threshold_ns = 20 * salamander::kMicrosecond;
  sched.slo_p99_ns = 30 * salamander::kMillisecond;
  sched.brownout_window_ops = 256;
  return config;
}

RepResult RunDifsServe(uint64_t seed, Tracer& tracer) {
  RepResult out;
  const ClusterSeeds seeds(seed, kDifsNodes);
  const DifsConfig config = ServeConfig(seeds.cluster);
  const WearModelConfig wear = Wear(kDifsNominalPec);
  const auto factory = [&](uint32_t index) {
    SsdConfig ssd = salamander::MakeSsdConfig(
        SsdKind::kRegenS, FlashGeometry::Small(), wear,
        salamander::FlashLatencyConfig{}, FPageEccGeometry{},
        seeds.devices[index]);
    ssd.minidisk.msize_opages = kUnitOPages;
    return std::make_unique<SsdDevice>(SsdKind::kRegenS, ssd);
  };

  const Stopwatch wall;
  {
    std::optional<DifsCluster> cluster;
    std::optional<TrafficEngine> engine;
    {
      SpanScope setup(tracer, SpanName::kSetup);
      {
        SpanScope ctor(tracer, SpanName::kDifsCtor);
        cluster.emplace(config, factory);
      }
      const Status boot = Traced(tracer, SpanName::kDifsBootstrap,
                                 [&] { return cluster->Bootstrap(); });
      if (!boot.ok()) {
        out.error = "difs bootstrap failed: " + boot.ToString();
        return out;
      }
      SpanScope ctor(tracer, SpanName::kTrafficCtor);
      engine.emplace(Traffic(kDifsTenants, kDifsOpsPerTenantDay,
                             kDifsReadFraction, seeds.traffic),
                     cluster->logical_opages());
    }
    out.setup_s = wall.Seconds();

    Replay replay;
    uint64_t scrubbed = 0;
    const Stopwatch run;
    {
      SpanScope run_span(tracer, SpanName::kRun);
      std::vector<TrafficOp> ops;
      for (uint32_t day = 0; day < kDifsDays; ++day) {
        SpanScope day_span(tracer, SpanName::kDay);
        ops.clear();
        Traced(tracer, SpanName::kTrafficEmitDay,
               [&] { return engine->EmitDay(day, &ops); });
        for (const TrafficOp& op : ops) {
          const uint64_t chunk = op.address / cluster->chunk_opages();
          const uint64_t offset = op.address % cluster->chunk_opages();
          const uint64_t wait_before = cluster->stats().sched_wait_ns;
          SimDuration cost = 0;
          const Status status =
              op.is_read
                  ? Traced(tracer, SpanName::kDifsRead,
                           [&] { return cluster->ReadChunkAt(chunk, offset, &cost); })
                  : Traced(tracer, SpanName::kDifsWrite, [&] {
                      return cluster->WriteChunkAt(chunk, offset, &cost);
                    });
          replay.Record(op, status, cost,
                        cluster->stats().sched_wait_ns - wait_before);
        }
        scrubbed += Traced(tracer, SpanName::kDifsScrub, [&] {
          return cluster->ScrubStep(kDifsScrubOPagesPerDay);
        });
      }
    }
    out.run_s = run.Seconds();
    out.ops = replay.ops;
    out.ops_failed = replay.failed;

    MetricRegistry registry;
    {
      SpanScope span(tracer, SpanName::kCollect);
      SpanScope collect(tracer, SpanName::kCollectMetrics);
      cluster->CollectMetrics(registry);
    }
    const salamander::DifsStats& stats = cluster->stats();
    Hash hash = replay.hash;
    hash.Add(engine->StreamDigest());
    for (uint64_t v : {stats.chunks_lost, stats.replicas_lost,
                       stats.recovery_opage_writes, stats.recovery_opage_reads,
                       stats.replicas_recovered, stats.scrub_opage_reads,
                       stats.scrub_repairs, stats.integrity_detected}) {
      hash.Add(v);
    }
    out.hash = hash.value();

    const Status invariants = cluster->CheckInvariants();
    if (!invariants.ok()) {
      out.error = "difs invariants: " + invariants.ToString();
    }

    replay.AddSim(out);
    out.sim["sim_units_lost"] = static_cast<double>(stats.chunks_lost);
    out.sim["sim_recovery_opages"] =
        static_cast<double>(stats.recovery_opage_writes);
    AddDeviceCounts(registry, out);
    AddJournalCounts(*cluster, out);
    uint64_t brownouts = 0;
    if (cluster->brownout() != nullptr) {
      brownouts = cluster->brownout()->stats().entered;
    }
    out.counts["sched.wait_ns_p99"] = static_cast<double>(replay.wait_ns.P99());
    out.counts["sched.sheds"] =
        static_cast<double>(stats.sched_read_sheds + stats.sched_write_sheds +
                            stats.sched_recovery_sheds +
                            stats.sched_scrub_sheds);
    out.counts["sched.hedged_reads"] =
        static_cast<double>(stats.sched_hedged_reads);
    out.counts["sched.hedge_win_ratio"] =
        Ratio(static_cast<double>(stats.sched_hedge_wins),
              static_cast<double>(stats.sched_hedged_reads));
    out.counts["sched.brownout_entered"] = static_cast<double>(brownouts);
    out.counts["integrity.scrub_opage_reads"] = static_cast<double>(scrubbed);
    out.counts["integrity.detected"] =
        static_cast<double>(stats.integrity_detected);
    out.counts["integrity.repairs"] = static_cast<double>(
        stats.integrity_marked_bad + stats.scrub_repairs);

    if (tracer.enabled()) {
      const TraceSummary summary = Summarize(tracer);
      AddCallLatencies(summary, SpanName::kDifsRead, SpanName::kDifsWrite,
                       "difs", out);
      out.host["difs.bootstrap_s"] =
          static_cast<double>(summary[SpanName::kDifsBootstrap].total_ns) *
          1e-9;
      out.host["integrity.scrub_ns_per_opage"] =
          Ratio(static_cast<double>(summary[SpanName::kDifsScrub].total_ns),
                static_cast<double>(scrubbed));
      AddWorkloadHost(summary, engine->ops_emitted(), out);
      AddCollectTime(summary, out);
    }
  }
  out.wall_s = wall.Seconds();
  return out;
}

// ---- ec_crash --------------------------------------------------------------

EcConfig CrashConfig(uint64_t cluster_seed) {
  EcConfig config;
  config.nodes = kEcNodes;
  config.devices_per_node = 1;
  config.data_cells = 4;
  config.parity_cells = 2;
  config.cell_opages = kUnitOPages;
  config.fill_fraction = 0.5;
  config.seed = cluster_seed;
  config.maintenance_interval_ops = kEcMaintenanceIntervalOps;
  config.suspect_grace_ticks = kEcSuspectGraceTicks;
  return config;
}

RepResult RunEcCrash(uint64_t seed, Tracer& tracer) {
  RepResult out;
  const ClusterSeeds seeds(seed, kEcNodes);
  const EcConfig config = CrashConfig(seeds.cluster);
  const WearModelConfig wear = Wear(kEcNominalPec);
  std::vector<std::shared_ptr<FaultInjector>> injectors;
  const auto factory = [&](uint32_t index) {
    SsdConfig ssd = salamander::MakeSsdConfig(
        SsdKind::kRegenS, FlashGeometry::Small(), wear,
        salamander::FlashLatencyConfig{}, FPageEccGeometry{},
        seeds.devices[index]);
    ssd.minidisk.msize_opages = kUnitOPages;
    ssd.ftl.l2p_cache_entries = kEcL2pCacheEntries;
    FaultConfig faults;
    faults.read_corrupt = kEcReadCorrupt;
    faults.seed = seeds.devices[index];
    ssd.faults = std::make_shared<FaultInjector>(faults, index);
    injectors.push_back(ssd.faults);
    return std::make_unique<SsdDevice>(SsdKind::kRegenS, ssd);
  };

  const Stopwatch wall;
  {
    std::optional<EcCluster> cluster;
    std::optional<TrafficEngine> engine;
    {
      SpanScope setup(tracer, SpanName::kSetup);
      {
        SpanScope ctor(tracer, SpanName::kEcCtor);
        cluster.emplace(config, factory);
      }
      const Status boot = Traced(tracer, SpanName::kEcBootstrap,
                                 [&] { return cluster->Bootstrap(); });
      if (!boot.ok()) {
        out.error = "ec bootstrap failed: " + boot.ToString();
        return out;
      }
      SpanScope ctor(tracer, SpanName::kTrafficCtor);
      engine.emplace(
          Traffic(kEcTenants, kEcOpsPerTenantDay, kEcReadFraction, seeds.traffic),
          cluster->logical_opages());
    }
    out.setup_s = wall.Seconds();

    Replay replay;
    Rng power(seeds.power);
    uint64_t power_losses = 0;
    uint64_t restarts = 0;
    const Stopwatch run;
    {
      SpanScope run_span(tracer, SpanName::kRun);
      std::vector<TrafficOp> ops;
      for (uint32_t day = 0; day < kEcDays; ++day) {
        SpanScope day_span(tracer, SpanName::kDay);
        ops.clear();
        Traced(tracer, SpanName::kTrafficEmitDay,
               [&] { return engine->EmitDay(day, &ops); });
        // At most one device is dark at a time, and it comes back after
        // kEcDarkOps ops: RS(4+2) keeps every stripe readable meanwhile.
        std::optional<uint32_t> dark;
        if (day % kEcPowerLossEveryDays == kEcPowerLossEveryDays - 1) {
          const uint32_t device =
              static_cast<uint32_t>(power.UniformU64(cluster->device_count()));
          if (!cluster->device(device).failed()) {
            SpanScope crash(tracer, SpanName::kSsdCrash);
            cluster->device(device).Crash(SsdDevice::CrashKind::kPowerLoss);
            ++power_losses;
            dark = device;
          }
        }
        const auto restart = [&] {
          const Status status = Traced(tracer, SpanName::kSsdRestart, [&] {
            return cluster->device(*dark).Restart();
          });
          if (!status.ok() && out.error.empty()) {
            out.error = "restart failed: " + status.ToString();
          }
          restarts += status.ok() ? 1 : 0;
          dark.reset();
        };
        for (size_t i = 0; i < ops.size(); ++i) {
          if (dark.has_value() && i == kEcDarkOps) {
            restart();
          }
          const TrafficOp& op = ops[i];
          const uint64_t cell = op.address / cluster->cell_opages();
          const uint64_t stripe = cell / cluster->data_cells();
          const uint32_t data_cell =
              static_cast<uint32_t>(cell % cluster->data_cells());
          const uint64_t offset = op.address % cluster->cell_opages();
          SimDuration cost = 0;
          const Status status =
              op.is_read ? Traced(tracer, SpanName::kEcRead,
                                  [&] {
                                    return cluster->ReadLogicalAt(
                                        stripe, data_cell, offset, &cost);
                                  })
                         : Traced(tracer, SpanName::kEcWrite, [&] {
                             return cluster->WriteLogicalAt(stripe, data_cell,
                                                            offset, &cost);
                           });
          replay.Record(op, status, cost, 0);
        }
        if (dark.has_value()) {
          restart();
        }
      }
    }
    out.run_s = run.Seconds();
    out.ops = replay.ops;
    out.ops_failed = replay.failed;

    MetricRegistry registry;
    {
      SpanScope span(tracer, SpanName::kCollect);
      SpanScope collect(tracer, SpanName::kCollectMetrics);
      cluster->CollectMetrics(registry);
    }
    const salamander::EcStats& stats = cluster->stats();
    Hash hash = replay.hash;
    hash.Add(engine->StreamDigest());
    for (uint64_t v : {stats.stripes_lost, stats.cells_lost,
                       stats.rebuild_opage_writes, stats.rebuild_opage_reads,
                       stats.cells_rebuilt, stats.degraded_reads,
                       stats.integrity_detected, stats.integrity_marked_bad,
                       stats.suspect_cells_revived, stats.suspect_cells_stale,
                       power_losses, restarts}) {
      hash.Add(v);
    }
    out.hash = hash.value();

    // Ledgers that must reconcile exactly: every injected corruption was
    // observed by the cluster, and every power loss the benchmark caused
    // reached an FTL and ended in a restart inside its suspect window.
    uint64_t injected_corrupt = 0;
    for (const auto& injector : injectors) {
      injected_corrupt += injector->stats().count(FaultSite::kReadCorrupt);
    }
    uint64_t ftl_power_losses = 0;
    for (uint32_t i = 0; i < cluster->device_count(); ++i) {
      ftl_power_losses += cluster->device(i).ftl().power_losses();
    }
    if (out.error.empty() && injected_corrupt != stats.integrity_detected) {
      out.error = "integrity ledger: injected " +
                  std::to_string(injected_corrupt) + " != detected " +
                  std::to_string(stats.integrity_detected);
    }
    if (out.error.empty() &&
        (ftl_power_losses != power_losses || restarts != power_losses ||
         stats.suspect_devices_returned != power_losses ||
         stats.suspect_windows_expired != 0)) {
      out.error = "power-loss ledger: crashes " + std::to_string(power_losses) +
                  ", ftl " + std::to_string(ftl_power_losses) +
                  ", restarts " + std::to_string(restarts) +
                  ", returned suspects " +
                  std::to_string(stats.suspect_devices_returned) +
                  ", expired windows " +
                  std::to_string(stats.suspect_windows_expired);
    }

    replay.AddSim(out);
    out.sim["sim_units_lost"] = static_cast<double>(stats.stripes_lost);
    out.sim["sim_recovery_opages"] =
        static_cast<double>(stats.rebuild_opage_writes);
    AddDeviceCounts(registry, out);
    AddJournalCounts(*cluster, out);
    out.counts["faults.injected.power_loss"] =
        static_cast<double>(power_losses);
    out.counts["integrity.detected"] =
        static_cast<double>(stats.integrity_detected);
    out.counts["integrity.repairs"] =
        static_cast<double>(stats.integrity_marked_bad);
    out.counts["ec.reconstruct_reads"] =
        static_cast<double>(stats.rebuild_opage_reads);
    out.counts["ec.rebuild_opage_writes"] =
        static_cast<double>(stats.rebuild_opage_writes);

    if (tracer.enabled()) {
      const TraceSummary summary = Summarize(tracer);
      AddCallLatencies(summary, SpanName::kEcRead, SpanName::kEcWrite, "ec",
                       out);
      out.host["ec.bootstrap_s"] =
          static_cast<double>(summary[SpanName::kEcBootstrap].total_ns) * 1e-9;
      const SpanStats& restart_spans = summary[SpanName::kSsdRestart];
      out.host["ssd.restart_ns_p50"] = Quantile(restart_spans.durations_ns, 0.5);
      out.host["ssd.restart_ns_max"] = Quantile(restart_spans.durations_ns, 1.0);
      AddWorkloadHost(summary, engine->ops_emitted(), out);
      AddCollectTime(summary, out);
    }
  }
  out.wall_s = wall.Seconds();
  return out;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"fleet_datacenter",
       "FleetSim datacenter profile: per-device setup, the event scheduler "
       "and the FTL write/GC path; all writes, no clusters",
       &RunFleetDatacenter},
      {"difs_serve",
       "read-mostly Zipf traffic through replicated diFS with queues, hedging, "
       "brownout and daily scrub; barely touches GC or the fleet",
       &RunDifsServe},
      {"ec_crash",
       "write-heavy traffic through RS(4+2) with L2P paging, power loss, "
       "journal replay, read corruption and mDisk regeneration",
       &RunEcCrash},
  };
  return workloads;
}

}  // namespace perfbench
