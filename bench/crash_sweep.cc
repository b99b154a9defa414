// Deterministic crash-point sweep (crash-restart recovery gate).
//
// Phase A — FTL replay sweep. A fixed op sequence (writes/trims/flushes from
// a seeded RNG) runs against a small FTL. For every op boundary o and every
// torn-record count tau in [0, unsynced journal tail at o] — i.e. every
// journal record boundary a power loss can land on — a fresh FTL executes
// ops [0, o), suffers SimulatePowerLoss(tau), and replays. Asserted per run:
//
//  * Replay() succeeds (it returns CheckInvariants() on the rebuilt state);
//  * every durably-mapped logical page keeps its exact pre-crash slot
//    (tau = 0), or keeps it unless flagged rolled back (tau > 0);
//  * every page whose newest acknowledged write was still buffered is
//    flagged rolled back — volatile buffers never survive;
//  * unmapped/trimmed pages stay unmapped (or are flagged rolled back when
//    the trim record itself was torn);
//  * a second power loss + replay reproduces the same StateDigest();
//  * the replayed FTL still serves writes and reads.
//
// Crash points are sharded across a thread pool; the per-point digest
// vector must be byte-identical to a serial sweep (--threads only buys
// wall-clock, as everywhere else in this repo).
//
// Phase B — cluster crash scenarios. Small diFS (R=3) and EC (RS(2+2))
// universes whose devices carry torn-journal-write injectors. Each scenario
// power-fails one device and drives it through a suspect-window path —
// restart within grace, grace expiry, brick upgrade mid-window, and the
// legacy grace=0 declare-immediately path — then reconciles to quiescence
// and asserts zero chunk/stripe loss, full re-replication, cluster
// invariants, and the expected suspect-window counters. Scenarios are
// independent universes, run twice (and across the pool) to prove the
// outcome digests are reproducible.
//
// Emits BENCH_crash_sweep.json (cwd); exits nonzero on any violation so it
// can run as a CI gate.
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "difs/cluster.h"
#include "difs/ec_cluster.h"
#include "ecc/tiredness.h"
#include "faults/fault_injector.h"
#include "flash/wear_model.h"
#include "ftl/ftl.h"
#include "ssd/ssd_device.h"

namespace salamander {
namespace {

// ---------------------------------------------------------------------------
// Digest helpers (FNV-1a over little-endian words, same flavor the FTL uses)
// ---------------------------------------------------------------------------

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FoldU64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Phase A — FTL replay sweep
// ---------------------------------------------------------------------------

struct SweepOp {
  enum Kind : uint8_t { kWrite, kTrim, kFlush };
  Kind kind = kWrite;
  uint64_t lpo = 0;
};

FtlConfig SweepFtlConfig(uint64_t l2p_cache_entries = 0) {
  FtlConfig config;
  // 16 blocks x 16 fPages x 4 oPages = 1024 physical oPages: large enough
  // for GC and journal compaction to engage, small enough that thousands of
  // prefix re-executions stay cheap.
  config.geometry.channels = 1;
  config.geometry.dies_per_channel = 1;
  config.geometry.planes_per_die = 1;
  config.geometry.blocks_per_plane = 16;
  config.geometry.fpages_per_block = 16;
  config.ecc_geometry = FPageEccGeometry{};
  // Endurance far beyond the sweep's write volume: wear-out must not
  // interleave page retirements with the crash/replay assertions.
  config.wear = WearModel::Calibrate(
      ComputeTirednessLevel(config.ecc_geometry, 0).max_tolerable_rber,
      /*nominal_pec=*/1000000);
  config.seed = 20260805;
  if (l2p_cache_entries > 0) {
    // Bounded-L2P universe: tiny (8-entry) map pages spread the logical
    // space across many map pages, so dirty-map write-back — and therefore
    // unsynced kMapFlush records — lands between most op boundaries, putting
    // torn map flushes squarely inside the tau sweep.
    config.l2p_cache_entries = l2p_cache_entries;
    config.l2p_entries_per_map_page = 8;
  }
  return config;
}

std::vector<SweepOp> MakeOps(uint64_t count, uint64_t logical_opages,
                             uint64_t seed) {
  Rng rng(seed);
  std::vector<SweepOp> ops;
  ops.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SweepOp op;
    const uint64_t kind = rng.UniformInRange(0, 99);
    op.kind = kind < 70    ? SweepOp::kWrite
              : kind < 88  ? SweepOp::kTrim
                           : SweepOp::kFlush;
    op.lpo = rng.UniformInRange(0, logical_opages - 1);
    ops.push_back(op);
  }
  return ops;
}

std::unique_ptr<Ftl> BuildSweepFtl(uint64_t logical_opages,
                                   uint64_t l2p_cache_entries = 0) {
  auto ftl = std::make_unique<Ftl>(SweepFtlConfig(l2p_cache_entries));
  ftl->ExtendLogicalSpace(logical_opages);
  // The space extension models an mDisk carve: durable before first use, so
  // a torn tail can never shrink the logical space mid-sweep.
  ftl->SyncJournal();
  return ftl;
}

// Applies ops [0, count) and tracks, per logical page, whether its newest
// acknowledged op was a write (the oracle for the rolled-back assertions).
bool ApplyPrefix(Ftl& ftl, const std::vector<SweepOp>& ops, uint64_t count,
                 std::vector<uint8_t>& acked, std::string& error) {
  for (uint64_t i = 0; i < count; ++i) {
    const SweepOp& op = ops[i];
    switch (op.kind) {
      case SweepOp::kWrite:
        if (!ftl.Write(op.lpo).ok()) {
          error = "op " + std::to_string(i) + ": write failed";
          return false;
        }
        acked[op.lpo] = 1;
        break;
      case SweepOp::kTrim:
        if (!ftl.Trim(op.lpo).ok()) {
          error = "op " + std::to_string(i) + ": trim failed";
          return false;
        }
        acked[op.lpo] = 0;
        break;
      case SweepOp::kFlush:
        if (!ftl.Flush().ok()) {
          error = "op " + std::to_string(i) + ": flush failed";
          return false;
        }
        break;
    }
  }
  return true;
}

struct PointResult {
  uint64_t digest = 0;
  uint32_t replays = 0;
  std::vector<std::string> violations;
};

void Violation(PointResult& out, uint64_t point, uint64_t tau,
               const std::string& what) {
  if (out.violations.size() < 8) {  // keep reports readable
    out.violations.push_back("point " + std::to_string(point) + " tau " +
                             std::to_string(tau) + ": " + what);
  }
}

// Sweeps one crash point: every torn-tail length tau against the state after
// ops [0, point).
void SweepPoint(const std::vector<SweepOp>& ops, uint64_t point,
                uint64_t logical_opages, uint64_t l2p_cache_entries,
                PointResult& out) {
  out.digest = FoldU64(kFnvOffset, point);

  // Oracle, captured once: the prefix execution is deterministic, so every
  // tau variant reaches the identical pre-crash state.
  std::vector<uint64_t> pre_slot;
  std::vector<uint8_t> acked(logical_opages, 0);
  uint64_t unsynced = 0;

  for (uint64_t tau = 0; tau == 0 || tau <= unsynced; ++tau) {
    std::unique_ptr<Ftl> ftl =
        BuildSweepFtl(logical_opages, l2p_cache_entries);
    std::string error;
    std::vector<uint8_t> run_acked(logical_opages, 0);
    if (!ApplyPrefix(*ftl, ops, point, run_acked, error)) {
      Violation(out, point, tau, error);
      return;
    }
    if (tau == 0) {
      acked = run_acked;
      unsynced = ftl->journal().unsynced();
      pre_slot.resize(logical_opages);
      for (uint64_t lpo = 0; lpo < logical_opages; ++lpo) {
        pre_slot[lpo] = ftl->PhysicalSlot(lpo);
      }
    }

    ftl->SimulatePowerLoss(tau);
    const Status replayed = ftl->Replay();
    ++out.replays;
    if (!replayed.ok()) {
      Violation(out, point, tau,
                "replay failed: " + std::string(replayed.message()));
      continue;
    }

    for (uint64_t lpo = 0; lpo < logical_opages; ++lpo) {
      const uint64_t post = ftl->PhysicalSlot(lpo);
      const bool rolled_back = ftl->LpoRolledBack(lpo);
      if (pre_slot[lpo] != Ftl::kUnmappedSlot) {
        // Durably mapped before the crash: the slot must survive exactly;
        // only a torn journal tail may instead roll the page back.
        if (post != pre_slot[lpo] && (tau == 0 || !rolled_back)) {
          Violation(out, point, tau,
                    "lpo " + std::to_string(lpo) + " durable slot " +
                        std::to_string(pre_slot[lpo]) + " became " +
                        std::to_string(post) + " without rollback flag");
        }
      } else if (acked[lpo] != 0) {
        // Newest acknowledged write was still in the volatile buffer: the
        // page must be flagged rolled back, whatever tau.
        if (!rolled_back) {
          Violation(out, point, tau,
                    "lpo " + std::to_string(lpo) +
                        " lost its buffered write silently");
        }
      } else {
        // Never written, or trimmed last: stays unmapped — unless the trim
        // record itself died in the torn tail, which must be flagged.
        if (post != Ftl::kUnmappedSlot && (tau == 0 || !rolled_back)) {
          Violation(out, point, tau,
                    "lpo " + std::to_string(lpo) +
                        " reappeared after trim without rollback flag");
        }
      }
    }

    // Replay determinism: a second power loss (nothing left to lose) and
    // replay must land on the same logical state.
    const uint64_t digest_first = ftl->StateDigest();
    ftl->SimulatePowerLoss(0);
    if (!ftl->Replay().ok()) {
      Violation(out, point, tau, "second replay failed");
      continue;
    }
    if (ftl->StateDigest() != digest_first) {
      Violation(out, point, tau, "replay is not deterministic");
    }

    // Serviceability: a replayed FTL is a working FTL.
    if (!ftl->Write(0).ok() || !ftl->Flush().ok() || !ftl->Read(0).ok()) {
      Violation(out, point, tau, "replayed FTL failed post-crash I/O");
    }

    out.digest = FoldU64(out.digest, tau);
    out.digest = FoldU64(out.digest, digest_first);
  }
}

// ---------------------------------------------------------------------------
// Phase B — cluster crash scenarios
// ---------------------------------------------------------------------------

struct Scenario {
  enum Action : uint8_t {
    kRestartWithinGrace,  // dark, comes back, reconciled in place
    kGraceExpires,        // never comes back: window expires into losses
    kBrickUpgrade,        // permanent failure lands mid-window
    kLegacyRestart,       // grace = 0: declare immediately, then restart
  };
  const char* name = "";
  bool ec = false;
  uint32_t grace = 0;
  Action action = kRestartWithinGrace;
};

constexpr Scenario kScenarios[] = {
    {"difs/restart-within-grace", false, 32, Scenario::kRestartWithinGrace},
    {"difs/grace-expires", false, 2, Scenario::kGraceExpires},
    {"difs/brick-upgrade", false, 32, Scenario::kBrickUpgrade},
    {"difs/legacy-no-grace", false, 0, Scenario::kLegacyRestart},
    {"ec/restart-within-grace", true, 32, Scenario::kRestartWithinGrace},
    {"ec/grace-expires", true, 2, Scenario::kGraceExpires},
};

struct ScenarioResult {
  std::string name;
  std::string kind;
  uint64_t digest = 0;
  uint64_t data_lost = 0;       // chunks_lost / stripes_lost
  uint64_t windows_started = 0;
  uint64_t windows_expired = 0;
  uint64_t devices_returned = 0;
  std::vector<std::string> violations;
};

void ScenarioViolation(ScenarioResult& out, const std::string& what) {
  if (out.violations.size() < 8) {
    out.violations.push_back(out.name + ": " + what);
  }
}

// Cluster device geometry: 32 blocks x 16 fPages x 4 oPages = 2048 oPages,
// carved into 64-oPage mDisks.
FlashGeometry ClusterGeometry() {
  FlashGeometry g;
  g.channels = 1;
  g.dies_per_channel = 1;
  g.planes_per_die = 1;
  g.blocks_per_plane = 32;
  g.fpages_per_block = 16;
  return g;
}

// Every device journals with a guaranteed-torn tail at power loss, so each
// crash exercises the replay rollback path, not just the buffer drop.
std::function<std::unique_ptr<SsdDevice>(uint32_t)> DeviceFactory(
    SsdKind kind, uint64_t base_seed) {
  FPageEccGeometry ecc;
  const WearModelConfig wear = WearModel::Calibrate(
      ComputeTirednessLevel(ecc, 0).max_tolerable_rber,
      /*nominal_pec=*/200000);
  return [kind, base_seed, wear, ecc](uint32_t index) {
    FaultConfig faults;
    faults.torn_journal_write = 1.0;
    faults.seed = base_seed + index;
    SsdConfig config = MakeSsdConfig(kind, ClusterGeometry(), wear,
                                     FlashLatencyConfig{}, ecc,
                                     base_seed + index * 17);
    config.minidisk.msize_opages = 64;
    config.faults = std::make_shared<FaultInjector>(faults, index);
    return std::make_unique<SsdDevice>(kind, config);
  };
}

void FoldSuspectStats(ScenarioResult& out, uint64_t started, uint64_t expired,
                      uint64_t returned, uint64_t revived, uint64_t stale) {
  out.windows_started = started;
  out.windows_expired = expired;
  out.devices_returned = returned;
  out.digest = FoldU64(out.digest, started);
  out.digest = FoldU64(out.digest, expired);
  out.digest = FoldU64(out.digest, returned);
  out.digest = FoldU64(out.digest, revived);
  out.digest = FoldU64(out.digest, stale);
}

void CheckSuspectCounters(ScenarioResult& out, Scenario::Action action) {
  switch (action) {
    case Scenario::kRestartWithinGrace:
      if (out.windows_started == 0 || out.devices_returned == 0) {
        ScenarioViolation(out, "suspect window never opened/resolved");
      }
      if (out.windows_expired != 0) {
        ScenarioViolation(out, "window expired despite restart in grace");
      }
      break;
    case Scenario::kGraceExpires:
      if (out.windows_started == 0 || out.windows_expired == 0) {
        ScenarioViolation(out, "grace window did not expire");
      }
      break;
    case Scenario::kBrickUpgrade:
      if (out.windows_started == 0) {
        ScenarioViolation(out, "suspect window never opened");
      }
      if (out.devices_returned != 0) {
        ScenarioViolation(out, "bricked device counted as returned");
      }
      break;
    case Scenario::kLegacyRestart:
      if (out.windows_started != 0) {
        ScenarioViolation(out, "grace = 0 must never open a window");
      }
      break;
  }
}

void RunDifsScenario(const Scenario& scenario, SsdKind kind,
                     uint64_t base_seed, ScenarioResult& out) {
  DifsConfig config;
  config.nodes = 5;
  config.devices_per_node = 1;
  config.replication = 3;
  config.chunk_opages = 64;
  config.fill_fraction = 0.5;
  config.seed = base_seed;
  config.maintenance_interval_ops = 8;  // one maintenance tick per 8 writes
  config.suspect_grace_ticks = scenario.grace;

  DifsCluster cluster(config, DeviceFactory(kind, base_seed));
  if (!cluster.Bootstrap().ok()) {
    ScenarioViolation(out, "bootstrap failed");
    return;
  }
  (void)cluster.StepWrites(64);  // warm generations past bootstrap

  const uint32_t victim = cluster.device_count() / 2;
  cluster.device(victim).Crash(SsdDevice::CrashKind::kPowerLoss);
  switch (scenario.action) {
    case Scenario::kRestartWithinGrace:
      (void)cluster.StepWrites(96);  // 12 ticks, inside the 32-tick grace
      if (!cluster.device(victim).Restart().ok()) {
        ScenarioViolation(out, "restart failed");
        return;
      }
      (void)cluster.StepWrites(64);  // next tick reconciles the device
      break;
    case Scenario::kGraceExpires:
      (void)cluster.StepWrites(96);  // 2-tick grace expires into losses
      break;
    case Scenario::kBrickUpgrade:
      (void)cluster.StepWrites(32);  // window opens...
      cluster.device(victim).Crash(SsdDevice::CrashKind::kPermanent);
      (void)cluster.StepWrites(64);  // ...and upgrades to a brick
      break;
    case Scenario::kLegacyRestart:
      (void)cluster.StepWrites(48);  // losses declared immediately
      if (!cluster.device(victim).Restart().ok()) {
        ScenarioViolation(out, "restart failed");
        return;
      }
      (void)cluster.StepWrites(64);  // capacity re-announced and reused
      break;
  }
  cluster.ForceReconcile();

  const Status invariants = cluster.CheckInvariants();
  if (!invariants.ok()) {
    ScenarioViolation(out,
                      "invariants: " + std::string(invariants.message()));
  }
  out.data_lost = cluster.chunks_lost();
  if (out.data_lost != 0) {
    ScenarioViolation(out, "lost " + std::to_string(out.data_lost) +
                               " chunks to a transient power loss");
  }
  if (cluster.chunks_under_replicated() != 0 ||
      cluster.pending_recovery_backlog() != 0) {
    ScenarioViolation(out, "recovery did not converge");
  }

  const DifsStats& stats = cluster.stats();
  out.digest = FoldU64(kFnvOffset, stats.foreground_opage_writes);
  out.digest = FoldU64(out.digest, stats.recovery_opage_writes);
  out.digest = FoldU64(out.digest, stats.recovery_opage_reads);
  out.digest = FoldU64(out.digest, stats.replicas_recovered);
  out.digest = FoldU64(out.digest, stats.replicas_lost);
  out.digest = FoldU64(out.digest, stats.resync_repairs);
  out.digest = FoldU64(out.digest, stats.maintenance_ticks);
  out.digest = FoldU64(out.digest, cluster.chunks_fully_replicated());
  out.digest = FoldU64(out.digest, cluster.free_slots());
  out.digest = FoldU64(out.digest, cluster.alive_devices());
  for (uint32_t d = 0; d < cluster.device_count(); ++d) {
    out.digest = FoldU64(out.digest, cluster.device(d).restarts());
  }
  FoldSuspectStats(out, stats.suspect_windows_started,
                   stats.suspect_windows_expired,
                   stats.suspect_devices_returned,
                   stats.suspect_replicas_revived,
                   stats.suspect_replicas_stale);
  CheckSuspectCounters(out, scenario.action);
}

void RunEcScenario(const Scenario& scenario, SsdKind kind, uint64_t base_seed,
                   ScenarioResult& out) {
  EcConfig config;
  config.nodes = 5;
  config.devices_per_node = 1;
  config.data_cells = 2;
  config.parity_cells = 2;
  config.cell_opages = 64;
  config.fill_fraction = 0.5;
  config.seed = base_seed;
  config.maintenance_interval_ops = 8;
  config.suspect_grace_ticks = scenario.grace;

  EcCluster cluster(config, DeviceFactory(kind, base_seed));
  if (!cluster.Bootstrap().ok()) {
    ScenarioViolation(out, "bootstrap failed");
    return;
  }
  (void)cluster.StepWrites(64);

  const uint32_t victim = cluster.device_count() / 2;
  cluster.device(victim).Crash(SsdDevice::CrashKind::kPowerLoss);
  switch (scenario.action) {
    case Scenario::kRestartWithinGrace:
      (void)cluster.StepWrites(96);
      if (!cluster.device(victim).Restart().ok()) {
        ScenarioViolation(out, "restart failed");
        return;
      }
      (void)cluster.StepWrites(64);
      break;
    case Scenario::kGraceExpires:
      (void)cluster.StepWrites(96);
      break;
    case Scenario::kBrickUpgrade:
    case Scenario::kLegacyRestart:
      ScenarioViolation(out, "unsupported EC scenario action");
      return;
  }
  cluster.ForceReconcile();

  out.data_lost = cluster.stats().stripes_lost;
  if (out.data_lost != 0) {
    ScenarioViolation(out, "lost " + std::to_string(out.data_lost) +
                               " stripes to a transient power loss");
  }
  if (cluster.stripes_fully_redundant() != cluster.total_stripes()) {
    ScenarioViolation(out, "rebuild did not restore full redundancy");
  }

  const EcStats& stats = cluster.stats();
  out.digest = FoldU64(kFnvOffset, stats.foreground_logical_writes);
  out.digest = FoldU64(out.digest, stats.foreground_device_writes);
  out.digest = FoldU64(out.digest, stats.rebuild_opage_reads);
  out.digest = FoldU64(out.digest, stats.rebuild_opage_writes);
  out.digest = FoldU64(out.digest, stats.cells_lost);
  out.digest = FoldU64(out.digest, stats.cells_rebuilt);
  out.digest = FoldU64(out.digest, stats.maintenance_ticks);
  out.digest = FoldU64(out.digest, cluster.stripes_fully_redundant());
  out.digest = FoldU64(out.digest, cluster.free_slots());
  out.digest = FoldU64(out.digest, cluster.alive_devices());
  for (uint32_t d = 0; d < cluster.device_count(); ++d) {
    out.digest = FoldU64(out.digest, cluster.device(d).restarts());
  }
  FoldSuspectStats(out, stats.suspect_windows_started,
                   stats.suspect_windows_expired,
                   stats.suspect_devices_returned,
                   stats.suspect_cells_revived, stats.suspect_cells_stale);
  CheckSuspectCounters(out, scenario.action);
}

void RunScenario(size_t index, ScenarioResult& out) {
  const Scenario& scenario = kScenarios[index];
  const SsdKind kind =
      (index % 2 == 0) ? SsdKind::kShrinkS : SsdKind::kRegenS;
  const uint64_t base_seed = 20260805 + index * 977;
  out.name = scenario.name;
  out.kind = std::string(SsdKindName(kind));
  if (scenario.ec) {
    RunEcScenario(scenario, kind, base_seed, out);
  } else {
    RunDifsScenario(scenario, kind, base_seed, out);
  }
}

}  // namespace
}  // namespace salamander

int main(int argc, char** argv) {
  using namespace salamander;
  const unsigned requested = bench::ParseThreads(argc, argv);
  const unsigned threads =
      requested == 0 ? ThreadPool::HardwareThreads() : requested;
  const uint64_t op_count = bench::ParseU64Flag(argc, argv, "--ops", 160);
  const uint64_t logical_opages =
      bench::ParseU64Flag(argc, argv, "--logical-opages", 256);
  const uint64_t l2p_cache_entries = bench::ParseL2pCacheEntries(argc, argv);

  bench::PrintHeader(
      "crash sweep — power-loss replay at every journal record boundary",
      "journaled FTL metadata replays to the exact pre-crash durable state, "
      "and diFS suspect windows keep transient outages lossless");
  std::printf("ops=%llu logical_opages=%llu threads=%u\n",
              static_cast<unsigned long long>(op_count),
              static_cast<unsigned long long>(logical_opages), threads);
  if (l2p_cache_entries > 0) {
    std::printf("l2p_cache_entries=%llu (bounded-L2P universe: torn-tail "
                "sweep across map-flush boundaries)\n",
                static_cast<unsigned long long>(l2p_cache_entries));
  }

  // ---- Phase A: FTL replay sweep -----------------------------------------
  bench::PrintSection("FTL replay sweep");
  const std::vector<SweepOp> ops =
      MakeOps(op_count, logical_opages, /*seed=*/0x5eedc4a5);
  const size_t points = static_cast<size_t>(op_count) + 1;

  std::vector<PointResult> serial_points(points);
  for (size_t o = 0; o < points; ++o) {
    SweepPoint(ops, o, logical_opages, /*l2p_cache_entries=*/0,
               serial_points[o]);
  }
  std::vector<PointResult> parallel_points(points);
  {
    ThreadPool pool(threads);
    pool.ParallelFor(points, [&](size_t begin, size_t end) {
      for (size_t o = begin; o < end; ++o) {
        SweepPoint(ops, o, logical_opages, /*l2p_cache_entries=*/0,
                   parallel_points[o]);
      }
    });
  }

  uint64_t ftl_replays = 0;
  uint64_t ftl_digest = kFnvOffset;
  size_t ftl_violations = 0;
  bool ftl_identical = true;
  for (size_t o = 0; o < points; ++o) {
    ftl_replays += parallel_points[o].replays;
    ftl_digest = FoldU64(ftl_digest, parallel_points[o].digest);
    ftl_violations += parallel_points[o].violations.size();
    ftl_identical &= serial_points[o].digest == parallel_points[o].digest;
    for (const std::string& v : parallel_points[o].violations) {
      std::printf("VIOLATION: %s\n", v.c_str());
    }
  }
  std::printf("crash_points=%zu replays=%llu violations=%zu "
              "serial_parallel_identical=%s digest=0x%016llx\n",
              points, static_cast<unsigned long long>(ftl_replays),
              ftl_violations, ftl_identical ? "yes" : "NO — BUG",
              static_cast<unsigned long long>(ftl_digest));

  // ---- Phase A2: bounded-L2P replay sweep (--l2p-cache-entries > 0) ------
  // Same every-boundary × every-tear grid, but the FTL pages its map to
  // flash: dirty cache pages at the crash, torn kMapFlush records, and
  // replayed map-page reconstruction all land inside the sweep. The default
  // (0) skips this phase entirely, keeping output byte-identical.
  uint64_t l2p_replays = 0;
  uint64_t l2p_digest = kFnvOffset;
  size_t l2p_violations = 0;
  bool l2p_identical = true;
  if (l2p_cache_entries > 0) {
    bench::PrintSection("FTL replay sweep (bounded L2P)");
    std::vector<PointResult> l2p_serial(points);
    for (size_t o = 0; o < points; ++o) {
      SweepPoint(ops, o, logical_opages, l2p_cache_entries, l2p_serial[o]);
    }
    std::vector<PointResult> l2p_parallel(points);
    {
      ThreadPool pool(threads);
      pool.ParallelFor(points, [&](size_t begin, size_t end) {
        for (size_t o = begin; o < end; ++o) {
          SweepPoint(ops, o, logical_opages, l2p_cache_entries,
                     l2p_parallel[o]);
        }
      });
    }
    for (size_t o = 0; o < points; ++o) {
      l2p_replays += l2p_parallel[o].replays;
      l2p_digest = FoldU64(l2p_digest, l2p_parallel[o].digest);
      l2p_violations += l2p_parallel[o].violations.size();
      l2p_identical &= l2p_serial[o].digest == l2p_parallel[o].digest;
      for (const std::string& v : l2p_parallel[o].violations) {
        std::printf("VIOLATION: %s\n", v.c_str());
      }
    }
    std::printf("crash_points=%zu replays=%llu violations=%zu "
                "serial_parallel_identical=%s digest=0x%016llx\n",
                points, static_cast<unsigned long long>(l2p_replays),
                l2p_violations, l2p_identical ? "yes" : "NO — BUG",
                static_cast<unsigned long long>(l2p_digest));
  }

  // ---- Phase B: cluster crash scenarios ----------------------------------
  bench::PrintSection("cluster crash scenarios");
  const size_t scenario_count =
      sizeof(kScenarios) / sizeof(kScenarios[0]);
  std::vector<ScenarioResult> first_run(scenario_count);
  {
    ThreadPool pool(threads);
    pool.ParallelFor(scenario_count, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        RunScenario(i, first_run[i]);
      }
    });
  }
  std::vector<ScenarioResult> second_run(scenario_count);
  for (size_t i = 0; i < scenario_count; ++i) {
    RunScenario(i, second_run[i]);
  }

  uint64_t cluster_digest = kFnvOffset;
  size_t cluster_violations = 0;
  uint64_t data_lost = 0;
  bool cluster_identical = true;
  std::printf("scenario\tkind\tlost\twindows\texpired\treturned\tok\n");
  for (size_t i = 0; i < scenario_count; ++i) {
    const ScenarioResult& r = first_run[i];
    cluster_digest = FoldU64(cluster_digest, r.digest);
    cluster_violations += r.violations.size();
    data_lost += r.data_lost;
    cluster_identical &= r.digest == second_run[i].digest;
    std::printf("%s\t%s\t%llu\t%llu\t%llu\t%llu\t%s\n", r.name.c_str(),
                r.kind.c_str(), static_cast<unsigned long long>(r.data_lost),
                static_cast<unsigned long long>(r.windows_started),
                static_cast<unsigned long long>(r.windows_expired),
                static_cast<unsigned long long>(r.devices_returned),
                r.violations.empty() ? "yes" : "NO — BUG");
    for (const std::string& v : r.violations) {
      std::printf("VIOLATION: %s\n", v.c_str());
    }
  }
  std::printf("scenarios=%zu violations=%zu repeat_identical=%s "
              "digest=0x%016llx\n",
              scenario_count, cluster_violations,
              cluster_identical ? "yes" : "NO — BUG",
              static_cast<unsigned long long>(cluster_digest));

  // ---- JSON ---------------------------------------------------------------
  FILE* json = std::fopen("BENCH_crash_sweep.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_crash_sweep.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"crash_sweep\",\n"
               "  \"ops\": %llu,\n"
               "  \"logical_opages\": %llu,\n"
               "  \"crash_points\": %zu,\n"
               "  \"replays\": %llu,\n"
               "  \"ftl_violations\": %zu,\n"
               "  \"ftl_digest\": \"0x%016llx\",\n"
               "  \"ftl_serial_parallel_identical\": %s,\n",
               static_cast<unsigned long long>(op_count),
               static_cast<unsigned long long>(logical_opages), points,
               static_cast<unsigned long long>(ftl_replays), ftl_violations,
               static_cast<unsigned long long>(ftl_digest),
               ftl_identical ? "true" : "false");
  if (l2p_cache_entries > 0) {
    // Gated so the default-knob document stays byte-identical.
    std::fprintf(json,
                 "  \"l2p\": {\"cache_entries\": %llu, "
                 "\"crash_points\": %zu, \"replays\": %llu, "
                 "\"violations\": %zu, \"digest\": \"0x%016llx\", "
                 "\"serial_parallel_identical\": %s},\n",
                 static_cast<unsigned long long>(l2p_cache_entries), points,
                 static_cast<unsigned long long>(l2p_replays),
                 l2p_violations,
                 static_cast<unsigned long long>(l2p_digest),
                 l2p_identical ? "true" : "false");
  }
  std::fprintf(json, "  \"scenarios\": [\n");
  for (size_t i = 0; i < scenario_count; ++i) {
    const ScenarioResult& r = first_run[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"kind\": \"%s\", \"lost\": %llu, "
                 "\"windows_started\": %llu, \"windows_expired\": %llu, "
                 "\"devices_returned\": %llu, \"ok\": %s}%s\n",
                 r.name.c_str(), r.kind.c_str(),
                 static_cast<unsigned long long>(r.data_lost),
                 static_cast<unsigned long long>(r.windows_started),
                 static_cast<unsigned long long>(r.windows_expired),
                 static_cast<unsigned long long>(r.devices_returned),
                 r.violations.empty() ? "true" : "false",
                 i + 1 < scenario_count ? "," : "");
  }
  std::fprintf(json,
               "  ],\n"
               "  \"cluster_violations\": %zu,\n"
               "  \"cluster_digest\": \"0x%016llx\",\n"
               "  \"cluster_repeat_identical\": %s\n"
               "}\n",
               cluster_violations,
               static_cast<unsigned long long>(cluster_digest),
               cluster_identical ? "true" : "false");
  std::fclose(json);
  std::printf("\nwrote BENCH_crash_sweep.json\n");

  const bool ok = ftl_violations == 0 && cluster_violations == 0 &&
                  data_lost == 0 && ftl_identical && cluster_identical &&
                  l2p_violations == 0 && l2p_identical;
  return ok ? 0 : 1;
}
