// Shared output helpers for the figure/table reproduction benches.
//
// Every bench binary prints a header naming the paper artifact it
// regenerates, then the data rows (tab-separated) so results can be diffed
// or plotted directly.
#ifndef SALAMANDER_BENCH_BENCH_UTIL_H_
#define SALAMANDER_BENCH_BENCH_UTIL_H_

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace salamander {
namespace bench {

inline void PrintHeader(const std::string& artifact,
                        const std::string& claim) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", artifact.c_str());
  std::printf("paper claim: %s\n", claim.c_str());
  std::printf("==============================================================\n");
}

inline void PrintSection(const std::string& title) {
  std::printf("\n-- %s --\n", title.c_str());
}

// Finds `--flag VALUE` / `--flag=VALUE` in argv and returns the raw value
// string, or nullptr when the flag is absent. A flag given with no value
// ("--threads" as the last token, or "--threads=") is an error: the bench
// exits with a usage message rather than silently running a default config.
inline const char* ParseFlagValue(int argc, char** argv, const char* flag) {
  const size_t flag_len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", flag);
        std::exit(2);
      }
      return argv[i + 1];
    }
    if (std::strncmp(argv[i], flag, flag_len) == 0 &&
        argv[i][flag_len] == '=') {
      const char* value = argv[i] + flag_len + 1;
      if (*value == '\0') {
        std::fprintf(stderr, "error: %s requires a value\n", flag);
        std::exit(2);
      }
      return value;
    }
  }
  return nullptr;
}

// Strictly parses a non-negative integer: the whole token must be decimal
// digits (no signs, no trailing garbage) and fit in a uint64. Exits with a
// clear error naming the flag otherwise — "--threads -3" or
// "--days banana" must not silently become a default.
inline uint64_t ParseU64Value(const char* flag, const char* value) {
  if (*value == '\0') {
    std::fprintf(stderr, "error: %s requires a value\n", flag);
    std::exit(2);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (*value == '-' || *value == '+' || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr,
                 "error: %s expects a non-negative integer, got \"%s\"\n",
                 flag, value);
    std::exit(2);
  }
  return static_cast<uint64_t>(parsed);
}

// Parses `--flag N` / `--flag=N` for a uint64 value; rejects garbage,
// negative numbers, and overflow with a clear error.
inline uint64_t ParseU64Flag(int argc, char** argv, const char* flag,
                             uint64_t default_value) {
  const char* value = ParseFlagValue(argc, argv, flag);
  return value == nullptr ? default_value : ParseU64Value(flag, value);
}

// Strictly parses a non-negative finite decimal: the whole token must parse
// (no signs, no trailing garbage, no inf/nan) — same contract as
// ParseU64Value, for probability/rate flags. 0 is a valid value.
inline double ParseF64Value(const char* flag, const char* value) {
  if (*value == '\0') {
    std::fprintf(stderr, "error: %s requires a value\n", flag);
    std::exit(2);
  }
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (*value == '-' || *value == '+' || *end != '\0' || errno == ERANGE ||
      !std::isfinite(parsed)) {
    std::fprintf(stderr,
                 "error: %s expects a non-negative number, got \"%s\"\n",
                 flag, value);
    std::exit(2);
  }
  return parsed;
}

// Parses `--flag X` / `--flag=X` for a non-negative finite double; rejects
// garbage, signs, and overflow with a clear error.
inline double ParseF64Flag(int argc, char** argv, const char* flag,
                           double default_value) {
  const char* value = ParseFlagValue(argc, argv, flag);
  return value == nullptr ? default_value : ParseF64Value(flag, value);
}

// Parses `--scrub-opages-per-day N` / `--scrub-opages-per-day=N`: the
// cluster-scrub pacing knob of the chaos_soak bench (DifsCluster::ScrubStep).
// 0 is a *valid* value meaning "scrub disabled" (not a usage error — only
// signs, garbage, and overflow exit 2), and it is the default so that
// scrub-free runs stay byte-identical to builds without the scrubber.
inline uint64_t ParseScrubOPagesPerDay(int argc, char** argv,
                                       uint64_t default_value = 0) {
  return ParseU64Flag(argc, argv, "--scrub-opages-per-day", default_value);
}

// Parses `--l2p-cache-entries N` / `--l2p-cache-entries=N`: the DRAM-bounded
// L2P map cache knob shared by the fleet/soak/crash benches. 0 is a *valid*
// value meaning "legacy unbounded in-DRAM map" (only signs, garbage, and
// overflow exit 2), and it is the default everywhere so cache-free runs stay
// byte-identical to builds without the bounded cache.
inline uint64_t ParseL2pCacheEntries(int argc, char** argv,
                                     uint64_t default_value = 0) {
  return ParseU64Flag(argc, argv, "--l2p-cache-entries", default_value);
}

// Queueing / graceful-degradation knobs shared by the traffic, figure, and
// soak benches (mapped onto sched/queueing.h's SchedConfig by each caller;
// plain integers keep this header dependency-free). All values parse
// strictly — signs, garbage, and overflow exit 2. `--queue-depth 0` (the
// default) disables the whole layer, keeping every pre-existing output
// byte-identical.
struct SchedFlagValues {
  uint64_t queue_depth = 0;          // bounded per-device depth; 0 = off
  uint64_t arrival_interval_us = 8;  // simulated gap between foreground ops
  uint64_t hedge_threshold_us = 0;   // hedge reads past this estimate; 0 = off
  uint64_t slo_p99_us = 0;           // brownout SLO target; 0 = off
  uint64_t brownout_window_ops = 256;
  uint64_t retry_jitter_us = 0;      // deterministic retry jitter; 0 = none

  bool enabled() const { return queue_depth > 0; }
};

// Parses --queue-depth, --arrival-interval-us, --hedge-threshold-us,
// --slo-p99-us, --brownout-window-ops, and --retry-jitter-us.
inline SchedFlagValues ParseSchedFlags(int argc, char** argv) {
  SchedFlagValues values;
  values.queue_depth = ParseU64Flag(argc, argv, "--queue-depth", 0);
  values.arrival_interval_us =
      ParseU64Flag(argc, argv, "--arrival-interval-us", 8);
  values.hedge_threshold_us =
      ParseU64Flag(argc, argv, "--hedge-threshold-us", 0);
  values.slo_p99_us = ParseU64Flag(argc, argv, "--slo-p99-us", 0);
  values.brownout_window_ops =
      ParseU64Flag(argc, argv, "--brownout-window-ops", 256);
  values.retry_jitter_us = ParseU64Flag(argc, argv, "--retry-jitter-us", 0);
  if (values.enabled() && values.arrival_interval_us == 0) {
    std::fprintf(stderr,
                 "error: --queue-depth > 0 requires --arrival-interval-us > 0 "
                 "(the queue needs an arrival clock)\n");
    std::exit(2);
  }
  if (values.enabled() && values.slo_p99_us > 0 &&
      values.brownout_window_ops == 0) {
    std::fprintf(stderr,
                 "error: --slo-p99-us > 0 requires --brownout-window-ops > 0\n");
    std::exit(2);
  }
  return values;
}

// Parses `--service-opages-per-day N` / `--queue-opages N`: the fleet-level
// day-granular admission-control knobs (FleetQueueConfig). 0 service
// capacity — the default — disables the queue, keeping fleet outputs
// byte-identical to builds without it.
inline uint64_t ParseServiceOPagesPerDay(int argc, char** argv,
                                         uint64_t default_value = 0) {
  return ParseU64Flag(argc, argv, "--service-opages-per-day", default_value);
}

inline uint64_t ParseQueueOPages(int argc, char** argv,
                                 uint64_t default_value = 0) {
  return ParseU64Flag(argc, argv, "--queue-opages", default_value);
}

// Parses `--flag X` / `--flag=X` for a probability/fraction: a finite
// decimal in [0, 1]. Garbage, signs, overflow, and out-of-range values all
// exit 2 — "--read-fraction 1.5" must not silently clamp.
inline double ParseFractionFlag(int argc, char** argv, const char* flag,
                                double default_value) {
  const double parsed = ParseF64Flag(argc, argv, flag, default_value);
  if (parsed < 0.0 || parsed > 1.0) {
    std::fprintf(stderr, "error: %s expects a fraction in [0, 1], got %g\n",
                 flag, parsed);
    std::exit(2);
  }
  return parsed;
}

// Failure-domain / batch-cohort / proactive-drain knobs shared by the fleet
// and soak benches (ISSUE 10). Every default is off/zero so domain-free runs
// stay byte-identical to builds without the feature; all values parse
// strictly — signs, garbage, overflow, and out-of-range fractions exit 2.
// Plain values keep this header fleet- and cluster-agnostic; callers map
// them onto FleetDomainConfig or the cluster drain knobs.
struct DomainFlagValues {
  uint64_t devices_per_rack = 0;            // 0 = rack axis off
  double rack_power_loss_per_day = 0.0;     // per rack-day probability
  uint64_t rack_restart_days = 1;
  uint64_t batch_cohorts = 0;               // 0 = cohort axis off
  double batch_endurance_sigma = 0.0;       // lognormal sigma, 0 = off
  double cohort_unavailable_per_day = 0.0;  // per cohort-day probability
  uint64_t cohort_unavailable_days = 1;
  double drain_health_threshold = 0.0;      // 0 = proactive drain off
  double drain_pec_horizon = 0.25;
};

// Parses --devices-per-rack, --rack-power-loss-per-day, --rack-restart-days,
// --batch-cohorts, --batch-endurance-sigma, --cohort-unavailable-per-day,
// --cohort-unavailable-days, --drain-health-threshold, --drain-pec-horizon.
inline DomainFlagValues ParseDomainFlags(int argc, char** argv) {
  DomainFlagValues values;
  values.devices_per_rack =
      ParseU64Flag(argc, argv, "--devices-per-rack", 0);
  values.rack_power_loss_per_day =
      ParseFractionFlag(argc, argv, "--rack-power-loss-per-day", 0.0);
  values.rack_restart_days =
      ParseU64Flag(argc, argv, "--rack-restart-days", 1);
  values.batch_cohorts = ParseU64Flag(argc, argv, "--batch-cohorts", 0);
  values.batch_endurance_sigma =
      ParseF64Flag(argc, argv, "--batch-endurance-sigma", 0.0);
  values.cohort_unavailable_per_day =
      ParseFractionFlag(argc, argv, "--cohort-unavailable-per-day", 0.0);
  values.cohort_unavailable_days =
      ParseU64Flag(argc, argv, "--cohort-unavailable-days", 1);
  values.drain_health_threshold =
      ParseFractionFlag(argc, argv, "--drain-health-threshold", 0.0);
  values.drain_pec_horizon =
      ParseFractionFlag(argc, argv, "--drain-pec-horizon", 0.25);
  return values;
}

// Parses `--threads N` / `--threads=N` from argv. 0 means "all hardware
// threads"; results of every bench are identical for any value — the knob
// only changes wall-clock.
inline unsigned ParseThreads(int argc, char** argv,
                             unsigned default_threads = 0) {
  const uint64_t threads =
      ParseU64Flag(argc, argv, "--threads", default_threads);
  if (threads > 1024) {
    std::fprintf(stderr,
                 "error: --threads expects 0 (all cores) .. 1024, got %llu\n",
                 static_cast<unsigned long long>(threads));
    std::exit(2);
  }
  return static_cast<unsigned>(threads);
}

// Parses `--flag PATH` / `--flag=PATH` for a string value (e.g. the
// `--metrics-out` / `--trace-out` export paths). Empty string when absent.
inline std::string ParseStringFlag(int argc, char** argv, const char* flag,
                                   const std::string& default_value = "") {
  const char* value = ParseFlagValue(argc, argv, flag);
  return value == nullptr ? default_value : std::string(value);
}

// Parses --placement, the cluster placement-policy selector: "uniform" (the
// legacy probe — bit-identical draws to pre-placement builds — and the
// default) or "domain-spread" (never co-locate two replicas/cells of one
// chunk/stripe in the same rack). Anything else exits 2.
inline std::string ParsePlacementFlag(int argc, char** argv,
                                      const std::string& default_policy =
                                          "uniform") {
  const std::string policy =
      ParseStringFlag(argc, argv, "--placement", default_policy);
  if (policy != "uniform" && policy != "domain-spread") {
    std::fprintf(stderr,
                 "error: --placement expects 'uniform' or 'domain-spread', "
                 "got '%s'\n",
                 policy.c_str());
    std::exit(2);
  }
  return policy;
}

// Parses --cluster, the traffic-bench target selector: "difs" (replicated
// chunk cluster, the default) or "ec" (erasure-coded stripes). Anything else
// exits 2.
inline std::string ParseClusterFlag(int argc, char** argv,
                                    const std::string& default_kind = "difs") {
  const std::string kind =
      ParseStringFlag(argc, argv, "--cluster", default_kind);
  if (kind != "difs" && kind != "ec") {
    std::fprintf(stderr, "error: --cluster expects 'difs' or 'ec', got '%s'\n",
                 kind.c_str());
    std::exit(2);
  }
  return kind;
}

// Parses --arrival, the tenant arrival-shape selector: one of "steady",
// "diurnal", "bursty", or "mixed" (rotate shapes across tenants, the
// default). Anything else exits 2. The validated string is mapped onto
// ArrivalShape by the caller, keeping this header workload-agnostic.
inline std::string ParseArrivalFlag(int argc, char** argv,
                                    const std::string& default_shape =
                                        "mixed") {
  const std::string shape =
      ParseStringFlag(argc, argv, "--arrival", default_shape);
  if (shape != "steady" && shape != "diurnal" && shape != "bursty" &&
      shape != "mixed") {
    std::fprintf(stderr,
                 "error: --arrival expects 'steady', 'diurnal', 'bursty', or "
                 "'mixed', got '%s'\n",
                 shape.c_str());
    std::exit(2);
  }
  return shape;
}

// Parses --sched, the fleet engine selector: "event" (discrete-event
// scheduler, the default) or "lockstep" (the per-day reference engine).
// Anything else exits 2. Callers map the validated name onto
// FleetSchedulerMode; the string keeps this header fleet-agnostic.
inline std::string ParseSchedFlag(int argc, char** argv,
                                  const std::string& default_mode = "event") {
  const std::string mode =
      ParseStringFlag(argc, argv, "--sched", default_mode);
  if (mode != "event" && mode != "lockstep") {
    std::fprintf(stderr,
                 "error: --sched expects 'event' or 'lockstep', got '%s'\n",
                 mode.c_str());
    std::exit(2);
  }
  return mode;
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace bench
}  // namespace salamander

#endif  // SALAMANDER_BENCH_BENCH_UTIL_H_
