// The benchmark's three workloads. Each builds its system from the seed,
// runs a timed phase through the simulator's public APIs only, and returns
// host timings, the exact simulated results, the per-layer counts and a hash
// of every user-visible output.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

// One repetition of a workload: set up, run, collect, check.
struct RepResult {
  double setup_s = 0.0;  // construction + Bootstrap
  double run_s = 0.0;    // the timed phase
  double wall_s = 0.0;   // the whole repetition, teardown included
  // Operations in the timed phase: device-days of the horizon for the fleet,
  // traffic ops for the clusters.
  uint64_t ops = 0;
  uint64_t ops_failed = 0;  // read/write errors plus sheds
  uint64_t hash = 0;        // FNV-1a over every user-visible output
  // Non-empty when a correctness check inside the repetition failed.
  std::string error;
  // Simulated end-to-end results; identical in every repetition.
  std::map<std::string, double> sim;
  // Per-layer work counts; identical in every repetition.
  std::map<std::string, double> counts;
  // Per-layer host time from the spans (traced repetitions only).
  std::map<std::string, double> host;
};

struct Workload {
  const char* name;
  const char* why;
  RepResult (*run)(uint64_t seed, Tracer& tracer);
};

const std::vector<Workload>& Workloads();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
