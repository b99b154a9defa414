// Benchmark driver: runs one workload repeatedly for a time budget and
// prints every metric it measured as a name -> value pair. Units and better
// directions live in BENCHMARK.json, which run.py joins in.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--min-reps <n>] [--trace-out <spans.csv>]
//
// --trace 0 measures the end-to-end metrics with the span recorder off.
// --trace 1 alternates untraced and traced repetitions: the traced ones give
// per-layer host time, and the pair gives the tracing overhead. Each run
// starts with one warm-up repetition that is checked but not timed. Every
// repetition repeats the same simulation, so all of them must agree exactly.
// The last line of stdout is one JSON document with the full result.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Layers whose host self time a traced repetition reports as
// "<layer>.self_s": time inside the layer's calls minus the calls it made that
// have spans of their own.
constexpr const char* kSelfTimeLayers[] = {
    "bench", "fleet", "difs", "integrity", "ec", "ssd", "workload", "telemetry"};

// Keeps each run well inside the 180-second limit on one invocation.
constexpr double kHardCapSeconds = 150.0;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  int min_reps = 3;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_driver --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--min-reps <n>] "
               "[--trace-out <path>]\n",
               error.c_str());
  std::exit(2);
}

uint64_t ParseUnsigned(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    Usage(flag + " expects a non-negative integer, got '" + text + "'");
  }
  return value;
}

Options Parse(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(flag + " needs a value");
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = ParseUnsigned(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      const uint64_t seconds = ParseUnsigned(flag, value);
      if (seconds == 0 || seconds > 120) {
        Usage("--seconds must be in [1, 120]");
      }
      options.seconds = static_cast<double>(seconds);
      have_seconds = true;
    } else if (flag == "--trace") {
      const uint64_t trace = ParseUnsigned(flag, value);
      if (trace > 1) {
        Usage("--trace expects 0 or 1");
      }
      options.trace = trace == 1;
      have_trace = true;
    } else if (flag == "--min-reps") {
      const uint64_t reps = ParseUnsigned(flag, value);
      if (reps == 0 || reps > 100) {
        Usage("--min-reps must be in [1, 100]");
      }
      options.min_reps = static_cast<int>(reps);
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (options.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return options;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string JsonNumber(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// Every repetition's host timings, so a run can be re-analysed.
std::string RepTimes(const std::vector<RepResult>& reps) {
  std::string setup, run, wall;
  for (const RepResult& rep : reps) {
    const char* sep = setup.empty() ? "" : ", ";
    setup.append(sep).append(JsonNumber(rep.setup_s));
    run.append(sep).append(JsonNumber(rep.run_s));
    wall.append(sep).append(JsonNumber(rep.wall_s));
  }
  return "{\"setup_s\": [" + setup + "], \"run_s\": [" + run +
         "], \"wall_s\": [" + wall + "]}";
}

int Main(int argc, char** argv) {
  const Options options = Parse(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (options.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    Usage("unknown workload '" + options.workload + "'");
  }

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::optional<RepResult> reference;
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  std::optional<Tracer> last_tracer;
  const auto check = [&](const RepResult& rep) {
    attempted += rep.ops;
    failed += rep.ops_failed;
    if (!rep.error.empty() && error.empty()) {
      error = rep.error;
    }
    if (!reference.has_value()) {
      reference = rep;
    } else if (error.empty() &&
               (rep.hash != reference->hash || rep.sim != reference->sim ||
                rep.counts != reference->counts)) {
      error = "repetitions disagree: the simulation is not deterministic";
    }
  };

  {
    Tracer off(false);
    check(workload->run(options.seed, off));  // warm-up
  }
  for (int i = 0;; ++i) {
    const bool traced_rep = options.trace && i % 2 == 1;
    Tracer tracer(traced_rep);
    const double before = elapsed();
    RepResult rep = workload->run(options.seed, tracer);
    const double rep_seconds = elapsed() - before;
    check(rep);
    (traced_rep ? traced : untraced).push_back(std::move(rep));
    if (traced_rep) {
      last_tracer.emplace(std::move(tracer));
    }
    if (!error.empty()) {
      break;
    }
    const bool enough =
        static_cast<int>(untraced.size()) >= options.min_reps &&
        (!options.trace || static_cast<int>(traced.size()) >= options.min_reps);
    if ((enough && elapsed() + rep_seconds > options.seconds) ||
        elapsed() + rep_seconds > kHardCapSeconds) {
      break;
    }
  }

  // The host is shared: identical repetitions run up to 1.5x apart when
  // other tenants load it, and such phases last from seconds to minutes.
  // Interference only ever adds time, so set-up, the timed phase and the
  // whole repetition each report their fastest repetition, which is the
  // steadiest estimate of the program's own cost. (A cluster workload sets
  // up in about 20 ms, and the median set-up moved by a quarter between two
  // sweeps of ten seeds.)
  const auto fastest = [](const std::vector<RepResult>& reps, auto field) {
    double best = 0.0;
    for (const RepResult& rep : reps) {
      best = best == 0.0 ? field(rep) : std::min(best, field(rep));
    }
    return best;
  };
  const auto ops_per_s = [&](const std::vector<RepResult>& reps) {
    const double run_s = fastest(reps, [](const RepResult& r) { return r.run_s; });
    return run_s > 0.0 ? static_cast<double>(reps.front().ops) / run_s : 0.0;
  };
  std::map<std::string, double> values;
  values["wall_s"] = fastest(untraced, [](const RepResult& r) { return r.wall_s; });
  values["setup_s"] =
      fastest(untraced, [](const RepResult& r) { return r.setup_s; });
  const double untraced_ops_per_s = ops_per_s(untraced);
  values["run_ops_per_s"] = untraced_ops_per_s;
  values["peak_rss_mb"] = PeakRssMb();
  if (reference.has_value()) {
    for (const auto& [name, value] : reference->sim) {
      values[name] = value;
    }
    for (const auto& [name, value] : reference->counts) {
      values[name] = value;
    }
  }
  if (!traced.empty()) {
    std::map<std::string, std::vector<double>> host;
    for (const RepResult& rep : traced) {
      for (const auto& [name, value] : rep.host) {
        host[name].push_back(value);
      }
    }
    for (const auto& [name, samples] : host) {
      values[name] = Median(samples);
    }
    const double traced_ops_per_s = ops_per_s(traced);
    values["trace.overhead_frac"] =
        traced_ops_per_s > 0.0 ? untraced_ops_per_s / traced_ops_per_s - 1.0
                               : 0.0;
    // Layer self time and coverage come from the last traced repetition,
    // whose spans are also the ones written out.
    const TraceSummary summary = Summarize(*last_tracer);
    values["trace.coverage_frac"] = summary.coverage_frac;
    for (const char* layer : kSelfTimeLayers) {
      values[std::string(layer) + ".self_s"] = summary.LayerSelfSeconds(layer);
    }
    if (!options.trace_out.empty() && !last_tracer->WriteCsv(options.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
      return 1;
    }
  }

  const bool correct = error.empty();
  if (!correct) {
    failed = attempted;
  }
  char hash_hex[24];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                static_cast<unsigned long long>(
                    reference.has_value() ? reference->hash : 0));
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif

  std::printf("workload %s (%s)\n", workload->name, workload->why);
  std::printf("seed %llu, %zu untraced + %zu traced repetitions after one "
              "warm-up, %.1f s\n",
              static_cast<unsigned long long>(options.seed), untraced.size(),
              traced.size(), elapsed());
  std::printf("output hash %s, correct %s%s%s\n", hash_hex,
              correct ? "yes" : "NO", correct ? "" : ": ", error.c_str());
  std::printf("ops_attempted %llu, ops_failed %llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::string json = "{\"workload\": " + JsonString(workload->name) +
                     ", \"seed\": " + std::to_string(options.seed) +
                     ", \"trace\": " + (options.trace ? "1" : "0") +
                     ", \"untraced_reps\": " + std::to_string(untraced.size()) +
                     ", \"traced_reps\": " + std::to_string(traced.size()) +
                     ", \"hash\": " + JsonString(hash_hex) +
                     ", \"correct\": " + (correct ? "true" : "false") +
                     ", \"error\": " + JsonString(error) +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"untraced\": " + RepTimes(untraced) +
                     ", \"traced\": " + RepTimes(traced) +
                     ", \"env\": {\"compiler\": " +
                     JsonString(PERFBENCH_COMPILER) +
                     ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                     ", \"ndebug\": " + (ndebug ? "true" : "false") +
                     ", \"hardware_concurrency\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     "}, \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : values) {
    json += std::string(first ? "" : ", ") + JsonString(name) + ": " +
            JsonNumber(value);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
