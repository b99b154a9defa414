// In-memory span recorder for the benchmark's traced run.
//
// A span brackets one public call the benchmark makes into the simulator
// (or one of the benchmark's own phases): name, start, end, and the span that
// was open when it began. Spans are appended to a vector and analysed or
// written out only after the timed phase, so recording costs two clock reads
// and one append per call. A disabled tracer records nothing; the untraced
// runs that produce the end-to-end metrics use one.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Every span the benchmark records. The layer is the simulator module the
// call enters; "bench" marks the benchmark's own phases, whose self time is
// host time spent outside the simulator.
enum class SpanName : uint8_t {
  kSetup,
  kRun,
  kCollect,
  kDay,
  kFleetCtor,
  kFleetRun,
  kDifsCtor,
  kDifsBootstrap,
  kDifsRead,
  kDifsWrite,
  kDifsScrub,
  kEcCtor,
  kEcBootstrap,
  kEcRead,
  kEcWrite,
  kSsdCrash,
  kSsdRestart,
  kTrafficCtor,
  kTrafficEmitDay,
  kCollectMetrics,
  kCount,
};

inline constexpr size_t kSpanNameCount = static_cast<size_t>(SpanName::kCount);

struct SpanInfo {
  const char* name;
  const char* layer;
};

inline constexpr SpanInfo kSpanInfo[kSpanNameCount] = {
    {"setup", "bench"},
    {"run", "bench"},
    {"collect", "bench"},
    {"day", "bench"},
    {"FleetSim::FleetSim", "fleet"},
    {"FleetSim::Run", "fleet"},
    {"DifsCluster::DifsCluster", "difs"},
    {"DifsCluster::Bootstrap", "difs"},
    {"DifsCluster::ReadChunkAt", "difs"},
    {"DifsCluster::WriteChunkAt", "difs"},
    {"DifsCluster::ScrubStep", "integrity"},
    {"EcCluster::EcCluster", "ec"},
    {"EcCluster::Bootstrap", "ec"},
    {"EcCluster::ReadLogicalAt", "ec"},
    {"EcCluster::WriteLogicalAt", "ec"},
    {"SsdDevice::Crash", "ssd"},
    {"SsdDevice::Restart", "ssd"},
    {"TrafficEngine::TrafficEngine", "workload"},
    {"TrafficEngine::EmitDay", "workload"},
    {"CollectMetrics", "telemetry"},
};

inline const SpanInfo& Info(SpanName name) {
  return kSpanInfo[static_cast<size_t>(name)];
}

struct Span {
  SpanName name = SpanName::kRun;
  uint32_t parent = 0;  // index into Tracer::spans(), or kNoParent
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;

  uint64_t duration_ns() const { return end_ns - start_ns; }
};

inline constexpr uint32_t kNoParent = UINT32_MAX;

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) {
      spans_.reserve(1 << 16);
    }
  }

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  uint32_t Begin(SpanName name) {
    spans_.push_back(Span{name, current_, Now(), 0});
    current_ = static_cast<uint32_t>(spans_.size() - 1);
    return current_;
  }

  void End(uint32_t index) {
    Span& span = spans_[index];
    span.end_ns = Now();
    current_ = span.parent;
  }

  // One "name,layer,parent,start_ns,end_ns" row per span; false on I/O error.
  bool WriteCsv(const std::string& path) const;

 private:
  uint64_t Now() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  bool enabled_;
  std::vector<Span> spans_;
  uint32_t current_ = kNoParent;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

// Records one span for its scope when the tracer is enabled.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, SpanName name)
      : tracer_(tracer.enabled() ? &tracer : nullptr),
        index_(tracer_ != nullptr ? tracer_->Begin(name) : 0) {}
  ~SpanScope() {
    if (tracer_ != nullptr) {
      tracer_->End(index_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  uint32_t index_;
};

// Runs `call` inside a span and returns its result.
template <typename Call>
auto Traced(Tracer& tracer, SpanName name, Call&& call) {
  SpanScope scope(tracer, name);
  return call();
}

// Per-name totals over one traced repetition.
struct SpanStats {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  // total_ns minus the time covered by direct child spans.
  uint64_t self_ns = 0;
  std::vector<uint64_t> durations_ns;
};

struct TraceSummary {
  SpanStats by_name[kSpanNameCount];
  // Share of the "run" span covered by spans of simulator calls; the rest is
  // the benchmark's own work between calls.
  double coverage_frac = 0.0;

  const SpanStats& operator[](SpanName name) const {
    return by_name[static_cast<size_t>(name)];
  }
  // Sum of self time over every span name of `layer`, in seconds.
  double LayerSelfSeconds(const std::string& layer) const;
};

TraceSummary Summarize(const Tracer& tracer);

// Exact quantile (nearest rank) of `values`; 0 when empty. Sorts a copy.
double Quantile(std::vector<uint64_t> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
