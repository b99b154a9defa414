#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

bool Tracer::WriteCsv(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "name,layer,parent,start_ns,end_ns\n");
  for (const Span& span : spans_) {
    const SpanInfo& info = Info(span.name);
    std::fprintf(out, "%s,%s,%lld,%llu,%llu\n", info.name, info.layer,
                 span.parent == kNoParent ? -1LL
                                          : static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

TraceSummary Summarize(const Tracer& tracer) {
  TraceSummary summary;
  const std::vector<Span>& spans = tracer.spans();
  std::vector<uint64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent != kNoParent) {
      child_ns[span.parent] += span.duration_ns();
    }
  }
  uint64_t run_ns = 0;
  uint64_t run_bench_self_ns = 0;
  std::vector<uint8_t> under_run(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    SpanStats& stats = summary.by_name[static_cast<size_t>(span.name)];
    const uint64_t duration = span.duration_ns();
    ++stats.count;
    stats.total_ns += duration;
    stats.self_ns += duration - std::min(duration, child_ns[i]);
    stats.durations_ns.push_back(duration);
    // Parents precede children in the vector, so one forward pass marks
    // every span inside a "run" span.
    under_run[i] = span.name == SpanName::kRun ||
                   (span.parent != kNoParent && under_run[span.parent]);
    if (span.name == SpanName::kRun) {
      run_ns += duration;
    }
    if (under_run[i] && std::string(Info(span.name).layer) == "bench") {
      run_bench_self_ns += duration - std::min(duration, child_ns[i]);
    }
  }
  if (run_ns > 0) {
    summary.coverage_frac = 1.0 - static_cast<double>(run_bench_self_ns) /
                                      static_cast<double>(run_ns);
  }
  return summary;
}

double TraceSummary::LayerSelfSeconds(const std::string& layer) const {
  uint64_t ns = 0;
  for (size_t i = 0; i < kSpanNameCount; ++i) {
    if (layer == kSpanInfo[i].layer) {
      ns += by_name[i].self_ns;
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

double Quantile(std::vector<uint64_t> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return static_cast<double>(values[index]);
}

}  // namespace perfbench
