#include "telemetry/metrics.h"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace salamander {

std::string JsonEscapeString(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatMetricValue(double value) {
  if (!std::isfinite(value)) {
    // NaN/Inf are not valid JSON literals; a metric that produced one is a
    // bug upstream, but the export must still parse.
    return "0";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // Prefer the shortest representation that round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char candidate[32];
    std::snprintf(candidate, sizeof(candidate), "%.*g", precision, value);
    double parsed = 0.0;
    std::sscanf(candidate, "%lf", &parsed);
    if (parsed == value) {
      return candidate;
    }
  }
  return buf;
}

Counter& MetricRegistry::GetCounter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter{}).first;
  }
  return it->second;
}

Gauge& MetricRegistry::GetGauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), Gauge{}).first;
  }
  return it->second;
}

Histogram& MetricRegistry::GetHistogram(std::string_view name,
                                        uint32_t sub_buckets_per_octave) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name),
                             Histogram(sub_buckets_per_octave))
             .first;
  }
  return it->second;
}

const Counter* MetricRegistry::FindCounter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricRegistry::FindGauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricRegistry::FindHistogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

bool MetricRegistry::MergeFrom(const MetricRegistry& other) {
  bool ok = true;
  for (const auto& [name, counter] : other.counters_) {
    GetCounter(name).Add(counter.value());
  }
  for (const auto& [name, gauge] : other.gauges_) {
    GetGauge(name).Set(gauge.value());
  }
  for (const auto& [name, histogram] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_.emplace(name, Histogram(1)).first;
      // Adopt the source layout exactly (Merge rejects mismatched layouts).
      it->second.data() = histogram.data();
      continue;
    }
    ok = it->second.data().Merge(histogram.data()) && ok;
  }
  return ok;
}

void MetricRegistry::Reset() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

std::string MetricRegistry::ToJson() const {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    os << (first ? "\n" : ",\n") << "    \"" << JsonEscapeString(name)
       << "\": " << counter.value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    os << (first ? "\n" : ",\n") << "    \"" << JsonEscapeString(name)
       << "\": " << FormatMetricValue(gauge.value());
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    const LogHistogram& h = histogram.data();
    os << (first ? "\n" : ",\n") << "    \"" << JsonEscapeString(name) << "\": {"
       << "\"count\": " << h.count() << ", \"mean\": "
       << FormatMetricValue(h.Mean()) << ", \"min\": " << h.min()
       << ", \"p50\": " << h.P50() << ", \"p95\": " << h.P95()
       << ", \"p99\": " << h.P99() << ", \"max\": " << h.max() << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

std::string MetricRegistry::ToCsv() const {
  std::ostringstream os;
  os << "kind,name,field,value\n";
  for (const auto& [name, counter] : counters_) {
    os << "counter," << name << ",value," << counter.value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    os << "gauge," << name << ",value," << FormatMetricValue(gauge.value())
       << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const LogHistogram& h = histogram.data();
    os << "histogram," << name << ",count," << h.count() << "\n";
    os << "histogram," << name << ",mean," << FormatMetricValue(h.Mean())
       << "\n";
    os << "histogram," << name << ",min," << h.min() << "\n";
    os << "histogram," << name << ",p50," << h.P50() << "\n";
    os << "histogram," << name << ",p95," << h.P95() << "\n";
    os << "histogram," << name << ",p99," << h.P99() << "\n";
    os << "histogram," << name << ",max," << h.max() << "\n";
  }
  return os.str();
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  return written == content.size() && close_ok;
}

bool MetricRegistry::WriteJsonFile(const std::string& path) const {
  return WriteTextFile(path, ToJson());
}

}  // namespace salamander
