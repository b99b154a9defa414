#include "telemetry/sampler.h"

#include <sstream>
#include <utility>

namespace salamander {

void TimeSeriesSampler::AddProbe(std::string name,
                                 std::function<double()> probe) {
  probes_.push_back(std::move(probe));
  series_.emplace_back(std::move(name));
}

void TimeSeriesSampler::AddCounterProbe(std::string name,
                                        const Counter& counter) {
  AddProbe(std::move(name), [&counter] {
    return static_cast<double>(counter.value());
  });
}

void TimeSeriesSampler::AddGaugeProbe(std::string name, const Gauge& gauge) {
  AddProbe(std::move(name), [&gauge] { return gauge.value(); });
}

void TimeSeriesSampler::Sample(double t) {
  for (size_t i = 0; i < probes_.size(); ++i) {
    series_[i].Add(t, probes_[i]());
  }
  ++samples_;
}

const TimeSeries* TimeSeriesSampler::Find(std::string_view name) const {
  for (const TimeSeries& s : series_) {
    if (s.name() == name) {
      return &s;
    }
  }
  return nullptr;
}

std::string TimeSeriesSampler::ToCsv() const {
  std::ostringstream os;
  os << "t";
  for (const TimeSeries& s : series_) {
    os << "," << s.name();
  }
  os << "\n";
  for (size_t row = 0; row < samples_; ++row) {
    // All series sample together, so row i of every series shares one t.
    os << FormatMetricValue(series_.empty() ? 0.0
                                            : series_[0].points()[row].first);
    for (const TimeSeries& s : series_) {
      os << "," << FormatMetricValue(s.points()[row].second);
    }
    os << "\n";
  }
  return os.str();
}

std::string TimeSeriesSampler::ToJson() const {
  std::ostringstream os;
  os << "{\n  \"series\": [";
  for (size_t i = 0; i < series_.size(); ++i) {
    const TimeSeries& s = series_[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
       << JsonEscapeString(s.name()) << "\", \"points\": [";
    for (size_t p = 0; p < s.points().size(); ++p) {
      os << (p == 0 ? "" : ", ") << "[" << FormatMetricValue(s.points()[p].first)
         << ", " << FormatMetricValue(s.points()[p].second) << "]";
    }
    os << "]}";
  }
  os << (series_.empty() ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

}  // namespace salamander
