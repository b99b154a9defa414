// Simulated-time series sampling of registry instruments.
//
// A TimeSeriesSampler turns point-in-time probes (device health, live mDisk
// count, revived capacity, recovery bytes, queue depths, injected-fault
// counts) into TimeSeries rows sampled on the simulation's own clock — once
// per simulated day in the fleet sim, once per burst in the chaos soak. The
// sampler never runs on a wall clock: Sample(t) is called by the harness at
// its barrier points, so the series are bit-identical across --threads
// values and repeated runs.
#ifndef SALAMANDER_TELEMETRY_SAMPLER_H_
#define SALAMANDER_TELEMETRY_SAMPLER_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "telemetry/metrics.h"

namespace salamander {

class TimeSeriesSampler {
 public:
  // Registers a probe evaluated at every Sample() call. Probes are evaluated
  // in registration order; series are exported in registration order too
  // (the harness decides the column order of its own report).
  void AddProbe(std::string name, std::function<double()> probe);

  // Convenience probes bound to registry instruments. The instrument
  // reference is captured; the registry must outlive the sampler.
  void AddCounterProbe(std::string name, const Counter& counter);
  void AddGaugeProbe(std::string name, const Gauge& gauge);

  // Evaluates every probe at simulated time `t`, appending one point per
  // series.
  void Sample(double t);

  size_t probe_count() const { return probes_.size(); }
  size_t sample_count() const { return samples_; }
  const std::vector<TimeSeries>& series() const { return series_; }
  // nullptr when no probe with that name exists.
  const TimeSeries* Find(std::string_view name) const;

  // ---- Export --------------------------------------------------------------

  // Wide CSV: header "t,<name>,...", one row per Sample() call.
  std::string ToCsv() const;
  // {"series": [{"name": ..., "points": [[t, v], ...]}, ...]}
  std::string ToJson() const;

 private:
  std::vector<std::function<double()>> probes_;
  std::vector<TimeSeries> series_;
  size_t samples_ = 0;
};

}  // namespace salamander

#endif  // SALAMANDER_TELEMETRY_SAMPLER_H_
