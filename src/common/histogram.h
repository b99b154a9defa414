// Statistics containers used by the benchmarks and the diFS/fleet simulators.
//
// LogHistogram is an HDR-style log-bucketed histogram: O(1) record, bounded
// relative error on quantiles, fixed memory. RunningStats is Welford's
// streaming mean/variance. TimeSeries collects (time, value) samples for the
// figure-reproduction benches.
#ifndef SALAMANDER_COMMON_HISTOGRAM_H_
#define SALAMANDER_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace salamander {

// Log-bucketed histogram over uint64 values (e.g. latencies in ns).
// Buckets: value 0, then for each power of two a fixed number of linear
// sub-buckets, giving ~3% worst-case relative quantile error with the
// default 32 sub-buckets.
class LogHistogram {
 public:
  explicit LogHistogram(uint32_t sub_buckets_per_octave = 32);

  void Record(uint64_t value);
  void RecordN(uint64_t value, uint64_t count);

  uint64_t count() const { return count_; }
  // Smallest / largest recorded value. An empty histogram reports 0 for
  // both (a defined sentinel, not UINT64_MAX leaking out of min_).
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double Mean() const;

  // Returns the smallest recorded-bucket upper bound v such that at least
  // q*count() samples are <= v. q is clamped to [0, 1]: q <= 0 (and NaN)
  // yields min(), q >= 1 yields max(). An empty histogram yields 0 for
  // every q.
  uint64_t Quantile(double q) const;

  uint64_t P50() const { return Quantile(0.50); }
  uint64_t P95() const { return Quantile(0.95); }
  uint64_t P99() const { return Quantile(0.99); }
  uint64_t P999() const { return Quantile(0.999); }

  // Adds `other`'s samples into this histogram. Both histograms must have
  // the same sub_buckets_per_octave (after pow2 rounding); a mismatched
  // layout is rejected — `this` is left untouched and Merge returns false.
  bool Merge(const LogHistogram& other);
  void Reset();

 private:
  uint64_t BucketIndex(uint64_t value) const;
  uint64_t BucketUpperBound(uint64_t index) const;

  uint32_t sub_buckets_;
  uint32_t sub_bucket_shift_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

// Streaming mean / variance (Welford). Numerically stable, O(1) memory.
class RunningStats {
 public:
  void Record(double value);

  uint64_t count() const { return count_; }
  double mean() const { return mean_; }
  double Variance() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  // Folds `other`'s samples into this accumulator (Chan et al.'s parallel
  // variance combination), as if every value had been Record()ed here.
  void Merge(const RunningStats& other);

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Ordered (x, y) sample series; the bench harness prints these as the
// figure's data rows.
class TimeSeries {
 public:
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  void Add(double x, double y) { points_.emplace_back(x, y); }

  const std::string& name() const { return name_; }
  const std::vector<std::pair<double, double>>& points() const {
    return points_;
  }
  bool empty() const { return points_.empty(); }

  // Linear interpolation of y at x; clamps outside the sampled range.
  double Interpolate(double x) const;

 private:
  std::string name_;
  std::vector<std::pair<double, double>> points_;
};

}  // namespace salamander

#endif  // SALAMANDER_COMMON_HISTOGRAM_H_
