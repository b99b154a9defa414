#include "common/histogram.h"

#include <bit>
#include <cmath>

namespace salamander {

namespace {

// Rounds up to a power of two, min 1.
uint32_t CeilPow2(uint32_t v) {
  if (v <= 1) {
    return 1;
  }
  return std::bit_ceil(v);
}

}  // namespace

LogHistogram::LogHistogram(uint32_t sub_buckets_per_octave)
    : sub_buckets_(CeilPow2(sub_buckets_per_octave)),
      sub_bucket_shift_(static_cast<uint32_t>(std::countr_zero(sub_buckets_))) {
  // Bucket 0 holds the value 0; each of the 64 octaves contributes
  // sub_buckets_ linear buckets.
  buckets_.assign(1 + 64 * sub_buckets_, 0);
}

uint64_t LogHistogram::BucketIndex(uint64_t value) const {
  if (value == 0) {
    return 0;
  }
  const uint32_t octave = 63 - static_cast<uint32_t>(std::countl_zero(value));
  uint64_t offset_in_octave;
  if (octave >= sub_bucket_shift_) {
    offset_in_octave = (value >> (octave - sub_bucket_shift_)) - sub_buckets_;
  } else {
    // Small octaves have fewer distinct values than sub-buckets; spread them
    // at the octave start.
    offset_in_octave = (value << (sub_bucket_shift_ - octave)) - sub_buckets_;
  }
  return 1 + static_cast<uint64_t>(octave) * sub_buckets_ + offset_in_octave;
}

uint64_t LogHistogram::BucketUpperBound(uint64_t index) const {
  if (index == 0) {
    return 0;
  }
  const uint64_t i = index - 1;
  const uint32_t octave = static_cast<uint32_t>(i >> sub_bucket_shift_);
  const uint64_t offset = (i & (sub_buckets_ - 1)) + sub_buckets_;
  if (octave >= sub_bucket_shift_) {
    const uint32_t shift = octave - sub_bucket_shift_;
    // Highest value mapping to this bucket.
    return ((offset + 1) << shift) - 1;
  }
  return (offset + 1) >> (sub_bucket_shift_ - octave);
}

void LogHistogram::Record(uint64_t value) {
  RecordN(value, 1);
}

void LogHistogram::RecordN(uint64_t value, uint64_t n) {
  if (n == 0) {
    return;
  }
  buckets_[BucketIndex(value)] += n;
  count_ += n;
  sum_ += value * n;
  if (value < min_) {
    min_ = value;
  }
  if (value > max_) {
    max_ = value;
  }
}

double LogHistogram::Mean() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

uint64_t LogHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  // `!(q > 0.0)` (rather than `q <= 0.0`) also routes NaN to the min,
  // keeping the ceil/cast below on finite input only.
  if (!(q > 0.0)) {
    return min();
  }
  if (q >= 1.0) {
    return max_;
  }
  const uint64_t target =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  uint64_t cumulative = 0;
  for (uint64_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= target) {
      uint64_t bound = BucketUpperBound(i);
      return bound > max_ ? max_ : bound;
    }
  }
  return max_;
}

bool LogHistogram::Merge(const LogHistogram& other) {
  // Merging requires identical bucket layouts; both ctors round to pow2 so
  // a mismatch means caller error — reject it rather than aggregate counts
  // into the wrong value ranges.
  if (other.buckets_.size() != buckets_.size()) {
    return false;
  }
  for (uint64_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.count_ > 0) {
    if (other.min_ < min_) {
      min_ = other.min_;
    }
    if (other.max_ > max_) {
      max_ = other.max_;
    }
  }
  return true;
}

void LogHistogram::Reset() {
  buckets_.assign(buckets_.size(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = UINT64_MAX;
  max_ = 0;
}

void RunningStats::Record(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    if (value < min_) {
      min_ = value;
    }
    if (value > max_) {
      max_ = value;
    }
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  if (other.min_ < min_) {
    min_ = other.min_;
  }
  if (other.max_ > max_) {
    max_ = other.max_;
  }
}

double RunningStats::Variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double TimeSeries::Interpolate(double x) const {
  if (points_.empty()) {
    return 0.0;
  }
  if (x <= points_.front().first) {
    return points_.front().second;
  }
  if (x >= points_.back().first) {
    return points_.back().second;
  }
  for (size_t i = 1; i < points_.size(); ++i) {
    if (points_[i].first >= x) {
      const auto& [x0, y0] = points_[i - 1];
      const auto& [x1, y1] = points_[i];
      if (x1 == x0) {
        return y1;
      }
      const double t = (x - x0) / (x1 - x0);
      return y0 + t * (y1 - y0);
    }
  }
  return points_.back().second;
}

}  // namespace salamander
