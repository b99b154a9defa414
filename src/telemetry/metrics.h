// Metrics registry: named instruments for the whole simulation stack.
//
// The registry is the substrate every bench reports through (ISSUE 3): each
// layer exposes a CollectMetrics() that scrapes its internal stats structs
// into named Counter / Gauge / Histogram instruments, and harnesses export
// the registry as JSON or CSV next to their stdout tables.
//
// Determinism rules (they extend the FaultInjector's attach/detach pattern):
//  * Detached is invisible. No layer owns a registry; a harness that never
//    attaches one leaves every code path, allocation, and RNG stream exactly
//    as before — scrape-on-demand means zero cost on the simulation's hot
//    paths.
//  * Instruments iterate in name order (std::map), so exports are
//    byte-identical runs apart regardless of registration order.
//  * A registry is thread-confined, like the simulation layers themselves
//    (DESIGN.md "Threading & determinism"). Parallel harnesses give each
//    worker-owned unit (device slot, chaos universe) its own registry or
//    ShardedCounter shard and merge at a barrier, in unit-ID order.
//
// Instrument naming scheme: dot-separated "<layer>.<what>[.<detail>]",
// lower_snake_case leaves, e.g. "flash.programs", "ftl.gc_relocations",
// "difs.recovery_opage_writes", "faults.injected.program_fail",
// "fleet.devices_functioning". See DESIGN.md "Telemetry".
#ifndef SALAMANDER_TELEMETRY_METRICS_H_
#define SALAMANDER_TELEMETRY_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"

namespace salamander {

// Monotone event count. Set() exists for scrape-style collection (copying a
// layer's internal counter into the registry); incremental users call
// Add/Increment.
class Counter {
 public:
  void Increment() { value_ += 1; }
  void Add(uint64_t n) { value_ += n; }
  void Set(uint64_t v) { value_ = v; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// Point-in-time measurement (queue depth, live capacity, device health).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double v) { value_ += v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Distribution instrument backed by the existing LogHistogram.
class Histogram {
 public:
  explicit Histogram(uint32_t sub_buckets_per_octave = 32)
      : histogram_(sub_buckets_per_octave) {}

  void Record(uint64_t value) { histogram_.Record(value); }
  void RecordN(uint64_t value, uint64_t n) { histogram_.RecordN(value, n); }

  const LogHistogram& data() const { return histogram_; }
  LogHistogram& data() { return histogram_; }

 private:
  LogHistogram histogram_;
};

// A counter split into independently owned slots so parallel workers can
// count without synchronization or races: worker i writes only shard(i),
// and the owner sums the shards at a barrier, in shard order — the same
// confine-then-merge discipline that keeps the fleet sim bit-identical at
// any --threads. Shards are cache-line padded so neighboring devices do not
// false-share.
class ShardedCounter {
 public:
  explicit ShardedCounter(size_t shards) : shards_(shards) {}

  void Add(size_t shard, uint64_t n) { shards_[shard].value += n; }
  void Increment(size_t shard) { shards_[shard].value += 1; }

  size_t shard_count() const { return shards_.size(); }
  uint64_t shard_value(size_t shard) const { return shards_[shard].value; }

  // Sum over shards in index order. Pure; the merge point (a barrier) is the
  // caller's responsibility.
  uint64_t Total() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value;
    }
    return total;
  }

  void Reset() {
    for (Shard& s : shards_) {
      s.value = 0;
    }
  }

 private:
  struct alignas(64) Shard {
    uint64_t value = 0;
  };
  std::vector<Shard> shards_;
};

// Named instrument registry. Instrument references remain valid for the
// registry's lifetime (std::map nodes are stable). Thread-confined.
class MetricRegistry {
 public:
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  // `sub_buckets_per_octave` applies only when the histogram is created by
  // this call; an existing instrument keeps its layout.
  Histogram& GetHistogram(std::string_view name,
                          uint32_t sub_buckets_per_octave = 32);

  // Lookup without creation; nullptr when the instrument does not exist.
  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;

  size_t instrument_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  // Merges `other` into this registry: counters and histograms add, gauges
  // take `other`'s value (last merge wins — merge shards in unit-ID order).
  // Returns false (after merging everything else) if any histogram pair had
  // mismatched bucket layouts.
  bool MergeFrom(const MetricRegistry& other);

  void Reset();

  // ---- Export --------------------------------------------------------------
  // Instruments appear in name order within their section, so two runs that
  // record the same values export byte-identical documents.

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count, mean,
  // min, p50, p95, p99, max}}}
  std::string ToJson() const;

  // Long format: one "kind,name,field,value" row per exported scalar.
  std::string ToCsv() const;

  // Writes ToJson() to `path`; false on I/O failure.
  bool WriteJsonFile(const std::string& path) const;

  const std::map<std::string, Counter, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, Gauge, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

// Formats a double for JSON/CSV export: shortest representation that
// round-trips, never "nan"/"inf" (clamped to 0 with a "null"-safe literal),
// so exported documents always parse.
std::string FormatMetricValue(double value);

// JSON string escaping shared by the telemetry exporters. Names are plain
// identifiers by convention, but exporters must emit valid JSON for any
// input.
std::string JsonEscapeString(std::string_view s);

// Writes `content` to `path`, returning false on any I/O failure. Shared by
// the telemetry exporters.
bool WriteTextFile(const std::string& path, const std::string& content);

}  // namespace salamander

#endif  // SALAMANDER_TELEMETRY_METRICS_H_
