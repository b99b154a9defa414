// Host-side helpers for driving SSD wear.
//
// LiveSetTracker mirrors what a real host/diFS keeps: the set of currently
// live mDisks on a device, maintained purely from the device's event stream.
// AgingDriver pushes writes through a device until a byte target is reached
// or the device fails — the workhorse of the lifetime and fleet benches.
#ifndef SALAMANDER_WORKLOAD_AGING_H_
#define SALAMANDER_WORKLOAD_AGING_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/minidisk.h"
#include "ssd/ssd_device.h"
#include "workload/generators.h"

namespace salamander {

// Tracks the live mDisk population of one device from its event stream.
// O(1) random pick via swap-remove vector + index map.
class LiveSetTracker {
 public:
  // Applies an event batch. Idempotent per mDisk: a kCreated for an already-
  // tracked id and a kDecommissioned for an unknown id are ignored, so
  // bootstrapping from device state plus replayed events is safe. The
  // usual poll is empty (most writes change no mDisk) and returns inline.
  void Apply(const std::vector<MinidiskEvent>& events) {
    if (!events.empty()) {
      ApplyBatch(events);
    }
  }

  // Seeds the tracker from a device's current live set (for hosts attaching
  // to a device whose creation events were already consumed elsewhere).
  void BootstrapFromDevice(const SsdDevice& device);

  bool empty() const { return live_.empty(); }
  size_t size() const { return live_.size(); }
  MinidiskId PickRandom(Rng& rng) const {
    return live_[rng.UniformU64(live_.size())];
  }
  const std::vector<MinidiskId>& live() const { return live_; }
  bool Contains(MinidiskId id) const { return index_.count(id) != 0; }

  uint64_t created_seen() const { return created_seen_; }
  uint64_t decommissioned_seen() const { return decommissioned_seen_; }

 private:
  void ApplyBatch(const std::vector<MinidiskEvent>& events);

  std::vector<MinidiskId> live_;
  std::unordered_map<MinidiskId, size_t> index_;
  uint64_t created_seen_ = 0;
  uint64_t decommissioned_seen_ = 0;
};

struct AgingConfig {
  // Fraction of writes drawn zipfian-hot vs uniform (0 = all uniform).
  double zipfian_fraction = 0.0;
  double zipfian_theta = 0.99;
  // Fraction of the live mDisk population the workload actually touches
  // (space utilization). 1.0 writes everywhere; 0.5 leaves half the
  // advertised capacity untouched — the regime where CVSS reports its ~20%
  // lifetime gain.
  double working_set_fraction = 1.0;
};

// Field validation: zipfian_fraction outside [0, 1], zipfian_theta outside
// (0, 1), or working_set_fraction outside (0, 1] are InvalidArgument — not
// silent misbehavior downstream. AgingDriver's constructor dies on an
// invalid config; callers holding untrusted input validate first.
Status ValidateAgingConfig(const AgingConfig& config);

struct AgingResult {
  uint64_t opages_written = 0;
  uint64_t write_errors = 0;
  bool device_failed = false;
};

// Writes up to `opages` of 4 KiB pages to uniformly random live mDisks of
// `device`, consuming device events to track the live set. Stops early when
// the device fails or loses all capacity.
class AgingDriver {
 public:
  AgingDriver(SsdDevice* device, uint64_t seed,
              const AgingConfig& config = {});

  AgingResult WriteOPages(uint64_t opages);

  const LiveSetTracker& tracker() const { return tracker_; }
  // Total host writes issued through this driver.
  uint64_t total_written() const { return total_written_; }

 private:
  SsdDevice* device_;
  Rng rng_;
  AgingConfig config_;
  // Hot-address draws over one mDisk's oPages (msize is fixed per device).
  ZipfianGenerator zipf_;
  LiveSetTracker tracker_;
  uint64_t total_written_ = 0;
};

}  // namespace salamander

#endif  // SALAMANDER_WORKLOAD_AGING_H_
