#include "workload/aging.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace salamander {

Status ValidateAgingConfig(const AgingConfig& config) {
  if (!std::isfinite(config.zipfian_fraction) ||
      config.zipfian_fraction < 0.0 || config.zipfian_fraction > 1.0) {
    return InvalidArgumentError(
        "AgingConfig: zipfian_fraction must be in [0, 1]");
  }
  if (!std::isfinite(config.zipfian_theta) || config.zipfian_theta <= 0.0 ||
      config.zipfian_theta >= 1.0) {
    return InvalidArgumentError(
        "AgingConfig: zipfian_theta must be in (0, 1)");
  }
  if (!std::isfinite(config.working_set_fraction) ||
      config.working_set_fraction <= 0.0 ||
      config.working_set_fraction > 1.0) {
    return InvalidArgumentError(
        "AgingConfig: working_set_fraction must be in (0, 1]");
  }
  return OkStatus();
}

namespace {

// Validates before zipf_ is built from the config.
const AgingConfig& RequireValidAgingConfig(const AgingConfig& config) {
  const Status status = ValidateAgingConfig(config);
  if (!status.ok()) {
    // Dying beats silently aging a device with a nonsense workload: a
    // zipfian_fraction of 1.3 would quietly clamp inside Rng::Bernoulli and
    // skew every lifetime figure downstream.
    std::fprintf(stderr, "AgingDriver: invalid config: %s\n",
                 status.message().c_str());
    std::abort();
  }
  return config;
}

}  // namespace

void LiveSetTracker::ApplyBatch(const std::vector<MinidiskEvent>& events) {
  for (const MinidiskEvent& event : events) {
    switch (event.type) {
      case MinidiskEventType::kCreated: {
        ++created_seen_;
        if (index_.count(event.mdisk) != 0) {
          break;  // already tracked (bootstrap + event replay)
        }
        index_[event.mdisk] = live_.size();
        live_.push_back(event.mdisk);
        break;
      }
      case MinidiskEventType::kDraining:
        // A draining mDisk is read-only: treat it as gone for write
        // targeting. (Hosts that manage drains explicitly use the richer
        // diFS integration; the aging driver just stops writing it.)
        [[fallthrough]];
      case MinidiskEventType::kDecommissioned: {
        ++decommissioned_seen_;
        auto it = index_.find(event.mdisk);
        if (it == index_.end()) {
          break;  // already removed (e.g. decommission then brick replay)
        }
        const size_t pos = it->second;
        const MinidiskId last = live_.back();
        live_[pos] = last;
        index_[last] = pos;
        live_.pop_back();
        index_.erase(it);
        break;
      }
    }
  }
}

void LiveSetTracker::BootstrapFromDevice(const SsdDevice& device) {
  for (MinidiskId id = 0; id < device.total_minidisks(); ++id) {
    if (device.IsMinidiskLive(id) && index_.count(id) == 0) {
      index_[id] = live_.size();
      live_.push_back(id);
    }
  }
}

AgingDriver::AgingDriver(SsdDevice* device, uint64_t seed,
                         const AgingConfig& config)
    : device_(device),
      rng_(seed),
      config_(RequireValidAgingConfig(config)),
      zipf_(std::max<uint64_t>(1, device->msize_opages()),
            config.zipfian_theta) {
  tracker_.Apply(device_->TakeEvents());  // any pending events first
  tracker_.BootstrapFromDevice(*device_);  // then the current live set
}

AgingResult AgingDriver::WriteOPages(uint64_t opages) {
  AgingResult result;
  const uint64_t msize = device_->msize_opages();
  // A real host declares a device dead after persistent errors; this also
  // guarantees the driver terminates if a device wedges without bricking.
  constexpr uint64_t kMaxConsecutiveErrors = 1000;
  uint64_t consecutive_errors = 0;
  while (result.opages_written < opages) {
    if (device_->failed() || tracker_.empty()) {
      result.device_failed = true;
      break;
    }
    MinidiskId mdisk;
    uint64_t lba;
    if (config_.working_set_fraction >= 1.0) {
      mdisk = tracker_.PickRandom(rng_);
      lba = rng_.Bernoulli(config_.zipfian_fraction) ? zipf_.Next(rng_)
                                                     : rng_.UniformU64(msize);
    } else {
      // Restrict to a byte-level prefix of the live capacity (works for one
      // monolithic volume and for many mDisks alike): the untouched tail
      // models allocated-but-cold space.
      const uint64_t total = tracker_.size() * msize;
      const uint64_t working = std::max<uint64_t>(
          1, static_cast<uint64_t>(static_cast<double>(total) *
                                   config_.working_set_fraction));
      const uint64_t target = rng_.UniformU64(working);
      mdisk = tracker_.live()[target / msize];
      lba = target % msize;
    }
    SimDuration latency = 0;  // the driver bills no time
    const Status status = device_->Write(mdisk, lba, latency);
    tracker_.Apply(device_->TakeEvents());
    if (status.ok()) {
      ++result.opages_written;
      ++total_written_;
      consecutive_errors = 0;
    } else {
      ++result.write_errors;
      if (status.code() == StatusCode::kDeviceFailed ||
          ++consecutive_errors >= kMaxConsecutiveErrors) {
        result.device_failed = true;
        break;
      }
      // A write that failed because its target mDisk just decommissioned is
      // retried against another mDisk on the next loop iteration.
    }
  }
  result.device_failed |= device_->failed() || tracker_.empty();
  return result;
}

}  // namespace salamander
