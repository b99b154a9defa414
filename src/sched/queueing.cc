#include "sched/queueing.h"

#include <algorithm>

namespace salamander {

const char* OpClassName(OpClass cls) {
  switch (cls) {
    case OpClass::kForegroundRead:
      return "fg_read";
    case OpClass::kForegroundWrite:
      return "fg_write";
    case OpClass::kRecovery:
      return "recovery";
    case OpClass::kScrub:
      return "scrub";
  }
  return "unknown";
}

Status ValidateSchedConfig(const SchedConfig& config) {
  if (!config.enabled()) {
    return OkStatus();
  }
  if (config.arrival_interval_ns == 0) {
    return InvalidArgumentError(
        "sched: arrival_interval_ns must be > 0 when queue_depth > 0");
  }
  if (config.slo_p99_ns > 0 && config.brownout_window_ops == 0) {
    return InvalidArgumentError(
        "sched: brownout_window_ops must be > 0 when slo_p99_ns > 0");
  }
  return OkStatus();
}

DeviceQueue::DeviceQueue(const SchedConfig& config, uint64_t jitter_seed)
    : config_(config), rng_(jitter_seed) {}

void DeviceQueue::AdvanceTo(uint64_t now_ns) {
  if (now_ns <= now_ns_) {
    return;  // never rewinds
  }
  uint64_t elapsed = now_ns - now_ns_;
  now_ns_ = now_ns;
  // Single server, strict priority: at every instant the highest-priority
  // queued op is the one being served.
  for (size_t cls = 0; cls < kOpClassCount && elapsed > 0; ++cls) {
    std::deque<uint64_t>& q = queued_[cls];
    while (elapsed > 0 && !q.empty()) {
      const uint64_t consumed = std::min(q.front(), elapsed);
      q.front() -= consumed;
      elapsed -= consumed;
      class_backlog_ns_[cls] -= consumed;
      if (q.front() == 0) {
        q.pop_front();
        --depth_;
      }
    }
  }
}

uint64_t DeviceQueue::EstimateWaitNs(OpClass cls) const {
  uint64_t wait = 0;
  for (size_t c = 0; c <= static_cast<size_t>(cls); ++c) {
    wait += class_backlog_ns_[c];
  }
  return wait;
}

uint64_t DeviceQueue::backlog_ns() const {
  uint64_t total = 0;
  for (size_t c = 0; c < kOpClassCount; ++c) {
    total += class_backlog_ns_[c];
  }
  return total;
}

QueueAdmission DeviceQueue::Admit(OpClass cls, uint64_t now_ns) {
  AdvanceTo(now_ns);
  QueueAdmission result;
  const size_t c = static_cast<size_t>(cls);
  for (uint32_t attempt = 0;; ++attempt) {
    if (depth_ < config_.queue_depth) {
      result.admitted = true;
      result.wait_ns = EstimateWaitNs(cls);
      ++stats_.submitted[c];
      stats_.wait_ns_total += result.wait_ns;
      stats_.wait_ns.Record(result.wait_ns);
      return result;
    }
    ++stats_.sheds[c];
    if (attempt >= kShedRetryBudget) {
      ++stats_.shed_giveups;
      return result;
    }
    uint64_t backoff = kShedRetryBackoffBaseNs << attempt;
    if (config_.retry_jitter_ns > 0) {
      backoff += rng_.UniformU64(config_.retry_jitter_ns + 1);
    }
    ++stats_.shed_retries;
    ++result.retries;
    result.backoff_ns += backoff;
    stats_.retry_backoff_ns += backoff;
    AdvanceTo(now_ns_ + backoff);  // waiting also drains the queue
  }
}

void DeviceQueue::Complete(OpClass cls, uint64_t service_ns) {
  const size_t c = static_cast<size_t>(cls);
  queued_[c].push_back(service_ns);
  class_backlog_ns_[c] += service_ns;
  ++depth_;
  stats_.max_depth = std::max(stats_.max_depth, depth_);
}

void BrownoutController::RecordForeground(uint64_t latency_ns) {
  if (!enabled()) {
    return;
  }
  window_.Record(latency_ns);
  if (window_.count() < window_ops_) {
    return;
  }
  ++stats_.windows;
  const uint64_t p99 = window_.P99();
  stats_.last_window_p99_ns = p99;
  const bool breach = p99 > slo_p99_ns_;
  if (breach && !active_) {
    ++stats_.entered;
  } else if (!breach && active_) {
    ++stats_.exited;
  }
  active_ = breach;
  window_.Reset();
}

void CollectDeviceQueueMetrics(const DeviceQueue& queue,
                               MetricRegistry& registry,
                               const std::string& prefix) {
  const DeviceQueueStats& s = queue.stats();
  for (size_t c = 0; c < kOpClassCount; ++c) {
    const char* name = OpClassName(static_cast<OpClass>(c));
    registry.GetCounter(prefix + "sched.submitted." + name).Add(s.submitted[c]);
    registry.GetCounter(prefix + "sched.sheds." + name).Add(s.sheds[c]);
  }
  registry.GetCounter(prefix + "sched.shed_retries").Add(s.shed_retries);
  registry.GetCounter(prefix + "sched.shed_giveups").Add(s.shed_giveups);
  registry.GetCounter(prefix + "sched.retry_backoff_ns")
      .Add(s.retry_backoff_ns);
  registry.GetCounter(prefix + "sched.wait_ns_total").Add(s.wait_ns_total);
  registry.GetCounter(prefix + "sched.max_depth").Add(s.max_depth);
  registry.GetGauge(prefix + "sched.depth").Add(
      static_cast<double>(queue.depth()));
  registry.GetGauge(prefix + "sched.backlog_ns")
      .Add(static_cast<double>(queue.backlog_ns()));
  registry.GetHistogram(prefix + "sched.wait_ns").data().Merge(s.wait_ns);
}

}  // namespace salamander
