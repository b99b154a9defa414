// Deterministic per-device queueing, admission control, and graceful
// degradation for the cluster data path (ISSUE 9, ROADMAP item 2a).
//
// The service-cost model (PR 8) prices each op in isolation, so foreground
// traffic never feels recovery storms or scrub load and p99 == p50 on a
// healthy device. DeviceQueue adds the missing contention: a simulated-time
// priority queue per device, fed by the existing service costs. Ops are
// admitted *before* they touch the device (bounded depth, counted sheds,
// exponential retry backoff with optional deterministic jitter) and
// enqueue their actual service time after execution, so the wait an op
// reports is the backlog of everything at its priority or higher.
//
// Priority order (lower value = served first):
//   foreground read > foreground write > recovery > scrub
//
// Determinism contract:
//  * All state is per-device and advanced only by its owner (the cluster or
//    fleet slot that constructed the queue), at the same op boundaries in
//    serial, parallel, and lockstep execution — so results are bit-identical
//    at any --threads.
//  * `queue_depth == 0` disables the layer entirely: no queues are built, no
//    RNG streams are forked, and every existing output stays byte-identical.
//  * The jitter stream draws zero values when `retry_jitter_ns == 0`, and is
//    a dedicated fork — jitter on/off never perturbs any other stream.
#ifndef SALAMANDER_SCHED_QUEUEING_H_
#define SALAMANDER_SCHED_QUEUEING_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/status.h"
#include "telemetry/metrics.h"

namespace salamander {

// Service classes, in strict priority order (lower value drains first).
enum class OpClass : uint8_t {
  kForegroundRead = 0,
  kForegroundWrite = 1,
  kRecovery = 2,
  kScrub = 3,
};

inline constexpr size_t kOpClassCount = 4;

// Stable lower_snake_case names for metric leaves: "fg_read", "fg_write",
// "recovery", "scrub".
const char* OpClassName(OpClass cls);

struct SchedConfig {
  // Maximum ops queued per device (all classes together). 0 disables the
  // queueing layer entirely — the byte-identical legacy behavior.
  uint64_t queue_depth = 0;

  // Simulated time between foreground arrivals at the cluster clock. The
  // load factor is mean-service-time / arrival-interval: an interval half
  // the mean service time is the ISSUE's "2x sustainable load" regime.
  // Must be > 0 when the layer is enabled.
  uint64_t arrival_interval_ns = 0;

  // ---- Shed-retry policy ---------------------------------------------------
  // Uniform jitter in [0, retry_jitter_ns] added to each shed-retry backoff
  // (see kShedRetryBudget), drawn from the queue's dedicated forked stream.
  // 0 = zero draws.
  uint64_t retry_jitter_ns = 0;

  // ---- Hedged reads --------------------------------------------------------
  // When > 0, a read whose primary replica's queue-delay estimate exceeds
  // this threshold fans out a hedge to the least-loaded alternate replica
  // (DifsCluster) or the reconstruction set (EcCluster); the op completes at
  // the faster of the two paths. 0 = no hedging.
  uint64_t hedge_threshold_ns = 0;

  // ---- Brownout (SLO-guarded degradation) ----------------------------------
  // When slo_p99_ns > 0, foreground latency is windowed (brownout_window_ops
  // per window); a window whose p99 breaches the SLO puts the cluster in
  // brownout: scrub and background recovery are deferred (counted) until a
  // window's p99 recovers below the target.
  uint64_t slo_p99_ns = 0;
  uint64_t brownout_window_ops = 256;

  bool enabled() const { return queue_depth > 0; }
};

// A shed op retries admission up to kShedRetryBudget times; retry r waits
// kShedRetryBackoffBaseNs << r (plus jitter), which also drains the queue so
// a retry can find room. The budget is the deadline proxy.
inline constexpr uint32_t kShedRetryBudget = 2;
inline constexpr uint64_t kShedRetryBackoffBaseNs = 10000;  // 10 us
// The largest shift the budget allows must not overflow `base << r`.
static_assert((kShedRetryBackoffBaseNs << kShedRetryBudget) >>
                  kShedRetryBudget ==
              kShedRetryBackoffBaseNs);

// kInvalidArgument with a description when the knobs are inconsistent
// (enabled with no arrival interval, brownout SLO with a zero window). A
// disabled config (queue_depth == 0) is always valid.
Status ValidateSchedConfig(const SchedConfig& config);

// Outcome of one admission attempt (including its shed-retry loop).
struct QueueAdmission {
  bool admitted = false;
  // Queue-delay estimate at admission: backlog of service time at this op's
  // priority or higher. 0 when shed.
  uint64_t wait_ns = 0;
  // Simulated shed-retry backoff spent (whether or not finally admitted).
  uint64_t backoff_ns = 0;
  uint32_t retries = 0;
};

struct DeviceQueueStats {
  uint64_t submitted[kOpClassCount] = {};
  uint64_t sheds[kOpClassCount] = {};  // one per refused attempt
  uint64_t shed_retries = 0;
  uint64_t shed_giveups = 0;           // ops dropped after the retry budget
  uint64_t retry_backoff_ns = 0;
  uint64_t wait_ns_total = 0;          // sum of admitted wait estimates
  uint64_t max_depth = 0;
  LogHistogram wait_ns;                // admitted queue-wait distribution

  uint64_t submitted_total() const {
    uint64_t n = 0;
    for (size_t i = 0; i < kOpClassCount; ++i) n += submitted[i];
    return n;
  }
  uint64_t sheds_total() const {
    uint64_t n = 0;
    for (size_t i = 0; i < kOpClassCount; ++i) n += sheds[i];
    return n;
  }
};

// Simulated-time service queue for one device. Single-owner, not
// thread-safe — exactly like the device it models.
//
// Usage per op: `Admit(cls, now)` before touching the device; if admitted,
// execute the device op and `Complete(cls, service_ns)` with its actual
// service cost. The queue drains in priority order as its clock advances
// (AdvanceTo is called by Admit, and by the owner at scheduling boundaries).
class DeviceQueue {
 public:
  DeviceQueue(const SchedConfig& config, uint64_t jitter_seed);

  // Drains elapsed service time (now - clock), highest priority first, then
  // sets the clock. A clock in the past is a no-op (never rewinds).
  void AdvanceTo(uint64_t now_ns);

  // Backlog of queued service time an arriving op of `cls` would wait
  // behind: every queued op at its priority or higher.
  uint64_t EstimateWaitNs(OpClass cls) const;

  // Admission control at simulated time `now_ns` (the queue first advances
  // to it). Sheds when the queue is at queue_depth; each shed retries after
  // an exponential backoff (plus jitter) that also drains the queue.
  QueueAdmission Admit(OpClass cls, uint64_t now_ns);

  // Enqueues the actual service cost of the op just admitted for `cls`.
  void Complete(OpClass cls, uint64_t service_ns);

  uint64_t now_ns() const { return now_ns_; }
  uint64_t depth() const { return depth_; }
  uint64_t backlog_ns() const;
  const DeviceQueueStats& stats() const { return stats_; }

 private:
  SchedConfig config_;
  Rng rng_;  // jitter stream; draws only when retry_jitter_ns > 0
  std::deque<uint64_t> queued_[kOpClassCount];  // remaining service ns
  uint64_t class_backlog_ns_[kOpClassCount] = {};
  uint64_t depth_ = 0;
  uint64_t now_ns_ = 0;
  DeviceQueueStats stats_;
};

// Windowed foreground-p99 SLO guard. While active, the owning cluster
// defers scrub and background recovery (graceful degradation) and counts
// each deferral; brownout exits when a window's p99 recovers.
class BrownoutController {
 public:
  struct Stats {
    uint64_t windows = 0;            // windows evaluated
    uint64_t entered = 0;            // transitions into brownout
    uint64_t exited = 0;             // transitions out
    uint64_t last_window_p99_ns = 0;
  };

  BrownoutController(uint64_t slo_p99_ns, uint64_t window_ops)
      : slo_p99_ns_(slo_p99_ns), window_ops_(window_ops) {}

  bool enabled() const { return slo_p99_ns_ > 0 && window_ops_ > 0; }
  bool active() const { return active_; }
  const Stats& stats() const { return stats_; }

  // Records one foreground op's end-to-end latency; at each window boundary
  // re-evaluates brownout from the window's p99.
  void RecordForeground(uint64_t latency_ns);

 private:
  uint64_t slo_p99_ns_;
  uint64_t window_ops_;
  LogHistogram window_;
  bool active_ = false;
  Stats stats_;
};

// Scrapes one queue into "<prefix>sched.*": per-class submitted/shed
// counters, retry/backoff counters, depth/backlog gauges, and the wait
// histogram. Additive — collecting several queues under one prefix yields
// the aggregate (gauges sum via Add; see telemetry/metrics.h).
void CollectDeviceQueueMetrics(const DeviceQueue& queue,
                               MetricRegistry& registry,
                               const std::string& prefix);

}  // namespace salamander

#endif  // SALAMANDER_SCHED_QUEUEING_H_
