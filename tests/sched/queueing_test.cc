#include "sched/queueing.h"

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"

namespace salamander {
namespace {

SchedConfig EnabledConfig() {
  SchedConfig config;
  config.queue_depth = 4;
  config.arrival_interval_ns = 1000;
  return config;
}

TEST(QueueingConfigTest, DisabledConfigAlwaysValid) {
  SchedConfig config;  // queue_depth == 0
  config.arrival_interval_ns = 0;
  EXPECT_TRUE(ValidateSchedConfig(config).ok());
}

TEST(QueueingConfigTest, EnabledRequiresArrivalInterval) {
  SchedConfig config = EnabledConfig();
  config.arrival_interval_ns = 0;
  EXPECT_EQ(ValidateSchedConfig(config).code(),
            StatusCode::kInvalidArgument);
}

TEST(QueueingConfigTest, BrownoutNeedsWindow) {
  SchedConfig config = EnabledConfig();
  config.slo_p99_ns = 1000000;
  config.brownout_window_ops = 0;
  EXPECT_EQ(ValidateSchedConfig(config).code(),
            StatusCode::kInvalidArgument);
}

TEST(DeviceQueueTest, EmptyQueueAdmitsWithZeroWait) {
  DeviceQueue queue(EnabledConfig(), 1);
  QueueAdmission a = queue.Admit(OpClass::kForegroundRead, 0);
  EXPECT_TRUE(a.admitted);
  EXPECT_EQ(a.wait_ns, 0u);
  EXPECT_EQ(a.retries, 0u);
  EXPECT_EQ(queue.stats().submitted[0], 1u);
}

TEST(DeviceQueueTest, WaitCountsOwnAndHigherPriorityOnly) {
  DeviceQueue queue(EnabledConfig(), 1);
  queue.Complete(OpClass::kForegroundRead, 100);
  queue.Complete(OpClass::kScrub, 1000);
  // A read waits behind queued reads only; scrub backlog is lower priority.
  EXPECT_EQ(queue.EstimateWaitNs(OpClass::kForegroundRead), 100u);
  // A write waits behind reads and writes.
  EXPECT_EQ(queue.EstimateWaitNs(OpClass::kForegroundWrite), 100u);
  // A scrub waits behind everything.
  EXPECT_EQ(queue.EstimateWaitNs(OpClass::kScrub), 1100u);
  EXPECT_EQ(queue.backlog_ns(), 1100u);
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(DeviceQueueTest, AdvanceDrainsHighestPriorityFirst) {
  DeviceQueue queue(EnabledConfig(), 1);
  queue.Complete(OpClass::kScrub, 100);
  queue.Complete(OpClass::kForegroundRead, 50);
  queue.AdvanceTo(60);
  // The read (50 ns) drains first, then 10 ns of the scrub.
  EXPECT_EQ(queue.EstimateWaitNs(OpClass::kForegroundRead), 0u);
  EXPECT_EQ(queue.EstimateWaitNs(OpClass::kScrub), 90u);
  EXPECT_EQ(queue.depth(), 1u);
  // The clock never rewinds.
  queue.AdvanceTo(10);
  EXPECT_EQ(queue.now_ns(), 60u);
}

TEST(DeviceQueueTest, BoundedDepthShedsAndCounts) {
  SchedConfig config = EnabledConfig();
  config.queue_depth = 2;
  DeviceQueue queue(config, 1);
  // Backlogs far longer than every retry backoff together: the queue stays
  // full through the whole retry budget.
  ASSERT_TRUE(queue.Admit(OpClass::kForegroundWrite, 0).admitted);
  queue.Complete(OpClass::kForegroundWrite, 1u << 30);
  ASSERT_TRUE(queue.Admit(OpClass::kForegroundWrite, 0).admitted);
  queue.Complete(OpClass::kForegroundWrite, 1u << 30);
  QueueAdmission a = queue.Admit(OpClass::kForegroundWrite, 0);
  EXPECT_FALSE(a.admitted);
  EXPECT_EQ(a.retries, kShedRetryBudget);
  // One shed for the first attempt and one per retry.
  EXPECT_EQ(queue.stats().sheds[1], kShedRetryBudget + 1u);
  EXPECT_EQ(queue.stats().shed_giveups, 1u);
  EXPECT_EQ(queue.stats().shed_retries, kShedRetryBudget);
}

TEST(DeviceQueueTest, ShedRetryBackoffDrainsQueueAndAdmits) {
  SchedConfig config = EnabledConfig();
  config.queue_depth = 1;
  DeviceQueue queue(config, 1);
  ASSERT_TRUE(queue.Admit(OpClass::kForegroundWrite, 0).admitted);
  queue.Complete(OpClass::kForegroundWrite, 5000);
  // Full at depth 1; the first backoff (10 us) outlasts the 5 us backlog.
  QueueAdmission a = queue.Admit(OpClass::kForegroundWrite, 0);
  EXPECT_TRUE(a.admitted);
  EXPECT_EQ(a.retries, 1u);
  EXPECT_EQ(a.backoff_ns, kShedRetryBackoffBaseNs);
  EXPECT_EQ(a.wait_ns, 0u);  // the queue drained during the backoff
  EXPECT_EQ(queue.stats().sheds[1], 1u);
  EXPECT_EQ(queue.stats().shed_retries, 1u);
  EXPECT_EQ(queue.stats().shed_giveups, 0u);
  EXPECT_EQ(queue.stats().retry_backoff_ns, kShedRetryBackoffBaseNs);
}

TEST(DeviceQueueTest, WaitHistogramTracksAdmissions) {
  DeviceQueue queue(EnabledConfig(), 1);
  for (int i = 0; i < 3; ++i) {
    QueueAdmission a = queue.Admit(OpClass::kForegroundRead, 0);
    ASSERT_TRUE(a.admitted);
    queue.Complete(OpClass::kForegroundRead, 1000);
  }
  EXPECT_EQ(queue.stats().wait_ns.count(), 3u);
  EXPECT_EQ(queue.stats().wait_ns_total, 0u + 1000u + 2000u);
}

TEST(BrownoutTest, EntersAndExitsOnWindowP99) {
  BrownoutController brownout(1000, 4);
  ASSERT_TRUE(brownout.enabled());
  for (int i = 0; i < 4; ++i) brownout.RecordForeground(2000);
  EXPECT_TRUE(brownout.active());
  EXPECT_EQ(brownout.stats().entered, 1u);
  for (int i = 0; i < 4; ++i) brownout.RecordForeground(100);
  EXPECT_FALSE(brownout.active());
  EXPECT_EQ(brownout.stats().exited, 1u);
  EXPECT_EQ(brownout.stats().windows, 2u);
}

TEST(BrownoutTest, DisabledNeverActivates) {
  BrownoutController brownout(0, 4);
  EXPECT_FALSE(brownout.enabled());
  for (int i = 0; i < 64; ++i) brownout.RecordForeground(1 << 30);
  EXPECT_FALSE(brownout.active());
  EXPECT_EQ(brownout.stats().windows, 0u);
}

TEST(QueueMetricsTest, CollectExportsCountersGaugesHistogram) {
  SchedConfig config = EnabledConfig();
  config.queue_depth = 1;
  DeviceQueue queue(config, 1);
  // A read that outlasts every shed-retry backoff keeps the scrub out.
  constexpr uint64_t kReadNs = 1000000000;
  ASSERT_TRUE(queue.Admit(OpClass::kForegroundRead, 0).admitted);
  queue.Complete(OpClass::kForegroundRead, kReadNs);
  EXPECT_FALSE(queue.Admit(OpClass::kScrub, 0).admitted);
  const uint64_t backoff_ns = queue.stats().retry_backoff_ns;
  EXPECT_EQ(backoff_ns,
            kShedRetryBackoffBaseNs + (kShedRetryBackoffBaseNs << 1));

  MetricRegistry registry;
  CollectDeviceQueueMetrics(queue, registry, "dev.");
  EXPECT_EQ(registry.FindCounter("dev.sched.submitted.fg_read")->value(), 1u);
  EXPECT_EQ(registry.FindCounter("dev.sched.sheds.scrub")->value(),
            kShedRetryBudget + 1u);
  EXPECT_EQ(registry.FindCounter("dev.sched.shed_giveups")->value(), 1u);
  EXPECT_EQ(registry.FindCounter("dev.sched.retry_backoff_ns")->value(),
            backoff_ns);
  EXPECT_EQ(registry.FindGauge("dev.sched.depth")->value(), 1.0);
  // The retries advanced the clock, draining that much of the read.
  EXPECT_EQ(registry.FindGauge("dev.sched.backlog_ns")->value(),
            static_cast<double>(kReadNs - backoff_ns));
  EXPECT_EQ(registry.FindHistogram("dev.sched.wait_ns")->data().count(), 1u);
}

// ---- Determinism contract (run under TSan in CI) ---------------------------

// Drives a queue through a mixed, shed-heavy schedule and returns a
// fingerprint of every observable decision.
std::vector<uint64_t> RunSchedule(DeviceQueue& queue) {
  std::vector<uint64_t> trace;
  uint64_t now = 0;
  for (uint32_t i = 0; i < 200; ++i) {
    now += (i % 3) * 500;
    const OpClass cls = static_cast<OpClass>(i % kOpClassCount);
    QueueAdmission a = queue.Admit(cls, now);
    trace.push_back(a.admitted);
    trace.push_back(a.wait_ns);
    trace.push_back(a.backoff_ns);
    trace.push_back(a.retries);
    if (a.admitted) {
      queue.Complete(cls, 1000 + (i % 7) * 300);
    }
    trace.push_back(queue.depth());
    trace.push_back(queue.backlog_ns());
  }
  return trace;
}

TEST(SchedDeterminismTest, IdenticalReplayWithJitter) {
  SchedConfig config = EnabledConfig();
  config.queue_depth = 2;
  config.retry_jitter_ns = 5000;
  DeviceQueue a(config, 42);
  DeviceQueue b(config, 42);
  EXPECT_EQ(RunSchedule(a), RunSchedule(b));
  EXPECT_GT(a.stats().sheds_total(), 0u);
  EXPECT_GT(a.stats().submitted_total(), 0u);
}

TEST(SchedDeterminismTest, JitterSeedInvisibleWhenJitterDisabled) {
  // With retry_jitter_ns == 0 the jitter stream draws zero values, so two
  // queues with wildly different seeds make byte-identical decisions.
  SchedConfig config = EnabledConfig();
  config.queue_depth = 2;
  config.retry_jitter_ns = 0;
  DeviceQueue a(config, 1);
  DeviceQueue b(config, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(RunSchedule(a), RunSchedule(b));
  EXPECT_GT(a.stats().sheds_total(), 0u);
}

TEST(SchedDeterminismTest, JitterChangesBackoffOnlyThroughItsOwnStream) {
  // Same seed, jitter on vs off: admissions may differ, but the jitter-off
  // run's backoffs are exactly the exponential schedule.
  SchedConfig config = EnabledConfig();
  config.queue_depth = 1;
  DeviceQueue queue(config, 7);
  ASSERT_TRUE(queue.Admit(OpClass::kForegroundWrite, 0).admitted);
  queue.Complete(OpClass::kForegroundWrite, 1u << 30);  // huge backlog
  QueueAdmission a = queue.Admit(OpClass::kForegroundWrite, 0);
  EXPECT_FALSE(a.admitted);
  // base + base<<1 over the two-retry budget, no jitter.
  EXPECT_EQ(a.backoff_ns,
            kShedRetryBackoffBaseNs + (kShedRetryBackoffBaseNs << 1));
}

}  // namespace
}  // namespace salamander
