// Event-channel faults at the device boundary: injected drops, duplicates,
// delivery delays, crash-during-drain, and the bounded event queue with its
// overflow counter.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "ssd/ssd_device.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestSsdConfig;
using testing_util::TinyGeometry;

SsdDevice MakeFaultyDevice(const FaultConfig& faults,
                           uint32_t nominal_pec = 1000000) {
  SsdConfig config =
      TestSsdConfig(SsdKind::kShrinkS, TinyGeometry(), nominal_pec);
  config.faults = std::make_shared<FaultInjector>(faults, /*stream_id=*/0);
  return SsdDevice(SsdKind::kShrinkS, config);
}

// Format queues one kCreated per mDisk (12 on the tiny geometry) — a handy
// deterministic event burst for exercising the channel.
TEST(SsdEventFaultsTest, InjectedDropsSuppressDeliveryNotOverflowCounter) {
  FaultConfig faults;
  faults.event_drop = 1.0;
  SsdDevice device = MakeFaultyDevice(faults);
  EXPECT_TRUE(device.TakeEvents().empty());
  // Channel loss is the injector's doing, not queue overflow: the overflow
  // counter must stay untouched so the diFS only resyncs for real overflow.
  EXPECT_EQ(device.dropped_events(), 0u);
  EXPECT_EQ(device.faults()->stats().count(FaultSite::kEventDrop), 12u);
}

TEST(SsdEventFaultsTest, DuplicatedEventsDeliverBackToBack) {
  FaultConfig faults;
  faults.event_duplicate = 1.0;
  SsdDevice device = MakeFaultyDevice(faults);
  const std::vector<MinidiskEvent> events = device.TakeEvents();
  ASSERT_EQ(events.size(), 24u);
  for (size_t i = 0; i < events.size(); i += 2) {
    EXPECT_EQ(events[i].mdisk, events[i + 1].mdisk);
    EXPECT_EQ(events[i].type, events[i + 1].type);
  }
}

TEST(SsdEventFaultsTest, DelayedEventsMatureWithinMaxWaves) {
  FaultConfig faults;
  faults.event_delay = 1.0;  // every event held for 1..kEventDelayWavesMax
  SsdDevice device = MakeFaultyDevice(faults);
  EXPECT_TRUE(device.TakeEvents().empty());  // all 12 held back
  std::set<MinidiskId> delivered;
  for (uint32_t poll = 0; poll < kEventDelayWavesMax; ++poll) {
    for (const MinidiskEvent& event : device.TakeEvents()) {
      EXPECT_EQ(event.type, MinidiskEventType::kCreated);
      EXPECT_TRUE(delivered.insert(event.mdisk).second)
          << "mDisk " << event.mdisk << " delivered twice";
    }
  }
  EXPECT_EQ(delivered.size(), 12u);
  EXPECT_TRUE(device.TakeEvents().empty());  // delivered exactly once
}

TEST(SsdEventFaultsTest, CrashDuringDrainBricksAtThePollBoundary) {
  FaultConfig faults;
  faults.crash_during_drain = 1.0;
  SsdConfig config = TestSsdConfig(SsdKind::kShrinkS, TinyGeometry(),
                                   /*nominal_pec=*/25);
  config.minidisk.drain_before_decommission = true;
  config.minidisk.max_draining = 3;
  config.faults = std::make_shared<FaultInjector>(faults, /*stream_id=*/0);
  SsdDevice device(SsdKind::kShrinkS, config);

  // Age without polling until wear opens the first grace window. The crash
  // site only fires on a poll of a draining device, so the device must stay
  // healthy until then.
  uint64_t step = 0;
  while (device.manager().draining_minidisks() == 0 && step < 2000000 &&
         !device.failed()) {
    const MinidiskId mdisk = static_cast<MinidiskId>(step % 12);
    if (device.IsMinidiskLive(mdisk)) {
      (void)device.Write(mdisk, step % 64);
    }
    ++step;
  }
  ASSERT_GT(device.manager().draining_minidisks(), 0u);
  ASSERT_FALSE(device.failed());

  const std::vector<MinidiskEvent> events = device.TakeEvents();
  EXPECT_TRUE(device.failed());
  EXPECT_EQ(device.faults()->stats().count(FaultSite::kCrashDuringDrain), 1u);
  // The brick fan-out reports every non-decommissioned mDisk — including the
  // draining one whose grace window the crash destroyed.
  uint64_t decommissions = 0;
  for (const MinidiskEvent& event : events) {
    decommissions += event.type == MinidiskEventType::kDecommissioned ? 1 : 0;
  }
  EXPECT_GT(decommissions, 0u);
}

// The bounded queue drops beyond max_pending_events and counts every drop —
// both in the manager's queue (format burst) and the device's own brick
// queue — so a host that sees the counter move knows to resync.
TEST(SsdEventFaultsTest, BoundedQueueDropsOverflowAndCountsIt) {
  SsdConfig config = TestSsdConfig(SsdKind::kShrinkS, TinyGeometry(), 1000000);
  config.minidisk.max_pending_events = 4;
  SsdDevice device(SsdKind::kShrinkS, config);
  // Format produced 12 kCreated; only 4 fit.
  EXPECT_EQ(device.TakeEvents().size(), 4u);
  EXPECT_EQ(device.dropped_events(), 8u);

  // A crash fans out 12 kDecommissioned through the device's own queue,
  // which honors the same bound.
  device.Crash();
  const std::vector<MinidiskEvent> events = device.TakeEvents();
  EXPECT_EQ(events.size(), 4u);
  for (const MinidiskEvent& event : events) {
    EXPECT_EQ(event.type, MinidiskEventType::kDecommissioned);
  }
  EXPECT_EQ(device.dropped_events(), 16u);
}

TEST(SsdEventFaultsTest, TransientUnavailabilitySurfacesOnHostIo) {
  FaultConfig faults;
  faults.transient_unavailable = 1.0;
  SsdDevice device = MakeFaultyDevice(faults);
  device.TakeEvents();
  EXPECT_EQ(device.Write(0, 0).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(device.Read(0, 0).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(device.ReadRange(0, 0, 2).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(device.AckDrain(0).code(), StatusCode::kUnavailable);
  // The device is not failed — the condition is transient by contract.
  EXPECT_FALSE(device.failed());
}

}  // namespace
}  // namespace salamander
