// SsdDevice surface tests: flush, drain ack passthrough, dedicated ECC
// configuration, and working-set-restricted aging.
#include <gtest/gtest.h>

#include "ssd/ssd_device.h"
#include "tests/testing/device_builder.h"
#include "workload/aging.h"

namespace salamander {
namespace {

using testing_util::TestSsdConfig;
using testing_util::TinyGeometry;

TEST(SsdDeviceExtrasTest, FlushDrainsBuffer) {
  SsdDevice device(SsdKind::kRegenS,
                   TestSsdConfig(SsdKind::kRegenS, TinyGeometry(), 1000000));
  device.TakeEvents();
  ASSERT_TRUE(device.Write(0, 0).ok());
  EXPECT_GT(device.ftl().buffered_opages(), 0u);
  ASSERT_TRUE(device.Flush().ok());
  EXPECT_EQ(device.ftl().buffered_opages(), 0u);
  // Data survives the flush.
  auto read = device.Read(0, 0);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->buffer_hit);
}

TEST(SsdDeviceExtrasTest, AckDrainPassthroughValidation) {
  SsdConfig config =
      TestSsdConfig(SsdKind::kShrinkS, TinyGeometry(), 1000000);
  config.minidisk.drain_before_decommission = true;
  SsdDevice device(SsdKind::kShrinkS, config);
  EXPECT_EQ(device.AckDrain(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(device.AckDrain(9999).code(), StatusCode::kNotFound);
}

TEST(SsdDeviceExtrasTest, BrickedDeviceRejectsFlushAndAck) {
  SsdDevice device(SsdKind::kBaseline,
                   TestSsdConfig(SsdKind::kBaseline, TinyGeometry(), 10));
  AgingDriver driver(&device, 5);
  driver.WriteOPages(100000000);
  ASSERT_TRUE(device.failed());
  EXPECT_EQ(device.Flush().code(), StatusCode::kDeviceFailed);
  EXPECT_EQ(device.AckDrain(0).code(), StatusCode::kDeviceFailed);
}

TEST(SsdDeviceExtrasTest, DedicatedEccConfigPlumbsThrough) {
  SsdConfig config = TestSsdConfig(SsdKind::kRegenS, TinyGeometry(), 1000000);
  config.ftl.ecc_placement = EccPlacement::kDedicated;
  config.ftl.dedicated_ecc_cache_hit = 0.5;
  SsdDevice device(SsdKind::kRegenS, config);
  EXPECT_EQ(device.ftl().config().ecc_placement, EccPlacement::kDedicated);
  EXPECT_EQ(device.ftl().config().dedicated_ecc_cache_hit, 0.5);
}

TEST(AgingWorkingSetTest, RestrictedWorkingSetTouchesOnlyPrefix) {
  SsdDevice device(SsdKind::kShrinkS,
                   TestSsdConfig(SsdKind::kShrinkS, TinyGeometry(), 1000000));
  AgingConfig aging;
  aging.working_set_fraction = 0.25;
  AgingDriver driver(&device, 7, aging);
  AgingResult result = driver.WriteOPages(2000);
  EXPECT_EQ(result.opages_written, 2000u);
  // Only ~25% of the 12 mDisks (the live-list prefix) should hold data.
  uint32_t touched = 0;
  for (MinidiskId md = 0; md < device.total_minidisks(); ++md) {
    touched += device.manager().valid_lbas(md) > 0 ? 1 : 0;
  }
  EXPECT_LE(touched, 4u);
  EXPECT_GE(touched, 2u);
}

TEST(AgingWorkingSetTest, FullWorkingSetTouchesEverything) {
  SsdDevice device(SsdKind::kShrinkS,
                   TestSsdConfig(SsdKind::kShrinkS, TinyGeometry(), 1000000));
  AgingDriver driver(&device, 7);
  driver.WriteOPages(5000);
  uint32_t touched = 0;
  for (MinidiskId md = 0; md < device.total_minidisks(); ++md) {
    touched += device.manager().valid_lbas(md) > 0 ? 1 : 0;
  }
  EXPECT_EQ(touched, device.total_minidisks());
}

TEST(AgingWorkingSetTest, ZipfianSkewConcentratesWrites) {
  SsdDevice device(SsdKind::kShrinkS,
                   TestSsdConfig(SsdKind::kShrinkS, TinyGeometry(), 1000000));
  AgingConfig aging;
  aging.zipfian_fraction = 1.0;
  aging.zipfian_theta = 0.99;
  AgingDriver driver(&device, 7, aging);
  driver.WriteOPages(5000);
  uint64_t zipf_distinct = 0;
  for (MinidiskId md = 0; md < device.total_minidisks(); ++md) {
    zipf_distinct += device.manager().valid_lbas(md);
  }
  // Compare against a uniform run of the same size: zipfian re-hits hot
  // LBAs, so it covers clearly fewer distinct addresses.
  SsdDevice uniform_device(
      SsdKind::kShrinkS,
      TestSsdConfig(SsdKind::kShrinkS, TinyGeometry(), 1000000));
  AgingDriver uniform_driver(&uniform_device, 7);
  uniform_driver.WriteOPages(5000);
  uint64_t uniform_distinct = 0;
  for (MinidiskId md = 0; md < uniform_device.total_minidisks(); ++md) {
    uniform_distinct += uniform_device.manager().valid_lbas(md);
  }
  EXPECT_LT(zipf_distinct + 20, uniform_distinct);
}

}  // namespace
}  // namespace salamander
