// MinidiskConfig and SsdConfig validation: ValidateMinidiskConfig and
// ValidateSsdConfig reject every config the device cannot run, and the
// MinidiskManager and SsdDevice constructors abort on it in every build mode
// — including the default RelWithDebInfo build, which defines NDEBUG and so
// compiles the old assert away (one death test per rule).
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/minidisk_manager.h"
#include "ssd/ssd_device.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestFtlConfig;
using testing_util::TestSsdConfig;
using testing_util::TinyGeometry;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

SsdConfig Valid() {
  return TestSsdConfig(SsdKind::kRegenS, TinyGeometry(), /*nominal_pec=*/20);
}

TEST(DeviceConfigTest, DefaultsAndValidShapesPass) {
  EXPECT_TRUE(ValidateMinidiskConfig(MinidiskConfig{}).ok());
  EXPECT_TRUE(ValidateSsdConfig(SsdConfig{}).ok());
  SsdConfig edges = Valid();
  edges.minidisk.msize_opages = 1;
  edges.minidisk.drain_forecast_horizon = 0.0;
  edges.brick_bad_block_fraction = 1.0;
  EXPECT_TRUE(ValidateMinidiskConfig(edges.minidisk).ok());
  EXPECT_TRUE(ValidateSsdConfig(edges).ok());
  for (SsdKind kind : {SsdKind::kBaseline, SsdKind::kCvss, SsdKind::kShrinkS,
                       SsdKind::kRegenS}) {
    const SsdConfig made = TestSsdConfig(kind, TinyGeometry(), 20);
    EXPECT_TRUE(ValidateMinidiskConfig(made.minidisk).ok());
    EXPECT_TRUE(ValidateSsdConfig(made).ok());
  }
}

TEST(DeviceConfigTest, EveryRuleReportsInvalidArgument) {
  std::vector<MinidiskConfig> bad_minidisk(4, Valid().minidisk);
  bad_minidisk[0].msize_opages = 0;
  bad_minidisk[1].drain_forecast_horizon = -0.1;
  bad_minidisk[2].drain_forecast_horizon = kNan;
  bad_minidisk[3].drain_forecast_horizon = kInf;
  for (size_t i = 0; i < bad_minidisk.size(); ++i) {
    EXPECT_EQ(ValidateMinidiskConfig(bad_minidisk[i]).code(),
              StatusCode::kInvalidArgument)
        << "minidisk case " << i;
  }
  std::vector<SsdConfig> bad_ssd(4, Valid());
  bad_ssd[0].brick_bad_block_fraction = -0.01;
  bad_ssd[1].brick_bad_block_fraction = 1.5;
  bad_ssd[2].brick_bad_block_fraction = kNan;
  bad_ssd[3].brick_bad_block_fraction = kInf;
  for (size_t i = 0; i < bad_ssd.size(); ++i) {
    EXPECT_EQ(ValidateSsdConfig(bad_ssd[i]).code(),
              StatusCode::kInvalidArgument)
        << "ssd case " << i;
  }
}

MinidiskConfig WithMsize(uint64_t msize) {
  MinidiskConfig config = Valid().minidisk;
  config.msize_opages = msize;
  return config;
}

MinidiskConfig WithHorizon(double horizon) {
  MinidiskConfig config = Valid().minidisk;
  config.drain_before_decommission = true;
  config.drain_forecast_horizon = horizon;
  return config;
}

// A zero mSize used to reach FormatDevice's division when asserts were
// compiled out and die with SIGFPE instead of a message.
TEST(DeviceConfigDeathTest, ManagerRejectsZeroMsize) {
  Ftl ftl(TestFtlConfig(TinyGeometry(), 20));
  EXPECT_DEATH(MinidiskManager(&ftl, WithMsize(0)),
               "MinidiskManager: invalid config: msize_opages");
}

TEST(DeviceConfigDeathTest, ManagerRejectsBadForecastHorizon) {
  Ftl ftl(TestFtlConfig(TinyGeometry(), 20));
  EXPECT_DEATH(MinidiskManager(&ftl, WithHorizon(-1.0)),
               "drain_forecast_horizon");
  EXPECT_DEATH(MinidiskManager(&ftl, WithHorizon(kNan)),
               "drain_forecast_horizon");
}

TEST(DeviceConfigDeathTest, DeviceRejectsBadBrickFraction) {
  SsdConfig config = Valid();
  config.brick_bad_block_fraction = 2.0;
  EXPECT_DEATH(SsdDevice(SsdKind::kRegenS, config),
               "SsdDevice: invalid config: brick_bad_block_fraction");
}

TEST(DeviceConfigDeathTest, DeviceRejectsZeroMsize) {
  SsdConfig config = Valid();
  config.minidisk.msize_opages = 0;
  EXPECT_DEATH(SsdDevice(SsdKind::kRegenS, config), "msize_opages");
}

}  // namespace
}  // namespace salamander
