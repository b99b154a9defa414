// Wear-forecast tests: ForecastTiringOPages predicts capacity about to leave
// its tiredness level, which drives the proactive drain policy.
#include <gtest/gtest.h>

#include "ftl/ftl.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestFtlConfig;
using testing_util::TinyGeometry;

TEST(ForecastTest, FreshDevicePredictsNothing) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/1000);
  Ftl ftl(config);
  EXPECT_EQ(ftl.ForecastTiringOPages(0.10), 0u);
  EXPECT_EQ(ftl.ForecastTiringOPages(0.50), 0u);
}

TEST(ForecastTest, WornDevicePredictsTiringCapacity) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/30);
  Ftl ftl(config);
  ftl.ExtendLogicalSpace(512);
  // Age to roughly two-thirds of nominal endurance.
  for (uint64_t i = 0; i < 40000; ++i) {
    if (!ftl.Write(i % 512).ok()) {
      break;
    }
  }
  // Pages near their limit show up at a modest horizon, and a wider horizon
  // sees at least as much.
  const uint64_t near = ftl.ForecastTiringOPages(0.10);
  const uint64_t wide = ftl.ForecastTiringOPages(1.00);
  EXPECT_GT(wide, 0u);
  EXPECT_GE(wide, near);
  // Forecast never exceeds what is actually in service.
  EXPECT_LE(wide, ftl.usable_opages());
}

TEST(ForecastTest, HorizonMonotone) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/25);
  Ftl ftl(config);
  ftl.ExtendLogicalSpace(512);
  for (uint64_t i = 0; i < 30000; ++i) {
    if (!ftl.Write(i % 512).ok()) {
      break;
    }
  }
  uint64_t prev = 0;
  for (double horizon : {0.05, 0.1, 0.2, 0.5, 1.0, 2.0}) {
    const uint64_t forecast = ftl.ForecastTiringOPages(horizon);
    EXPECT_GE(forecast, prev) << "horizon " << horizon;
    prev = forecast;
  }
}

TEST(ForecastTest, ProactiveDrainsStartEarlierThanReactive) {
  // Two identical draining devices; the proactive one opens its first grace
  // window at (weakly) fewer host writes.
  auto first_drain_at = [](double forecast_horizon) -> uint64_t {
    FtlConfig ftl_config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/25);
    Ftl ftl(ftl_config);
    MinidiskConfig md_config;
    md_config.msize_opages = 64;
    md_config.drain_before_decommission = true;
    md_config.drain_forecast_horizon = forecast_horizon;
    md_config.forecast_interval_writes = 256;
    MinidiskManager manager(&ftl, md_config);
    Rng rng(99);
    for (uint64_t writes = 0; writes < 2000000; ++writes) {
      if (manager.draining_minidisks() > 0) {
        return writes;
      }
      MinidiskId md = UINT32_MAX;
      for (MinidiskId i = 0; i < manager.total_minidisks(); ++i) {
        if (manager.IsLive(i)) {
          md = i;
          break;
        }
      }
      if (md == UINT32_MAX) {
        break;
      }
      (void)manager.Write(md, rng.UniformU64(64));
    }
    return UINT64_MAX;
  };
  const uint64_t reactive = first_drain_at(0.0);
  const uint64_t proactive = first_drain_at(0.3);
  ASSERT_NE(reactive, UINT64_MAX);
  ASSERT_NE(proactive, UINT64_MAX);
  EXPECT_LE(proactive, reactive);
}

}  // namespace
}  // namespace salamander
