// FtlConfig validation: ValidateFtlConfig rejects every config the FTL
// cannot run with a Status, and the Ftl constructor aborts on it in every
// build mode — including the default RelWithDebInfo build, which defines
// NDEBUG (one death test per rule).
#include <gtest/gtest.h>

#include "ftl/ftl.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestFtlConfig;
using testing_util::TinyGeometry;

FtlConfig Valid() { return TestFtlConfig(TinyGeometry(), 1000); }

FtlConfig ZeroDimensionGeometry() {
  FtlConfig config = Valid();
  config.geometry.blocks_per_plane = 0;
  return config;
}

FtlConfig MismatchedEccGeometry() {
  FtlConfig config = Valid();
  config.ecc_geometry.opages_per_fpage = 2;
  return config;
}

FtlConfig BlockRetirementAboveL0() {
  FtlConfig config = Valid();
  config.retirement = RetirementGranularity::kBlockWorstPage;
  config.max_usable_level = 1;
  return config;
}

FtlConfig NoDataLevel() {
  FtlConfig config = Valid();
  config.max_usable_level = config.geometry.opages_per_fpage;
  return config;
}

FtlConfig OneBlockWatermark() {
  FtlConfig config = Valid();
  config.gc_low_watermark_blocks = 1;
  return config;
}

FtlConfig EmptyMapPages() {
  FtlConfig config = Valid();
  config.geometry.opage_bytes = 4;  // auto entries = opage_bytes / 8 = 0
  config.ecc_geometry.opage_bytes = 4;
  config.l2p_cache_entries = 64;
  return config;
}

TEST(FtlConfigTest, DefaultsAndTestConfigsPass) {
  EXPECT_TRUE(ValidateFtlConfig(FtlConfig{}).ok());
  EXPECT_TRUE(ValidateFtlConfig(Valid()).ok());
  FtlConfig regens = Valid();
  regens.max_usable_level = 3;
  EXPECT_TRUE(ValidateFtlConfig(regens).ok());
  FtlConfig tiny_pages = EmptyMapPages();
  tiny_pages.l2p_entries_per_map_page = 1;  // explicit size overrides auto
  EXPECT_TRUE(ValidateFtlConfig(tiny_pages).ok());
}

TEST(FtlConfigTest, EveryRuleReportsInvalidArgument) {
  for (const FtlConfig& config :
       {ZeroDimensionGeometry(), MismatchedEccGeometry(),
        BlockRetirementAboveL0(), NoDataLevel(), OneBlockWatermark(),
        EmptyMapPages()}) {
    EXPECT_EQ(ValidateFtlConfig(config).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(FtlConfigDeathTest, DiesOnZeroDimensionGeometry) {
  EXPECT_DEATH(Ftl{ZeroDimensionGeometry()}, "invalid config: flash geometry");
}

TEST(FtlConfigDeathTest, DiesWhenFlashAndEccGeometriesDisagree) {
  EXPECT_DEATH(Ftl{MismatchedEccGeometry()}, "must agree on opages_per_fpage");
}

TEST(FtlConfigDeathTest, DiesOnBlockRetirementAboveLevelZero) {
  EXPECT_DEATH(Ftl{BlockRetirementAboveL0()}, "block-granular retirement");
}

TEST(FtlConfigDeathTest, DiesWhenMaxUsableLevelLeavesNoData) {
  EXPECT_DEATH(Ftl{NoDataLevel()}, "max_usable_level must be below");
}

TEST(FtlConfigDeathTest, DiesOnGcWatermarkBelowTwo) {
  EXPECT_DEATH(Ftl{OneBlockWatermark()}, "gc_low_watermark_blocks");
}

TEST(FtlConfigDeathTest, DiesWhenMapPagesHoldNoEntry) {
  EXPECT_DEATH(Ftl{EmptyMapPages()}, "map pages must hold >= 1 entry");
}

}  // namespace
}  // namespace salamander
