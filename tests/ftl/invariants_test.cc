// Property tests: the FTL's internal accounting stays exactly consistent
// under randomized operation mixes across every configuration dimension
// (tiredness cap, retirement granularity, ECC placement, wear intensity).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "ftl/ftl.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestFtlConfig;
using testing_util::TinyGeometry;

struct InvariantCase {
  const char* name;
  uint32_t nominal_pec;
  unsigned max_level;
  RetirementGranularity retirement;
  EccPlacement placement;
};

// gtest prints each parameter as raw bytes, starting with the address of
// its name, and that print is part of the test's full name. The names live
// in one 256-byte-aligned block so the printed addresses depend only on
// this table, not on where the linker puts the rest of the binary's string
// literals.
struct alignas(256) CaseNames {
  char wearing_regens[sizeof("wearing_regens")] = "wearing_regens";
  char regens_l2[sizeof("regens_l2")] = "regens_l2";
  char regens_dedicated[sizeof("regens_dedicated")] = "regens_dedicated";
  char healthy_shrinks[sizeof("healthy_shrinks")] = "healthy_shrinks";
  char wearing_shrinks[sizeof("wearing_shrinks")] = "wearing_shrinks";
  char block_worst[sizeof("block_worst")] = "block_worst";
  char block_average[sizeof("block_average")] = "block_average";
};
constexpr CaseNames kCaseNames;

class FtlInvariantsTest : public ::testing::TestWithParam<InvariantCase> {};

TEST_P(FtlInvariantsTest, AccountingConsistentUnderChurn) {
  const InvariantCase& param = GetParam();
  FtlConfig config = TestFtlConfig(TinyGeometry(), param.nominal_pec);
  config.max_usable_level = param.max_level;
  config.retirement = param.retirement;
  config.ecc_placement = param.placement;
  Ftl ftl(config);
  const uint64_t logical = 500;
  ftl.ExtendLogicalSpace(logical);

  Rng rng(20250707);
  for (int burst = 0; burst < 60; ++burst) {
    for (int op = 0; op < 1000; ++op) {
      const uint64_t lpo = rng.UniformU64(logical);
      const double dice = rng.UniformDouble();
      if (dice < 0.70) {
        (void)ftl.Write(lpo);  // may fail near death; accounting must hold
      } else if (dice < 0.85) {
        ASSERT_TRUE(ftl.Trim(lpo).ok());
      } else if (dice < 0.97) {
        (void)ftl.Read(lpo);
      } else if (dice < 0.99) {
        (void)ftl.Flush();
      } else {
        ftl.ClaimLimboCapacity(rng.UniformU64(16));
      }
    }
    ftl.TakeTransitions();
    ASSERT_EQ(ftl.CheckInvariants(), OkStatus())
        << "burst " << burst << ": " << ftl.CheckInvariants().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FtlInvariantsTest,
    ::testing::Values(
        InvariantCase{kCaseNames.healthy_shrinks, 1000000, 0,
                      RetirementGranularity::kPage, EccPlacement::kInline},
        InvariantCase{kCaseNames.wearing_shrinks, 25, 0,
                      RetirementGranularity::kPage, EccPlacement::kInline},
        InvariantCase{kCaseNames.wearing_regens, 25, 1,
                      RetirementGranularity::kPage, EccPlacement::kInline},
        InvariantCase{kCaseNames.regens_l2, 25, 2,
                      RetirementGranularity::kPage, EccPlacement::kInline},
        InvariantCase{kCaseNames.regens_dedicated, 25, 1,
                      RetirementGranularity::kPage, EccPlacement::kDedicated},
        InvariantCase{kCaseNames.block_worst, 25, 0,
                      RetirementGranularity::kBlockWorstPage,
                      EccPlacement::kInline},
        InvariantCase{kCaseNames.block_average, 25, 0,
                      RetirementGranularity::kBlockAverage,
                      EccPlacement::kInline}),
    [](const ::testing::TestParamInfo<InvariantCase>& param_info) {
      return param_info.param.name;
    });

TEST(FtlInvariantsTest, FreshDevicePassesAudit) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), 1000);
  Ftl ftl(config);
  EXPECT_EQ(ftl.CheckInvariants(), OkStatus());
  ftl.ExtendLogicalSpace(100);
  EXPECT_EQ(ftl.CheckInvariants(), OkStatus());
}

}  // namespace
}  // namespace salamander
