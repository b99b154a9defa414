#include "flash/flash_chip.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ecc/tiredness.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TinyGeometry;

FlashChip MakeChip(double page_sigma = 0.35, uint32_t nominal_pec = 3000) {
  FPageEccGeometry ecc;
  return FlashChip(TinyGeometry(),
                   testing_util::FastWear(ecc, nominal_pec, page_sigma),
                   FlashLatencyConfig{}, /*seed=*/11);
}

EccParams L0Ecc() {
  const TirednessLevelEcc l0 = ComputeTirednessLevel(FPageEccGeometry{}, 0);
  return EccParams{
      .stripe_codeword_bits = l0.stripe_codeword_bits,
      .correctable_bits_per_stripe = l0.correctable_bits_per_stripe,
      .stripes = 4,
  };
}

TEST(FlashChipTest, GeometryCounts) {
  FlashChip chip = MakeChip();
  EXPECT_EQ(chip.geometry().total_blocks(), 16u);
  EXPECT_EQ(chip.geometry().total_fpages(), 256u);
  EXPECT_EQ(chip.geometry().total_opages(), 1024u);
}

TEST(FlashChipTest, ProgramRequiresErasedPage) {
  FlashChip chip = MakeChip();
  ASSERT_TRUE(chip.ProgramFPage(0).ok());
  // Double program without erase violates NAND rules.
  auto second = chip.ProgramFPage(0);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FlashChipTest, ProgramOrderAscendingWithinBlock) {
  FlashChip chip = MakeChip();
  ASSERT_TRUE(chip.ProgramFPage(0).ok());
  ASSERT_TRUE(chip.ProgramFPage(2).ok());  // skip allowed
  auto backwards = chip.ProgramFPage(1);   // going back is not
  EXPECT_FALSE(backwards.ok());
  EXPECT_EQ(backwards.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(chip.ProgramFPage(3).ok());
}

TEST(FlashChipTest, EraseResetsProgramState) {
  FlashChip chip = MakeChip();
  ASSERT_TRUE(chip.ProgramFPage(0).ok());
  ASSERT_TRUE(chip.EraseBlock(0).ok());
  EXPECT_FALSE(chip.IsProgrammed(0));
  EXPECT_TRUE(chip.ProgramFPage(0).ok());
}

TEST(FlashChipTest, EraseIncrementsPec) {
  FlashChip chip = MakeChip();
  EXPECT_EQ(chip.BlockPec(3), 0u);
  ASSERT_TRUE(chip.EraseBlock(3).ok());
  ASSERT_TRUE(chip.EraseBlock(3).ok());
  EXPECT_EQ(chip.BlockPec(3), 2u);
  EXPECT_EQ(chip.BlockPec(4), 0u);
  EXPECT_EQ(chip.total_erases(), 2u);
}

TEST(FlashChipTest, OutOfRangeOperationsRejected) {
  FlashChip chip = MakeChip();
  EXPECT_EQ(chip.EraseBlock(999).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(chip.ProgramFPage(99999).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(chip.ReadFPage(99999, L0Ecc(), 4096).status().code(),
            StatusCode::kOutOfRange);
}

TEST(FlashChipTest, ReadRequiresProgrammedPage) {
  FlashChip chip = MakeChip();
  auto result = chip.ReadFPage(0, L0Ecc(), 4096);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FlashChipTest, FreshPageReadsCleanly) {
  FlashChip chip = MakeChip();
  ASSERT_TRUE(chip.ProgramFPage(0).ok());
  for (int i = 0; i < 50; ++i) {
    auto result = chip.ReadFPage(0, L0Ecc(), 4096);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->correctable);
    EXPECT_EQ(result->retries, 0u);
  }
}

TEST(FlashChipTest, ReadLatencyIncludesTransfer) {
  FlashChip chip = MakeChip();
  ASSERT_TRUE(chip.ProgramFPage(0).ok());
  auto result = chip.ReadFPage(0, L0Ecc(), 4096);
  ASSERT_TRUE(result.ok());
  const FlashLatencyConfig latency;
  EXPECT_EQ(result->latency, latency.read_fpage + latency.TransferTime(4096));
}

TEST(FlashChipTest, RberGrowsWithErase) {
  FlashChip chip = MakeChip(/*page_sigma=*/0.0);
  const double fresh = chip.PageRber(0);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(chip.EraseBlock(0).ok());
  }
  EXPECT_GT(chip.PageRber(0), fresh);
  // Block 1 untouched.
  EXPECT_DOUBLE_EQ(chip.PageRber(16), fresh);
}

TEST(FlashChipTest, WornPageEventuallyUncorrectable) {
  // Wear far past nominal: reads should need retries and eventually fail.
  FlashChip chip = MakeChip(/*page_sigma=*/0.0, /*nominal_pec=*/50);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(chip.EraseBlock(0).ok());
  }
  ASSERT_TRUE(chip.ProgramFPage(0).ok());
  int uncorrectable = 0;
  int with_retries = 0;
  for (int i = 0; i < 50; ++i) {
    auto result = chip.ReadFPage(0, L0Ecc(), 4096);
    ASSERT_TRUE(result.ok());
    if (!result->correctable) {
      ++uncorrectable;
    } else if (result->retries > 0) {
      ++with_retries;
    }
  }
  // At 6x nominal PEC with a 2.7 power law the RBER is ~125x tolerable;
  // essentially every read must fail even after retries.
  EXPECT_GT(uncorrectable, 45);
}

TEST(FlashChipTest, RetriesReduceEffectiveRber) {
  // Wear to ~1.4x nominal: the RBER is ~2.5x the L0 tolerance (power law),
  // putting the mean stripe error count right at/above t, so raw reads
  // frequently exceed t — but one voltage-adjusted retry (RBER x0.6) pulls
  // the mean safely under t again.
  FlashChip chip = MakeChip(/*page_sigma=*/0.0, /*nominal_pec=*/100);
  for (int i = 0; i < 140; ++i) {
    ASSERT_TRUE(chip.EraseBlock(0).ok());
  }
  ASSERT_TRUE(chip.ProgramFPage(0).ok());
  int correctable = 0;
  int retried = 0;
  for (int i = 0; i < 200; ++i) {
    auto result = chip.ReadFPage(0, L0Ecc(), 4096);
    ASSERT_TRUE(result.ok());
    correctable += result->correctable ? 1 : 0;
    retried += result->retries > 0 ? 1 : 0;
  }
  EXPECT_GT(correctable, 180);  // retries rescue nearly everything
  EXPECT_GT(retried, 0);        // and many reads did need them
}

TEST(FlashChipTest, ReadLatencyGrowsWithRetries) {
  FlashChip chip = MakeChip(/*page_sigma=*/0.0, /*nominal_pec=*/100);
  for (int i = 0; i < 115; ++i) {
    ASSERT_TRUE(chip.EraseBlock(0).ok());
  }
  ASSERT_TRUE(chip.ProgramFPage(0).ok());
  const FlashLatencyConfig latency;
  for (int i = 0; i < 100; ++i) {
    auto result = chip.ReadFPage(0, L0Ecc(), 4096);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->latency, latency.read_fpage * (1 + result->retries) +
                                   latency.TransferTime(4096));
  }
}

TEST(FlashChipTest, PageFactorsVaryAcrossPages) {
  FlashChip chip = MakeChip(/*page_sigma=*/0.35);
  double min_factor = 1e9;
  double max_factor = 0;
  for (FPageIndex p = 0; p < chip.geometry().total_fpages(); ++p) {
    min_factor = std::min(min_factor, chip.PageFactor(p));
    max_factor = std::max(max_factor, chip.PageFactor(p));
  }
  // 256 lognormal(0, 0.35) draws should spread by well over 2x.
  EXPECT_GT(max_factor / min_factor, 2.0);
}

TEST(FlashChipTest, PecUntilRberHonorsPageFactor) {
  FlashChip chip = MakeChip(/*page_sigma=*/0.35);
  // Weaker (higher-factor) pages tire at lower PEC.
  FPageIndex weak = 0;
  FPageIndex strong = 0;
  for (FPageIndex p = 1; p < chip.geometry().total_fpages(); ++p) {
    if (chip.PageFactor(p) > chip.PageFactor(weak)) {
      weak = p;
    }
    if (chip.PageFactor(p) < chip.PageFactor(strong)) {
      strong = p;
    }
  }
  const double rber = 3e-3;
  EXPECT_LT(chip.PecUntilRber(weak, rber), chip.PecUntilRber(strong, rber));
}

TEST(FlashChipTest, DeterministicAcrossInstances) {
  FlashChip a = MakeChip();
  FlashChip b = MakeChip();
  ASSERT_TRUE(a.ProgramFPage(0).ok());
  ASSERT_TRUE(b.ProgramFPage(0).ok());
  for (int i = 0; i < 20; ++i) {
    auto ra = a.ReadFPage(0, L0Ecc(), 4096);
    auto rb = b.ReadFPage(0, L0Ecc(), 4096);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(ra->worst_stripe_errors, rb->worst_stripe_errors);
    EXPECT_EQ(ra->latency, rb->latency);
  }
}

// BlockOfFPage and FPageOfSlot shift for power-of-two divisors and divide
// otherwise; both arms must equal plain division.
TEST(FlashGeometryTest, IndexHelpersMatchDivision) {
  FlashGeometry odd = TinyGeometry();
  odd.fpages_per_block = 6;
  odd.opages_per_fpage = 3;
  Rng rng(31);
  for (const FlashGeometry& g :
       {FlashGeometry{}, FlashGeometry::Small(), TinyGeometry(), odd}) {
    std::vector<uint64_t> xs = {0, 1, 2, 3, 5, 6, 7, 63, 64, 65,
                                g.total_fpages() - 1, g.total_opages() - 1,
                                UINT64_MAX - 1, UINT64_MAX};
    for (int i = 0; i < 1000; ++i) {
      xs.push_back(rng.UniformU64(g.total_opages()));
      xs.push_back(rng.NextU64());
    }
    for (const uint64_t x : xs) {
      ASSERT_EQ(g.BlockOfFPage(x), x / g.fpages_per_block)
          << "x " << x << " fpages_per_block " << g.fpages_per_block;
      ASSERT_EQ(g.FPageOfSlot(x), x / g.opages_per_fpage)
          << "x " << x << " opages_per_fpage " << g.opages_per_fpage;
    }
  }
}

}  // namespace
}  // namespace salamander
