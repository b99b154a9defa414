// Read-disturb extension tests (§2, [26]): reads of a block accumulate
// disturb charge that raises RBER until the next erase. Off by default
// (the paper's analysis is aging-only).
#include <gtest/gtest.h>

#include "ecc/tiredness.h"
#include "flash/flash_chip.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TinyGeometry;

EccParams L0Ecc() {
  const TirednessLevelEcc l0 = ComputeTirednessLevel(FPageEccGeometry{}, 0);
  return EccParams{
      .stripe_codeword_bits = l0.stripe_codeword_bits,
      .correctable_bits_per_stripe = l0.correctable_bits_per_stripe,
      .stripes = 4,
  };
}

FlashChip MakeChip(double disturb_per_read) {
  FPageEccGeometry ecc;
  WearModelConfig wear = testing_util::FastWear(ecc, 3000, /*sigma=*/0.0);
  wear.read_disturb_per_read = disturb_per_read;
  return FlashChip(TinyGeometry(), wear, FlashLatencyConfig{}, /*seed=*/5);
}

TEST(ReadDisturbTest, DisabledByDefaultRberConstantUnderReads) {
  FlashChip chip = MakeChip(0.0);
  ASSERT_TRUE(chip.ProgramFPage(0).ok());
  const double before = chip.PageRber(0);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(chip.ReadFPage(0, L0Ecc(), 4096).ok());
  }
  EXPECT_DOUBLE_EQ(chip.PageRber(0), before);
}

TEST(ReadDisturbTest, ReadsRaiseRberOfWholeBlock) {
  FlashChip chip = MakeChip(1e-8);
  ASSERT_TRUE(chip.ProgramFPage(0).ok());
  ASSERT_TRUE(chip.ProgramFPage(1).ok());
  const double before_self = chip.PageRber(0);
  const double before_neighbor = chip.PageRber(1);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(chip.ReadFPage(0, L0Ecc(), 4096).ok());
  }
  // Disturb hits the victim page's neighbours too (same block).
  EXPECT_NEAR(chip.PageRber(0) - before_self, 500 * 1e-8, 1e-12);
  EXPECT_NEAR(chip.PageRber(1) - before_neighbor, 500 * 1e-8, 1e-12);
  // Other blocks are unaffected.
  const FPageIndex other_block_page = TinyGeometry().fpages_per_block;
  EXPECT_DOUBLE_EQ(chip.PageRber(other_block_page), before_self);
}

TEST(ReadDisturbTest, EraseResetsDisturbCharge) {
  FlashChip chip = MakeChip(1e-8);
  ASSERT_TRUE(chip.ProgramFPage(0).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(chip.ReadFPage(0, L0Ecc(), 4096).ok());
  }
  EXPECT_EQ(chip.BlockReadsSinceErase(0), 200u);
  ASSERT_TRUE(chip.EraseBlock(0).ok());
  EXPECT_EQ(chip.BlockReadsSinceErase(0), 0u);
  // RBER back to the aging-only value (plus one PEC of wear).
  FlashChip reference = MakeChip(0.0);
  ASSERT_TRUE(reference.EraseBlock(0).ok());
  EXPECT_DOUBLE_EQ(chip.PageRber(0), reference.PageRber(0));
}

TEST(ReadDisturbTest, HeavyReadingDegradesReadQuality) {
  // A pathological disturb rate: after enough reads the default ECC starts
  // needing retries and eventually fails — the hot-read-block hazard real
  // firmware counters with block refresh.
  FlashChip chip = MakeChip(5e-6);
  ASSERT_TRUE(chip.ProgramFPage(0).ok());
  uint64_t stressed = 0;
  for (int i = 0; i < 3000; ++i) {
    auto result = chip.ReadFPage(0, L0Ecc(), 4096);
    ASSERT_TRUE(result.ok());
    if (result->retries > 0 || !result->correctable) {
      ++stressed;
    }
  }
  EXPECT_GT(stressed, 0u);
}

TEST(ReadDisturbTest, CounterTracksEveryRead) {
  FlashChip chip = MakeChip(1e-9);
  ASSERT_TRUE(chip.ProgramFPage(0).ok());
  ASSERT_TRUE(chip.ProgramFPage(1).ok());
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(chip.ReadFPage(0, L0Ecc(), 4096).ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(chip.ReadFPage(1, L0Ecc(), 4096).ok());
  }
  EXPECT_EQ(chip.BlockReadsSinceErase(0), 12u);
}

// PageRber uses a per-block wear term cached at erase time; it must equal the
// WearModel expression evaluated from the chip's public state, bit for bit,
// for every page after every erase and read of a random sequence.
TEST(ReadDisturbTest, PageRberMatchesWearModelAfterEveryOp) {
  FPageEccGeometry ecc;
  WearModelConfig wear = testing_util::FastWear(ecc, 3000, /*sigma=*/0.35);
  wear.read_disturb_per_read = 1e-9;
  FlashChip chip(TinyGeometry(), wear, FlashLatencyConfig{}, /*seed=*/9);
  const FlashGeometry& geometry = chip.geometry();
  const auto check_all_pages = [&](int step) {
    for (FPageIndex f = 0; f < geometry.total_fpages(); ++f) {
      const BlockIndex block = f / geometry.fpages_per_block;
      const double expected = chip.wear_model().Rber(
          static_cast<double>(chip.BlockPec(block)), chip.PageFactor(f),
          chip.BlockReadsSinceErase(block));
      ASSERT_EQ(chip.PageRber(f), expected) << "step " << step << " fpage "
                                            << f;
    }
  };
  const auto program_block = [&](BlockIndex block) {
    for (uint32_t i = 0; i < geometry.fpages_per_block; ++i) {
      ASSERT_TRUE(chip.ProgramFPage(geometry.FirstFPageOfBlock(block) + i)
                      .ok());
    }
  };
  check_all_pages(-1);  // pristine: the pec == 0 branch
  for (BlockIndex block = 0; block < geometry.total_blocks(); ++block) {
    program_block(block);
  }
  Rng rng(2024);
  for (int step = 0; step < 2000; ++step) {
    const BlockIndex block = rng.UniformU64(geometry.total_blocks());
    if (rng.UniformU64(4) == 0) {
      ASSERT_TRUE(chip.EraseBlock(block).ok());
      program_block(block);
    } else {
      const FPageIndex fpage = geometry.FirstFPageOfBlock(block) +
                               rng.UniformU64(geometry.fpages_per_block);
      ASSERT_TRUE(chip.ReadFPage(fpage, L0Ecc(), 4096).ok());
    }
    check_all_pages(step);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(chip.total_erases(), 400u);
}

}  // namespace
}  // namespace salamander
