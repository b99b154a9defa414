#include "ecc/tiredness.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

namespace salamander {
namespace {

TEST(TirednessTest, L0MatchesPaperRunningExample) {
  FPageEccGeometry geo;
  auto l0 = ComputeTirednessLevel(geo, 0);
  EXPECT_EQ(l0.level, 0u);
  EXPECT_EQ(l0.data_opages, 4u);
  EXPECT_EQ(l0.data_bytes, 16384u);
  EXPECT_EQ(l0.ecc_bytes, 2048u);
  // Paper: "a typical flash page spare code rate is 88%" [13].
  EXPECT_NEAR(l0.code_rate, 16384.0 / 18432.0, 1e-12);
  EXPECT_NEAR(l0.code_rate, 0.888, 0.001);
  EXPECT_EQ(l0.stripes, 16u);
  EXPECT_EQ(l0.parity_bytes_per_stripe, 128u);
}

TEST(TirednessTest, L1SacrificesOneOPage) {
  FPageEccGeometry geo;
  auto l1 = ComputeTirednessLevel(geo, 1);
  EXPECT_EQ(l1.data_opages, 3u);
  EXPECT_EQ(l1.data_bytes, 12288u);
  EXPECT_EQ(l1.ecc_bytes, 2048u + 4096u);
  EXPECT_NEAR(l1.code_rate, 12288.0 / 18432.0, 1e-12);
  EXPECT_EQ(l1.stripes, 12u);
  EXPECT_EQ(l1.parity_bytes_per_stripe, 512u);
}

TEST(TirednessTest, TerminalLevelHasNoCapacity) {
  FPageEccGeometry geo;
  auto l4 = ComputeTirednessLevel(geo, 4);
  EXPECT_EQ(l4.data_opages, 0u);
  EXPECT_EQ(l4.data_bytes, 0u);
  EXPECT_EQ(l4.max_tolerable_rber, 0.0);
}

TEST(TirednessTest, LevelsBeyondMaxClampToTerminal) {
  FPageEccGeometry geo;
  auto beyond = ComputeTirednessLevel(geo, 9);
  EXPECT_EQ(beyond.level, geo.opages_per_fpage);
  EXPECT_EQ(beyond.data_bytes, 0u);
}

TEST(TirednessTest, CodeRateStrictlyDecreasesWithLevel) {
  FPageEccGeometry geo;
  auto ladder = ComputeTirednessLadder(geo);
  ASSERT_EQ(ladder.size(), 5u);
  for (size_t l = 1; l + 1 < ladder.size(); ++l) {
    EXPECT_LT(ladder[l].code_rate, ladder[l - 1].code_rate) << "L" << l;
  }
}

TEST(TirednessTest, TolerableRberStrictlyIncreasesWithLevel) {
  FPageEccGeometry geo;
  auto ladder = ComputeTirednessLadder(geo);
  for (size_t l = 1; l + 1 < ladder.size(); ++l) {
    EXPECT_GT(ladder[l].max_tolerable_rber, ladder[l - 1].max_tolerable_rber)
        << "L" << l;
  }
}

TEST(TirednessTest, CorrectionCapabilityScalesWithRepurposedPages) {
  FPageEccGeometry geo;
  auto l0 = ComputeTirednessLevel(geo, 0);
  auto l1 = ComputeTirednessLevel(geo, 1);
  // L1 quadruples per-stripe parity (512 B vs 128 B) -> ~4x t.
  EXPECT_NEAR(static_cast<double>(l1.correctable_bits_per_stripe) /
                  static_cast<double>(l0.correctable_bits_per_stripe),
              4.0, 0.15);
}

TEST(TirednessTest, AlternativeGeometrySmallFPage) {
  // An 8 KiB fPage (2 oPages) with 1 KiB spare — §4.2 notes fPage < 16KB.
  FPageEccGeometry geo;
  geo.opages_per_fpage = 2;
  geo.spare_bytes = 1024;
  auto ladder = ComputeTirednessLadder(geo);
  ASSERT_EQ(ladder.size(), 3u);
  EXPECT_EQ(ladder[0].data_bytes, 8192u);
  EXPECT_EQ(ladder[1].data_bytes, 4096u);
  EXPECT_EQ(ladder[2].data_bytes, 0u);
  EXPECT_GT(ladder[1].max_tolerable_rber, ladder[0].max_tolerable_rber);
}

TEST(TirednessTest, EccBytesConserveFPageArea) {
  FPageEccGeometry geo;
  auto ladder = ComputeTirednessLadder(geo);
  const uint32_t total = geo.fpage_data_bytes() + geo.spare_bytes;
  for (const auto& level : ladder) {
    EXPECT_EQ(level.data_bytes + level.ecc_bytes, total)
        << "L" << level.level;
  }
}

// ---- Memoized ladder -------------------------------------------------------

// The reference ladder, built level by level through ComputeTirednessLevel —
// which the ladder cache never touches.
std::vector<TirednessLevelEcc> ReferenceLadder(const FPageEccGeometry& geo) {
  std::vector<TirednessLevelEcc> ladder;
  for (unsigned level = 0; level <= geo.opages_per_fpage; ++level) {
    ladder.push_back(ComputeTirednessLevel(geo, level));
  }
  return ladder;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

void ExpectSameLadder(const std::vector<TirednessLevelEcc>& got,
                      const std::vector<TirednessLevelEcc>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t l = 0; l < want.size(); ++l) {
    SCOPED_TRACE(::testing::Message() << "L" << l);
    EXPECT_EQ(got[l].level, want[l].level);
    EXPECT_EQ(got[l].data_opages, want[l].data_opages);
    EXPECT_EQ(got[l].data_bytes, want[l].data_bytes);
    EXPECT_EQ(got[l].ecc_bytes, want[l].ecc_bytes);
    EXPECT_EQ(Bits(got[l].code_rate), Bits(want[l].code_rate));
    EXPECT_EQ(got[l].stripes, want[l].stripes);
    EXPECT_EQ(got[l].parity_bytes_per_stripe, want[l].parity_bytes_per_stripe);
    EXPECT_EQ(got[l].correctable_bits_per_stripe,
              want[l].correctable_bits_per_stripe);
    EXPECT_EQ(got[l].stripe_codeword_bits, want[l].stripe_codeword_bits);
    EXPECT_EQ(Bits(got[l].max_tolerable_rber), Bits(want[l].max_tolerable_rber));
  }
}

TEST(TirednessMemoTest, LadderMatchesUncachedReferenceBitForBit) {
  FPageEccGeometry paper;
  FPageEccGeometry strict = paper;  // differs only in stripe_fail_target
  strict.stripe_fail_target = 1e-15;
  FPageEccGeometry small;
  small.opages_per_fpage = 2;
  small.spare_bytes = 1024;
  small.gf_m = 13;
  for (const FPageEccGeometry& geo : {paper, strict, small}) {
    const std::vector<TirednessLevelEcc> want = ReferenceLadder(geo);
    // The first call may fill the cache, the second must hit it; both have
    // to equal the uncached computation exactly.
    ExpectSameLadder(ComputeTirednessLadder(geo), want);
    ExpectSameLadder(ComputeTirednessLadder(geo), want);
  }
  // The key separates geometries that differ only in the double: a stricter
  // failure target must tolerate strictly less RBER at every data level.
  const auto loose = ComputeTirednessLadder(paper);
  const auto tight = ComputeTirednessLadder(strict);
  for (unsigned l = 0; l < paper.opages_per_fpage; ++l) {
    EXPECT_LT(tight[l].max_tolerable_rber, loose[l].max_tolerable_rber)
        << "L" << l;
  }
}

TEST(TirednessMemoTest, ConcurrentFirstCallsAgree) {
  // A geometry no other test uses, so the four calls below race to be first.
  FPageEccGeometry geo;
  geo.spare_bytes = 1536;
  geo.stripe_fail_target = 3.25e-12;
  constexpr int kThreads = 4;
  std::vector<std::vector<TirednessLevelEcc>> results(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      results[t] = ComputeTirednessLadder(geo);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const std::vector<TirednessLevelEcc> want = ReferenceLadder(geo);
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(::testing::Message() << "thread " << t);
    ExpectSameLadder(results[t], want);
  }
}

}  // namespace
}  // namespace salamander
