#include "workload/generators.h"

#include <gtest/gtest.h>

#include <vector>

namespace salamander {
namespace {

TEST(ZipfianGeneratorTest, StaysInRange) {
  ZipfianGenerator gen(1000);
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(gen.Next(rng), 1000u);
  }
}

TEST(ZipfianGeneratorTest, HotItemsAreHot) {
  ZipfianGenerator gen(1000, 0.99);
  Rng rng(3);
  std::vector<uint64_t> counts(1000, 0);
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[gen.Next(rng)];
  }
  // Item 0 should dominate; the top-10 items take a large share.
  EXPECT_GT(counts[0], counts[100] * 5);
  uint64_t top10 = 0;
  for (int i = 0; i < 10; ++i) {
    top10 += counts[i];
  }
  EXPECT_GT(static_cast<double>(top10) / kSamples, 0.25);
}

TEST(ZipfianGeneratorTest, LowerThetaIsFlatter) {
  Rng rng_a(4);
  Rng rng_b(4);
  ZipfianGenerator skewed(1000, 0.99);
  ZipfianGenerator flat(1000, 0.5);
  uint64_t skewed_zero = 0;
  uint64_t flat_zero = 0;
  for (int i = 0; i < 100000; ++i) {
    skewed_zero += skewed.Next(rng_a) == 0 ? 1 : 0;
    flat_zero += flat.Next(rng_b) == 0 ? 1 : 0;
  }
  EXPECT_GT(skewed_zero, flat_zero * 2);
}

TEST(ZipfianGeneratorTest, SpaceOfOne) {
  ZipfianGenerator gen(1, 0.9);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(gen.Next(rng), 0u);
  }
}

}  // namespace
}  // namespace salamander
