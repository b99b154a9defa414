#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace salamander {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformU64RespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.UniformU64(bound), bound);
    }
  }
  EXPECT_EQ(rng.UniformU64(0), 0u);
}

TEST(RngTest, UniformU64IsRoughlyUniform) {
  Rng rng(99);
  constexpr uint64_t kBuckets = 10;
  constexpr int kSamples = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.UniformU64(kBuckets)];
  }
  // Each bucket expects 10000; allow 5 sigma (~sqrt(9000) ~ 95 -> 475).
  for (uint64_t b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kSamples / kBuckets, 500) << "bucket " << b;
  }
}

TEST(RngTest, UniformInRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformInRange(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
    saw_lo |= (v == 10);
    saw_hi |= (v == 12);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, NormalHasExpectedMoments) {
  Rng rng(11);
  double sum = 0;
  double sum_sq = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.03);
}

TEST(RngTest, NormalWithParams) {
  Rng rng(13);
  double sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.Normal(5.0, 2.0);
  }
  EXPECT_NEAR(sum / kN, 5.0, 0.05);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(17);
  // Median of LogNormal(mu, sigma) is exp(mu).
  constexpr int kN = 100001;
  std::vector<double> samples(kN);
  for (auto& s : samples) {
    s = rng.LogNormal(1.0, 0.5);
  }
  std::nth_element(samples.begin(), samples.begin() + kN / 2, samples.end());
  EXPECT_NEAR(samples[kN / 2], std::exp(1.0), 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  double sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    double x = rng.Exponential(2.0);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(RngTest, BinomialEdgeCases) {
  Rng rng(31);
  EXPECT_EQ(rng.Binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.Binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.Binomial(100, 1.0), 100u);
}

// Binomial mean across all three internal sampling regimes
// (exact trials, Poisson limit, normal approximation).
struct BinomialCase {
  uint64_t n;
  double p;
};

class RngBinomialTest : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(RngBinomialTest, MeanMatches) {
  const auto [n, p] = GetParam();
  Rng rng(1234 + n);
  double sum = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    uint64_t draw = rng.Binomial(n, p);
    ASSERT_LE(draw, n);
    sum += static_cast<double>(draw);
  }
  const double mean = static_cast<double>(n) * p;
  const double sigma = std::sqrt(mean * (1 - p) / kTrials);
  EXPECT_NEAR(sum / kTrials, mean, std::max(6 * sigma, 0.02 * mean + 0.05));
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, RngBinomialTest,
    ::testing::Values(BinomialCase{32, 0.25},        // exact path
                      BinomialCase{100000, 1e-4},    // Poisson path
                      BinomialCase{100000, 0.002},   // normal path
                      BinomialCase{131072, 0.001}),  // flash page regime
    [](const ::testing::TestParamInfo<BinomialCase>& param_info) {
      // Appended piecewise: `"n" + std::to_string(...)` trips GCC 12's
      // -Wrestrict false positive inside std::string's operator+.
      std::string name = "n";
      name += std::to_string(param_info.param.n);
      name += "_p";
      name += std::to_string(static_cast<int>(param_info.param.p * 1e6));
      return name;
    });

TEST(RngTest, PoissonMean) {
  Rng rng(37);
  for (double lambda : {0.5, 5.0, 50.0}) {
    double sum = 0;
    constexpr int kN = 50000;
    for (int i = 0; i < kN; ++i) {
      sum += static_cast<double>(rng.Poisson(lambda));
    }
    EXPECT_NEAR(sum / kN, lambda, 0.05 * lambda + 0.05) << "lambda=" << lambda;
  }
}

TEST(RngTest, ForkProducesIndependentDeterministicStream) {
  Rng parent1(55);
  Rng parent2(55);
  Rng child1 = parent1.Fork();
  Rng child2 = parent2.Fork();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(child1.NextU64(), child2.NextU64());
  }
  // Child stream differs from parent's continued stream.
  Rng parent3(55);
  Rng child3 = parent3.Fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent3.NextU64() == child3.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

// Knuth's method with std::exp evaluated on every call: the reference for
// Rng::Poisson, which memoizes exp(-lambda) for the last lambda.
uint64_t KnuthPoissonReference(Rng& rng, double lambda) {
  const double limit = std::exp(-lambda);
  double product = rng.UniformDouble();
  uint64_t count = 0;
  while (product > limit) {
    product *= rng.UniformDouble();
    ++count;
  }
  return count;
}

TEST(RngTest, PoissonMatchesKnuthDrawForDraw) {
  Rng fast(99);
  Rng reference(99);
  // Repeated lambdas (the memo hits), alternating ones (it misses every
  // time), and draws outside the Knuth range in between, which must leave
  // the memo valid.
  std::vector<double> lambdas;
  for (int i = 0; i < 200; ++i) {
    lambdas.push_back(4.25);
  }
  for (int i = 0; i < 200; ++i) {
    lambdas.push_back(i % 2 == 0 ? 0.5 : 7.3);
  }
  for (int i = 0; i < 200; ++i) {
    lambdas.push_back(i % 3 == 0 ? 29.9 : 1e-3);
  }
  for (size_t i = 0; i < lambdas.size(); ++i) {
    ASSERT_EQ(fast.Poisson(lambdas[i]),
              KnuthPoissonReference(reference, lambdas[i]))
        << "draw " << i << " lambda " << lambdas[i];
    if (i % 50 == 0) {
      // lambda <= 0 draws nothing; lambda >= 30 takes the normal path.
      ASSERT_EQ(fast.Poisson(0.0), 0u);
      ASSERT_EQ(fast.Poisson(45.0), reference.Poisson(45.0));
    }
  }
  EXPECT_EQ(fast.NextU64(), reference.NextU64());
}


// xoshiro256** seeded by SplitMix64 and Lemire's bounded draw, written out
// here from the published algorithms so the check shares no code with
// Rng's inline NextU64 and its split UniformU64.
class ReferenceXoshiro {
 public:
  explicit ReferenceXoshiro(uint64_t seed) {
    uint64_t x = seed;
    for (uint64_t& word : s_) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  uint64_t Next() {
    const uint64_t result = RotateLeft(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = RotateLeft(s_[3], 45);
    return result;
  }

  // Lemire, "Fast Random Integer Generation in an Interval" (2019), Alg. 5.
  uint64_t Bounded(uint64_t bound, uint64_t& rejections) {
    __uint128_t m = static_cast<__uint128_t>(Next()) * bound;
    uint64_t low = static_cast<uint64_t>(m);
    if (low < bound) {
      const uint64_t threshold = -bound % bound;
      while (low < threshold) {
        ++rejections;
        m = static_cast<__uint128_t>(Next()) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

 private:
  static uint64_t RotateLeft(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  uint64_t s_[4];
};

TEST(RngTest, NextU64MatchesReferenceXoshiro) {
  Rng rng(20250514);
  ReferenceXoshiro reference(20250514);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(rng.NextU64(), reference.Next()) << "draw " << i;
  }
}

TEST(RngTest, UniformU64MatchesLemireReferenceDrawForDraw) {
  Rng rng(31);
  ReferenceXoshiro reference(31);
  const uint64_t bounds[] = {1ULL, 3ULL, (1ULL << 32) + 1, (1ULL << 63) + 1,
                             UINT64_MAX};
  uint64_t rejections = 0;
  for (int round = 0; round < 400; ++round) {
    for (const uint64_t bound : bounds) {
      ASSERT_EQ(rng.UniformU64(bound), reference.Bounded(bound, rejections))
          << "round " << round << " bound " << bound;
    }
  }
  // Half of all 2^63 + 1 draws land in the rejected low range, so the
  // rejection loop ran and consumed the same extra draws on both sides.
  EXPECT_GT(rejections, 100u);
  EXPECT_EQ(rng.NextU64(), reference.Next());
}

}  // namespace
}  // namespace salamander
