#include "common/rng.h"

#include <cmath>
#include <numbers>

namespace salamander {

namespace {

inline uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) {
    word = SplitMix64(sm);
  }
  // xoshiro's all-zero state is absorbing; the SplitMix64 expansion of any
  // seed cannot produce it, but guard anyway for belt-and-braces safety.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 1;
  }
}

uint64_t Rng::UniformU64Reject(uint64_t bound, __uint128_t m) {
  const uint64_t threshold = (0 - bound) % bound;
  while (static_cast<uint64_t>(m) < threshold) {
    m = static_cast<__uint128_t>(NextU64()) * static_cast<__uint128_t>(bound);
  }
  return static_cast<uint64_t>(m >> 64);
}

uint64_t Rng::UniformInRange(uint64_t lo, uint64_t hi) {
  return lo + UniformU64(hi - lo + 1);
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller. Draw u1 in (0, 1] to keep the log finite.
  double u1 = 1.0 - UniformDouble();
  double u2 = UniformDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

double Rng::Exponential(double lambda) {
  double u = 1.0 - UniformDouble();  // (0, 1]
  return -std::log(u) / lambda;
}

uint64_t Rng::Binomial(uint64_t n, double p) {
  if (n == 0 || p <= 0.0) {
    return 0;
  }
  if (p >= 1.0) {
    return n;
  }
  const double np = static_cast<double>(n) * p;
  // For the flash error model's regime (tiny p, large n) the Poisson limit is
  // an excellent and fast approximation; switch to a normal approximation when
  // the mean is large, and fall back to exact trials only for small n.
  if (n <= 64) {
    uint64_t successes = 0;
    for (uint64_t i = 0; i < n; ++i) {
      successes += Bernoulli(p) ? 1 : 0;
    }
    return successes;
  }
  if (np < 30.0) {
    uint64_t draw = Poisson(np);
    return draw > n ? n : draw;
  }
  const double mean = np;
  const double stddev = std::sqrt(np * (1.0 - p));
  double sample = std::round(Normal(mean, stddev));
  if (sample < 0.0) {
    return 0;
  }
  if (sample > static_cast<double>(n)) {
    return n;
  }
  return static_cast<uint64_t>(sample);
}

uint64_t Rng::Poisson(double lambda) {
  if (lambda <= 0.0) {
    return 0;
  }
  if (lambda < 30.0) {
    // Knuth's multiplication method.
    if (lambda != poisson_lambda_) {
      poisson_lambda_ = lambda;
      poisson_limit_ = std::exp(-lambda);
    }
    const double limit = poisson_limit_;
    double product = UniformDouble();
    uint64_t count = 0;
    while (product > limit) {
      product *= UniformDouble();
      ++count;
    }
    return count;
  }
  // Normal approximation with continuity correction.
  double sample = std::round(Normal(lambda, std::sqrt(lambda)));
  return sample < 0.0 ? 0 : static_cast<uint64_t>(sample);
}

Rng Rng::Fork() {
  return Rng(NextU64());
}

}  // namespace salamander
