// Deterministic pseudo-random number generation for the simulator.
//
// Everything stochastic in Salamander (per-page endurance variance, bit-error
// sampling, workload address streams, AFR draws) flows through Rng so that a
// run is exactly reproducible from its seed. The generator is xoshiro256**,
// seeded via SplitMix64 — fast, high quality, and trivially forkable so each
// subsystem can own an independent stream.
#ifndef SALAMANDER_COMMON_RNG_H_
#define SALAMANDER_COMMON_RNG_H_

#include <cstdint>

namespace salamander {

class Rng {
 public:
  // Seeds the four 64-bit words of state from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0x5a1aaa0de5000001ULL);

  // Next raw 64 random bits. Inline: it runs on every draw of every stream.
  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). bound == 0 returns 0.
  // Uses Lemire's multiply-shift rejection method (unbiased). The accept
  // path is inline; a draw that lands in the low range, where rejection may
  // be needed, continues out of line.
  uint64_t UniformU64(uint64_t bound) {
    if (bound == 0) {
      return 0;
    }
    const __uint128_t m =
        static_cast<__uint128_t>(NextU64()) * static_cast<__uint128_t>(bound);
    if (static_cast<uint64_t>(m) < bound) {
      return UniformU64Reject(bound, m);
    }
    return static_cast<uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  uint64_t UniformInRange(uint64_t lo, uint64_t hi);

  // Uniform double in [0, 1): the top 53 bits, with full double precision.
  double UniformDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  // Standard normal via Box–Muller (cached second value).
  double Normal();
  // Normal with explicit mean/stddev.
  double Normal(double mean, double stddev);

  // Lognormal: exp(Normal(mu, sigma)). Used for per-page endurance variance.
  double LogNormal(double mu, double sigma);

  // Exponential with rate lambda (> 0). Used for failure inter-arrival times.
  double Exponential(double lambda);

  // Bernoulli trial with probability p (clamped to [0,1]). p <= 0 and
  // p >= 1 draw nothing.
  bool Bernoulli(double p) {
    if (p <= 0.0) {
      return false;
    }
    if (p >= 1.0) {
      return true;
    }
    return UniformDouble() < p;
  }

  // Binomial(n, p) sample: number of successes in n trials. Exact Bernoulli
  // trials for n <= 64; otherwise the Poisson limit Poisson(n*p) (capped at
  // n) while n*p < 30, and a rounded normal approximation above that. The
  // flash error model draws Binomial(stripe_codeword_bits, rber) per stripe,
  // where n is ~1e4 and n*p is small, so it takes the Poisson path.
  uint64_t Binomial(uint64_t n, double p);

  // Poisson(lambda) sample (Knuth for small lambda, normal approx for large).
  // exp(-lambda) is memoized for the last lambda seen: a flash read draws
  // every stripe at one lambda, so it pays one exp, not one per stripe.
  uint64_t Poisson(double lambda);

  // Forks an independent child stream. The child is seeded from this
  // generator's output, so forking is itself deterministic.
  Rng Fork();

  // Draws a 64-bit seed for a child subsystem whose API takes a raw seed
  // instead of an Rng — Fork() by another name. Prefer this (or Fork())
  // over arithmetic on the parent seed (`seed + i`, `seed * k + i`):
  // additive derivation hands correlated SplitMix64 inputs to siblings and
  // invites collisions between independently derived families of streams.
  uint64_t ForkSeed() { return NextU64(); }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  // Lemire's rejection loop for a first product `m` whose low word fell
  // below `bound`.
  uint64_t UniformU64Reject(uint64_t bound, __uint128_t m);

  uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
  // Poisson's one-entry memo of (lambda, exp(-lambda)). Poisson never
  // consults it for lambda <= 0, so the initial key cannot match.
  double poisson_lambda_ = 0.0;
  double poisson_limit_ = 1.0;
};

}  // namespace salamander

#endif  // SALAMANDER_COMMON_RNG_H_
