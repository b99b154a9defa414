// Zipfian (YCSB-style) address generator, deterministic given the Rng. It
// draws the hot/cold addresses of the aging driver and the traffic engine's
// per-tenant object popularity.
#ifndef SALAMANDER_WORKLOAD_GENERATORS_H_
#define SALAMANDER_WORKLOAD_GENERATORS_H_

#include <cstddef>
#include <cstdint>

#include "common/rng.h"

namespace salamander {

// Zipfian distribution over [0, space) using the Gray et al. rejection-free
// inversion (the YCSB implementation): item 0 is the hottest.
class ZipfianGenerator {
 public:
  explicit ZipfianGenerator(uint64_t space, double theta = 0.99);
  uint64_t Next(Rng& rng);
  uint64_t space() const { return space_; }
  double theta() const { return theta_; }

  // Zeta(n, theta) = sum_{i=1..n} i^-theta, memoized per (n, theta) behind a
  // mutex: the O(n) partial sum runs once per distinct geometry, so
  // constructing many same-shaped generators (one per tenant, one per
  // AgingDriver) is O(1) after the first. The cached value
  // is a pure function of its key, so sharing it across threads cannot
  // perturb determinism.
  static double CachedZeta(uint64_t n, double theta);
  // Number of distinct (n, theta) keys currently cached (test hook).
  static size_t ZetaCacheSize();

 private:
  uint64_t space_;
  double theta_;
  double alpha_;
  double zeta_n_;
  double eta_;
  double zeta_two_;
  double rank_one_cut_;  // 1 + 0.5^theta: draws below it (and >= 1) are rank 1
};

}  // namespace salamander

#endif  // SALAMANDER_WORKLOAD_GENERATORS_H_
