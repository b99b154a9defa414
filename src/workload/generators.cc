#include "workload/generators.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>

namespace salamander {
namespace {

// Zeta partial sums keyed by (n, theta-bits). theta is keyed by its exact
// bit pattern: two doubles that compare equal share an entry, and the cached
// sum is a pure function of the key, so the cache is invisible to callers
// beyond speed. Guarded for concurrent construction (fleet workers build
// per-device generators in parallel).
std::mutex zeta_mutex;
std::map<std::pair<uint64_t, uint64_t>, double>& ZetaCache() {
  static std::map<std::pair<uint64_t, uint64_t>, double> cache;
  return cache;
}

uint64_t ThetaBits(double theta) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(theta));
  std::memcpy(&bits, &theta, sizeof(bits));
  return bits;
}

double ZetaSum(uint64_t n, double theta) {
  double sum = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

}  // namespace

double ZipfianGenerator::CachedZeta(uint64_t n, double theta) {
  const std::pair<uint64_t, uint64_t> key(n, ThetaBits(theta));
  {
    std::lock_guard<std::mutex> lock(zeta_mutex);
    auto it = ZetaCache().find(key);
    if (it != ZetaCache().end()) {
      return it->second;
    }
  }
  // Sum outside the lock: the first construction per geometry is O(n) and
  // must not serialize unrelated geometries behind it. A racing duplicate
  // computes the identical value, so last-insert-wins is benign.
  const double sum = ZetaSum(n, theta);
  std::lock_guard<std::mutex> lock(zeta_mutex);
  ZetaCache().emplace(key, sum);
  return sum;
}

size_t ZipfianGenerator::ZetaCacheSize() {
  std::lock_guard<std::mutex> lock(zeta_mutex);
  return ZetaCache().size();
}

ZipfianGenerator::ZipfianGenerator(uint64_t space, double theta)
    : space_(space), theta_(theta) {
  assert(space > 0);
  assert(theta > 0.0 && theta < 1.0);
  zeta_n_ = CachedZeta(space, theta);
  zeta_two_ = CachedZeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  rank_one_cut_ = 1.0 + std::pow(0.5, theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(space), 1.0 - theta)) /
         (1.0 - zeta_two_ / zeta_n_);
}

uint64_t ZipfianGenerator::Next(Rng& rng) {
  const double u = rng.UniformDouble();
  const double uz = u * zeta_n_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < rank_one_cut_) {
    return 1;
  }
  const double n = static_cast<double>(space_);
  const uint64_t item = static_cast<uint64_t>(
      n * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return item >= space_ ? space_ - 1 : item;
}

}  // namespace salamander
