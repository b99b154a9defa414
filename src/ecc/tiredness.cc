#include "ecc/tiredness.h"

#include <bit>
#include <map>
#include <mutex>
#include <tuple>

namespace salamander {

namespace {

// Every input bit of FPageEccGeometry; the double by its exact bit pattern,
// so two geometries share a ladder only if every level would compute
// bit-identically.
using LadderKey =
    std::tuple<uint32_t, uint32_t, uint32_t, uint32_t, unsigned, uint64_t>;

LadderKey KeyOf(const FPageEccGeometry& geometry) {
  return {geometry.opage_bytes, geometry.opages_per_fpage,
          geometry.spare_bytes, geometry.stripes_per_opage, geometry.gf_m,
          std::bit_cast<uint64_t>(geometry.stripe_fail_target)};
}

}  // namespace

TirednessLevelEcc ComputeTirednessLevel(const FPageEccGeometry& geometry,
                                        unsigned level) {
  TirednessLevelEcc out;
  out.level = level;
  if (level >= geometry.opages_per_fpage) {
    // L_max: the page is pure limbo — no usable data capacity.
    out.level = geometry.opages_per_fpage;
    out.ecc_bytes =
        geometry.spare_bytes + geometry.opages_per_fpage * geometry.opage_bytes;
    return out;
  }
  out.data_opages = geometry.opages_per_fpage - level;
  out.data_bytes = out.data_opages * geometry.opage_bytes;
  out.ecc_bytes = geometry.spare_bytes + level * geometry.opage_bytes;
  out.code_rate = static_cast<double>(out.data_bytes) /
                  static_cast<double>(out.data_bytes + out.ecc_bytes);
  out.stripes = out.data_opages * geometry.stripes_per_opage;
  // All ECC bytes (built-in spare plus repurposed oPages) are spread evenly
  // over the remaining data stripes; the paper assumes parity co-located with
  // the fPage so one read covers data + parity.
  out.parity_bytes_per_stripe = out.ecc_bytes / out.stripes;
  const uint32_t stripe_data_bytes =
      geometry.opage_bytes / geometry.stripes_per_opage;
  EccStripeConfig stripe{
      .data_bytes = stripe_data_bytes,
      .parity_bytes = out.parity_bytes_per_stripe,
      .gf_m = geometry.gf_m,
  };
  out.correctable_bits_per_stripe = stripe.correctable_bits();
  out.stripe_codeword_bits = stripe.codeword_bits();
  out.max_tolerable_rber =
      MaxTolerableRber(out.stripe_codeword_bits, out.correctable_bits_per_stripe,
                       geometry.stripe_fail_target);
  return out;
}

std::vector<TirednessLevelEcc> ComputeTirednessLadder(
    const FPageEccGeometry& geometry) {
  // Each level bisects MaxTolerableRber over a long binomial tail (about
  // 2 ms per ladder), and every FTL asks for the ladder of its geometry, so
  // a fleet of identical devices would recompute the same numbers per
  // device. The ladder is a pure function of the geometry: compute it once
  // per geometry per process. Computing under the lock keeps concurrent
  // first calls from duplicating the work; every caller gets a copy of the
  // same values.
  static std::mutex mu;
  static std::map<LadderKey, std::vector<TirednessLevelEcc>> cache;
  const std::lock_guard<std::mutex> lock(mu);
  auto [it, inserted] = cache.try_emplace(KeyOf(geometry));
  if (inserted) {
    it->second.reserve(geometry.opages_per_fpage + 1);
    for (unsigned level = 0; level <= geometry.opages_per_fpage; ++level) {
      it->second.push_back(ComputeTirednessLevel(geometry, level));
    }
  }
  return it->second;
}

}  // namespace salamander
