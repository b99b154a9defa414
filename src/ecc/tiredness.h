// Tiredness-level ECC profiles (paper §3.1, Fig. 2).
//
// A Salamander fPage at tiredness level L repurposes L of its oPages as extra
// ECC. This header computes, for each level, the resulting stripe layout,
// code rate, correction capability and maximum tolerable RBER — the static
// half of Fig. 2 (the dynamic half, RBER -> PEC, lives in flash/wear_model.h).
#ifndef SALAMANDER_ECC_TIREDNESS_H_
#define SALAMANDER_ECC_TIREDNESS_H_

#include <cstdint>
#include <vector>

#include "ecc/capability.h"

namespace salamander {

// Physical layout of an fPage for the purposes of ECC accounting.
struct FPageEccGeometry {
  uint32_t opage_bytes = 4096;       // logical data page (OS page)
  uint32_t opages_per_fpage = 4;     // 16 KiB fPage in the running example
  uint32_t spare_bytes = 2048;       // built-in spare area [13]
  uint32_t stripes_per_opage = 4;    // ~1 KiB codeword stripes
  unsigned gf_m = 14;                // BCH field degree
  double stripe_fail_target = 1e-11; // acceptable per-stripe fail probability

  uint32_t fpage_data_bytes() const { return opage_bytes * opages_per_fpage; }
};

// Derived ECC characteristics of one tiredness level.
struct TirednessLevelEcc {
  unsigned level = 0;            // L: oPages repurposed as ECC
  uint32_t data_opages = 0;      // usable data oPages, opages_per_fpage - L
  uint32_t data_bytes = 0;       // usable payload per fPage
  uint32_t ecc_bytes = 0;        // spare + L * opage_bytes
  double code_rate = 0.0;        // data / (data + ecc)
  uint32_t stripes = 0;          // codeword stripes in the fPage
  uint32_t parity_bytes_per_stripe = 0;
  uint32_t correctable_bits_per_stripe = 0;  // t
  uint32_t stripe_codeword_bits = 0;         // n
  double max_tolerable_rber = 0.0;           // retirement threshold at this L
};

// Computes the profile for one level L in [0, opages_per_fpage]. At
// L == opages_per_fpage the page stores no data (the paper's L4): data fields
// are zero and max_tolerable_rber is meaningless (0).
TirednessLevelEcc ComputeTirednessLevel(const FPageEccGeometry& geometry,
                                        unsigned level);

// Profiles for all levels 0..opages_per_fpage, indexed by level. Memoized:
// computed once per distinct geometry (keyed on every field, the double by
// its exact bits) per process, behind a mutex, so it is safe to call from
// any thread and costs one map lookup after the first call.
std::vector<TirednessLevelEcc> ComputeTirednessLadder(
    const FPageEccGeometry& geometry);

}  // namespace salamander

#endif  // SALAMANDER_ECC_TIREDNESS_H_
