// The NAND flash array simulator: blocks of fPages with PEC tracking,
// per-page endurance variance, stochastic bit-error injection and a latency
// model with read retries.
//
// The chip is a *metadata* simulator: it does not store user bytes (the
// layers above track placement logically), but it faithfully enforces NAND
// state rules — program only after erase, no in-place overwrite — so FTL bugs
// surface as hard errors in tests.
#ifndef SALAMANDER_FLASH_FLASH_CHIP_H_
#define SALAMANDER_FLASH_FLASH_CHIP_H_

#include <cstdint>
#include <vector>

#include <string>

#include "common/bitmap.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "faults/fault_injector.h"
#include "flash/geometry.h"
#include "flash/wear_model.h"
#include "telemetry/metrics.h"

namespace salamander {

// ECC strength applied to a read, derived from the page's tiredness level
// (ecc/tiredness.h). The chip samples raw errors; ECC decides correctability.
struct EccParams {
  uint32_t stripe_codeword_bits = 9216;
  uint32_t correctable_bits_per_stripe = 73;
  uint32_t stripes = 16;
};

struct ReadOutcome {
  bool correctable = true;        // false => uncorrectable even after retries
  uint32_t worst_stripe_errors = 0;  // raw bit errors in the worst stripe
  uint32_t retries = 0;           // voltage-adjust retries performed
  SimDuration latency = 0;        // tR * (1 + retries) + transfer
  // ECC miscorrection: the read "succeeded" but delivered wrong bytes. Only
  // end-to-end checksums above the device can catch this (injected via
  // FaultSite::kReadCorrupt; the chip itself never detects it).
  bool silent_corrupt = false;
};

class FlashChip {
 public:
  FlashChip(const FlashGeometry& geometry, const WearModelConfig& wear,
            const FlashLatencyConfig& latency, uint64_t seed);

  const FlashGeometry& geometry() const { return geometry_; }
  const WearModel& wear_model() const { return wear_model_; }
  const FlashLatencyConfig& latency_config() const { return latency_; }

  // Erases a block: all its fPages become programmable and the block's PEC
  // increments. Fails on out-of-range.
  StatusOr<SimDuration> EraseBlock(BlockIndex block);

  // Programs one fPage. NAND constraints: the page must be erased (never
  // programmed since the last block erase) and programs within a block must
  // proceed in ascending page order (skipping pages is allowed; real NAND
  // forbids going backwards).
  StatusOr<SimDuration> ProgramFPage(FPageIndex fpage);

  // Reads one fPage under the given ECC strength, transferring
  // `transfer_bytes` over the channel. Sampled bit errors above the ECC's
  // capability trigger read retries (iterative voltage adjustment), each
  // re-read sampling at a reduced effective RBER.
  StatusOr<ReadOutcome> ReadFPage(FPageIndex fpage, const EccParams& ecc,
                                  uint64_t transfer_bytes);

  // Current raw bit-error rate of a page (block PEC x page factor).
  double PageRber(FPageIndex fpage) const;
  // Manufacturing endurance factor of a page (lognormal, median 1).
  double PageFactor(FPageIndex fpage) const;
  uint32_t BlockPec(BlockIndex block) const;
  // Reads of this block since its last erase (read-disturb accumulator).
  uint32_t BlockReadsSinceErase(BlockIndex block) const;
  bool IsProgrammed(FPageIndex fpage) const { return programmed_.Test(fpage); }

  // Deterministic variant of PageRber at a hypothetical PEC, used by wear
  // forecasting in the FTL ("at what PEC does this page tire?").
  double PecUntilRber(FPageIndex fpage, double rber) const;

  // Total erase operations performed across the device (wear accounting).
  uint64_t total_erases() const { return total_erases_; }
  uint64_t total_programs() const { return total_programs_; }
  uint64_t total_reads() const { return total_reads_; }
  // Read retries (voltage-adjust re-reads) across all ReadFPage calls.
  uint64_t total_read_retries() const { return total_read_retries_; }

  // Scrapes op totals and the block-PEC distribution into
  // "<prefix>flash.*" instruments. Additive — collect once per chip (see
  // telemetry/collect.h).
  void CollectMetrics(MetricRegistry& registry,
                      const std::string& prefix = "") const;

  // Optional chaos hook. The chip does not own the injector; the caller
  // guarantees it outlives the chip. nullptr (the default) disables
  // injection with zero behavioral or RNG-stream impact.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

 private:
  FlashGeometry geometry_;
  WearModel wear_model_;
  FlashLatencyConfig latency_;
  Rng rng_;
  FaultInjector* faults_ = nullptr;  // not owned

  std::vector<uint32_t> block_pec_;       // per block
  // pec^exponent per block, set by EraseBlock: the wear term of every page
  // of the block, so PageRber makes no libm call.
  std::vector<double> block_wear_term_;
  // pec^exponent by PEC, filled on the first erase to reach each PEC, so an
  // erase makes no libm call either.
  std::vector<double> wear_term_by_pec_;
  std::vector<uint32_t> block_reads_;     // per block, since last erase
  std::vector<float> page_factor_;        // per fPage, lognormal median 1
  std::vector<uint16_t> next_program_;    // per block: next programmable page
  Bitmap programmed_;                     // per fPage
  uint64_t total_erases_ = 0;
  uint64_t total_programs_ = 0;
  uint64_t total_reads_ = 0;
  uint64_t total_read_retries_ = 0;
};

}  // namespace salamander

#endif  // SALAMANDER_FLASH_FLASH_CHIP_H_
