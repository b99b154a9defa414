#include "flash/flash_chip.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace salamander {

FlashChip::FlashChip(const FlashGeometry& geometry,
                     const WearModelConfig& wear,
                     const FlashLatencyConfig& latency, uint64_t seed)
    : geometry_(geometry),
      wear_model_(wear),
      latency_(latency),
      rng_(seed),
      block_pec_(geometry.total_blocks(), 0),
      block_wear_term_(geometry.total_blocks(), 0.0),
      block_reads_(geometry.total_blocks(), 0),
      next_program_(geometry.total_blocks(), 0),
      programmed_(geometry.total_fpages(), false) {
  page_factor_.reserve(geometry.total_fpages());
  for (uint64_t i = 0; i < geometry.total_fpages(); ++i) {
    page_factor_.push_back(
        static_cast<float>(wear_model_.SamplePageFactor(rng_)));
  }
}

StatusOr<SimDuration> FlashChip::EraseBlock(BlockIndex block) {
  if (block >= geometry_.total_blocks()) {
    return OutOfRangeError("EraseBlock: block " + std::to_string(block));
  }
  if (faults_ != nullptr && faults_->EraseFails()) {
    // Erase-status failure: the block is left as-is (still un-erasable);
    // the FTL is expected to retire it.
    return DataLossError("EraseBlock: injected erase failure at block " +
                         std::to_string(block));
  }
  const uint32_t pec = ++block_pec_[block];
  // The same pow the wear term always took, made once per PEC per chip.
  while (wear_term_by_pec_.size() <= pec) {
    wear_term_by_pec_.push_back(
        std::pow(static_cast<double>(wear_term_by_pec_.size()),
                 wear_model_.config().exponent));
  }
  block_wear_term_[block] = wear_term_by_pec_[pec];
  block_reads_[block] = 0;  // read-disturb charge dissipates with the erase
  next_program_[block] = 0;
  const FPageIndex first = geometry_.FirstFPageOfBlock(block);
  for (uint32_t i = 0; i < geometry_.fpages_per_block; ++i) {
    programmed_.Clear(first + i);
  }
  ++total_erases_;
  return latency_.erase_block;
}

StatusOr<SimDuration> FlashChip::ProgramFPage(FPageIndex fpage) {
  if (fpage >= geometry_.total_fpages()) {
    return OutOfRangeError("ProgramFPage: fpage " + std::to_string(fpage));
  }
  const BlockIndex block = geometry_.BlockOfFPage(fpage);
  const uint32_t offset =
      static_cast<uint32_t>(fpage - geometry_.FirstFPageOfBlock(block));
  if (programmed_.Test(fpage)) {
    return FailedPreconditionError(
        "ProgramFPage: page already programmed (no in-place overwrite)");
  }
  if (offset < next_program_[block]) {
    // Real NAND requires ascending program order within a block; skipping
    // pages (e.g. tired pages taken out of service) is allowed, going
    // backwards is not.
    return FailedPreconditionError(
        "ProgramFPage: out-of-order program within block (next programmable " +
        std::to_string(next_program_[block]) + ", got " +
        std::to_string(offset) + ")");
  }
  programmed_.Set(fpage);
  next_program_[block] = static_cast<uint16_t>(offset + 1);
  ++total_programs_;
  if (faults_ != nullptr && faults_->ProgramFails()) {
    // Program-status failure: the page is consumed (marked programmed so the
    // ascending-order cursor stays honest) but holds no readable data; the
    // FTL must re-place the batch elsewhere.
    return DataLossError("ProgramFPage: injected program failure at fpage " +
                         std::to_string(fpage));
  }
  return latency_.program_fpage +
         latency_.TransferTime(geometry_.fpage_data_bytes() +
                               geometry_.spare_bytes_per_fpage);
}

double FlashChip::PageRber(FPageIndex fpage) const {
  // WearModel::Rber's expression, term for term, with the block's cached
  // pec^exponent in place of the pow call.
  const BlockIndex block = geometry_.BlockOfFPage(fpage);
  const WearModelConfig& wear = wear_model_.config();
  const double disturb = wear.read_disturb_per_read *
                         static_cast<double>(block_reads_[block]);
  if (block_pec_[block] == 0) {
    return wear.rber_floor + disturb;
  }
  return wear.rber_floor + disturb +
         wear.coefficient * static_cast<double>(page_factor_[fpage]) *
             block_wear_term_[block];
}

double FlashChip::PageFactor(FPageIndex fpage) const {
  return static_cast<double>(page_factor_[fpage]);
}

uint32_t FlashChip::BlockPec(BlockIndex block) const {
  return block_pec_[block];
}

uint32_t FlashChip::BlockReadsSinceErase(BlockIndex block) const {
  return block_reads_[block];
}

double FlashChip::PecUntilRber(FPageIndex fpage, double rber) const {
  return wear_model_.PecAtRber(rber,
                               static_cast<double>(page_factor_[fpage]));
}

StatusOr<ReadOutcome> FlashChip::ReadFPage(FPageIndex fpage,
                                           const EccParams& ecc,
                                           uint64_t transfer_bytes) {
  if (fpage >= geometry_.total_fpages()) {
    return OutOfRangeError("ReadFPage: fpage " + std::to_string(fpage));
  }
  if (!programmed_.Test(fpage)) {
    return FailedPreconditionError("ReadFPage: page not programmed");
  }
  ++total_reads_;
  ++block_reads_[geometry_.BlockOfFPage(fpage)];

  ReadOutcome outcome;
  if (faults_ != nullptr && faults_->CorruptsRead()) {
    // ECC miscorrection: the decoder converges on a wrong codeword, so the
    // read completes "cleanly" in one attempt and the corruption is invisible
    // at this layer — only end-to-end checksums above the device catch it.
    // The chip rng_ is intentionally not consulted, so with injection
    // disabled the error-sampling stream is untouched.
    outcome.silent_corrupt = true;
    outcome.latency = latency_.read_fpage + latency_.TransferTime(transfer_bytes);
    return outcome;
  }
  double rber = PageRber(fpage);
  for (uint32_t attempt = 0;; ++attempt) {
    outcome.latency += latency_.read_fpage;
    // Sample the worst stripe: each stripe draws an independent binomial
    // error count at the current (possibly retry-reduced) RBER.
    uint32_t worst = 0;
    for (uint32_t s = 0; s < ecc.stripes; ++s) {
      const uint32_t errors = static_cast<uint32_t>(
          rng_.Binomial(ecc.stripe_codeword_bits, rber));
      worst = std::max(worst, errors);
    }
    outcome.worst_stripe_errors = worst;
    if (worst <= ecc.correctable_bits_per_stripe) {
      outcome.correctable = true;
      outcome.retries = attempt;
      break;
    }
    if (attempt >= latency_.max_read_retries) {
      outcome.correctable = false;
      outcome.retries = attempt;
      break;
    }
    // Iterative voltage adjustment: the next read sees a reduced RBER.
    rber *= latency_.retry_rber_factor;
  }
  outcome.latency += latency_.TransferTime(transfer_bytes);
  total_read_retries_ += outcome.retries;
  return outcome;
}

void FlashChip::CollectMetrics(MetricRegistry& registry,
                               const std::string& prefix) const {
  registry.GetCounter(prefix + "flash.programs").Add(total_programs_);
  registry.GetCounter(prefix + "flash.erases").Add(total_erases_);
  registry.GetCounter(prefix + "flash.reads").Add(total_reads_);
  registry.GetCounter(prefix + "flash.read_retries")
      .Add(total_read_retries_);
  Histogram& pec = registry.GetHistogram(prefix + "flash.block_pec");
  for (const uint32_t block_pec : block_pec_) {
    pec.Record(block_pec);
  }
}

}  // namespace salamander
