// Physical layout of the simulated NAND flash (paper §2, §3 terminology).
//
//   oPage  — 4 KiB logical data page, the host I/O granularity
//   fPage  — physical flash page holding several oPages plus a spare area
//   block  — erase unit, a group of fPages
//
// Addresses are flat indices over the whole device; helpers convert between
// fPage / block / oPage spaces.
#ifndef SALAMANDER_FLASH_GEOMETRY_H_
#define SALAMANDER_FLASH_GEOMETRY_H_

#include <bit>
#include <cstdint>

#include "common/units.h"

namespace salamander {

// x / d for d > 0: a shift when d is a power of two (every shipped geometry),
// a divide otherwise. (d & (d - 1)) rather than std::has_single_bit, which
// without -mpopcnt becomes a library call.
inline uint64_t DivideIndex(uint64_t x, uint64_t d) {
  return (d & (d - 1)) == 0 ? x >> std::countr_zero(d) : x / d;
}

using FPageIndex = uint64_t;
using BlockIndex = uint64_t;
// Physical oPage slot: fpage_index * opages_per_fpage + slot.
using OPageSlot = uint64_t;

struct FlashGeometry {
  uint32_t channels = 2;
  uint32_t dies_per_channel = 2;
  uint32_t planes_per_die = 2;
  uint32_t blocks_per_plane = 64;
  uint32_t fpages_per_block = 64;
  uint32_t opage_bytes = 4096;
  uint32_t opages_per_fpage = 4;  // 16 KiB fPage in the running example
  uint32_t spare_bytes_per_fpage = 2048;

  uint64_t total_planes() const {
    return static_cast<uint64_t>(channels) * dies_per_channel * planes_per_die;
  }
  uint64_t total_blocks() const { return total_planes() * blocks_per_plane; }
  uint64_t total_fpages() const { return total_blocks() * fpages_per_block; }
  uint64_t total_opages() const { return total_fpages() * opages_per_fpage; }
  uint32_t fpage_data_bytes() const { return opage_bytes * opages_per_fpage; }
  // Raw data capacity, excluding spare areas.
  uint64_t raw_capacity_bytes() const {
    return total_fpages() * fpage_data_bytes();
  }

  BlockIndex BlockOfFPage(FPageIndex fpage) const {
    return DivideIndex(fpage, fpages_per_block);
  }
  FPageIndex FirstFPageOfBlock(BlockIndex block) const {
    return block * fpages_per_block;
  }
  FPageIndex FPageOfSlot(OPageSlot slot) const {
    return DivideIndex(slot, opages_per_fpage);
  }
  uint32_t SlotWithinFPage(OPageSlot slot) const {
    return static_cast<uint32_t>(slot % opages_per_fpage);
  }
  OPageSlot FirstSlotOfFPage(FPageIndex fpage) const {
    return fpage * opages_per_fpage;
  }

  bool Valid() const {
    return channels > 0 && dies_per_channel > 0 && planes_per_die > 0 &&
           blocks_per_plane > 0 && fpages_per_block > 0 && opage_bytes > 0 &&
           opages_per_fpage > 0;
  }

  // A small device (default ~256 MiB raw) that keeps unit tests fast.
  static FlashGeometry Small() {
    FlashGeometry g;
    g.channels = 1;
    g.dies_per_channel = 1;
    g.planes_per_die = 1;
    g.blocks_per_plane = 64;
    g.fpages_per_block = 32;
    return g;
  }
};

// NAND operation timing (values in simulated time; defaults are typical
// mid-generation TLC figures).
struct FlashLatencyConfig {
  SimDuration read_fpage = 60 * kMicrosecond;      // tR
  SimDuration program_fpage = 700 * kMicrosecond;  // tPROG
  SimDuration erase_block = 3 * kMillisecond;      // tBERS
  // Channel transfer cost per transferred byte (ONFI-ish ~1.2 GB/s).
  SimDuration transfer_per_kib = 800;              // ns per KiB
  // Each read retry repeats tR with adjusted read voltages.
  uint32_t max_read_retries = 5;
  // Per-retry multiplicative RBER reduction from voltage adjustment.
  double retry_rber_factor = 0.6;

  SimDuration TransferTime(uint64_t bytes) const {
    return transfer_per_kib * ((bytes + kKiB - 1) / kKiB);
  }
};

}  // namespace salamander

#endif  // SALAMANDER_FLASH_GEOMETRY_H_
