#include "ftl/ftl.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace salamander {

namespace {

// Bound on GC rounds per trigger; progress resumes on the next host op if a
// single trigger cannot reach the watermark (e.g. near-full device).
constexpr uint32_t kMaxGcRoundsPerTrigger = 16;

// Journal capacity: a full compacted snapshot (one kMap per oPage, one
// kPageState per fPage, three records per mDisk — bounded by oPages) plus
// slack so compaction is not retriggered immediately.
uint64_t JournalCapacity(const FtlConfig& config) {
  if (config.journal_capacity_records > 0) {
    return config.journal_capacity_records;
  }
  uint64_t capacity = config.geometry.total_opages() +
                      config.geometry.total_fpages() +
                      config.geometry.total_blocks() + 4096;
  if (config.l2p_cache_entries > 0) {
    // Bounded-L2P compaction additionally emits one kMapFlush per map page.
    const uint64_t entries = config.l2p_entries_per_map_page > 0
                                 ? config.l2p_entries_per_map_page
                                 : config.geometry.opage_bytes / 8;
    capacity += (config.geometry.total_opages() + entries - 1) / entries;
  }
  return capacity;
}

// Validates before any member is built from the config: an invalid geometry
// would otherwise size arrays (or divide) by zero before the check ran.
const FtlConfig& RequireValidFtlConfig(const FtlConfig& config) {
  const Status status = ValidateFtlConfig(config);
  if (!status.ok()) {
    std::fprintf(stderr, "Ftl: invalid config: %s\n",
                 status.message().c_str());
    std::abort();
  }
  return config;
}

}  // namespace

Status ValidateFtlConfig(const FtlConfig& config) {
  if (!config.geometry.Valid()) {
    return InvalidArgumentError("flash geometry has a zero dimension");
  }
  if (config.geometry.opages_per_fpage !=
      config.ecc_geometry.opages_per_fpage) {
    return InvalidArgumentError(
        "flash geometry and ECC geometry must agree on opages_per_fpage");
  }
  if (config.retirement != RetirementGranularity::kPage &&
      config.max_usable_level != 0) {
    return InvalidArgumentError(
        "block-granular retirement implies a fixed L0 ECC "
        "(max_usable_level 0)");
  }
  if (config.max_usable_level >= config.geometry.opages_per_fpage) {
    return InvalidArgumentError(
        "max_usable_level must be below opages_per_fpage");
  }
  if (config.gc_low_watermark_blocks < 2) {
    return InvalidArgumentError(
        "gc_low_watermark_blocks must be >= 2 (GC needs two blocks of "
        "headroom)");
  }
  if (config.l2p_cache_entries > 0 && config.l2p_entries_per_map_page == 0 &&
      config.geometry.opage_bytes / 8 == 0) {
    return InvalidArgumentError("L2P map pages must hold >= 1 entry");
  }
  return OkStatus();
}

Ftl::Ftl(const FtlConfig& config)
    : config_(RequireValidFtlConfig(config)),
      chip_(std::make_unique<FlashChip>(config.geometry, config.wear,
                                        config.latency, config.seed)),
      ladder_(ComputeTirednessLadder(config.ecc_geometry)),
      rng_(config.seed ^ 0x9e3779b97f4a7c15ULL),
      journal_(JournalCapacity(config)) {
  const uint64_t fpages = config_.geometry.total_fpages();
  const uint64_t blocks = config_.geometry.total_blocks();
  page_level_.assign(fpages, 0);
  page_state_.assign(fpages, PageState::kInService);
  limbo_counts_.assign(config_.geometry.opages_per_fpage, 0);
  limbo_pages_.assign(config_.geometry.opages_per_fpage, {});
  usable_opages_ = fpages * config_.geometry.opages_per_fpage;
  reverse_.assign(config_.geometry.total_opages(), kSlotFree);
  block_state_.assign(blocks, BlockState::kFree);
  block_valid_.assign(blocks, 0);
  in_use_listed_.assign(blocks, 0);
  for (BlockIndex b = 0; b < blocks; ++b) {
    free_pool_.emplace(0, b);
  }
  free_blocks_ = blocks;
  stats_.reads_by_level.assign(config_.geometry.opages_per_fpage, 0);
  flush_batch_.reserve(config_.geometry.opages_per_fpage);
  if (config_.journaled) {
    journal_.Reserve();
  }

  if (config_.l2p_cache_entries > 0) {
    l2p_entries_per_page_ = config_.l2p_entries_per_map_page > 0
                                ? config_.l2p_entries_per_map_page
                                : config_.geometry.opage_bytes / 8;
    l2p_capacity_pages_ = std::max<uint64_t>(
        1, config_.l2p_cache_entries / l2p_entries_per_page_);
  }
}

uint64_t Ftl::ExtendLogicalSpace(uint64_t opages) {
  const uint64_t first = mapping_.size();
  mapping_.resize(mapping_.size() + opages, kUnmapped);
  if (l2p_enabled()) {
    if (first % l2p_entries_per_page_ != 0) {
      L2pNoteGrowth(first);
    }
    L2pGrow();
  }
  JournalAppend(JournalRecord{JournalRecordType::kExtend, opages, 0, 0, 0});
  return first;
}

// ---------------------------------------------------------------------------
// Host I/O
// ---------------------------------------------------------------------------

Status Ftl::Write(uint64_t lpo, SimDuration& latency) {
  if (lpo >= mapping_.size()) {
    return OutOfRangeError("Write: lpo " + std::to_string(lpo));
  }
  SimDuration cost = 0;
  ++stats_.host_writes;
  if (l2p_enabled()) {
    L2pTouch(lpo, /*make_dirty=*/true, cost);
    if (DurableOf(mapping_[lpo]) != kUnmapped) {
      L2pNoteChange(lpo, mapping_[lpo]);  // its flash copy is superseded
    }
  }
  SALA_RETURN_IF_ERROR(BufferWrite(lpo, cost));
  if (l2p_enabled()) {
    L2pEvictToCapacity(cost);
  }
  latency += cost;
  return OkStatus();
}

StatusOr<ReadResult> Ftl::Read(uint64_t lpo) {
  if (lpo >= mapping_.size()) {
    return OutOfRangeError("Read: lpo " + std::to_string(lpo));
  }
  ++stats_.host_reads;
  SimDuration l2p_latency = 0;
  if (l2p_enabled()) {
    L2pTouch(lpo, /*make_dirty=*/false, l2p_latency);
    L2pEvictToCapacity(l2p_latency);
  }
  // Re-read after the L2P access: a dirty-map write-back above can trigger
  // GC, which may relocate this very page into the buffer.
  const uint64_t entry = mapping_[lpo];
  if (entry == kUnmapped) {
    return NotFoundError("Read: lpo " + std::to_string(lpo) + " unmapped");
  }
  if (IsBuffered(entry)) {
    ++stats_.buffer_hits;
    return ReadResult{.latency = kBufferReadLatency + l2p_latency,
                      .tiredness_level = 0,
                      .retries = 0,
                      .buffer_hit = true};
  }
  const FPageIndex fpage = config_.geometry.FPageOfSlot(entry);
  const unsigned level = page_level_[fpage];
  SALA_ASSIGN_OR_RETURN(
      ReadOutcome outcome,
      chip_->ReadFPage(fpage, EccForOPageRead(level),
                       config_.geometry.opage_bytes));
  stats_.read_retries += outcome.retries;
  if (level < stats_.reads_by_level.size()) {
    ++stats_.reads_by_level[level];
  }
  if (!outcome.correctable) {
    ++stats_.uncorrectable_reads;
    return DataLossError("Read: uncorrectable at lpo " + std::to_string(lpo));
  }
  if (outcome.silent_corrupt) {
    ++stats_.silent_corrupt_fpage_reads;
  }
  return ReadResult{.latency = outcome.latency +
                               DedicatedEccReadPenalty(level) + l2p_latency,
                    .tiredness_level = level,
                    .retries = outcome.retries,
                    .buffer_hit = false,
                    .payload_corrupt = outcome.silent_corrupt};
}

StatusOr<RangeReadResult> Ftl::ReadRange(uint64_t first_lpo, uint64_t count) {
  if (count == 0 || first_lpo + count > mapping_.size()) {
    return OutOfRangeError("ReadRange: [" + std::to_string(first_lpo) + ", +" +
                           std::to_string(count) + ")");
  }
  RangeReadResult result;
  FPageIndex last_fpage = static_cast<FPageIndex>(-1);
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t lpo = first_lpo + i;
    ++stats_.host_reads;
    if (l2p_enabled()) {
      // Over-admit across the range; one eviction pass runs after the loop.
      L2pTouch(lpo, /*make_dirty=*/false, result.latency);
    }
    const uint64_t entry = mapping_[lpo];
    if (entry == kUnmapped) {
      return NotFoundError("ReadRange: lpo " + std::to_string(lpo));
    }
    if (IsBuffered(entry)) {
      ++stats_.buffer_hits;
      ++result.buffer_hits;
      result.latency += kBufferReadLatency;
      continue;
    }
    const FPageIndex fpage = config_.geometry.FPageOfSlot(entry);
    const unsigned level = page_level_[fpage];
    result.max_level = std::max(result.max_level, level);
    if (level < stats_.reads_by_level.size()) {
      ++stats_.reads_by_level[level];
    }
    if (fpage == last_fpage) {
      // Same flash page as the previous oPage: the data is already in the
      // plane's page register; only the channel transfer repeats.
      result.latency +=
          config_.latency.TransferTime(config_.geometry.opage_bytes);
      continue;
    }
    SALA_ASSIGN_OR_RETURN(
        ReadOutcome outcome,
        chip_->ReadFPage(fpage, EccForOPageRead(level),
                         config_.geometry.opage_bytes));
    stats_.read_retries += outcome.retries;
    if (!outcome.correctable) {
      ++stats_.uncorrectable_reads;
      return DataLossError("ReadRange: uncorrectable at lpo " +
                           std::to_string(lpo));
    }
    if (outcome.silent_corrupt) {
      // Counted at observation time so corrupt reads performed before a later
      // abort (natural kDataLoss / kNotFound) are never lost from the stat.
      ++stats_.silent_corrupt_fpage_reads;
      ++result.corrupt_fpage_reads;
    }
    ++result.fpage_reads;
    result.latency += outcome.latency + DedicatedEccReadPenalty(level);
    last_fpage = fpage;
  }
  if (l2p_enabled()) {
    L2pEvictToCapacity(result.latency);
  }
  return result;
}

Status Ftl::Trim(uint64_t lpo) {
  if (lpo >= mapping_.size()) {
    return OutOfRangeError("Trim: lpo " + std::to_string(lpo));
  }
  if (!rolled_back_.empty()) {
    rolled_back_.erase(lpo);  // the trim supersedes the lost write
  }
  if (l2p_enabled()) {
    // Trim has no latency channel; the map-fault and write-back costs of
    // this access are modeled for wear and cache state but not billed.
    SimDuration l2p_latency = 0;
    L2pTouch(lpo, /*make_dirty=*/mapping_[lpo] != kUnmapped, l2p_latency);
    L2pEvictToCapacity(l2p_latency);
    // Noted after the eviction pass: its write-backs can run GC, which may
    // move this very page.
    if (DurableOf(mapping_[lpo]) != kUnmapped) {
      L2pNoteChange(lpo, mapping_[lpo]);
    }
  }
  const uint64_t entry = mapping_[lpo];
  if (entry == kUnmapped) {
    return OkStatus();
  }
  if (IsBuffered(entry)) {
    // The deque entry goes stale and is skipped at flush time.
    --frontier(entry == kInBufferHost ? Stream::kHost : Stream::kGc)
          .buffer_valid;
  } else {
    InvalidateSlot(entry);
  }
  mapping_[lpo] = kUnmapped;
  --mapped_opages_;
  JournalAppend(JournalRecord{JournalRecordType::kTrim, lpo, 0, 0, 0});
  return OkStatus();
}

Status Ftl::Flush() {
  SimDuration latency = 0;
  for (Stream stream : {Stream::kHost, Stream::kGc}) {
    while (frontier(stream).buffer_valid > 0) {
      SALA_RETURN_IF_ERROR(
          FlushToTarget(stream, /*allow_partial=*/true, latency));
    }
  }
  if (l2p_enabled()) {
    // Restore the window bound before the barrier so any kMapFlush records
    // written back here are covered by the sync below.
    SimDuration l2p_latency = 0;  // Flush() reports no latency
    L2pEvictToCapacity(l2p_latency);
  }
  // Host flush is the durability barrier: everything journaled so far
  // (including the kMap records the drain above produced) becomes durable.
  journal_.Sync();
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Status Ftl::BufferWrite(uint64_t lpo, SimDuration& latency) {
  if (!rolled_back_.empty()) {
    rolled_back_.erase(lpo);  // fresh host data supersedes the lost write
  }
  const uint64_t entry = mapping_[lpo];
  if (IsBuffered(entry)) {
    // Overwrite of a still-buffered page: coalesces in place (wherever it
    // already sits) — but still try to drain that stream. Without this, a
    // buffer backlog from an earlier failed flush would never retry as long
    // as the workload keeps hitting already-buffered pages.
    return FlushIfReady(
        entry == kInBufferHost ? Stream::kHost : Stream::kGc, latency);
  }
  if (entry == kUnmapped) {
    ++mapped_opages_;
  } else {
    InvalidateSlot(entry);  // previous version dies
  }
  mapping_[lpo] = kInBufferHost;
  Frontier& f = frontier(Stream::kHost);
  f.buffer.push_back(lpo);
  ++f.buffer_valid;
  return FlushIfReady(Stream::kHost, latency);
}

Status Ftl::FlushIfReadySlow(Stream stream, SimDuration& latency) {
  Frontier& f = frontier(stream);
  while (f.buffer_valid > 0) {
    SALA_ASSIGN_OR_RETURN(FPageIndex target,
                          NextProgramTarget(stream, latency));
    const uint64_t capacity = PageCapacity(target);
    if (f.buffer_valid >= capacity) {
      SALA_RETURN_IF_ERROR(
          FlushToTarget(stream, /*allow_partial=*/false, latency));
      continue;
    }
    if (f.buffer.size() > kWriteBufferOPages) {
      // Buffer overflow (stale-entry bloat or tiny buffer): pad out a page.
      SALA_RETURN_IF_ERROR(
          FlushToTarget(stream, /*allow_partial=*/true, latency));
      continue;
    }
    break;
  }
  return OkStatus();
}

Status Ftl::FlushToTarget(Stream stream, bool allow_partial,
                          SimDuration& latency) {
  Frontier& f = frontier(stream);
  for (bool first_attempt = true;; first_attempt = false) {
    FPageIndex target = 0;
    for (bool consumed = true; consumed;) {
      SALA_ASSIGN_OR_RETURN(target, NextProgramTarget(stream, latency));
      consumed = false;
      if (config_.ecc_placement == EccPlacement::kDedicated) {
        SALA_RETURN_IF_ERROR(
            MaybeProgramParityPage(stream, target, consumed, latency));
      }
    }
    const uint64_t capacity = PageCapacity(target);
    // The under-fill check only applies to the first candidate page: a retry
    // after a program failure may land on a larger page than the one the
    // caller's readiness check was based on, and the batch is already
    // committed to flushing.
    if (first_attempt && !allow_partial && f.buffer_valid < capacity) {
      return InternalError("FlushToTarget: buffer under-filled");
    }
    // Gather up to `capacity` live buffer entries, discarding stale ones.
    // A trim-then-rewrite can leave two deque entries for one lpo that both
    // still look "buffered" at pop time. The gather marks each lpo it takes
    // kGathered, so a second entry for it reads as stale, and puts the
    // stream's sentinel back before anything else runs. The batch is a
    // member so a flush allocates nothing; nothing between the gather and
    // the return below flushes again.
    const uint64_t sentinel = BufferSentinel(stream);
    std::vector<uint64_t>& batch = flush_batch_;
    batch.clear();
    while (batch.size() < capacity && !f.buffer.empty()) {
      const uint64_t lpo = f.buffer.front();
      f.buffer.pop_front();
      if (lpo < mapping_.size() && mapping_[lpo] == sentinel) {
        mapping_[lpo] = kGathered;
        batch.push_back(lpo);
      }
    }
    for (const uint64_t lpo : batch) {
      mapping_[lpo] = sentinel;
    }
    if (batch.empty()) {
      return OkStatus();  // everything was stale; nothing to program
    }
    StatusOr<SimDuration> program_time = chip_->ProgramFPage(target);
    if (!program_time.ok()) {
      // Keep the gathered entries flushable: restore them to the front of
      // the deque in their original order.
      for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
        f.buffer.push_front(*it);
      }
      if (program_time.status().code() != StatusCode::kDataLoss) {
        return program_time.status();
      }
      // Program-status failure: the target page is consumed but holds
      // nothing readable. Retire it, step past it, and re-place the batch
      // on the next programmable page.
      ++stats_.program_failures;
      RetireInServicePage(target, page_level_[target], kDeadLevel);
      f.next_page = static_cast<uint32_t>(
                        target - config_.geometry.FirstFPageOfBlock(
                                     config_.geometry.BlockOfFPage(target))) +
                    1;
      continue;
    }
    latency += *program_time;
    ++stats_.flushes;
    if (config_.ecc_placement == EccPlacement::kDedicated) {
      const unsigned level = page_level_[target];
      if (level > 0 && level < 8) {
        // Accrue parity debt: level L data pages need L parity pages per
        // (4 - L) data pages to reach the same overall code rate as inline.
        f.data_since_parity[level] += level;
      }
    }
    const BlockIndex block = config_.geometry.BlockOfFPage(target);
    for (size_t k = 0; k < batch.size(); ++k) {
      const OPageSlot slot = config_.geometry.FirstSlotOfFPage(target) + k;
      mapping_[batch[k]] = slot;
      reverse_[slot] = batch[k];
      ++block_valid_[block];
    }
    if (l2p_enabled()) {
      // The batch's L2P entries changed (buffered -> flash slot): note the
      // change before a journal append below can compact, and mark their map
      // pages dirty. Internal touch: over-admits, never evicts — the
      // enclosing public op restores the window bound.
      for (size_t k = 0; k < batch.size(); ++k) {
        L2pNoteChange(batch[k], kUnmapped);
        L2pTouch(batch[k], /*make_dirty=*/true, latency);
      }
    }
    if (config_.journaled) {
      for (size_t k = 0; k < batch.size(); ++k) {
        JournalAppend(JournalRecord{
            JournalRecordType::kMap, batch[k],
            config_.geometry.FirstSlotOfFPage(target) + k, 0, 0});
      }
    }
    f.buffer_valid -= batch.size();
    f.next_page = static_cast<uint32_t>(
                      target - config_.geometry.FirstFPageOfBlock(block)) +
                  1;
    return OkStatus();
  }
}

StatusOr<FPageIndex> Ftl::NextProgramTarget(Stream stream,
                                            SimDuration& latency) {
  Frontier& f = frontier(stream);
  for (;;) {
    if (!f.has_active_block) {
      SALA_RETURN_IF_ERROR(AllocateActiveBlock(stream, latency));
    }
    const FPageIndex first =
        config_.geometry.FirstFPageOfBlock(f.active_block);
    while (f.next_page < config_.geometry.fpages_per_block) {
      const FPageIndex fpage = first + f.next_page;
      if (page_state_[fpage] == PageState::kInService) {
        return fpage;
      }
      ++f.next_page;  // skip limbo/dead pages
    }
    // Active block exhausted.
    block_state_[f.active_block] = BlockState::kInUse;
    if (!in_use_listed_[f.active_block]) {
      in_use_blocks_.push_back(f.active_block);
      in_use_listed_[f.active_block] = 1;
    }
    f.has_active_block = false;
  }
}

Status Ftl::AllocateActiveBlock(Stream stream, SimDuration& latency) {
  Frontier& f = frontier(stream);
  SALA_RETURN_IF_ERROR(MaybeGarbageCollect(latency));
  if (f.has_active_block) {
    // GC ran above and its relocation flushes already allocated this
    // stream's active block; reuse it instead of orphaning it.
    return OkStatus();
  }
  // The last free block is reserved for GC relocation: a GC round moves at
  // most one block's worth of valid data, so entering a round with one free
  // block guarantees it completes and returns the erased victim. Host-path
  // allocations that would breach the reserve fail instead — the device is
  // genuinely out of space and the layer above must shed capacity.
  if (!in_gc_ && free_blocks_ < 2) {
    return ResourceExhaustedError(
        "AllocateActiveBlock: free blocks reserved for GC");
  }
  while (!free_pool_.empty()) {
    const auto [pec, block] = free_pool_.top();
    free_pool_.pop();
    if (block_state_[block] != BlockState::kFree ||
        chip_->BlockPec(block) != pec) {
      continue;  // stale entry
    }
    block_state_[block] = BlockState::kActive;
    f.active_block = block;
    f.next_page = 0;
    f.has_active_block = true;
    --free_blocks_;
    return OkStatus();
  }
  return ResourceExhaustedError("AllocateActiveBlock: no free blocks");
}

Status Ftl::MaybeGarbageCollect(SimDuration& latency) {
  if (in_gc_) {
    return OkStatus();  // GC already running further up the stack
  }
  uint32_t rounds = 0;
  while (free_blocks_ < config_.gc_low_watermark_blocks &&
         rounds < kMaxGcRoundsPerTrigger) {
    Status status = GarbageCollectOnce(latency);
    if (!status.ok()) {
      // Out of victims: fine as long as something remains allocatable.
      return free_blocks_ > 0 ? OkStatus() : status;
    }
    ++rounds;
  }
  return OkStatus();
}

BlockIndex Ftl::PickGcVictim() {
  // Compact stale entries out of the candidate list, then pick greedily
  // (fewest valid oPages). For large devices, sample instead of scanning.
  std::erase_if(in_use_blocks_, [this](BlockIndex b) {
    if (block_state_[b] != BlockState::kInUse) {
      in_use_listed_[b] = 0;
      return true;
    }
    return false;
  });
  if (in_use_blocks_.empty()) {
    return static_cast<BlockIndex>(-1);
  }
  constexpr size_t kSampleSize = 128;
  BlockIndex best = static_cast<BlockIndex>(-1);
  uint32_t best_valid = UINT32_MAX;
  if (in_use_blocks_.size() <= kSampleSize) {
    for (BlockIndex b : in_use_blocks_) {
      if (block_valid_[b] < best_valid) {
        best_valid = block_valid_[b];
        best = b;
      }
    }
  } else {
    for (size_t i = 0; i < kSampleSize; ++i) {
      const BlockIndex b =
          in_use_blocks_[rng_.UniformU64(in_use_blocks_.size())];
      if (block_valid_[b] < best_valid) {
        best_valid = block_valid_[b];
        best = b;
      }
    }
  }
  return best;
}

Status Ftl::GarbageCollectOnce(SimDuration& latency) {
  const BlockIndex victim = PickGcVictim();
  if (victim == static_cast<BlockIndex>(-1)) {
    return ResourceExhaustedError("GC: no victim block");
  }
  in_gc_ = true;
  // Relocate every valid oPage into the GC stream's buffer, then erase the
  // victim. The erase does not wait for the relocated data to be programmed:
  // a partial page of relocated lpos can still sit in the GC buffer, which
  // is volatile, when the victim is erased. A power loss right after this
  // round therefore loses data that a host Flush() had made durable (it is
  // flagged rolled back, not silent). The order is kept because fixing it
  // changes simulated results; see ROADMAP.md, item 3.
  const OPageSlot first_slot =
      config_.geometry.FirstSlotOfFPage(config_.geometry.FirstFPageOfBlock(victim));
  const uint64_t slots = static_cast<uint64_t>(config_.geometry.fpages_per_block) *
                         config_.geometry.opages_per_fpage;
  Frontier& gc = frontier(Stream::kGc);
  Status status = OkStatus();
  for (uint64_t s = 0; s < slots && status.ok(); ++s) {
    const uint64_t lpo = reverse_[first_slot + s];
    if (lpo == kSlotFree) {
      continue;
    }
    if (IsMapLpo(lpo)) {
      // Relocate a live map-page image: re-flush the page's current durable
      // content to a fresh slot (a real program plus journaled kMapFlush);
      // the old slot in the victim is invalidated by the flush.
      status = FlushMapPage(lpo - kMapLpoBase, latency);
      continue;
    }
    // A victim slot's lpo maps to that very slot, so none of the host
    // write's cases apply: the slot dies and the lpo joins the GC buffer.
    assert(mapping_[lpo] == first_slot + s);
    if (l2p_enabled()) {
      L2pNoteChange(lpo, first_slot + s);
    }
    reverse_[first_slot + s] = kSlotFree;
    --block_valid_[victim];
    mapping_[lpo] = kInBufferGc;
    gc.buffer.push_back(lpo);
    ++gc.buffer_valid;
    ++stats_.gc_relocations;
    status = FlushIfReady(Stream::kGc, latency);
  }
  if (status.ok()) {
    status = EraseAndRecycle(victim, latency);
  }
  in_gc_ = false;
  return status;
}

Status Ftl::EraseAndRecycle(BlockIndex block, SimDuration& latency) {
  assert(block_valid_[block] == 0 && "erasing a block with valid data");
  if (l2p_enabled() && UnsyncedTailHasMapFlush()) {
    // An unsynced kMapFlush can still be torn at power loss, rolling its map
    // page back to the *previous* flash image — which this erase might be
    // about to destroy. Make the newest image durable before any erase.
    journal_.Sync();
  }
  StatusOr<SimDuration> erase_time = chip_->EraseBlock(block);
  if (!erase_time.ok()) {
    if (erase_time.status().code() != StatusCode::kDataLoss) {
      return erase_time.status();
    }
    // Erase-status failure: the block can never be programmed again. Retire
    // every remaining page (emitting the usual tiredness transitions so the
    // minidisk layer accounts the capacity loss) and take it out of service.
    ++stats_.erase_failures;
    const FPageIndex first_page = config_.geometry.FirstFPageOfBlock(block);
    for (uint32_t i = 0; i < config_.geometry.fpages_per_block; ++i) {
      const FPageIndex fpage = first_page + i;
      if (page_state_[fpage] == PageState::kInService) {
        RetireInServicePage(fpage, page_level_[fpage], kDeadLevel);
      } else if (page_state_[fpage] == PageState::kLimbo) {
        AdvanceLimboPage(fpage, page_level_[fpage], kDeadLevel);
      }
    }
    block_state_[block] = BlockState::kRetired;
    ++retired_blocks_;
    // Retirement is rare and irreversible; make it durable immediately (the
    // page retirements above journaled their own kPageState records).
    JournalAppend(JournalRecord{JournalRecordType::kBlockRetire,
                                static_cast<uint64_t>(block), 0, 0, 0});
    journal_.Sync();
    return OkStatus();
  }
  latency += *erase_time;
  ++stats_.erases;
  ApplyLevelTransitions(block);

  bool any_in_service = false;
  bool any_limbo = false;
  const FPageIndex first = config_.geometry.FirstFPageOfBlock(block);
  for (uint32_t i = 0; i < config_.geometry.fpages_per_block; ++i) {
    const PageState state = page_state_[first + i];
    any_in_service |= (state == PageState::kInService);
    any_limbo |= (state == PageState::kLimbo);
  }
  if (any_in_service) {
    block_state_[block] = BlockState::kFree;
    free_pool_.emplace(chip_->BlockPec(block), block);
    ++free_blocks_;
  } else if (any_limbo) {
    block_state_[block] = BlockState::kParked;
  } else {
    block_state_[block] = BlockState::kRetired;
    ++retired_blocks_;
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Tiredness
// ---------------------------------------------------------------------------

unsigned Ftl::ComputeLevel(FPageIndex fpage, unsigned current) const {
  const double rber = chip_->PageRber(fpage);
  for (unsigned level = current; level <= config_.max_usable_level; ++level) {
    if (rber <= config_.retire_margin * ladder_[level].max_tolerable_rber) {
      return level;
    }
  }
  return kDeadLevel;
}

void Ftl::ApplyLevelTransitions(BlockIndex block) {
  const FPageIndex first = config_.geometry.FirstFPageOfBlock(block);
  const uint32_t n = config_.geometry.fpages_per_block;

  if (config_.retirement != RetirementGranularity::kPage) {
    // Block-granular policies: evaluate the block as a whole against L0.
    double worst = 0.0;
    double sum = 0.0;
    for (uint32_t i = 0; i < n; ++i) {
      const double rber = chip_->PageRber(first + i);
      worst = std::max(worst, rber);
      sum += rber;
    }
    const double tol = config_.retire_margin * ladder_[0].max_tolerable_rber;
    const bool retire =
        config_.retirement == RetirementGranularity::kBlockWorstPage
            ? worst > tol
            : (sum / n) > tol;
    if (retire) {
      for (uint32_t i = 0; i < n; ++i) {
        const FPageIndex fpage = first + i;
        if (page_state_[fpage] == PageState::kInService) {
          RetireInServicePage(fpage, page_level_[fpage], kDeadLevel);
        }
      }
    }
    return;
  }

  for (uint32_t i = 0; i < n; ++i) {
    const FPageIndex fpage = first + i;
    if (page_state_[fpage] == PageState::kDead) {
      continue;
    }
    const unsigned current = page_level_[fpage];
    const unsigned fresh = ComputeLevel(fpage, current);
    if (fresh == current) {
      continue;
    }
    if (page_state_[fpage] == PageState::kInService) {
      RetireInServicePage(fpage, current, fresh);
    } else {
      AdvanceLimboPage(fpage, current, fresh);
    }
  }
}

void Ftl::RetireInServicePage(FPageIndex fpage, unsigned old_level,
                              unsigned new_level) {
  usable_opages_ -= config_.geometry.opages_per_fpage - old_level;
  if (new_level <= config_.max_usable_level) {
    page_state_[fpage] = PageState::kLimbo;
    page_level_[fpage] = static_cast<uint8_t>(new_level);
    AddLimbo(new_level);
    limbo_pages_[new_level].push_back(fpage);
  } else {
    page_state_[fpage] = PageState::kDead;
    page_level_[fpage] = static_cast<uint8_t>(kDeadLevel);
    new_level = kDeadLevel;
    ++dead_fpages_;
  }
  transitions_.push_back(PageTransition{fpage, old_level, new_level});
  JournalPageState(fpage);
}

void Ftl::AdvanceLimboPage(FPageIndex fpage, unsigned old_level,
                           unsigned new_level) {
  RemoveLimbo(old_level);
  // The limbo_pages_ entry at the old level goes stale; ClaimLimboCapacity
  // validates level and state before using an entry.
  if (new_level <= config_.max_usable_level) {
    page_level_[fpage] = static_cast<uint8_t>(new_level);
    AddLimbo(new_level);
    limbo_pages_[new_level].push_back(fpage);
  } else {
    page_state_[fpage] = PageState::kDead;
    page_level_[fpage] = static_cast<uint8_t>(kDeadLevel);
    new_level = kDeadLevel;
    ++dead_fpages_;
  }
  transitions_.push_back(PageTransition{fpage, old_level, new_level});
  JournalPageState(fpage);
}

// ---------------------------------------------------------------------------
// Capacity accounting
// ---------------------------------------------------------------------------

uint64_t Ftl::limbo_fpages(unsigned level) const {
  return level < limbo_counts_.size() ? limbo_counts_[level] : 0;
}

void Ftl::AddLimbo(unsigned level) {
  ++limbo_counts_[level];
  if (level <= config_.max_usable_level) {
    reclaimable_limbo_opages_ += config_.geometry.opages_per_fpage - level;
  }
}

void Ftl::RemoveLimbo(unsigned level) {
  --limbo_counts_[level];
  if (level <= config_.max_usable_level) {
    reclaimable_limbo_opages_ -= config_.geometry.opages_per_fpage - level;
  }
}

uint64_t Ftl::ClaimLimboCapacity(uint64_t opages) {
  uint64_t claimed = 0;
  for (unsigned level = 0;
       level <= config_.max_usable_level && claimed < opages; ++level) {
    auto& pool = limbo_pages_[level];
    while (!pool.empty() && claimed < opages) {
      const FPageIndex fpage = pool.back();
      pool.pop_back();
      if (page_state_[fpage] != PageState::kLimbo ||
          page_level_[fpage] != level) {
        continue;  // stale entry
      }
      page_state_[fpage] = PageState::kInService;
      const uint64_t capacity = config_.geometry.opages_per_fpage - level;
      usable_opages_ += capacity;
      claimed += capacity;
      RemoveLimbo(level);
      JournalPageState(fpage);
      ReactivateIfParked(config_.geometry.BlockOfFPage(fpage));
    }
  }
  return claimed;
}

void Ftl::ReactivateIfParked(BlockIndex block) {
  if (block_state_[block] == BlockState::kParked) {
    block_state_[block] = BlockState::kFree;
    free_pool_.emplace(chip_->BlockPec(block), block);
    ++free_blocks_;
  }
}

uint64_t Ftl::ForecastTiringOPages(double pec_horizon_fraction) const {
  uint64_t tiring = 0;
  for (FPageIndex fpage = 0; fpage < config_.geometry.total_fpages();
       ++fpage) {
    if (page_state_[fpage] != PageState::kInService) {
      continue;
    }
    const unsigned level = page_level_[fpage];
    const double retire_rber =
        config_.retire_margin * ladder_[level].max_tolerable_rber;
    const double retire_pec = chip_->PecUntilRber(fpage, retire_rber);
    const double current_pec = static_cast<double>(
        chip_->BlockPec(config_.geometry.BlockOfFPage(fpage)));
    // +1.0 so fresh blocks (PEC 0) still look ahead at least one cycle.
    if (retire_pec <= (current_pec + 1.0) * (1.0 + pec_horizon_fraction)) {
      tiring += config_.geometry.opages_per_fpage - level;
    }
  }
  return tiring;
}

uint64_t Ftl::gc_reserve_opages() const {
  return static_cast<uint64_t>(config_.gc_low_watermark_blocks + 1) *
         config_.geometry.fpages_per_block * config_.geometry.opages_per_fpage;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

void Ftl::InvalidateSlot(OPageSlot slot) {
  assert(reverse_[slot] != kSlotFree);
  reverse_[slot] = kSlotFree;
  --block_valid_[config_.geometry.BlockOfFPage(
      config_.geometry.FPageOfSlot(slot))];
}

Status Ftl::MaybeProgramParityPage(Stream stream, FPageIndex target,
                                   bool& consumed, SimDuration& latency) {
  consumed = false;
  const unsigned level = page_level_[target];
  if (level == 0 || level >= 8) {
    return OkStatus();
  }
  Frontier& f = frontier(stream);
  const uint32_t threshold = config_.geometry.opages_per_fpage - level;
  if (f.data_since_parity[level] < threshold) {
    return OkStatus();
  }
  // This tired page becomes a dedicated parity page: a real program, but no
  // logical slots — GC sees it as holding nothing valid and simply erases it
  // with the block.
  StatusOr<SimDuration> program_time = chip_->ProgramFPage(target);
  const BlockIndex block = config_.geometry.BlockOfFPage(target);
  if (!program_time.ok()) {
    if (program_time.status().code() != StatusCode::kDataLoss) {
      return program_time.status();
    }
    // Injected program failure on the parity page: retire it and report the
    // page consumed so the caller moves on; the parity debt stays owed and
    // lands on the next eligible tired page.
    ++stats_.program_failures;
    RetireInServicePage(target, level, kDeadLevel);
    f.next_page = static_cast<uint32_t>(
                      target - config_.geometry.FirstFPageOfBlock(block)) +
                  1;
    consumed = true;
    return OkStatus();
  }
  latency += *program_time;
  ++stats_.parity_programs;
  f.data_since_parity[level] -= threshold;
  f.next_page =
      static_cast<uint32_t>(target - config_.geometry.FirstFPageOfBlock(block)) +
      1;
  consumed = true;
  return OkStatus();
}

SimDuration Ftl::DedicatedEccReadPenalty(unsigned level) {
  if (config_.ecc_placement != EccPlacement::kDedicated || level == 0) {
    return 0;
  }
  if (rng_.Bernoulli(config_.dedicated_ecc_cache_hit)) {
    return 0;  // parity already in controller RAM
  }
  ++stats_.ecc_page_reads;
  return config_.latency.read_fpage;
}

EccParams Ftl::EccForOPageRead(unsigned level) const {
  const TirednessLevelEcc& ecc = ladder_[level];
  return EccParams{
      .stripe_codeword_bits = ecc.stripe_codeword_bits,
      .correctable_bits_per_stripe = ecc.correctable_bits_per_stripe,
      // A single-oPage read engages only that oPage's stripes.
      .stripes = config_.ecc_geometry.stripes_per_opage,
  };
}

uint64_t Ftl::PhysicalSlot(uint64_t lpo) const {
  if (lpo >= mapping_.size()) {
    return kUnmappedSlot;
  }
  const uint64_t entry = mapping_[lpo];
  return (entry == kUnmapped || IsBuffered(entry)) ? kUnmappedSlot : entry;
}

std::vector<PageTransition> Ftl::TakeTransitions() {
  std::vector<PageTransition> out;
  out.swap(transitions_);
  return out;
}

// ---------------------------------------------------------------------------
// Bounded L2P map cache
// ---------------------------------------------------------------------------

void Ftl::L2pGrow() {
  const uint64_t pages =
      (mapping_.size() + l2p_entries_per_page_ - 1) / l2p_entries_per_page_;
  if (pages <= map_slot_.size()) {
    return;
  }
  map_slot_.resize(pages, kUnmappedSlot);
  map_undo_.resize(pages);
  l2p_resident_.resize(pages, 0);
  l2p_dirty_.resize(pages, 0);
  l2p_lru_prev_.resize(pages, kLruNil);
  l2p_lru_next_.resize(pages, kLruNil);
}

void Ftl::L2pLruRemove(uint64_t map_index) {
  const uint64_t prev = l2p_lru_prev_[map_index];
  const uint64_t next = l2p_lru_next_[map_index];
  if (prev != kLruNil) {
    l2p_lru_next_[prev] = next;
  } else {
    l2p_lru_head_ = next;
  }
  if (next != kLruNil) {
    l2p_lru_prev_[next] = prev;
  } else {
    l2p_lru_tail_ = prev;
  }
  l2p_lru_prev_[map_index] = kLruNil;
  l2p_lru_next_[map_index] = kLruNil;
}

void Ftl::L2pLruPushFront(uint64_t map_index) {
  l2p_lru_prev_[map_index] = kLruNil;
  l2p_lru_next_[map_index] = l2p_lru_head_;
  if (l2p_lru_head_ != kLruNil) {
    l2p_lru_prev_[l2p_lru_head_] = map_index;
  }
  l2p_lru_head_ = map_index;
  if (l2p_lru_tail_ == kLruNil) {
    l2p_lru_tail_ = map_index;
  }
}

void Ftl::L2pTouch(uint64_t lpo, bool make_dirty, SimDuration& latency) {
  const uint64_t map_index = MapPageOf(lpo);
  if (l2p_resident_[map_index]) {
    ++l2p_stats_.hits;
    if (l2p_lru_head_ != map_index) {
      L2pLruRemove(map_index);
      L2pLruPushFront(map_index);
    }
  } else {
    ++l2p_stats_.misses;
    if (map_slot_[map_index] != kUnmappedSlot) {
      // Fault the flushed image in. Modeled as a deterministic flash-read
      // latency — no FlashChip call, so map paging never perturbs the
      // read-path Rng stream. A never-flushed page faults in for free (a
      // real FTL treats a missing map page as all-unmapped).
      latency += config_.latency.read_fpage +
                 config_.latency.TransferTime(config_.geometry.opage_bytes);
    }
    l2p_resident_[map_index] = 1;
    ++l2p_resident_pages_;
    L2pLruPushFront(map_index);
  }
  if (make_dirty && !l2p_dirty_[map_index]) {
    l2p_dirty_[map_index] = 1;
    ++l2p_dirty_pages_;
  }
}

void Ftl::L2pEvictToCapacity(SimDuration& latency) {
  // Bounded pass: a dirty write-back can run GC, which over-admits more map
  // pages; any overshoot left behind drains on a later op instead of looping
  // here forever.
  uint64_t budget = l2p_resident_pages_ > l2p_capacity_pages_
                        ? l2p_resident_pages_ - l2p_capacity_pages_
                        : 0;
  while (budget-- > 0 && l2p_resident_pages_ > l2p_capacity_pages_) {
    const uint64_t victim = l2p_lru_tail_;
    if (victim == kLruNil) {
      break;
    }
    if (l2p_dirty_[victim] && !FlushMapPage(victim, latency).ok()) {
      // Out of space (or a transient chip fault) mid write-back: keep the
      // page resident and dirty; a later op retries the eviction.
      break;
    }
    L2pLruRemove(victim);
    l2p_resident_[victim] = 0;
    --l2p_resident_pages_;
    ++l2p_stats_.evictions;
  }
}

bool Ftl::L2pImageIsBlank(uint64_t map_index) const {
  return map_slot_[map_index] == kUnmappedSlot && journal_replays_ == 0;
}

std::vector<uint64_t> Ftl::MapPageImage(uint64_t map_index) const {
  if (map_index >= map_slot_.size() || L2pImageIsBlank(map_index)) {
    return {};
  }
  const uint64_t first = map_index * l2p_entries_per_page_;
  const uint64_t size = mapping_.size();
  uint64_t extent =
      first < size ? std::min(l2p_entries_per_page_, size - first) : 0;
  const MapPageUndo* undo = map_undo_[map_index].get();
  if (undo != nullptr) {
    extent = std::min(extent, undo->image_extent);
  }
  std::vector<uint64_t> image(extent);
  for (uint64_t i = 0; i < extent; ++i) {
    image[i] = DurableOf(mapping_[first + i]);
  }
  if (undo != nullptr) {
    for (const auto& [lpo, imaged] : undo->entries) {
      if (lpo - first < extent) {
        image[lpo - first] = imaged;
      }
    }
  }
  if (std::all_of(image.begin(), image.end(),
                  [](uint64_t entry) { return entry == kUnmapped; })) {
    image.clear();  // canonical form for an all-unmapped page
  }
  return image;
}

Ftl::MapPageUndo& Ftl::L2pUndo(uint64_t map_index) {
  std::unique_ptr<MapPageUndo>& undo = map_undo_[map_index];
  if (undo == nullptr) {
    undo = std::make_unique<MapPageUndo>();
    undo->noted.assign((l2p_entries_per_page_ + 63) / 64, 0);
  }
  return *undo;
}

void Ftl::L2pNoteChange(uint64_t lpo, uint64_t durable) {
  const uint64_t map_index = MapPageOf(lpo);
  if (L2pImageIsBlank(map_index)) {
    return;
  }
  MapPageUndo& undo = L2pUndo(map_index);
  const uint64_t offset = lpo - map_index * l2p_entries_per_page_;
  uint64_t& word = undo.noted[offset / 64];
  const uint64_t bit = uint64_t{1} << (offset % 64);
  if ((word & bit) == 0) {
    word |= bit;
    undo.entries.emplace_back(lpo, durable);
  }
}

void Ftl::L2pNoteGrowth(uint64_t old_size) {
  const uint64_t map_index = MapPageOf(old_size);
  if (L2pImageIsBlank(map_index)) {
    return;
  }
  MapPageUndo& undo = L2pUndo(map_index);
  undo.image_extent = std::min(
      undo.image_extent, old_size - map_index * l2p_entries_per_page_);
}

void Ftl::L2pClearUndo(uint64_t map_index) {
  MapPageUndo* undo = map_undo_[map_index].get();
  if (undo == nullptr) {
    return;
  }
  const uint64_t first = map_index * l2p_entries_per_page_;
  for (const auto& [lpo, imaged] : undo->entries) {
    const uint64_t offset = lpo - first;
    undo->noted[offset / 64] &= ~(uint64_t{1} << (offset % 64));
  }
  undo->entries.clear();
  undo->image_extent = MapPageUndo::kWholePage;
}

bool Ftl::UnsyncedTailHasMapFlush() const {
  const std::vector<JournalRecord>& records = journal_.records();
  for (uint64_t i = journal_.synced_count(); i < records.size(); ++i) {
    if (records[i].type == JournalRecordType::kMapFlush) {
      return true;
    }
  }
  return false;
}

Status Ftl::FlushMapPage(uint64_t map_index, SimDuration& latency) {
  // Write-ahead: every delta since this page's previous image must be
  // durable before the new image can supersede it — a torn kMapFlush then
  // rolls back to the previous image and the surviving deltas patch it
  // forward to exactly the new image's content.
  journal_.Sync();
  FPageIndex target = 0;
  for (;;) {
    SALA_ASSIGN_OR_RETURN(target, NextProgramTarget(Stream::kMap, latency));
    StatusOr<SimDuration> program_time = chip_->ProgramFPage(target);
    if (!program_time.ok()) {
      if (program_time.status().code() != StatusCode::kDataLoss) {
        return program_time.status();
      }
      // Program-status failure: retire the page and re-place, as on the
      // data path.
      ++stats_.program_failures;
      RetireInServicePage(target, page_level_[target], kDeadLevel);
      map_frontier_.next_page =
          static_cast<uint32_t>(
              target - config_.geometry.FirstFPageOfBlock(
                           config_.geometry.BlockOfFPage(target))) +
          1;
      continue;
    }
    latency += *program_time;
    break;
  }
  const BlockIndex block = config_.geometry.BlockOfFPage(target);
  // One map oPage per fPage (the rest is padding): slot 0 carries the image.
  const OPageSlot slot = config_.geometry.FirstSlotOfFPage(target);
  if (map_slot_[map_index] != kUnmappedSlot) {
    InvalidateSlot(map_slot_[map_index]);  // the old image dies
  }
  map_slot_[map_index] = slot;
  reverse_[slot] = kMapLpoBase + map_index;
  ++block_valid_[block];
  map_frontier_.next_page =
      static_cast<uint32_t>(target -
                            config_.geometry.FirstFPageOfBlock(block)) +
      1;
  L2pClearUndo(map_index);
  if (l2p_dirty_[map_index]) {
    l2p_dirty_[map_index] = 0;
    --l2p_dirty_pages_;
  }
  ++l2p_stats_.map_writes;
  // Deliberately left unsynced: this record is the torn-map-page crash
  // surface. EraseAndRecycle syncs before destroying any previous image it
  // could roll back to.
  JournalAppend(
      JournalRecord{JournalRecordType::kMapFlush, map_index, slot, 0, 0});
  return OkStatus();
}

void Ftl::ReplayRestoreMapPage(uint64_t map_index,
                               const std::vector<uint64_t>& image) {
  const uint64_t first = map_index * l2p_entries_per_page_;
  const uint64_t last =
      std::min(first + l2p_entries_per_page_, static_cast<uint64_t>(mapping_.size()));
  for (uint64_t lpo = first; lpo < last; ++lpo) {
    const uint64_t offset = lpo - first;
    const uint64_t want = offset < image.size() ? image[offset] : kUnmapped;
    const uint64_t old = mapping_[lpo];
    if (old == want) {
      continue;
    }
    if (old != kUnmapped) {
      reverse_[old] = kSlotFree;
      --mapped_opages_;
    }
    if (want == kUnmapped) {
      mapping_[lpo] = kUnmapped;
      continue;
    }
    const uint64_t evicted = reverse_[want];
    if (evicted != kSlotFree && evicted != lpo) {
      if (IsMapLpo(evicted)) {
        map_slot_[evicted - kMapLpoBase] = kUnmappedSlot;
      } else {
        mapping_[evicted] = kUnmapped;
        --mapped_opages_;
        rolled_back_.insert(evicted);
      }
    }
    mapping_[lpo] = want;
    reverse_[want] = lpo;
    ++mapped_opages_;
  }
}

// ---------------------------------------------------------------------------
// Crash-restart recovery
// ---------------------------------------------------------------------------

void Ftl::JournalAppend(const JournalRecord& record) {
  if (!config_.journaled) {
    return;
  }
  if (journal_.AtCapacity()) {
    CompactJournal();
  }
  journal_.Append(record);
  if (journal_.unsynced() >= kJournalMaxUnsynced) {
    journal_.Sync();
  }
}

void Ftl::JournalPageState(FPageIndex fpage) {
  JournalAppend(JournalRecord{
      JournalRecordType::kPageState, fpage,
      static_cast<uint64_t>(page_state_[fpage]), page_level_[fpage], 0});
}

void Ftl::CompactJournal() {
  std::vector<JournalRecord> out;
  out.reserve(journal_.capacity());
  // mDisk lifecycle history, compacted to at most two records per mDisk ever
  // created: the create, plus its terminal drain/drop if any. Creates appear
  // in id order because ids are assigned sequentially.
  struct MdiskHistory {
    JournalRecord create;
    bool draining = false;
    bool dropped = false;
    JournalRecord drop;
  };
  std::vector<MdiskHistory> history;
  for (const JournalRecord& r : journal_.records()) {
    switch (r.type) {
      case JournalRecordType::kMdiskCreate:
        assert(history.size() == r.a && "mDisk ids must be sequential");
        history.push_back(MdiskHistory{r, false, false, JournalRecord{}});
        break;
      case JournalRecordType::kMdiskDrain:
        history[r.a].draining = true;
        break;
      case JournalRecordType::kMdiskDrop:
        history[r.a].dropped = true;
        history[r.a].drop = r;
        break;
      default:
        break;
    }
  }
  out.push_back(JournalRecord{JournalRecordType::kExtend, mapping_.size(), 0,
                              0, 0});
  for (const MdiskHistory& h : history) {
    out.push_back(h.create);
    if (h.dropped) {
      out.push_back(h.drop);
    } else if (h.draining) {
      out.push_back(JournalRecord{JournalRecordType::kMdiskDrain, h.create.a,
                                  0, 0, 0});
    }
  }
  // L2P snapshot. Buffered pages have no durable version by definition and
  // are omitted — they roll back if power is lost before their flush.
  if (!l2p_enabled()) {
    for (uint64_t lpo = 0; lpo < mapping_.size(); ++lpo) {
      const uint64_t entry = mapping_[lpo];
      if (entry != kUnmapped && !IsBuffered(entry)) {
        out.push_back(
            JournalRecord{JournalRecordType::kMap, lpo, entry, 0, 0});
      }
    }
  } else {
    // Bounded-L2P snapshot: per map page, its newest flushed image (if any)
    // followed by the delta records reconciling that image with the current
    // durable mapping — exactly the shape Replay() consumes. A flushed page's
    // deltas are its undo entries whose value changed since the image, in
    // lpo order. A page with no flash image replays from all-unmapped, so
    // every durable entry of it is a delta.
    for (uint64_t p = 0; p < map_slot_.size(); ++p) {
      if (map_slot_[p] == kUnmappedSlot) {
        const uint64_t first = p * l2p_entries_per_page_;
        const uint64_t last = std::min(first + l2p_entries_per_page_,
                                       static_cast<uint64_t>(mapping_.size()));
        for (uint64_t lpo = first; lpo < last; ++lpo) {
          const uint64_t durable = DurableOf(mapping_[lpo]);
          if (durable != kUnmapped) {
            out.push_back(
                JournalRecord{JournalRecordType::kMap, lpo, durable, 0, 0});
          }
        }
        continue;
      }
      out.push_back(
          JournalRecord{JournalRecordType::kMapFlush, p, map_slot_[p], 0, 0});
      MapPageUndo* undo = map_undo_[p].get();
      if (undo == nullptr) {
        continue;
      }
      std::sort(undo->entries.begin(), undo->entries.end());
      for (const auto& [lpo, imaged] : undo->entries) {
        const uint64_t durable = DurableOf(mapping_[lpo]);
        if (durable == imaged) {
          continue;
        }
        if (durable == kUnmapped) {
          out.push_back(JournalRecord{JournalRecordType::kTrim, lpo, 0, 0, 0});
        } else {
          out.push_back(
              JournalRecord{JournalRecordType::kMap, lpo, durable, 0, 0});
        }
      }
    }
  }
  // Non-pristine page states and permanently retired blocks.
  for (FPageIndex fpage = 0; fpage < config_.geometry.total_fpages();
       ++fpage) {
    if (page_state_[fpage] != PageState::kInService ||
        page_level_[fpage] != 0) {
      out.push_back(JournalRecord{
          JournalRecordType::kPageState, fpage,
          static_cast<uint64_t>(page_state_[fpage]), page_level_[fpage], 0});
    }
  }
  for (BlockIndex block = 0; block < config_.geometry.total_blocks();
       ++block) {
    if (block_state_[block] == BlockState::kRetired) {
      out.push_back(JournalRecord{JournalRecordType::kBlockRetire,
                                  static_cast<uint64_t>(block), 0, 0, 0});
    }
  }
  journal_.ReplaceWith(std::move(out));
}

void Ftl::RequireJournaled(const char* op) const {
  if (!config_.journaled) {
    std::fprintf(stderr,
                 "Ftl::%s: this FTL keeps no journal (FtlConfig::journaled "
                 "is false), so no power loss may reach it\n",
                 op);
    std::abort();
  }
}

void Ftl::SimulatePowerLoss(uint64_t torn_records) {
  RequireJournaled("SimulatePowerLoss");
  ++power_losses_;
  // The volatile write buffers are lost: every logical page whose newest
  // version was still buffered rolls back — to an older durable version if
  // one survives on flash, else to unmapped. (GC-relocated pages whose
  // victim block was already erased are the "else" case.)
  for (size_t s = 0; s < kStreams; ++s) {
    const uint64_t sentinel = BufferSentinel(static_cast<Stream>(s));
    for (uint64_t lpo : frontiers_[s].buffer) {
      if (lpo < mapping_.size() && mapping_[lpo] == sentinel) {
        rolled_back_.insert(lpo);
      }
    }
  }
  // Torn journal tail: the affected pages' newest durable records are gone,
  // so they roll back as well (the physical programs may have happened, but
  // no surviving metadata acknowledges them).
  for (const JournalRecord& r : journal_.TearTail(torn_records)) {
    if (r.type == JournalRecordType::kMap ||
        r.type == JournalRecordType::kTrim) {
      rolled_back_.insert(r.a);
    }
  }
  // The FTL is now inconsistent by design; Replay() must run before any I/O.
}

Status Ftl::Replay() {
  RequireJournaled("Replay");
  const FlashGeometry& geometry = config_.geometry;
  const uint64_t fpages = geometry.total_fpages();
  const uint64_t blocks = geometry.total_blocks();

  // Bounded L2P: remember the pre-crash flush slots (for the rebuilt-pages
  // stat), reset the slot table, and materialize every page's newest image
  // while the pre-crash mapping it is built from still exists — each
  // surviving kMapFlush restores its page's entries from that image, then
  // the (always synced-before-flush) delta records patch it forward. The
  // image may be newer than the literal flash bytes after a torn kMapFlush,
  // but it is delta-closed: restoring it and re-applying the same deltas is
  // value-idempotent, so the rebuilt mapping is identical either way.
  std::vector<uint64_t> pre_map_slot;
  std::vector<std::vector<uint64_t>> images;
  if (l2p_enabled()) {
    images.reserve(map_slot_.size());
    for (uint64_t p = 0; p < map_slot_.size(); ++p) {
      images.push_back(MapPageImage(p));
    }
    pre_map_slot = map_slot_;
    std::fill(map_slot_.begin(), map_slot_.end(), kUnmappedSlot);
  }
  ++journal_replays_;  // after the images: a first replay ends blank ones
  const std::vector<uint64_t> no_image;
  const auto image_of =
      [&](uint64_t map_index) -> const std::vector<uint64_t>& {
    return map_index < images.size() ? images[map_index] : no_image;
  };

  // Reset to the pristine post-construction state; the journal plus the
  // surviving physical chip state (PECs, programmed bitmap) rebuild
  // everything below.
  mapping_.clear();
  reverse_.assign(geometry.total_opages(), kSlotFree);
  mapped_opages_ = 0;
  page_level_.assign(fpages, 0);
  page_state_.assign(fpages, PageState::kInService);

  // Pass 1: apply records in append order. A kMap landing on an occupied
  // slot evicts the stale occupant — its invalidation record died with the
  // write buffer or the torn tail — and the evictee rolls back.
  for (const JournalRecord& r : journal_.records()) {
    switch (r.type) {
      case JournalRecordType::kExtend:
        mapping_.resize(mapping_.size() + r.a, kUnmapped);
        if (l2p_enabled()) {
          L2pGrow();
        }
        break;
      case JournalRecordType::kMap: {
        const uint64_t lpo = r.a;
        const uint64_t slot = r.b;
        if (lpo >= mapping_.size() || slot >= reverse_.size()) {
          return InternalError("Replay: kMap record out of range");
        }
        const uint64_t old = mapping_[lpo];
        if (old != kUnmapped) {
          reverse_[old] = kSlotFree;
          --mapped_opages_;
        }
        const uint64_t evicted = reverse_[slot];
        if (evicted != kSlotFree && evicted != lpo) {
          if (IsMapLpo(evicted)) {
            // The slot was reused for data after its map image died; the
            // superseding kMapFlush is later in the journal (or torn, in
            // which case deltas alone rebuild that map page).
            map_slot_[evicted - kMapLpoBase] = kUnmappedSlot;
          } else {
            mapping_[evicted] = kUnmapped;
            --mapped_opages_;
            rolled_back_.insert(evicted);
          }
        }
        mapping_[lpo] = slot;
        reverse_[slot] = lpo;
        ++mapped_opages_;
        break;
      }
      case JournalRecordType::kMapFlush: {
        if (!l2p_enabled()) {
          return InternalError("Replay: kMapFlush with bounded L2P disabled");
        }
        const uint64_t map_index = r.a;
        const uint64_t slot = r.b;
        if (map_index >= map_slot_.size() || slot >= reverse_.size()) {
          return InternalError("Replay: kMapFlush record out of range");
        }
        if (!chip_->IsProgrammed(geometry.FPageOfSlot(slot))) {
          break;  // image physically gone; the delta records alone rebuild it
        }
        if (map_slot_[map_index] != kUnmappedSlot) {
          reverse_[map_slot_[map_index]] = kSlotFree;  // superseded image
        }
        const uint64_t evicted = reverse_[slot];
        if (evicted != kSlotFree) {
          if (IsMapLpo(evicted)) {
            map_slot_[evicted - kMapLpoBase] = kUnmappedSlot;
          } else {
            mapping_[evicted] = kUnmapped;
            --mapped_opages_;
            rolled_back_.insert(evicted);
          }
        }
        map_slot_[map_index] = slot;
        reverse_[slot] = kMapLpoBase + map_index;
        ReplayRestoreMapPage(map_index, image_of(map_index));
        break;
      }
      case JournalRecordType::kTrim: {
        if (r.a >= mapping_.size()) {
          return InternalError("Replay: kTrim record out of range");
        }
        const uint64_t old = mapping_[r.a];
        if (old != kUnmapped) {
          reverse_[old] = kSlotFree;
          mapping_[r.a] = kUnmapped;
          --mapped_opages_;
        }
        break;
      }
      case JournalRecordType::kPageState: {
        if (r.a >= fpages || r.b > 2) {
          return InternalError("Replay: bad kPageState record");
        }
        page_state_[r.a] = static_cast<PageState>(r.b);
        page_level_[r.a] = static_cast<uint8_t>(
            page_state_[r.a] == PageState::kDead ? kDeadLevel : r.c);
        break;
      }
      case JournalRecordType::kBlockRetire:
      case JournalRecordType::kMdiskCreate:
      case JournalRecordType::kMdiskDrain:
      case JournalRecordType::kMdiskDrop:
        // Block states are re-derived below; mDisk records belong to the
        // minidisk layer's replay.
        break;
    }
  }

  // Pass 2: discard mappings whose backing slot no longer holds data — the
  // block was erased (and possibly reused) after the mapping record, and
  // the superseding record died with the buffer or the torn tail.
  for (uint64_t lpo = 0; lpo < mapping_.size(); ++lpo) {
    const uint64_t entry = mapping_[lpo];
    if (entry == kUnmapped) {
      continue;
    }
    const FPageIndex fpage = geometry.FPageOfSlot(entry);
    if (!chip_->IsProgrammed(fpage) ||
        page_state_[fpage] != PageState::kInService) {
      mapping_[lpo] = kUnmapped;
      reverse_[entry] = kSlotFree;
      --mapped_opages_;
      rolled_back_.insert(lpo);
    }
  }
  // Same viability check for surviving map-page images: a kMapFlush whose
  // slot was erased after the record (and whose superseding flush was torn)
  // leaves a stale pointer; the delta records already rebuilt the content.
  if (l2p_enabled()) {
    for (uint64_t p = 0; p < map_slot_.size(); ++p) {
      const uint64_t slot = map_slot_[p];
      if (slot == kUnmappedSlot) {
        continue;
      }
      const FPageIndex fpage = geometry.FPageOfSlot(slot);
      if (!chip_->IsProgrammed(fpage) ||
          page_state_[fpage] != PageState::kInService) {
        map_slot_[p] = kUnmappedSlot;
        reverse_[slot] = kSlotFree;
      }
    }
  }

  // Pass 3: rebuild every derived structure from the replayed ground truth.
  limbo_counts_.assign(geometry.opages_per_fpage, 0);
  reclaimable_limbo_opages_ = 0;
  limbo_pages_.assign(geometry.opages_per_fpage, {});
  usable_opages_ = 0;
  dead_fpages_ = 0;
  for (FPageIndex fpage = 0; fpage < fpages; ++fpage) {
    switch (page_state_[fpage]) {
      case PageState::kInService:
        usable_opages_ += geometry.opages_per_fpage - page_level_[fpage];
        break;
      case PageState::kLimbo:
        AddLimbo(page_level_[fpage]);
        limbo_pages_[page_level_[fpage]].push_back(fpage);
        break;
      case PageState::kDead:
        ++dead_fpages_;
        break;
    }
  }
  block_valid_.assign(blocks, 0);
  for (uint64_t slot = 0; slot < reverse_.size(); ++slot) {
    if (reverse_[slot] != kSlotFree) {
      ++block_valid_[geometry.BlockOfFPage(geometry.FPageOfSlot(slot))];
    }
  }
  // Block states from page states and the programmed bitmap:
  //  * all pages dead -> retired (fully worn, or an erase-status failure);
  //  * any programmed page -> sealed kInUse: NAND forbids resuming a
  //    partially-written block's program order, so ex-active blocks join the
  //    GC candidates instead of a write frontier;
  //  * otherwise (erased) -> kFree if any page can store data, else kParked.
  block_state_.assign(blocks, BlockState::kFree);
  free_pool_ = decltype(free_pool_)();
  in_use_blocks_.clear();
  in_use_listed_.assign(blocks, 0);
  free_blocks_ = 0;
  retired_blocks_ = 0;
  for (BlockIndex block = 0; block < blocks; ++block) {
    const FPageIndex first = geometry.FirstFPageOfBlock(block);
    bool any_programmed = false;
    bool any_in_service = false;
    bool all_dead = true;
    for (uint32_t i = 0; i < geometry.fpages_per_block; ++i) {
      const FPageIndex fpage = first + i;
      any_programmed |= chip_->IsProgrammed(fpage);
      any_in_service |= page_state_[fpage] == PageState::kInService;
      all_dead &= page_state_[fpage] == PageState::kDead;
    }
    if (all_dead) {
      block_state_[block] = BlockState::kRetired;
      ++retired_blocks_;
    } else if (any_programmed) {
      block_state_[block] = BlockState::kInUse;
      in_use_blocks_.push_back(block);
      in_use_listed_[block] = 1;
    } else if (any_in_service) {
      free_pool_.emplace(chip_->BlockPec(block), block);
      ++free_blocks_;
    } else {
      block_state_[block] = BlockState::kParked;
    }
  }
  // Write frontiers restart empty (the buffers died with the power); rng_
  // deliberately keeps its process-lifetime state — it only feeds read-path
  // cache lotteries and GC victim sampling, never durable metadata.
  for (size_t s = 0; s < kStreams; ++s) {
    frontiers_[s] = Frontier{};
  }
  if (l2p_enabled()) {
    // The cache itself is volatile: restart cold, with every page clean —
    // the replayed mapping_ IS the rebuilt truth, so every page's image
    // becomes its durable content (empty undo lists), and count the pages
    // whose pre-crash image no longer tells the whole story (torn/stale
    // flush, or content patched forward by delta records).
    map_frontier_ = Frontier{};
    std::fill(l2p_resident_.begin(), l2p_resident_.end(), 0);
    std::fill(l2p_dirty_.begin(), l2p_dirty_.end(), 0);
    std::fill(l2p_lru_prev_.begin(), l2p_lru_prev_.end(), kLruNil);
    std::fill(l2p_lru_next_.begin(), l2p_lru_next_.end(), kLruNil);
    l2p_lru_head_ = kLruNil;
    l2p_lru_tail_ = kLruNil;
    l2p_resident_pages_ = 0;
    l2p_dirty_pages_ = 0;
    for (std::unique_ptr<MapPageUndo>& undo : map_undo_) {
      undo.reset();
    }
    uint64_t rebuilt = 0;
    for (uint64_t p = 0; p < map_slot_.size(); ++p) {
      const uint64_t pre_slot =
          p < pre_map_slot.size() ? pre_map_slot[p] : kUnmappedSlot;
      if (pre_slot != map_slot_[p] || MapPageImage(p) != image_of(p)) {
        ++rebuilt;
      }
    }
    l2p_stats_.replay_rebuilt_pages += rebuilt;
  }
  transitions_.clear();
  in_gc_ = false;
  return CheckInvariants();
}

uint64_t Ftl::StateDigest() const {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(mapping_.size());
  for (uint64_t lpo = 0; lpo < mapping_.size(); ++lpo) {
    mix(mapping_[lpo]);
    mix(rolled_back_.count(lpo));
  }
  for (FPageIndex fpage = 0; fpage < config_.geometry.total_fpages();
       ++fpage) {
    mix(static_cast<uint64_t>(page_level_[fpage]) |
        (static_cast<uint64_t>(page_state_[fpage]) << 8) |
        (static_cast<uint64_t>(chip_->IsProgrammed(fpage)) << 16));
  }
  for (BlockIndex block = 0; block < config_.geometry.total_blocks();
       ++block) {
    mix(static_cast<uint64_t>(block_state_[block]) |
        (static_cast<uint64_t>(block_valid_[block]) << 8) |
        (static_cast<uint64_t>(chip_->BlockPec(block)) << 40));
  }
  mix(mapped_opages_);
  mix(usable_opages_);
  mix(free_blocks_);
  mix(dead_fpages_);
  mix(retired_blocks_);
  for (size_t s = 0; s < kStreams; ++s) {
    mix(frontiers_[s].buffer_valid);
    mix(frontiers_[s].has_active_block
            ? static_cast<uint64_t>(frontiers_[s].active_block) + 1
            : 0);
  }
  mix(journal_.size());
  mix(journal_.synced_count());
  if (l2p_enabled()) {
    mix(map_slot_.size());
    for (uint64_t p = 0; p < map_slot_.size(); ++p) {
      mix(map_slot_[p]);
      mix(static_cast<uint64_t>(l2p_dirty_[p]) |
          (static_cast<uint64_t>(l2p_resident_[p]) << 1));
    }
    // LRU recency order is observable (it picks eviction victims), so walk
    // it into the digest; +1 keeps page 0 distinct from the hash of nothing.
    for (uint64_t p = l2p_lru_head_; p != kLruNil; p = l2p_lru_next_[p]) {
      mix(p + 1);
    }
    mix(l2p_resident_pages_);
    mix(l2p_dirty_pages_);
    mix(map_frontier_.buffer_valid);
    mix(map_frontier_.has_active_block
            ? static_cast<uint64_t>(map_frontier_.active_block) + 1
            : 0);
  }
  return h;
}

void Ftl::CollectMetrics(MetricRegistry& registry,
                         const std::string& prefix) const {
  registry.GetCounter(prefix + "ftl.host_writes").Add(stats_.host_writes);
  registry.GetCounter(prefix + "ftl.host_reads").Add(stats_.host_reads);
  registry.GetCounter(prefix + "ftl.buffer_hits").Add(stats_.buffer_hits);
  registry.GetCounter(prefix + "ftl.gc_relocations")
      .Add(stats_.gc_relocations);
  registry.GetCounter(prefix + "ftl.flushes").Add(stats_.flushes);
  registry.GetCounter(prefix + "ftl.erases").Add(stats_.erases);
  registry.GetCounter(prefix + "ftl.uncorrectable_reads")
      .Add(stats_.uncorrectable_reads);
  registry.GetCounter(prefix + "ftl.read_retries").Add(stats_.read_retries);
  registry.GetCounter(prefix + "ftl.silent_corrupt_fpage_reads")
      .Add(stats_.silent_corrupt_fpage_reads);
  registry.GetCounter(prefix + "ftl.parity_programs")
      .Add(stats_.parity_programs);
  registry.GetCounter(prefix + "ftl.ecc_page_reads")
      .Add(stats_.ecc_page_reads);
  registry.GetCounter(prefix + "ftl.program_failures")
      .Add(stats_.program_failures);
  registry.GetCounter(prefix + "ftl.erase_failures")
      .Add(stats_.erase_failures);
  for (size_t level = 0; level < stats_.reads_by_level.size(); ++level) {
    registry
        .GetCounter(prefix + "ftl.reads_at_level." + std::to_string(level))
        .Add(stats_.reads_by_level[level]);
  }
  registry.GetGauge(prefix + "ftl.usable_opages")
      .Add(static_cast<double>(usable_opages_));
  registry.GetGauge(prefix + "ftl.mapped_opages")
      .Add(static_cast<double>(mapped_opages_));
  registry.GetGauge(prefix + "ftl.dead_fpages")
      .Add(static_cast<double>(dead_fpages_));
  registry.GetGauge(prefix + "ftl.retired_blocks")
      .Add(static_cast<double>(retired_blocks_));
  registry.GetGauge(prefix + "ftl.free_blocks")
      .Add(static_cast<double>(free_blocks_));
  registry.GetGauge(prefix + "ftl.reclaimable_limbo_opages")
      .Add(static_cast<double>(reclaimable_limbo_opages()));
  // Journal instruments only materialize once a power loss or replay has
  // actually happened, keeping metric exports from crash-free configurations
  // byte-identical to pre-journal builds.
  if (power_losses_ + journal_replays_ > 0) {
    registry.GetCounter(prefix + "ftl.journal.appends")
        .Add(journal_.appends());
    registry.GetCounter(prefix + "ftl.journal.syncs").Add(journal_.syncs());
    registry.GetCounter(prefix + "ftl.journal.compactions")
        .Add(journal_.compactions());
    registry.GetCounter(prefix + "ftl.journal.torn_records")
        .Add(journal_.torn_records());
    registry.GetCounter(prefix + "ftl.journal.replays").Add(journal_replays_);
    registry.GetCounter(prefix + "ftl.journal.power_losses")
        .Add(power_losses_);
    registry.GetGauge(prefix + "ftl.journal.rolled_back_opages")
        .Add(static_cast<double>(rolled_back_.size()));
    registry.GetGauge(prefix + "ftl.journal.records")
        .Add(static_cast<double>(journal_.size()));
  }
  // Bounded-L2P instruments exist only when the cache is enabled, keeping
  // legacy (unbounded-map) metric exports byte-identical.
  if (l2p_enabled()) {
    registry.GetCounter(prefix + "ftl.l2p.hits").Add(l2p_stats_.hits);
    registry.GetCounter(prefix + "ftl.l2p.misses").Add(l2p_stats_.misses);
    registry.GetCounter(prefix + "ftl.l2p.evictions")
        .Add(l2p_stats_.evictions);
    registry.GetCounter(prefix + "ftl.l2p.map_writes")
        .Add(l2p_stats_.map_writes);
    registry.GetCounter(prefix + "ftl.l2p.replay_rebuilt_pages")
        .Add(l2p_stats_.replay_rebuilt_pages);
    registry.GetGauge(prefix + "ftl.l2p.resident_pages")
        .Add(static_cast<double>(l2p_resident_pages_));
    registry.GetGauge(prefix + "ftl.l2p.dirty_pages")
        .Add(static_cast<double>(l2p_dirty_pages_));
    registry.GetGauge(prefix + "ftl.l2p.map_pages")
        .Add(static_cast<double>(map_slot_.size()));
  }
  chip_->CollectMetrics(registry, prefix);
}

Status Ftl::CheckInvariants() const {
  const FlashGeometry& geometry = config_.geometry;

  // 1. mapping -> reverse consistency and mapped/buffered tallies.
  uint64_t mapped = 0;
  uint64_t buffered[kStreams] = {0, 0};
  for (uint64_t lpo = 0; lpo < mapping_.size(); ++lpo) {
    const uint64_t entry = mapping_[lpo];
    if (entry == kUnmapped) {
      continue;
    }
    ++mapped;
    if (entry == kGathered) {
      return InternalError("gather sentinel left in mapping at lpo " +
                           std::to_string(lpo));
    }
    if (entry == kInBufferHost) {
      ++buffered[0];
      continue;
    }
    if (entry == kInBufferGc) {
      ++buffered[1];
      continue;
    }
    if (entry >= reverse_.size()) {
      return InternalError("mapping points past physical space at lpo " +
                           std::to_string(lpo));
    }
    if (reverse_[entry] != lpo) {
      return InternalError("reverse map mismatch at lpo " +
                           std::to_string(lpo));
    }
  }
  if (mapped != mapped_opages_) {
    return InternalError("mapped_opages tally off: counted " +
                         std::to_string(mapped) + " vs " +
                         std::to_string(mapped_opages_));
  }
  for (size_t stream = 0; stream < kStreams; ++stream) {
    if (buffered[stream] != frontiers_[stream].buffer_valid) {
      return InternalError("buffer_valid tally off for stream " +
                           std::to_string(stream));
    }
  }

  // 2. reverse -> mapping consistency and per-block valid counts.
  std::vector<uint32_t> valid_per_block(geometry.total_blocks(), 0);
  for (uint64_t slot = 0; slot < reverse_.size(); ++slot) {
    const uint64_t lpo = reverse_[slot];
    if (lpo == kSlotFree) {
      continue;
    }
    if (IsMapLpo(lpo)) {
      const uint64_t p = lpo - kMapLpoBase;
      if (p >= map_slot_.size() || map_slot_[p] != slot) {
        return InternalError("dangling map-page reverse entry at slot " +
                             std::to_string(slot));
      }
    } else if (lpo >= mapping_.size() || mapping_[lpo] != slot) {
      return InternalError("dangling reverse entry at slot " +
                           std::to_string(slot));
    }
    ++valid_per_block[geometry.BlockOfFPage(geometry.FPageOfSlot(slot))];
  }
  for (BlockIndex block = 0; block < geometry.total_blocks(); ++block) {
    if (valid_per_block[block] != block_valid_[block]) {
      return InternalError("block_valid off for block " +
                           std::to_string(block));
    }
  }

  // 3. page-state tallies: usable capacity, limbo counts, dead pages.
  uint64_t usable = 0;
  uint64_t dead = 0;
  std::vector<uint64_t> limbo(limbo_counts_.size(), 0);
  for (FPageIndex fpage = 0; fpage < geometry.total_fpages(); ++fpage) {
    switch (page_state_[fpage]) {
      case PageState::kInService:
        usable += geometry.opages_per_fpage - page_level_[fpage];
        break;
      case PageState::kLimbo:
        if (page_level_[fpage] >= limbo.size()) {
          return InternalError("limbo page with absurd level");
        }
        ++limbo[page_level_[fpage]];
        break;
      case PageState::kDead:
        if (page_level_[fpage] != kDeadLevel) {
          return InternalError("dead page without dead level marker");
        }
        ++dead;
        break;
    }
  }
  if (usable != usable_opages_) {
    return InternalError("usable_opages tally off: counted " +
                         std::to_string(usable) + " vs " +
                         std::to_string(usable_opages_));
  }
  if (dead != dead_fpages_) {
    return InternalError("dead_fpages tally off");
  }
  for (size_t level = 0; level < limbo.size(); ++level) {
    if (limbo[level] != limbo_counts_[level]) {
      return InternalError("limbo count off at level " +
                           std::to_string(level));
    }
  }
  uint64_t reclaimable = 0;
  for (size_t level = 0;
       level <= config_.max_usable_level && level < limbo.size(); ++level) {
    reclaimable += (geometry.opages_per_fpage - level) * limbo[level];
  }
  if (reclaimable != reclaimable_limbo_opages_) {
    return InternalError("reclaimable_limbo_opages off: counted " +
                         std::to_string(reclaimable) + " vs " +
                         std::to_string(reclaimable_limbo_opages_));
  }

  // 4. block-state sanity: free count and retired tally.
  uint64_t free_count = 0;
  uint64_t retired = 0;
  for (BlockIndex block = 0; block < geometry.total_blocks(); ++block) {
    switch (block_state_[block]) {
      case BlockState::kFree:
        ++free_count;
        break;
      case BlockState::kRetired:
        ++retired;
        if (block_valid_[block] != 0) {
          return InternalError("retired block holds valid data");
        }
        break;
      default:
        break;
    }
  }
  if (free_count != free_blocks_) {
    return InternalError("free_blocks tally off");
  }
  if (retired != retired_blocks_) {
    return InternalError("retired_blocks tally off");
  }

  // 5. Bounded-L2P cache bookkeeping. Capacity is deliberately NOT asserted:
  // internal touch points over-admit and evictions can be deferred past an
  // out-of-space flush failure, so transient overshoot is legal.
  if (l2p_enabled()) {
    uint64_t resident = 0;
    uint64_t dirty = 0;
    for (uint64_t p = 0; p < map_slot_.size(); ++p) {
      if (l2p_dirty_[p] && !l2p_resident_[p]) {
        return InternalError("dirty non-resident map page " +
                             std::to_string(p));
      }
      resident += l2p_resident_[p];
      dirty += l2p_dirty_[p];
      const uint64_t slot = map_slot_[p];
      if (slot != kUnmappedSlot) {
        if (slot >= reverse_.size() ||
            reverse_[slot] != kMapLpoBase + p) {
          return InternalError("map page " + std::to_string(p) +
                               " flash slot not owned in reverse map");
        }
      }
    }
    if (resident != l2p_resident_pages_) {
      return InternalError("l2p resident_pages tally off");
    }
    if (dirty != l2p_dirty_pages_) {
      return InternalError("l2p dirty_pages tally off");
    }
    uint64_t walked = 0;
    uint64_t prev = kLruNil;
    for (uint64_t p = l2p_lru_head_; p != kLruNil; p = l2p_lru_next_[p]) {
      if (++walked > l2p_resident_pages_) {
        return InternalError("l2p LRU list cycle or overrun");
      }
      if (!l2p_resident_[p]) {
        return InternalError("non-resident map page on LRU list");
      }
      if (l2p_lru_prev_[p] != prev) {
        return InternalError("l2p LRU prev link broken at page " +
                             std::to_string(p));
      }
      prev = p;
    }
    if (walked != l2p_resident_pages_) {
      return InternalError("l2p LRU list length off");
    }
    if (l2p_lru_tail_ != prev) {
      return InternalError("l2p LRU tail mismatch");
    }
  }
  return OkStatus();
}

}  // namespace salamander
