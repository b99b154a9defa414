// Page-mapped flash translation layer with tiredness tracking (paper §3).
//
// The FTL manages one device: logical oPage space -> physical oPage slots,
// a small NV write buffer that packs oPages into fPages, greedy garbage
// collection, PEC-based wear leveling, and — the Salamander part — per-fPage
// tiredness levels with limbo accounting (Eq. 1). Tiredness transitions are
// queued as events; the minidisk layer above drains them and decides
// decommissioning (Eq. 2) and regeneration.
//
// Level recomputation happens at block-erase time: the paper models RBER as
// a function of P/E cycles only ("for simplicity we only consider RBER due
// to aging", §4), and PEC changes exactly at erase. A page that changes
// level is empty at that moment (GC relocated its data before the erase), so
// transitions never require data movement of their own.
//
// Construction pays only for what the device can use: the tiredness ladder
// comes from ComputeTirednessLadder, computed once per ECC geometry per
// process, and the metadata journal is kept only when FtlConfig::journaled
// says a power loss can reach the device (FleetSim decides that per fleet).
#ifndef SALAMANDER_FTL_FTL_H_
#define SALAMANDER_FTL_FTL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "ecc/tiredness.h"
#include "flash/flash_chip.h"
#include "flash/geometry.h"
#include "flash/wear_model.h"
#include "ftl/journal.h"
#include "telemetry/metrics.h"

namespace salamander {

// How worn flash is retired from service at its current tiredness level.
enum class RetirementGranularity {
  // Salamander: each fPage retires individually, exploiting the large
  // page-to-page endurance variance within a block ([41, 42]).
  kPage,
  // Conventional SSD firmware and CVSS [16]: the whole erase block retires
  // when its worst page can no longer meet the ECC requirement — wasting
  // "much of the remaining lifetime of stronger pages within blocks" (§4),
  // but preserving reliability.
  kBlockWorstPage,
  // Ablation only: retire on *average* block RBER. This postpones
  // retirement past the point where the block's weak pages are unreliable
  // (uncorrectable reads), trading UBER for capacity — no shipping design
  // does this; it is kept to quantify the averaging effect.
  kBlockAverage,
};

// Where the extra ECC of tired (L >= 1) pages lives (§4.2).
enum class EccPlacement : uint8_t {
  // Repurposed oPages inside the same fPage: reads are self-contained but a
  // 16 KiB access spans extra fPages — the 4/(4-L) penalty of Fig. 3c/3d.
  kInline,
  // Parity concentrated in dedicated fPages (one parity fPage per (4-L)/L
  // data fPages at level L): data pages keep all four oPages, restoring
  // large-access geometry; reads pay an extra parity-page access on an ECC
  // cache miss, and writes pay the parity programs.
  kDedicated,
};

struct FtlConfig {
  FlashGeometry geometry;
  WearModelConfig wear;
  FlashLatencyConfig latency;
  FPageEccGeometry ecc_geometry;

  EccPlacement ecc_placement = EccPlacement::kInline;
  // Probability that a dedicated parity page is already cached in controller
  // RAM when a tired-page read needs it (ECC caching per [23, 44-46]).
  double dedicated_ecc_cache_hit = 0.9;

  // Highest tiredness level whose pages may still store data.
  //   0  -> fixed ECC (baseline SSDs, CVSS, ShrinkS)
  //   1  -> RegenS with the paper's recommended L < 2 cap
  //   2+ -> RegenS extended (ablation)
  // Block-granular retirement modes require 0.
  unsigned max_usable_level = 0;

  RetirementGranularity retirement = RetirementGranularity::kPage;

  // Retire a page from level L once rber > retire_margin * tolerable(L).
  // < 1.0 retires early (conservative firmware); 1.0 uses full capability.
  double retire_margin = 1.0;

  // Garbage collection starts when the free-block pool drops to this size.
  uint32_t gc_low_watermark_blocks = 3;

  // ---- Metadata journal (crash-restart recovery) -------------------------
  // Whether this FTL keeps a metadata journal at all. The journal exists only
  // where a power loss can reach the device: it is what SimulatePowerLoss
  // tears and Replay rebuilds from, and only that path reads it. Clusters,
  // crash harnesses and standalone devices keep the default; FleetSim clears
  // it for fleets no power loss can reach (see FleetPowerLossPossible). An
  // unjournaled FTL skips every append, sync and compaction, and aborts on
  // SimulatePowerLoss or Replay; every other behaviour is identical.
  bool journaled = true;
  // Journal region capacity in records; 0 = auto (sized to hold a full state
  // snapshot plus slack). The FTL compacts when the region fills.
  uint64_t journal_capacity_records = 0;

  // ---- Bounded L2P map cache (DRAM-resident map window) ------------------
  // Maximum L2P entries resident in DRAM at once. 0 = legacy unbounded map
  // (byte-identical behavior: no map pages, no extra wear, no extra latency,
  // no Rng perturbation). When > 0 the full map lives on flash as map pages
  // written through the normal flash path (wear-accounted), DRAM holds an
  // LRU window of whole map pages, and dirty map pages are written back on
  // eviction under a journaled kMapFlush durability protocol.
  uint64_t l2p_cache_entries = 0;
  // L2P entries per on-flash map page; 0 = auto (opage_bytes / 8, i.e. 8 B
  // per entry packed into one oPage). Tests use small values to exercise
  // eviction and map-flush boundaries on tiny devices.
  uint64_t l2p_entries_per_map_page = 0;

  uint64_t seed = 1;
};

// Rejects an FtlConfig the FTL cannot run: an invalid flash geometry, flash
// and ECC geometries that disagree on oPages per fPage, block-granular
// retirement above level 0, a max_usable_level that leaves no data oPage, a
// GC watermark below two blocks, or (bounded L2P) map pages that hold no
// entry. The Ftl constructor aborts on any of them in every build mode.
Status ValidateFtlConfig(const FtlConfig& config);

// One tiredness transition, reported to the layer above.
struct PageTransition {
  FPageIndex fpage = 0;
  unsigned old_level = 0;
  unsigned new_level = 0;  // == Ftl::kDeadLevel when the page left service
};

struct FtlStats {
  uint64_t host_writes = 0;      // oPages written by the host
  uint64_t host_reads = 0;       // oPages read by the host
  uint64_t buffer_hits = 0;      // reads served from the NV buffer
  uint64_t gc_relocations = 0;   // oPages moved by GC
  uint64_t flushes = 0;          // fPage programs from the buffer
  uint64_t erases = 0;
  uint64_t uncorrectable_reads = 0;
  uint64_t read_retries = 0;
  uint64_t parity_programs = 0;   // dedicated ECC pages written
  uint64_t ecc_page_reads = 0;    // dedicated ECC page fetches (cache misses)
  uint64_t program_failures = 0;  // fPage programs that failed (page retired)
  uint64_t erase_failures = 0;    // block erases that failed (block retired)
  // Flash reads that completed "cleanly" but delivered miscorrected data
  // (FaultSite::kReadCorrupt). Exact by construction: every injected draw
  // happens under a host read, so this always equals the injector's
  // read_corrupt site count for this device.
  uint64_t silent_corrupt_fpage_reads = 0;
  // Reads served from flash pages at each tiredness level (index = level).
  std::vector<uint64_t> reads_by_level;

  double WriteAmplification() const {
    return host_writes == 0
               ? 1.0
               : 1.0 + static_cast<double>(gc_relocations) /
                           static_cast<double>(host_writes);
  }
};

struct ReadResult {
  SimDuration latency = 0;
  unsigned tiredness_level = 0;
  uint32_t retries = 0;
  bool buffer_hit = false;
  // The backing flash read was silently miscorrected; the caller holds wrong
  // bytes and only an end-to-end checksum can tell.
  bool payload_corrupt = false;
};

// Result of a multi-oPage (large host I/O) read.
struct RangeReadResult {
  SimDuration latency = 0;
  uint32_t fpage_reads = 0;    // distinct flash page reads performed
  unsigned max_level = 0;      // most-tired page touched
  uint32_t buffer_hits = 0;
  uint32_t corrupt_fpage_reads = 0;  // of fpage_reads, silently miscorrected
};

class Ftl {
 public:
  // Sentinel level for pages permanently out of service.
  static constexpr unsigned kDeadLevel = 255;
  static constexpr uint64_t kUnmappedSlot = UINT64_MAX;
  // Map pages occupy physical slots like data, but their reverse-map entries
  // carry kMapLpoBase + map_page_index instead of a host lpo. Host lpos are
  // bounded by logical_opages(), far below this base, so the two namespaces
  // can never collide.
  static constexpr uint64_t kMapLpoBase = 1ULL << 62;
  // NV write-buffer capacity in oPages; a partial fPage is force-flushed
  // when the buffer would overflow.
  static constexpr uint64_t kWriteBufferOPages = 64;
  // Serving a read from the NV buffer.
  static constexpr SimDuration kBufferReadLatency = 2 * kMicrosecond;
  // The journal auto-syncs once this many records are unsynced; the unsynced
  // tail is the bounded torn-write window at power loss.
  static constexpr uint64_t kJournalMaxUnsynced = 32;

  explicit Ftl(const FtlConfig& config);

  const FtlConfig& config() const { return config_; }
  const FlashChip& chip() const { return *chip_; }

  // Wires a chaos injector (not owned; may be nullptr) into the flash chip.
  // Program/erase failures surface as retired pages/blocks; read corruption
  // is *silent* (ECC miscorrection): the read succeeds with
  // ReadResult::payload_corrupt set and silent_corrupt_fpage_reads counted —
  // only the end-to-end checksum layer above can act on it.
  void SetFaultInjector(FaultInjector* faults) {
    chip_->set_fault_injector(faults);
  }
  const FtlStats& stats() const { return stats_; }
  const std::vector<TirednessLevelEcc>& tiredness_ladder() const {
    return ladder_;
  }

  // ---- Logical address space ---------------------------------------------

  // Grows the logical oPage space by `opages`; returns the first new logical
  // page offset. The minidisk layer calls this when carving mDisks.
  uint64_t ExtendLogicalSpace(uint64_t opages);

  // Number of logical oPages ever allocated (decommissioned ranges included).
  uint64_t logical_opages() const { return mapping_.size(); }

  // ---- Host I/O ------------------------------------------------------------

  // Writes one logical oPage. May trigger buffer flushes and GC. On success
  // adds the latency of everything on the critical path to `latency`; on
  // failure leaves it unchanged.
  Status Write(uint64_t lpo, SimDuration& latency);
  // The same write, returning its latency.
  StatusOr<SimDuration> Write(uint64_t lpo) {
    SimDuration latency = 0;
    Status status = Write(lpo, latency);
    if (!status.ok()) {
      return status;
    }
    return latency;
  }

  // Reads one logical oPage. kNotFound if never written or trimmed;
  // kDataLoss if the flash read was uncorrectable after retries. Injected
  // silent corruption instead succeeds with payload_corrupt set.
  StatusOr<ReadResult> Read(uint64_t lpo);

  // Reads `count` consecutive logical oPages as one host I/O. Consecutive
  // oPages backed by the same fPage share a single flash read (only the
  // channel transfer repeats) — this is where RegenS's large-access penalty
  // of 4/(4-L) comes from: an L1 fPage yields 3 oPages per read instead of 4.
  StatusOr<RangeReadResult> ReadRange(uint64_t first_lpo, uint64_t count);

  // Invalidates one logical oPage (no-op if already unmapped).
  Status Trim(uint64_t lpo);

  // Drains the NV write buffer to flash (tests / orderly shutdown).
  Status Flush();

  // ---- Capacity accounting (Eq. 1 / Eq. 2 inputs) --------------------------

  // oPages storable on pages currently in service:
  // sum over in-service fPages of (opages_per_fpage - level).
  uint64_t usable_opages() const { return usable_opages_; }

  // limbo[L]: fPages at level L awaiting regeneration (Eq. 1's limbo sets).
  uint64_t limbo_fpages(unsigned level) const;

  // Total oPage capacity recoverable from limbo pages at usable levels:
  // sum over j <= max_usable_level of (opages_per_fpage - j) * limbo[j].
  // A running total: it changes only where a page enters or leaves limbo.
  uint64_t reclaimable_limbo_opages() const {
    return reclaimable_limbo_opages_;
  }

  // Moves limbo pages (lowest level first) into service until at least
  // `opages` of capacity is claimed; returns the amount actually claimed.
  // Used by minidisk regeneration.
  uint64_t ClaimLimboCapacity(uint64_t opages);

  // oPages the FTL needs as free headroom for GC to make progress.
  uint64_t gc_reserve_opages() const;

  // Wear forecast: capacity (oPages) on in-service pages predicted to leave
  // their current tiredness level within the next `pec_horizon_fraction` of
  // their block's current P/E count (e.g. 0.1 = within ~10% more cycles).
  // O(total fPages); callers should cache between maintenance rounds.
  uint64_t ForecastTiringOPages(double pec_horizon_fraction) const;

  // ---- Bounded L2P map cache ----------------------------------------------

  struct L2pStats {
    uint64_t hits = 0;        // map-page lookups served from the DRAM window
    uint64_t misses = 0;      // lookups that had to fault the map page in
    uint64_t evictions = 0;   // map pages evicted from the DRAM window
    uint64_t map_writes = 0;  // map-page fPage programs (wear-accounted)
    uint64_t replay_rebuilt_pages = 0;  // map pages reconstructed by Replay()
  };

  bool l2p_enabled() const { return config_.l2p_cache_entries > 0; }
  const L2pStats& l2p_stats() const { return l2p_stats_; }
  // L2P entries per on-flash map page (resolved from config; 0 when the
  // bounded cache is disabled).
  uint64_t l2p_entries_per_map_page() const { return l2p_entries_per_page_; }
  uint64_t l2p_map_pages() const { return map_slot_.size(); }
  // Map page holding `lpo`'s L2P entry. L2P paging on only: the divisor is
  // 0 when it is off.
  uint64_t MapPageOf(uint64_t lpo) const {
    return DivideIndex(lpo, l2p_entries_per_page_);
  }
  // DRAM window size in whole map pages (>= 1 when enabled).
  uint64_t l2p_cache_capacity_pages() const { return l2p_capacity_pages_; }
  uint64_t l2p_resident_pages() const { return l2p_resident_pages_; }
  uint64_t l2p_dirty_pages() const { return l2p_dirty_pages_; }
  // Physical slot of map page `map_index`'s newest flushed image, or
  // kUnmappedSlot if the page has never been flushed.
  uint64_t MapPageSlot(uint64_t map_index) const {
    return map_index < map_slot_.size() ? map_slot_[map_index] : kUnmappedSlot;
  }
  // Content of map page `map_index`'s newest image (its last flush, or the
  // last Replay) as Replay restores it: one entry per lpo the image covered,
  // kUnmappedSlot where unmapped, and empty when every entry is unmapped.
  // Built from the current durable mapping and the page's undo list.
  std::vector<uint64_t> MapPageImage(uint64_t map_index) const;

  // Currently mapped (live) logical oPages, including buffered ones.
  uint64_t mapped_opages() const { return mapped_opages_; }

  uint64_t dead_fpages() const { return dead_fpages_; }
  // Blocks permanently retired (every page dead).
  uint64_t retired_blocks() const { return retired_blocks_; }
  uint64_t free_blocks() const { return free_blocks_; }

  // ---- Events ---------------------------------------------------------------

  // Returns and clears the queued tiredness transitions. The layer above
  // calls this after each host operation; reacting outside the FTL's call
  // stack avoids reentrancy during GC.
  std::vector<PageTransition> TakeTransitions();
  // True when TakeTransitions() would return a non-empty batch.
  bool HasTransitions() const { return !transitions_.empty(); }

  // ---- Introspection for tests ----------------------------------------------

  // Scrapes FtlStats, capacity/limbo gauges, and the underlying chip's
  // "<prefix>flash.*" instruments into "<prefix>ftl.*". Additive — collect
  // once per device (see telemetry/collect.h).
  void CollectMetrics(MetricRegistry& registry,
                      const std::string& prefix = "") const;

  // Full-consistency audit of the FTL's internal accounting (mapping <->
  // reverse map, per-block valid counts, usable/limbo/dead tallies, buffer
  // counters, free-pool sanity). O(device size); used by tests and
  // debug builds. Returns kInternal with a description on the first
  // violation found.
  Status CheckInvariants() const;

  // ---- Crash-restart recovery ---------------------------------------------

  // Appends a record through the FTL's sync/compaction policy. Used by the
  // minidisk layer for mDisk lifecycle records; everything else is journaled
  // internally at the mutation sites.
  void AppendJournalRecord(const JournalRecord& record) {
    JournalAppend(record);
  }
  // Explicit durability barrier (also taken on every host Flush()).
  void SyncJournal() { journal_.Sync(); }
  // Always empty (zero appends, syncs and compactions) when
  // FtlConfig::journaled is false.
  const FtlJournal& journal() const { return journal_; }

  // Models a power loss: the volatile write buffers are dropped (their
  // logical pages roll back to their last durable version, or to unmapped),
  // and `torn_records` unsynced journal-tail records are discarded (never
  // crossing the sync barrier). Deterministic — performs no Rng draws; the
  // caller decides the torn count (e.g. FaultInjector::TornJournalRecords).
  // The FTL must not serve I/O until Replay() rebuilds it. Aborts, in every
  // build mode, on an unjournaled FTL: there is nothing to recover from.
  void SimulatePowerLoss(uint64_t torn_records);

  // Rebuilds the full FTL state from the journal and the surviving physical
  // flash state (PECs, programmed bitmap): mapping and reverse map, page
  // levels/states and their tallies, block states, free pool and GC
  // candidate list. Write frontiers restart empty; partially-programmed
  // ex-active blocks are sealed (NAND forbids resuming their program order).
  // Mappings whose backing slot was destroyed are discarded and flagged
  // rolled back. Returns CheckInvariants() on the rebuilt state. Aborts, in
  // every build mode, on an unjournaled FTL.
  Status Replay();

  // True if the last acknowledged write (or trim) of `lpo` was lost to a
  // power loss — its content reverted to an older durable version or to
  // unmapped. Cleared by the next write or trim of the page. The diFS uses
  // this as the device-side staleness signal when reconciling a returned
  // device (the simulator stores no user bytes to checksum).
  bool LpoRolledBack(uint64_t lpo) const {
    return rolled_back_.count(lpo) != 0;
  }
  uint64_t rolled_back_count() const { return rolled_back_.size(); }
  uint64_t journal_replays() const { return journal_replays_; }
  uint64_t power_losses() const { return power_losses_; }

  // Order-independent FNV-1a digest over the complete logical state
  // (mapping, page levels/states, block states, tallies, rolled-back set,
  // journal position). Two FTLs with equal digests behave identically;
  // replay determinism tests compare digests. An unjournaled FTL hashes its
  // journal position as 0/0 (size/synced), so its digest differs from a
  // journaled twin's only in that position.
  uint64_t StateDigest() const;

  unsigned PageLevel(FPageIndex fpage) const { return page_level_[fpage]; }
  bool PageInService(FPageIndex fpage) const {
    return page_state_[fpage] == PageState::kInService;
  }
  // Physical slot currently backing a logical page; kUnmappedSlot if the page
  // is unmapped or still in the buffer.
  uint64_t PhysicalSlot(uint64_t lpo) const;
  uint64_t buffered_opages() const {
    return frontiers_[0].buffer_valid + frontiers_[1].buffer_valid;
  }

 private:
  enum class PageState : uint8_t {
    kInService,  // storing data or available for programming
    kLimbo,      // retired from its previous level, awaiting regeneration
    kDead,       // beyond the max usable level
  };
  enum class BlockState : uint8_t {
    kFree,     // erased, in the allocation pool
    kActive,   // currently being programmed
    kInUse,    // fully programmed; GC candidate
    kParked,   // erased but holding only limbo/dead pages
    kRetired,  // every page dead; permanently out of service
  };

  // Separate write streams ("frontiers"): host writes and GC relocations
  // each fill their own active block, as in production FTLs. This keeps
  // host-sequential data physically contiguous (GC churn does not splice
  // into it) and gives a mild hot/cold separation that lowers WAF.
  // kMap is the metadata stream for L2P map-page programs (bounded cache
  // only); it bypasses the NV buffer, so kStreams keeps counting only the
  // two buffered data streams and every loop over them stays untouched.
  enum class Stream : uint8_t { kHost = 0, kGc = 1, kMap = 2 };
  static constexpr size_t kStreams = 2;

  static constexpr uint64_t kInBufferHost = UINT64_MAX - 2;
  static constexpr uint64_t kInBufferGc = UINT64_MAX - 1;
  static constexpr uint64_t kUnmapped = UINT64_MAX;
  // Marks an lpo FlushToTarget's gather has taken; it never outlives the
  // gather (CheckInvariants rejects it).
  static constexpr uint64_t kGathered = UINT64_MAX - 3;
  static constexpr uint64_t kSlotFree = UINT64_MAX;

  static constexpr bool IsBuffered(uint64_t entry) {
    return entry == kInBufferHost || entry == kInBufferGc;
  }
  static constexpr uint64_t BufferSentinel(Stream stream) {
    return stream == Stream::kHost ? kInBufferHost : kInBufferGc;
  }
  static constexpr bool IsMapLpo(uint64_t lpo) { return lpo >= kMapLpoBase; }
  // The flash-acknowledged value of a mapping entry: buffered pages have no
  // durable version yet.
  static constexpr uint64_t DurableOf(uint64_t entry) {
    return IsBuffered(entry) ? kUnmapped : entry;
  }
  static constexpr uint64_t kLruNil = UINT64_MAX;

  // --- write path ---
  // Places a host write of `lpo` in the host stream's buffer (GC relocation
  // fills the GC stream's buffer itself, in GarbageCollectOnce).
  Status BufferWrite(uint64_t lpo, SimDuration& latency);
  // Programs the stream's buffer while it fills the next target page or
  // overflows. Most calls find nothing to do: when the cursor page of the
  // active block is in service, NextProgramTarget would return it with no
  // side effects, so a buffer that neither fills that page nor overflows
  // stays buffered. That test is made here, inline; the rest is
  // FlushIfReadySlow.
  Status FlushIfReady(Stream stream, SimDuration& latency) {
    const Frontier& f = frontier(stream);
    if (f.has_active_block &&
        f.next_page < config_.geometry.fpages_per_block) {
      const FPageIndex cursor =
          config_.geometry.FirstFPageOfBlock(f.active_block) + f.next_page;
      if (page_state_[cursor] == PageState::kInService &&
          f.buffer_valid < PageCapacity(cursor) &&
          f.buffer.size() <= kWriteBufferOPages) {
        return OkStatus();
      }
    }
    return FlushIfReadySlow(stream, latency);
  }
  Status FlushIfReadySlow(Stream stream, SimDuration& latency);
  // Programs the next target fPage from the stream's buffer; `allow_partial`
  // permits programming with fewer oPages than the page holds.
  Status FlushToTarget(Stream stream, bool allow_partial,
                       SimDuration& latency);
  // Next programmable, in-service fPage of the stream's active block;
  // allocates a new active block (possibly via GC) when needed. Does not
  // advance the cursor.
  StatusOr<FPageIndex> NextProgramTarget(Stream stream, SimDuration& latency);
  Status AllocateActiveBlock(Stream stream, SimDuration& latency);
  Status MaybeGarbageCollect(SimDuration& latency);
  Status GarbageCollectOnce(SimDuration& latency);
  Status EraseAndRecycle(BlockIndex block, SimDuration& latency);

  // --- tiredness ---
  unsigned ComputeLevel(FPageIndex fpage, unsigned current) const;
  void ApplyLevelTransitions(BlockIndex block);
  void RetireInServicePage(FPageIndex fpage, unsigned old_level,
                           unsigned new_level);
  void AdvanceLimboPage(FPageIndex fpage, unsigned old_level,
                        unsigned new_level);
  // Count one page into or out of limbo at `level`, keeping
  // reclaimable_limbo_opages_ in step with limbo_counts_.
  void AddLimbo(unsigned level);
  void RemoveLimbo(unsigned level);

  // --- helpers ---
  void InvalidateSlot(OPageSlot slot);
  EccParams EccForOPageRead(unsigned level) const;
  // oPages a data program of `fpage` stores. Under dedicated placement data
  // pages keep every oPage; the ECC overhead is paid in whole parity pages
  // via MaybeProgramParityPage, averaging to the same (opages_per_fpage - L)
  // per page that the accounting assumes.
  uint64_t PageCapacity(FPageIndex fpage) const {
    if (config_.ecc_placement == EccPlacement::kDedicated) {
      return config_.geometry.opages_per_fpage;
    }
    return config_.geometry.opages_per_fpage - page_level_[fpage];
  }
  // Extra latency charged when a read touches a tired page under dedicated
  // ECC placement (parity-page fetch on cache miss).
  SimDuration DedicatedEccReadPenalty(unsigned level);
  // If the dedicated-ECC cadence says a parity page is due before `target`
  // can hold data, programs it and advances the cursor. Sets `consumed`.
  // Called only under EccPlacement::kDedicated.
  Status MaybeProgramParityPage(Stream stream, FPageIndex target,
                                bool& consumed, SimDuration& latency);
  BlockIndex PickGcVictim();
  void ReactivateIfParked(BlockIndex block);

  // --- bounded L2P map cache ---
  // Grows the map-page arrays to cover the logical space (constructor,
  // ExtendLogicalSpace, and kExtend replay).
  void L2pGrow();
  // Registers a map-page access: LRU bump, hit/miss accounting, and the
  // deterministic fault-in latency of a non-resident flashed page. Never
  // evicts — public ops call L2pEvictToCapacity afterwards, internal touches
  // (GC relocation, buffer flush) over-admit and leave eviction to the
  // enclosing public op.
  void L2pTouch(uint64_t lpo, bool make_dirty, SimDuration& latency);
  // Evicts LRU-tail map pages (dirty ones flush to flash first) until the
  // window is back within capacity. Single bounded pass; on an eviction
  // flush error the pass stops and the overshoot drains on a later op.
  void L2pEvictToCapacity(SimDuration& latency);
  // Writes map page `map_index`'s current durable content to flash under the
  // kMapFlush protocol: journal sync (write-ahead) -> fPage program on the
  // kMap stream -> old-image slot invalidated -> undo list cleared ->
  // unsynced kMapFlush record (the torn-map-page crash surface).
  Status FlushMapPage(uint64_t map_index, SimDuration& latency);
  // Before the first replay, a map page that was never flushed still has the
  // all-unmapped image it started with: nothing it changes is recorded.
  bool L2pImageIsBlank(uint64_t map_index) const;
  // Map page `map_index`'s undo list, allocated on first use.
  struct MapPageUndo;
  MapPageUndo& L2pUndo(uint64_t map_index);
  // Called just before `lpo`'s durable value, `durable`, changes: the first
  // change since its page's image records that value in the undo list.
  void L2pNoteChange(uint64_t lpo, uint64_t durable);
  // Called when the logical space grows from `old_size`, which ends inside
  // a map page: that page's image keeps covering only its old lpos.
  void L2pNoteGrowth(uint64_t old_size);
  // The page's image now equals its durable content: empty its undo list.
  void L2pClearUndo(uint64_t map_index);
  bool UnsyncedTailHasMapFlush() const;
  void L2pLruRemove(uint64_t map_index);
  void L2pLruPushFront(uint64_t map_index);
  // Replay pass 1: overwrite a map page's entries from `image`, the page's
  // newest image as MapPageImage built it before the replay began.
  void ReplayRestoreMapPage(uint64_t map_index,
                            const std::vector<uint64_t>& image);

  // --- journal ---
  // Append with the auto-sync and at-capacity compaction policy applied; a
  // no-op when the FTL is unjournaled. Every record enters the journal here,
  // so an unjournaled journal stays empty and the explicit Sync() barriers
  // elsewhere find nothing to sync.
  void JournalAppend(const JournalRecord& record);
  // Aborts (every build mode) if the FTL keeps no journal; `op` names the
  // caller in the message.
  void RequireJournaled(const char* op) const;
  void JournalPageState(FPageIndex fpage);
  // Rewrites the journal as a minimal description of current state.
  void CompactJournal();

  FtlConfig config_;
  std::unique_ptr<FlashChip> chip_;
  std::vector<TirednessLevelEcc> ladder_;
  FtlStats stats_;
  Rng rng_;

  // Logical -> physical (OPageSlot), or kInBuffer / kUnmapped.
  std::vector<uint64_t> mapping_;
  // Physical slot -> logical page, or kSlotFree.
  std::vector<uint64_t> reverse_;
  uint64_t mapped_opages_ = 0;

  // Per-fPage tiredness level (kDeadLevel when dead) and service state.
  std::vector<uint8_t> page_level_;
  std::vector<PageState> page_state_;
  std::vector<uint64_t> limbo_counts_;             // per level
  uint64_t reclaimable_limbo_opages_ = 0;  // see reclaimable_limbo_opages()
  std::vector<std::vector<FPageIndex>> limbo_pages_;  // per level, lazy
  uint64_t usable_opages_ = 0;
  uint64_t dead_fpages_ = 0;
  uint64_t retired_blocks_ = 0;

  // Per-block bookkeeping.
  std::vector<BlockState> block_state_;
  std::vector<uint32_t> block_valid_;  // valid oPages on flash in this block
  std::vector<BlockIndex> in_use_blocks_;  // lazy list of GC candidates
  std::vector<uint8_t> in_use_listed_;     // per block: is in the list above
  // Free pool ordered by PEC (lazy entries; validated on pop).
  using PecBlock = std::pair<uint32_t, BlockIndex>;
  std::priority_queue<PecBlock, std::vector<PecBlock>, std::greater<PecBlock>>
      free_pool_;
  uint64_t free_blocks_ = 0;

  struct Frontier {
    BlockIndex active_block = 0;
    bool has_active_block = false;
    uint32_t next_page = 0;  // next page offset to consider
    // NV write buffer: FIFO of logical pages (entries may go stale on trim).
    std::deque<uint64_t> buffer;
    uint64_t buffer_valid = 0;
    // Dedicated-ECC cadence: tired data pages programmed since the last
    // parity page, per level (index = tiredness level).
    uint32_t data_since_parity[8] = {};
  };
  Frontier frontiers_[kStreams];
  // FlushToTarget's gather of one fPage's lpos, reused across flushes.
  std::vector<uint64_t> flush_batch_;
  Frontier& frontier(Stream stream) {
    return stream == Stream::kMap ? map_frontier_
                                  : frontiers_[static_cast<size_t>(stream)];
  }

  std::vector<PageTransition> transitions_;
  bool in_gc_ = false;

  // --- bounded L2P map cache state (all empty/zero when disabled) ---
  uint64_t l2p_entries_per_page_ = 0;  // resolved from config at construction
  uint64_t l2p_capacity_pages_ = 0;
  // Per map page: physical slot of the newest flushed image (kUnmappedSlot if
  // never flushed).
  std::vector<uint64_t> map_slot_;
  // Per map page, what changed in its durable content since its newest
  // image (its last flush, or the last Replay). The first change of an lpo
  // records the value the image holds for it, so the image is the durable
  // content with the list applied, and a flush costs O(changes). Replay
  // rebuilds each image this way as its reconstruction base under a
  // surviving kMapFlush; compaction emits the list as delta records. Null
  // until the page's first change.
  struct MapPageUndo {
    static constexpr uint64_t kWholePage = UINT64_MAX;
    std::vector<std::pair<uint64_t, uint64_t>> entries;  // (lpo, imaged)
    std::vector<uint64_t> noted;  // bitmap over the page: lpo has an entry
    // Entries the image covers, when the logical space has grown into the
    // page since the image was taken.
    uint64_t image_extent = kWholePage;
  };
  std::vector<std::unique_ptr<MapPageUndo>> map_undo_;
  std::vector<uint8_t> l2p_resident_;
  std::vector<uint8_t> l2p_dirty_;  // diverged from the flushed image
  // Intrusive LRU over resident map pages; head = most recent.
  std::vector<uint64_t> l2p_lru_prev_;
  std::vector<uint64_t> l2p_lru_next_;
  uint64_t l2p_lru_head_ = kLruNil;
  uint64_t l2p_lru_tail_ = kLruNil;
  uint64_t l2p_resident_pages_ = 0;
  uint64_t l2p_dirty_pages_ = 0;
  // Map-page programs bypass the NV buffer but still fill their own active
  // block through the shared target-selection path.
  Frontier map_frontier_;
  L2pStats l2p_stats_;

  // --- crash-restart recovery ---
  FtlJournal journal_;
  // Logical pages whose acknowledged content was lost at a power loss.
  std::unordered_set<uint64_t> rolled_back_;
  uint64_t journal_replays_ = 0;
  uint64_t power_losses_ = 0;
};

}  // namespace salamander

#endif  // SALAMANDER_FTL_FTL_H_
