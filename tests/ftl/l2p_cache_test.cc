// Bounded L2P map cache: eviction edge cases (cache size 1, cache == map
// size, trim of a cached-dirty entry, eviction during GC relocation),
// map-write wear accounting, and crash-replay over the torn-map-page
// surface. The broad every-boundary × every-tear sweep lives in
// bench/crash_sweep --l2p-cache-entries; these tests pin the individual
// contracts with hand-picked states.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "ftl/ftl.h"
#include "ftl/journal.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestFtlConfig;
using testing_util::TinyGeometry;

// Small map pages (8 entries instead of the auto opage_bytes/8 = 512) so a
// 64-lpo logical space spans 8 map pages and eviction pressure is reachable
// at test scale. `cache_entries` is in L2P entries, like the config knob:
// 8 entries = a single-page cache.
Ftl MakeL2pFtl(uint64_t cache_entries, uint64_t logical_opages = 64,
               uint64_t journal_capacity = 0) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/1000000);
  config.l2p_cache_entries = cache_entries;
  config.l2p_entries_per_map_page = 8;
  config.journal_capacity_records = journal_capacity;
  Ftl ftl(config);
  ftl.ExtendLogicalSpace(logical_opages);
  ftl.SyncJournal();
  return ftl;
}

uint64_t CountMapFlushRecords(const Ftl& ftl) {
  uint64_t n = 0;
  for (const JournalRecord& r : ftl.journal().records()) {
    n += r.type == JournalRecordType::kMapFlush;
  }
  return n;
}

TEST(FtlL2pCacheTest, DisabledByDefaultDrawsNothing) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), 1000000);
  ASSERT_EQ(config.l2p_cache_entries, 0u);
  Ftl ftl(config);
  ftl.ExtendLogicalSpace(64);
  for (uint64_t lpo = 0; lpo < 64; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  EXPECT_FALSE(ftl.l2p_enabled());
  EXPECT_EQ(ftl.l2p_map_pages(), 0u);
  EXPECT_EQ(ftl.l2p_stats().hits + ftl.l2p_stats().misses +
                ftl.l2p_stats().map_writes,
            0u);
  EXPECT_EQ(CountMapFlushRecords(ftl), 0u);
  ASSERT_TRUE(ftl.CheckInvariants().ok());
}

TEST(FtlL2pCacheTest, CacheSizeOneEvictsAndStaysConsistent) {
  Ftl ftl = MakeL2pFtl(/*cache_entries=*/8);  // one map page resident
  ASSERT_EQ(ftl.l2p_cache_capacity_pages(), 1u);
  ASSERT_EQ(ftl.l2p_map_pages(), 8u);
  for (uint64_t lpo = 0; lpo < 64; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  EXPECT_GT(ftl.l2p_stats().evictions, 0u);
  EXPECT_GT(ftl.l2p_stats().map_writes, 0u);
  EXPECT_LE(ftl.l2p_resident_pages(), 1u);
  EXPECT_EQ(CountMapFlushRecords(ftl), ftl.l2p_stats().map_writes);
  for (uint64_t lpo = 0; lpo < 64; ++lpo) {
    ASSERT_TRUE(ftl.Read(lpo).ok()) << "lpo " << lpo;
  }
  EXPECT_GT(ftl.l2p_stats().misses, 0u);
  ASSERT_TRUE(ftl.CheckInvariants().ok());
}

TEST(FtlL2pCacheTest, CacheCoveringWholeMapNeverEvicts) {
  Ftl ftl = MakeL2pFtl(/*cache_entries=*/64);  // 8 pages = the whole map
  ASSERT_EQ(ftl.l2p_cache_capacity_pages(), ftl.l2p_map_pages());
  for (uint64_t lpo = 0; lpo < 64; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  for (uint64_t lpo = 0; lpo < 64; ++lpo) {
    ASSERT_TRUE(ftl.Read(lpo).ok());
  }
  EXPECT_EQ(ftl.l2p_stats().evictions, 0u);
  EXPECT_EQ(ftl.l2p_stats().map_writes, 0u);
  EXPECT_EQ(ftl.l2p_resident_pages(), ftl.l2p_map_pages());
  EXPECT_GT(ftl.l2p_stats().hits, 0u);
  ASSERT_TRUE(ftl.CheckInvariants().ok());
}

TEST(FtlL2pCacheTest, TrimOfCachedDirtyEntryHoldsAcrossReplay) {
  Ftl ftl = MakeL2pFtl(/*cache_entries=*/8);
  for (uint64_t lpo = 0; lpo < 4; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  ASSERT_TRUE(ftl.Flush().ok());
  ASSERT_TRUE(ftl.Trim(1).ok());  // map page 0 is resident and dirty
  EXPECT_EQ(ftl.PhysicalSlot(1), Ftl::kUnmappedSlot);
  ASSERT_TRUE(ftl.Flush().ok());  // the kTrim record is now durable

  ftl.SimulatePowerLoss(/*torn_records=*/0);
  ASSERT_TRUE(ftl.Replay().ok());
  EXPECT_EQ(ftl.PhysicalSlot(1), Ftl::kUnmappedSlot);
  EXPECT_FALSE(ftl.LpoRolledBack(1));
  for (uint64_t lpo : {0ull, 2ull, 3ull}) {
    EXPECT_NE(ftl.PhysicalSlot(lpo), Ftl::kUnmappedSlot) << "lpo " << lpo;
  }
  ASSERT_TRUE(ftl.CheckInvariants().ok());
}

TEST(FtlL2pCacheTest, EvictionDuringGcRelocationStaysConsistent) {
  // Hot/cold overwrite churn on a single-page cache at 10/16 blocks of
  // logical space: every fourth lpo is rewritten, so GC victims always hold
  // valid cold slots to relocate — and the stride crosses the map-page
  // boundary each cycle, so eviction write-back runs concurrently with the
  // GC pressure it creates (a relocated map image is simply re-flushed).
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/1000000);
  config.l2p_cache_entries = 512;  // one auto-sized (512-entry) map page
  Ftl ftl(config);
  ftl.ExtendLogicalSpace(640);  // 2 map pages, so the cache must thrash
  ftl.SyncJournal();
  for (uint64_t lpo = 0; lpo < 640; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  for (uint64_t i = 0; i < 4000; ++i) {
    ASSERT_TRUE(ftl.Write((i * 4) % 640).ok()) << "write " << i;
  }
  EXPECT_GT(ftl.stats().gc_relocations, 0u);
  EXPECT_GT(ftl.l2p_stats().evictions, 0u);
  EXPECT_GT(ftl.l2p_stats().map_writes, 0u);
  for (uint64_t lpo = 0; lpo < 640; ++lpo) {
    ASSERT_TRUE(ftl.Read(lpo).ok()) << "lpo " << lpo;
  }
  ASSERT_TRUE(ftl.CheckInvariants().ok());
}

TEST(FtlL2pCacheTest, MapWritesAreRealFlashPrograms) {
  // Identical host traffic on a legacy and a bounded FTL: the chip program
  // count must differ by exactly the map-page write-back count.
  FtlConfig legacy_config = TestFtlConfig(TinyGeometry(), 1000000);
  Ftl legacy(legacy_config);
  legacy.ExtendLogicalSpace(64);
  Ftl bounded = MakeL2pFtl(/*cache_entries=*/8);
  for (uint64_t lpo = 0; lpo < 64; ++lpo) {
    ASSERT_TRUE(legacy.Write(lpo).ok());
    ASSERT_TRUE(bounded.Write(lpo).ok());
  }
  const uint64_t map_writes = bounded.l2p_stats().map_writes;
  EXPECT_GT(map_writes, 0u);
  EXPECT_EQ(bounded.chip().total_programs(),
            legacy.chip().total_programs() + map_writes);
}

TEST(FtlL2pCacheTest, TornMapFlushRollsBackOnlyTheMapPage) {
  Ftl ftl = MakeL2pFtl(/*cache_entries=*/8);
  for (uint64_t lpo = 0; lpo < 8; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());  // two full fPages, 8 kMap records
  }
  // Touching map page 1 evicts dirty page 0; the write-back syncs the kMap
  // records, programs the image, then appends its kMapFlush *unsynced*.
  ASSERT_TRUE(ftl.Write(8).ok());
  ASSERT_EQ(CountMapFlushRecords(ftl), 1u);
  ASSERT_EQ(ftl.journal().unsynced(), 1u);

  // Tear exactly the kMapFlush: the map-page image is orphaned, but every
  // host mapping it imaged is durable as delta records — nothing user-
  // visible rolls back except the still-buffered lpo 8.
  ftl.SimulatePowerLoss(/*torn_records=*/1);
  ASSERT_TRUE(ftl.Replay().ok());
  EXPECT_EQ(ftl.MapPageSlot(0), Ftl::kUnmappedSlot);
  EXPECT_TRUE(ftl.LpoRolledBack(8));
  for (uint64_t lpo = 0; lpo < 8; ++lpo) {
    EXPECT_FALSE(ftl.LpoRolledBack(lpo)) << "lpo " << lpo;
    EXPECT_NE(ftl.PhysicalSlot(lpo), Ftl::kUnmappedSlot) << "lpo " << lpo;
    EXPECT_TRUE(ftl.Read(lpo).ok()) << "lpo " << lpo;
  }
  EXPECT_GE(ftl.l2p_stats().replay_rebuilt_pages, 1u);
  ASSERT_TRUE(ftl.CheckInvariants().ok());
}

TEST(FtlL2pCacheTest, SurvivingMapFlushRestoresThePage) {
  Ftl ftl = MakeL2pFtl(/*cache_entries=*/8);
  for (uint64_t lpo = 0; lpo < 8; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  ASSERT_TRUE(ftl.Write(8).ok());  // evicts + flushes map page 0
  ASSERT_TRUE(ftl.Flush().ok());   // kMapFlush now durable
  const uint64_t image_slot = ftl.MapPageSlot(0);
  ASSERT_NE(image_slot, Ftl::kUnmappedSlot);

  ftl.SimulatePowerLoss(/*torn_records=*/0);
  ASSERT_TRUE(ftl.Replay().ok());
  EXPECT_EQ(ftl.MapPageSlot(0), image_slot);
  for (uint64_t lpo = 0; lpo < 8; ++lpo) {
    EXPECT_NE(ftl.PhysicalSlot(lpo), Ftl::kUnmappedSlot) << "lpo " << lpo;
  }
  ASSERT_TRUE(ftl.CheckInvariants().ok());
}

TEST(FtlL2pCacheTest, ReplayWithEmptyDirtySetIsDeterministic) {
  // Single-page cache + an explicit Flush barrier: at most one page is
  // resident and the dirty set at the crash is as small as it gets.
  Ftl ftl = MakeL2pFtl(/*cache_entries=*/8);
  for (uint64_t lpo = 0; lpo < 64; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  ASSERT_TRUE(ftl.Flush().ok());
  ftl.SimulatePowerLoss(/*torn_records=*/0);
  ASSERT_TRUE(ftl.Replay().ok());
  const uint64_t digest = ftl.StateDigest();
  ftl.SimulatePowerLoss(/*torn_records=*/0);
  ASSERT_TRUE(ftl.Replay().ok());
  EXPECT_EQ(ftl.StateDigest(), digest);
  for (uint64_t lpo = 0; lpo < 64; ++lpo) {
    ASSERT_TRUE(ftl.Read(lpo).ok()) << "lpo " << lpo;
  }
}

TEST(FtlL2pCacheTest, ReplayWithFullDirtySetIsDeterministic) {
  // Whole-map cache: every map page is resident and dirty at the crash and
  // no kMapFlush record exists — replay rebuilds purely from delta records.
  Ftl ftl = MakeL2pFtl(/*cache_entries=*/64);
  for (uint64_t lpo = 0; lpo < 64; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  for (uint64_t lpo = 0; lpo < 4; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());  // leaves 4 kMap records unsynced
  }
  ASSERT_EQ(ftl.l2p_dirty_pages(), ftl.l2p_map_pages());
  ftl.SimulatePowerLoss(/*torn_records=*/2);
  ASSERT_TRUE(ftl.Replay().ok());
  const uint64_t digest = ftl.StateDigest();
  ftl.SimulatePowerLoss(/*torn_records=*/0);
  ASSERT_TRUE(ftl.Replay().ok());
  EXPECT_EQ(ftl.StateDigest(), digest);
  ASSERT_TRUE(ftl.CheckInvariants().ok());
}

TEST(FtlL2pCacheTest, CompactionPreservesMapFlushState) {
  // A journal too small for the churn forces compaction with flushed map
  // pages outstanding; the compacted snapshot must replay to working state.
  Ftl ftl = MakeL2pFtl(/*cache_entries=*/8, /*logical_opages=*/64,
                       /*journal_capacity=*/64);
  for (uint64_t i = 0; i < 1500; ++i) {
    ASSERT_TRUE(ftl.Write(i % 64).ok()) << "write " << i;
  }
  ASSERT_GT(ftl.journal().compactions(), 0u);
  ftl.SimulatePowerLoss(/*torn_records=*/0);
  ASSERT_TRUE(ftl.Replay().ok());
  const uint64_t digest = ftl.StateDigest();
  ftl.SimulatePowerLoss(/*torn_records=*/0);
  ASSERT_TRUE(ftl.Replay().ok());
  EXPECT_EQ(ftl.StateDigest(), digest);
  for (uint64_t lpo = 0; lpo < 64; ++lpo) {
    ASSERT_TRUE(ftl.Read(lpo).ok()) << "lpo " << lpo;
  }
  ASSERT_TRUE(ftl.CheckInvariants().ok());
}

TEST(FtlL2pCacheTest, CompactionAfterReplayKeepsPagesWithNoFlashImage) {
  // A whole-map cache never flushes a map page, so after a replay every
  // page's durable content lives only in delta records. A compaction must
  // re-emit all of it: such a page has no flash image to patch forward.
  Ftl ftl = MakeL2pFtl(/*cache_entries=*/64, /*logical_opages=*/64,
                       /*journal_capacity=*/200);
  for (uint64_t lpo = 0; lpo < 64; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  ASSERT_TRUE(ftl.Flush().ok());
  ftl.SimulatePowerLoss(/*torn_records=*/0);
  ASSERT_TRUE(ftl.Replay().ok());

  const uint64_t compactions = ftl.journal().compactions();
  for (uint64_t i = 0; ftl.journal().compactions() == compactions; ++i) {
    ASSERT_LT(i, 10000u) << "the journal never compacted";
    ASSERT_TRUE(ftl.Write(i % 4).ok());
  }
  ASSERT_TRUE(ftl.Flush().ok());
  ftl.SimulatePowerLoss(/*torn_records=*/0);
  ASSERT_TRUE(ftl.Replay().ok());
  for (uint64_t lpo = 0; lpo < 64; ++lpo) {
    EXPECT_FALSE(ftl.LpoRolledBack(lpo)) << "lpo " << lpo;
    EXPECT_TRUE(ftl.Read(lpo).ok()) << "lpo " << lpo;
  }
  ASSERT_TRUE(ftl.CheckInvariants().ok());
}

TEST(FtlL2pCacheTest, ExtendGrowsTheMapPageTable) {
  Ftl ftl = MakeL2pFtl(/*cache_entries=*/8, /*logical_opages=*/16);
  ASSERT_EQ(ftl.l2p_map_pages(), 2u);
  ftl.ExtendLogicalSpace(48);
  ftl.SyncJournal();
  EXPECT_EQ(ftl.l2p_map_pages(), 8u);
  for (uint64_t lpo = 0; lpo < 64; ++lpo) {
    ASSERT_TRUE(ftl.Write(lpo).ok());
  }
  ftl.SimulatePowerLoss(/*torn_records=*/0);
  ASSERT_TRUE(ftl.Replay().ok());
  EXPECT_EQ(ftl.l2p_map_pages(), 8u);
  ASSERT_TRUE(ftl.CheckInvariants().ok());
}

// MapPageOf shifts for a power-of-two map page and divides otherwise; both
// arms must equal plain division. The odd map page runs on an odd geometry
// so every index helper takes its divide arm.
TEST(FtlL2pCacheTest, MapPageOfMatchesDivision) {
  FlashGeometry odd = TinyGeometry();
  odd.fpages_per_block = 6;
  odd.opages_per_fpage = 3;
  for (const auto& [geometry, entries] :
       {std::pair{TinyGeometry(), uint64_t{8}},
        std::pair{TinyGeometry(), uint64_t{0}},  // auto: opage_bytes / 8
        std::pair{odd, uint64_t{24}}}) {
    FtlConfig config = TestFtlConfig(geometry, /*nominal_pec=*/1000000);
    config.ecc_geometry.opages_per_fpage = geometry.opages_per_fpage;
    config.l2p_cache_entries = 64;
    config.l2p_entries_per_map_page = entries;
    Ftl ftl(config);
    ftl.ExtendLogicalSpace(256);
    const uint64_t per_page = ftl.l2p_entries_per_map_page();
    ASSERT_EQ(per_page, entries == 0 ? 512u : entries);
    for (uint64_t lpo = 0; lpo < 4096; ++lpo) {
      ASSERT_EQ(ftl.MapPageOf(lpo), lpo / per_page) << "lpo " << lpo;
    }
    EXPECT_EQ(ftl.MapPageOf(UINT64_MAX), UINT64_MAX / per_page);
  }
}

}  // namespace
}  // namespace salamander
