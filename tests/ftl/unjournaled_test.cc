// Unjournaled FTL oracle: an FTL built with FtlConfig::journaled = false must
// behave exactly like its journaled twin on every crash-free op mix — same
// stats, same physical placement, same tiredness levels, same transitions —
// while its journal stays empty. Power loss and replay abort on it in every
// build mode: nothing could be recovered.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ftl/ftl.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestFtlConfig;
using testing_util::TinyGeometry;

void ExpectSameStats(const FtlStats& a, const FtlStats& b) {
  EXPECT_EQ(a.host_writes, b.host_writes);
  EXPECT_EQ(a.host_reads, b.host_reads);
  EXPECT_EQ(a.buffer_hits, b.buffer_hits);
  EXPECT_EQ(a.gc_relocations, b.gc_relocations);
  EXPECT_EQ(a.flushes, b.flushes);
  EXPECT_EQ(a.erases, b.erases);
  EXPECT_EQ(a.uncorrectable_reads, b.uncorrectable_reads);
  EXPECT_EQ(a.read_retries, b.read_retries);
  EXPECT_EQ(a.parity_programs, b.parity_programs);
  EXPECT_EQ(a.ecc_page_reads, b.ecc_page_reads);
  EXPECT_EQ(a.program_failures, b.program_failures);
  EXPECT_EQ(a.erase_failures, b.erase_failures);
  EXPECT_EQ(a.silent_corrupt_fpage_reads, b.silent_corrupt_fpage_reads);
  EXPECT_EQ(a.reads_by_level, b.reads_by_level);
}

void ExpectSameTransitions(const std::vector<PageTransition>& a,
                           const std::vector<PageTransition>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fpage, b[i].fpage) << "transition " << i;
    EXPECT_EQ(a[i].old_level, b[i].old_level) << "transition " << i;
    EXPECT_EQ(a[i].new_level, b[i].new_level) << "transition " << i;
  }
}

// Physical placement, levels and capacity tallies, compared in full.
void ExpectSameState(const Ftl& a, const Ftl& b) {
  ExpectSameStats(a.stats(), b.stats());
  ASSERT_EQ(a.logical_opages(), b.logical_opages());
  for (uint64_t lpo = 0; lpo < a.logical_opages(); ++lpo) {
    ASSERT_EQ(a.PhysicalSlot(lpo), b.PhysicalSlot(lpo)) << "lpo " << lpo;
  }
  const uint64_t fpages = a.config().geometry.total_fpages();
  for (FPageIndex fpage = 0; fpage < fpages; ++fpage) {
    ASSERT_EQ(a.PageLevel(fpage), b.PageLevel(fpage)) << "fpage " << fpage;
    ASSERT_EQ(a.PageInService(fpage), b.PageInService(fpage))
        << "fpage " << fpage;
  }
  EXPECT_EQ(a.usable_opages(), b.usable_opages());
  EXPECT_EQ(a.mapped_opages(), b.mapped_opages());
  EXPECT_EQ(a.free_blocks(), b.free_blocks());
  EXPECT_EQ(a.dead_fpages(), b.dead_fpages());
  EXPECT_EQ(a.retired_blocks(), b.retired_blocks());
  EXPECT_EQ(a.l2p_stats().hits, b.l2p_stats().hits);
  EXPECT_EQ(a.l2p_stats().misses, b.l2p_stats().misses);
  EXPECT_EQ(a.l2p_stats().evictions, b.l2p_stats().evictions);
  EXPECT_EQ(a.l2p_stats().map_writes, b.l2p_stats().map_writes);
}

FtlConfig OracleConfig(uint64_t l2p_cache_entries, bool journaled) {
  // Fast wear with a level-1 cap: the mix crosses tiredness transitions,
  // limbo and reclaim, not just the healthy write path.
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/40);
  config.max_usable_level = 1;
  config.l2p_cache_entries = l2p_cache_entries;
  config.l2p_entries_per_map_page = l2p_cache_entries > 0 ? 16 : 0;
  config.journaled = journaled;
  return config;
}

class FtlUnjournaledTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FtlUnjournaledTest, CrashFreeOpMixMatchesJournaledTwin) {
  Ftl journaled(OracleConfig(GetParam(), /*journaled=*/true));
  Ftl bare(OracleConfig(GetParam(), /*journaled=*/false));
  Rng rng(20250514);

  // mDisk lifecycle: carve the logical space in 64-oPage extents with their
  // create records, as the minidisk layer does.
  constexpr uint64_t kExtent = 64;
  constexpr uint64_t kExtents = 10;
  for (uint64_t id = 0; id < kExtents; ++id) {
    const uint64_t first = journaled.ExtendLogicalSpace(kExtent);
    ASSERT_EQ(bare.ExtendLogicalSpace(kExtent), first);
    const JournalRecord create{JournalRecordType::kMdiskCreate, id, first,
                               kExtent, 0};
    journaled.AppendJournalRecord(create);
    bare.AppendJournalRecord(create);
    journaled.SyncJournal();
    bare.SyncJournal();
  }
  const uint64_t logical = journaled.logical_opages();

  // GC-heavy fill: every logical page written once, then the seeded mix of
  // overwrites, trims, reads and flushes, with mDisk drain/drop records and
  // limbo reclaim sprinkled through it.
  for (uint64_t lpo = 0; lpo < logical; ++lpo) {
    const StatusOr<SimDuration> a = journaled.Write(lpo);
    const StatusOr<SimDuration> b = bare.Write(lpo);
    ASSERT_EQ(a.status().code(), b.status().code()) << "fill lpo " << lpo;
    if (a.ok()) {
      ASSERT_EQ(*a, *b) << "fill lpo " << lpo;
    }
  }
  uint64_t transitions = 0;
  const auto compare_transitions = [&] {
    const std::vector<PageTransition> seen = journaled.TakeTransitions();
    ExpectSameTransitions(seen, bare.TakeTransitions());
    transitions += seen.size();
  };
  uint64_t next_drop = 0;
  for (int op = 0; op < 30000; ++op) {
    const uint64_t lpo = rng.UniformU64(logical);
    const double dice = rng.UniformDouble();
    if (dice < 0.70) {
      const StatusOr<SimDuration> a = journaled.Write(lpo);
      const StatusOr<SimDuration> b = bare.Write(lpo);
      ASSERT_EQ(a.status().code(), b.status().code()) << "op " << op;
      if (a.ok()) {
        ASSERT_EQ(*a, *b) << "op " << op;
      }
    } else if (dice < 0.82) {
      ASSERT_EQ(journaled.Trim(lpo).code(), bare.Trim(lpo).code());
    } else if (dice < 0.97) {
      const StatusOr<ReadResult> a = journaled.Read(lpo);
      const StatusOr<ReadResult> b = bare.Read(lpo);
      ASSERT_EQ(a.status().code(), b.status().code()) << "op " << op;
      if (a.ok()) {
        ASSERT_EQ(a->latency, b->latency) << "op " << op;
        ASSERT_EQ(a->tiredness_level, b->tiredness_level) << "op " << op;
      }
    } else if (dice < 0.99) {
      ASSERT_EQ(journaled.Flush().code(), bare.Flush().code());
    } else {
      ASSERT_EQ(journaled.ClaimLimboCapacity(kExtent),
                bare.ClaimLimboCapacity(kExtent));
      if (next_drop < kExtents) {
        const JournalRecord drain{JournalRecordType::kMdiskDrain, next_drop,
                                  0, 0, 0};
        const JournalRecord drop{JournalRecordType::kMdiskDrop, next_drop, 0,
                                 0, 0};
        journaled.AppendJournalRecord(drain);
        bare.AppendJournalRecord(drain);
        journaled.AppendJournalRecord(drop);
        bare.AppendJournalRecord(drop);
        ++next_drop;
      }
    }
    if (op % 500 == 0) {
      compare_transitions();
    }
  }
  ASSERT_EQ(journaled.Flush().code(), bare.Flush().code());
  compare_transitions();
  ExpectSameState(journaled, bare);
  EXPECT_TRUE(bare.CheckInvariants().ok());

  // The mix really exercised the paths the journal shadows.
  EXPECT_GT(journaled.stats().gc_relocations, 0u);
  EXPECT_GT(journaled.stats().erases, 0u);
  EXPECT_GT(transitions, 0u);
  EXPECT_GT(journaled.journal().compactions(), 0u);
  EXPECT_GT(journaled.journal().syncs(), 0u);
  if (GetParam() > 0) {
    EXPECT_GT(journaled.l2p_stats().map_writes, 0u);
  }
  // And the unjournaled twin paid for none of it.
  EXPECT_EQ(bare.journal().appends(), 0u);
  EXPECT_EQ(bare.journal().syncs(), 0u);
  EXPECT_EQ(bare.journal().compactions(), 0u);
  EXPECT_EQ(bare.journal().size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(L2pWindow, FtlUnjournaledTest,
                         ::testing::Values(uint64_t{0}, uint64_t{64}),
                         [](const ::testing::TestParamInfo<uint64_t>& p) {
                           return p.param == 0 ? std::string("unbounded")
                                                  : std::string("bounded");
                         });

Ftl MakeUnjournaledFtl() {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/1000000);
  config.journaled = false;
  Ftl ftl(config);
  ftl.ExtendLogicalSpace(64);
  return ftl;
}

TEST(FtlUnjournaledDeathTest, SimulatePowerLossAborts) {
  Ftl ftl = MakeUnjournaledFtl();
  ASSERT_TRUE(ftl.Write(3).ok());
  EXPECT_DEATH(ftl.SimulatePowerLoss(/*torn_records=*/0), "keeps no journal");
}

TEST(FtlUnjournaledDeathTest, ReplayAborts) {
  Ftl ftl = MakeUnjournaledFtl();
  EXPECT_DEATH((void)ftl.Replay(), "keeps no journal");
}

}  // namespace
}  // namespace salamander
