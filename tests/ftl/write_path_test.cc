// Pins the buffered-write path at the states where FlushIfReady decides "no
// flush yet" without asking NextProgramTarget: a cursor page that changes
// service state between writes, a program failure on the cursor page, stale
// buffer entries from trim-then-rewrite, and a host stream stuck at the GC
// reserve. Each scenario is deterministic; its final StateDigest, summed
// write latency and FTL counters are compared against values recorded from
// the write path before it took the early return, so any divergence in
// placement, timing or wear shows up here. A second group pins GC
// relocation the same way (see below).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "faults/fault_injector.h"
#include "ftl/ftl.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestFtlConfig;
using testing_util::TinyGeometry;

struct Fingerprint {
  uint64_t digest = 0;
  SimDuration latency = 0;  // summed over every successful host write
  uint64_t flushes = 0;
  uint64_t gc_relocations = 0;
  uint64_t erases = 0;
  uint64_t program_failures = 0;
};

Fingerprint Take(const Ftl& ftl, SimDuration latency) {
  return Fingerprint{ftl.StateDigest(),        latency,
                     ftl.stats().flushes,      ftl.stats().gc_relocations,
                     ftl.stats().erases,       ftl.stats().program_failures};
}

void ExpectFingerprint(const Fingerprint& got, const Fingerprint& want) {
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.latency, want.latency);
  EXPECT_EQ(got.flushes, want.flushes);
  EXPECT_EQ(got.gc_relocations, want.gc_relocations);
  EXPECT_EQ(got.erases, want.erases);
  EXPECT_EQ(got.program_failures, want.program_failures);
}

// Writes `count` random lpos below `logical`, summing the latency of the
// writes that succeed.
void RandomWrites(Ftl& ftl, Rng& rng, uint64_t logical, uint64_t count,
                  SimDuration& latency) {
  for (uint64_t i = 0; i < count; ++i) {
    StatusOr<SimDuration> written = ftl.Write(rng.UniformU64(logical));
    if (written.ok()) {
      latency += *written;
    }
    ftl.TakeTransitions();
  }
}

// A RegenS FTL ages until a host flush leaves the buffer empty with a limbo
// page right at the active block's cursor. ClaimLimboCapacity then revives
// that page, so the next write finds the cursor page back in service.
TEST(FtlWritePathTest, LimboCursorPageRevivedBeforeNextWrite) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/20);
  config.max_usable_level = 1;
  Ftl ftl(config);
  const uint64_t logical = 384;
  ftl.ExtendLogicalSpace(logical);
  const FlashGeometry& g = config.geometry;
  Rng rng(17);
  SimDuration latency = 0;
  bool revived = false;
  for (uint64_t i = 0; i < 400000 && !revived; ++i) {
    const uint64_t lpo = rng.UniformU64(logical);
    const uint64_t flushes = ftl.stats().flushes;
    StatusOr<SimDuration> written = ftl.Write(lpo);
    ASSERT_TRUE(written.ok()) << written.status();
    latency += *written;
    ftl.TakeTransitions();
    if (ftl.stats().flushes == flushes || ftl.buffered_opages() != 0) {
      continue;
    }
    // This write flushed the host buffer empty, so `lpo` sits on the page
    // just programmed and the cursor is the page after it.
    const FPageIndex programmed = g.FPageOfSlot(ftl.PhysicalSlot(lpo));
    const FPageIndex cursor = programmed + 1;
    if (cursor % g.fpages_per_block == 0 || ftl.PageInService(cursor) ||
        ftl.PageLevel(cursor) == Ftl::kDeadLevel) {
      continue;
    }
    ftl.ClaimLimboCapacity(UINT64_MAX);
    ASSERT_TRUE(ftl.PageInService(cursor));
    revived = true;
  }
  ASSERT_TRUE(revived) << "no limbo page reached the cursor";
  RandomWrites(ftl, rng, logical, 1000, latency);
  const Status flushed = ftl.Flush();
  ASSERT_TRUE(flushed.ok()) << flushed;
  ASSERT_EQ(ftl.CheckInvariants(), OkStatus());
  ExpectFingerprint(Take(ftl, latency),
                    Fingerprint{.digest = 1076705317525163216ULL,
                                .latency = 3894069600,
                                .flushes = 4361,
                                .gc_relocations = 2534,
                                .erases = 260,
                                .program_failures = 0});
}

// Injected program failures land on the cursor page by construction: it is
// the page every flush targets. The failed page retires and the batch moves
// to the next page, after which the early return must see the new cursor.
TEST(FtlWritePathTest, ProgramFailureOnCursorPage) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/1000000);
  Ftl ftl(config);
  FaultConfig faults;
  faults.program_fail = 0.02;
  faults.seed = 33;
  FaultInjector injector(faults, /*stream_id=*/0);
  ftl.SetFaultInjector(&injector);
  const uint64_t logical = 384;
  ftl.ExtendLogicalSpace(logical);
  Rng rng(5);
  SimDuration latency = 0;
  RandomWrites(ftl, rng, logical, 6000, latency);
  const Status flushed = ftl.Flush();
  ASSERT_TRUE(flushed.ok()) << flushed;
  ASSERT_EQ(ftl.CheckInvariants(), OkStatus());
  EXPECT_GT(ftl.stats().program_failures, 0u);
  ExpectFingerprint(Take(ftl, latency),
                    Fingerprint{.digest = 13887712623480081838ULL,
                                .latency = 1579488000,
                                .flushes = 1772,
                                .gc_relocations = 1121,
                                .erases = 105,
                                .program_failures = 30});
}

// Trimming a buffered page leaves a stale deque entry behind, so the buffer
// holds more entries than live pages. Mostly write-then-trim traffic, with
// an occasional rewrite of the trimmed page, piles up enough stale entries
// to push the buffer past kWriteBufferOPages and force padded flushes while
// the live count is still below one page.
TEST(FtlWritePathTest, TrimOfBufferedPageThenRewrite) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/1000000);
  Ftl ftl(config);
  const uint64_t logical = 512;
  ftl.ExtendLogicalSpace(logical);
  Rng rng(9);
  SimDuration latency = 0;
  for (uint64_t i = 0; i < 3000; ++i) {
    const uint64_t lpo = rng.UniformU64(logical);
    StatusOr<SimDuration> first = ftl.Write(lpo);
    ASSERT_TRUE(first.ok()) << first.status();
    latency += *first;
    const bool was_buffered = ftl.PhysicalSlot(lpo) == Ftl::kUnmappedSlot;
    ASSERT_TRUE(ftl.Trim(lpo).ok());
    if (was_buffered && rng.Bernoulli(0.05)) {
      StatusOr<SimDuration> again = ftl.Write(lpo);
      ASSERT_TRUE(again.ok()) << again.status();
      latency += *again;
    }
  }
  ASSERT_TRUE(ftl.Flush().ok());
  ASSERT_EQ(ftl.CheckInvariants(), OkStatus());
  ExpectFingerprint(Take(ftl, latency),
                    Fingerprint{.digest = 14266612843040076211ULL,
                                .latency = 43578400,
                                .flushes = 62,
                                .gc_relocations = 0,
                                .erases = 0,
                                .program_failures = 0});
}

// With every raw oPage exposed as logical space, the host stream runs into
// the GC reserve: writes keep buffering while each flush attempt fails with
// kResourceExhausted. Trimming cold data lets GC reclaim space, and Flush()
// then programs the stranded pages in the order they were written.
TEST(FtlWritePathTest, HostStreamAtGcReserveDrainsInFifoOrder) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/1000000);
  Ftl ftl(config);
  const uint64_t logical = config.geometry.total_opages();
  ftl.ExtendLogicalSpace(logical);
  SimDuration latency = 0;
  uint64_t next = 0;
  for (; next < logical; ++next) {
    StatusOr<SimDuration> written = ftl.Write(next);
    if (!written.ok()) {
      ASSERT_EQ(written.status().code(), StatusCode::kResourceExhausted);
      break;
    }
    latency += *written;
  }
  ASSERT_LT(next, logical) << "the host stream never hit the GC reserve";
  // Everything from the first refused flush onwards stays buffered.
  std::vector<uint64_t> stranded;
  for (uint64_t lpo = 0; lpo <= next; ++lpo) {
    if (ftl.PhysicalSlot(lpo) == Ftl::kUnmappedSlot) {
      stranded.push_back(lpo);
    }
  }
  for (uint64_t extra = next + 1; extra < next + 10; ++extra) {
    StatusOr<SimDuration> written = ftl.Write(extra);
    if (written.ok()) {
      latency += *written;
    } else {
      ASSERT_EQ(written.status().code(), StatusCode::kResourceExhausted);
    }
    stranded.push_back(extra);
  }
  ASSERT_EQ(ftl.buffered_opages(), stranded.size());

  for (uint64_t lpo = 0; lpo < 256; ++lpo) {
    ASSERT_TRUE(ftl.Trim(lpo).ok());
  }
  ASSERT_TRUE(ftl.Flush().ok());
  EXPECT_EQ(ftl.buffered_opages(), 0u);
  // FIFO: pages sharing an fPage sit in write order in consecutive slots.
  const FlashGeometry& g = config.geometry;
  for (size_t i = 0; i + 1 < stranded.size(); ++i) {
    const uint64_t a = ftl.PhysicalSlot(stranded[i]);
    const uint64_t b = ftl.PhysicalSlot(stranded[i + 1]);
    ASSERT_NE(a, Ftl::kUnmappedSlot);
    ASSERT_NE(b, Ftl::kUnmappedSlot);
    if (g.FPageOfSlot(a) == g.FPageOfSlot(b)) {
      EXPECT_EQ(b, a + 1) << "stranded pages " << i << " and " << i + 1;
    }
  }
  ASSERT_EQ(ftl.CheckInvariants(), OkStatus());
  ExpectFingerprint(Take(ftl, latency),
                    Fingerprint{.digest = 9758723421534842917ULL,
                                .latency = 402342400,
                                .flushes = 3059,
                                .gc_relocations = 11264,
                                .erases = 178,
                                .program_failures = 0});
}

// ---- GC relocation ----------------------------------------------------------
//
// The scenarios below pin GC relocation: the StateDigest after every
// kStepWrites random writes and the final counters, recorded from a build
// that relocated every page through the host's buffered-write call. Each
// scenario also asserts that it reached the state it exists for.

constexpr uint64_t kStepWrites = 500;
// Logical spaces, of TinyGeometry's 1024 raw oPages. Retired pages and
// map-page images (one fPage each) take room, so those scenarios use less.
constexpr uint64_t kGcLogical = 640;
constexpr uint64_t kGcLogicalTight = 384;

struct GcRun {
  std::vector<uint64_t> step_digests;
  SimDuration latency = 0;
};

// Writes lpos 0..logical-1 once, so every later write overwrites and GC has
// valid data to move.
void SequentialFill(Ftl& ftl, uint64_t logical, SimDuration& latency) {
  for (uint64_t lpo = 0; lpo < logical; ++lpo) {
    StatusOr<SimDuration> written = ftl.Write(lpo);
    ASSERT_TRUE(written.ok()) << written.status();
    latency += *written;
  }
}

// `steps` x kStepWrites random writes; `before` and `after` run around each
// write and see its lpo.
template <typename Before, typename After>
void SteppedWrites(Ftl& ftl, Rng& rng, uint64_t logical, int steps,
                   GcRun& run, Before before, After after) {
  for (int step = 0; step < steps; ++step) {
    for (uint64_t i = 0; i < kStepWrites; ++i) {
      const uint64_t lpo = rng.UniformU64(logical);
      before(lpo);
      StatusOr<SimDuration> written = ftl.Write(lpo);
      ASSERT_TRUE(written.ok()) << written.status();
      run.latency += *written;
      ftl.TakeTransitions();
      after(lpo);
    }
    run.step_digests.push_back(ftl.StateDigest());
  }
}

// GC rounds move whole victims but the GC stream flushes only whole pages,
// so a round that moves a count not divisible by the page size leaves
// relocated pages buffered for the next round to top up.
TEST(FtlWritePathTest, GcBufferLeftoversCarryAcrossRounds) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/1000000);
  Ftl ftl(config);
  ftl.ExtendLogicalSpace(kGcLogical);
  GcRun run;
  SequentialFill(ftl, kGcLogical, run.latency);
  Rng rng(41);
  const uint64_t per_page = config.geometry.opages_per_fpage;
  uint64_t carried_rounds = 0;
  uint64_t relocations_before = 0;
  SteppedWrites(
      ftl, rng, kGcLogical, 6, run,
      [&](uint64_t) { relocations_before = ftl.stats().gc_relocations; },
      [&](uint64_t) {
        if (ftl.stats().gc_relocations > relocations_before &&
            relocations_before % per_page != 0) {
          ++carried_rounds;
        }
      });
  EXPECT_GT(carried_rounds, 0u) << "no GC round started with leftovers";
  ASSERT_TRUE(ftl.Flush().ok());
  ASSERT_EQ(ftl.CheckInvariants(), OkStatus());
  EXPECT_EQ(run.step_digests,
            (std::vector<uint64_t>{
                1791325333837286166ULL, 13468460174894636642ULL,
                12812328740568569407ULL, 434061095073692957ULL,
                3900998947561686732ULL, 5980354752456394385ULL}));
  ExpectFingerprint(Take(ftl, run.latency),
                    Fingerprint{.digest = 10472336200072894744ULL,
                                .latency = 1509339200,
                                .flushes = 1718,
                                .gc_relocations = 3252,
                                .erases = 94,
                                .program_failures = 0});
}

// A relocated page that is still in the GC buffer is trimmed: its buffer
// entry goes stale and the GC stream's next flush must skip it.
TEST(FtlWritePathTest, TrimOfGcBufferedPageBeforeItsFlush) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/1000000);
  Ftl ftl(config);
  ftl.ExtendLogicalSpace(kGcLogical);
  GcRun run;
  SequentialFill(ftl, kGcLogical, run.latency);
  Rng rng(43);
  std::vector<uint64_t> slots(kGcLogical);
  uint64_t trimmed = 0;
  SteppedWrites(
      ftl, rng, kGcLogical, 6, run,
      [&](uint64_t) {
        for (uint64_t lpo = 0; lpo < kGcLogical; ++lpo) {
          slots[lpo] = ftl.PhysicalSlot(lpo);
        }
      },
      [&](uint64_t written) {
        // A page that had a slot before this write, has none after it and
        // is not the page the host wrote was relocated into the GC buffer.
        for (uint64_t lpo = 0; lpo < kGcLogical; ++lpo) {
          if (lpo != written && slots[lpo] != Ftl::kUnmappedSlot &&
              ftl.PhysicalSlot(lpo) == Ftl::kUnmappedSlot) {
            ASSERT_TRUE(ftl.Trim(lpo).ok());
            ++trimmed;
            break;
          }
        }
      });
  EXPECT_GT(trimmed, 0u) << "no GC-buffered page was trimmed";
  ASSERT_TRUE(ftl.Flush().ok());
  ASSERT_EQ(ftl.CheckInvariants(), OkStatus());
  EXPECT_EQ(run.step_digests,
            (std::vector<uint64_t>{
                9834677528193722158ULL, 17015594694524790328ULL,
                14457390038766440501ULL, 14132753451790503771ULL,
                482044060298182795ULL, 782873429068101165ULL}));
  ExpectFingerprint(Take(ftl, run.latency),
                    Fingerprint{.digest = 15055610676013948400ULL,
                                .latency = 1466762400,
                                .flushes = 1672,
                                .gc_relocations = 3082,
                                .erases = 91,
                                .program_failures = 0});
}

// Program failures injected while GC is relocating: the failed page retires
// and the GC stream re-places its batch on the next page of its block.
TEST(FtlWritePathTest, ProgramFailureDuringGcRelocation) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/1000000);
  Ftl ftl(config);
  FaultConfig faults;
  faults.program_fail = 0.01;
  faults.seed = 47;
  FaultInjector injector(faults, /*stream_id=*/0);
  ftl.SetFaultInjector(&injector);
  ftl.ExtendLogicalSpace(kGcLogicalTight);
  GcRun run;
  SequentialFill(ftl, kGcLogicalTight, run.latency);
  Rng rng(47);
  uint64_t relocations_before = 0;
  uint64_t failures_before = 0;
  uint64_t failing_gc_writes = 0;
  SteppedWrites(
      ftl, rng, kGcLogicalTight, 4, run,
      [&](uint64_t) {
        relocations_before = ftl.stats().gc_relocations;
        failures_before = ftl.stats().program_failures;
      },
      [&](uint64_t) {
        if (ftl.stats().gc_relocations > relocations_before &&
            ftl.stats().program_failures > failures_before) {
          ++failing_gc_writes;
        }
      });
  EXPECT_GT(failing_gc_writes, 0u) << "no program failed during a GC round";
  ASSERT_TRUE(ftl.Flush().ok());
  ASSERT_EQ(ftl.CheckInvariants(), OkStatus());
  EXPECT_EQ(run.step_digests,
            (std::vector<uint64_t>{
                14526665305833911656ULL, 1830737604070921106ULL,
                1711650041947902757ULL, 15050548042043819166ULL}));
  ExpectFingerprint(Take(ftl, run.latency),
                    Fingerprint{.digest = 10139459292816579557ULL,
                                .latency = 564933600,
                                .flushes = 670,
                                .gc_relocations = 305,
                                .erases = 29,
                                .program_failures = 9});
}

// Under L2P paging, map-page images share blocks with data, so GC victims
// hold map images next to data pages: the images are re-flushed and the
// data is relocated in the same round.
TEST(FtlWritePathTest, MapBlockVictimUnderL2pPaging) {
  FtlConfig config = TestFtlConfig(TinyGeometry(), /*nominal_pec=*/1000000);
  config.l2p_cache_entries = 64;
  config.l2p_entries_per_map_page = 32;
  Ftl ftl(config);
  ftl.ExtendLogicalSpace(kGcLogicalTight);
  GcRun run;
  SequentialFill(ftl, kGcLogicalTight, run.latency);
  Rng rng(53);
  const FlashGeometry& g = config.geometry;
  std::vector<std::pair<BlockIndex, uint32_t>> map_blocks;
  uint64_t map_block_erases = 0;
  SteppedWrites(
      ftl, rng, kGcLogicalTight, 4, run,
      [&](uint64_t) {
        map_blocks.clear();
        for (uint64_t p = 0; p < ftl.l2p_map_pages(); ++p) {
          if (ftl.MapPageSlot(p) != Ftl::kUnmappedSlot) {
            const BlockIndex block =
                g.BlockOfFPage(g.FPageOfSlot(ftl.MapPageSlot(p)));
            map_blocks.emplace_back(block, ftl.chip().BlockPec(block));
          }
        }
      },
      [&](uint64_t) {
        for (const auto& [block, pec] : map_blocks) {
          if (ftl.chip().BlockPec(block) != pec) {
            ++map_block_erases;
            break;
          }
        }
      });
  EXPECT_GT(map_block_erases, 0u)
      << "GC never erased a block holding a map image";
  EXPECT_GT(ftl.l2p_stats().map_writes, 0u);
  ASSERT_TRUE(ftl.Flush().ok());
  ASSERT_EQ(ftl.CheckInvariants(), OkStatus());
  EXPECT_EQ(run.step_digests,
            (std::vector<uint64_t>{
                15946761986537006099ULL, 3113108262326670531ULL,
                6586317711850955212ULL, 13535225003195066293ULL}));
  EXPECT_EQ(ftl.l2p_stats().map_writes, 3404u);
  ExpectFingerprint(Take(ftl, run.latency),
                    Fingerprint{.digest = 9340593165085095458ULL,
                                .latency = 3818461600,
                                .flushes = 718,
                                .gc_relocations = 500,
                                .erases = 245,
                                .program_failures = 0});
}

}  // namespace
}  // namespace salamander
