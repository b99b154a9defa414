// Pins the buffered-write path at the states where FlushIfReady decides "no
// flush yet" without asking NextProgramTarget: a cursor page that changes
// service state between writes, a program failure on the cursor page, stale
// buffer entries from trim-then-rewrite, and a host stream stuck at the GC
// reserve. Each scenario is deterministic; its final StateDigest, summed
// write latency and FTL counters are compared against values recorded from
// the write path before it took the early return, so any divergence in
// placement, timing or wear shows up here.
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

}  // namespace
}  // namespace salamander
