// FTL reference-map oracle. Seeded random sequences drive one FTL through
// writes, trims, reads, host flushes, fills of the whole logical space that
// force GC, journal compactions (a small journal region) and repeated power
// loss followed by Replay, with the L2P map paged and unpaged. The oracle
// shares no code with Ftl; it sees the FTL only through its public calls.
//
// It keeps, per lpo, whether the last acknowledged write or trim left it
// mapped, and checks every read against that:
//   * between power losses, a read succeeds exactly when the lpo is mapped
//     and returns kNotFound exactly when it is not;
//   * after a Replay, an lpo may disagree with the reference only when
//     LpoRolledBack flags it — a loss (or a resurrection) must never be
//     silent;
//   * after a Replay, an lpo last touched before the latest host Flush must
//     agree if no block was erased since that Flush: the flush made it
//     durable and nothing has destroyed its flash copy since. (Its flag is
//     not checked: Replay re-derives flags from the whole journal, so an
//     lpo whose old slot was reused before its newer record can come back
//     flagged although its newest write survived.)
// Under L2P paging it also checks each map page's image, as Replay would
// restore it (Ftl::MapPageImage), against a copy of the page's durable
// content taken through PhysicalSlot when the page was flushed.
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

// Logical oPages, of TinyGeometry's 1024 raw ones. A flushed map image
// takes a whole fPage, so sequences that flush map pages use less.
constexpr uint64_t kLogical = 384;
constexpr uint64_t kFlushingLogical = 256;
constexpr uint64_t kEntriesPerMapPage = 8;
constexpr uint64_t kOps = 6000;

class ReferenceMapOracle {
 public:
  // `map_pages_cached` is the L2P window in map pages of
  // `entries_per_map_page` entries; 0 leaves the map unpaged.
  ReferenceMapOracle(uint64_t logical, uint64_t map_pages_cached,
                     uint64_t seed, const FlashGeometry& geometry,
                     uint64_t entries_per_map_page)
      : logical_(logical),
        entries_per_map_page_(entries_per_map_page),
        ftl_(MakeConfig(geometry, map_pages_cached, entries_per_map_page,
                        seed)),
        rng_(seed),
        mapped_(logical_, 0),
        last_touch_(logical_, 0) {
    ftl_.ExtendLogicalSpace(logical_);
    ftl_.SyncJournal();  // an unsynced extend could be torn away
    if (ftl_.l2p_enabled()) {
      images_.assign(ftl_.l2p_map_pages(), {});
      image_known_.assign(ftl_.l2p_map_pages(), 1);
    }
  }

  const Ftl& ftl() const { return ftl_; }
  uint64_t rollbacks() const { return rollbacks_; }
  uint64_t image_checks() const { return image_checks_; }

  // One random step of the sequence.
  void Step() {
    ++op_;
    const uint64_t lpo = rng_.UniformU64(logical_);
    const uint64_t dice = rng_.UniformU64(1000);
    if (dice < 500) {
      Write(lpo);
    } else if (dice < 600) {
      Trim(lpo);
    } else if (dice < 900) {
      Read(lpo);
    } else if (dice < 960) {
      Flush();
    } else if (dice < 965) {
      for (uint64_t each = 0; each < logical_; ++each) {
        Write(each);
      }
    } else if (dice < 980) {
      PowerLossAndReplay();
    } else {
      for (uint64_t each = 0; each < logical_; ++each) {
        Read(each);
      }
    }
  }

 private:
  static FtlConfig MakeConfig(const FlashGeometry& geometry,
                              uint64_t map_pages_cached,
                              uint64_t entries_per_map_page, uint64_t seed) {
    FtlConfig config = TestFtlConfig(geometry, /*nominal_pec=*/1000000, seed);
    config.ecc_geometry.opages_per_fpage = geometry.opages_per_fpage;
    config.journal_capacity_records = 512;
    config.l2p_cache_entries = map_pages_cached * entries_per_map_page;
    config.l2p_entries_per_map_page = entries_per_map_page;
    return config;
  }

  void Write(uint64_t lpo) {
    Observed([&] {
      StatusOr<SimDuration> written = ftl_.Write(lpo);
      ASSERT_TRUE(written.ok()) << "op " << op_ << " write " << lpo << ": "
                                << written.status();
    });
    mapped_[lpo] = 1;
    last_touch_[lpo] = op_;
  }

  void Trim(uint64_t lpo) {
    Observed([&] {
      const Status trimmed = ftl_.Trim(lpo);
      ASSERT_TRUE(trimmed.ok()) << "op " << op_ << ": " << trimmed;
    });
    mapped_[lpo] = 0;
    last_touch_[lpo] = op_;
  }

  void Read(uint64_t lpo) {
    Observed([&] {
      StatusOr<ReadResult> read = ftl_.Read(lpo);
      if (mapped_[lpo]) {
        EXPECT_TRUE(read.ok())
            << "op " << op_ << ": acknowledged lpo " << lpo
            << " reads " << read.status();
      } else {
        EXPECT_EQ(read.status().code(), StatusCode::kNotFound)
            << "op " << op_ << ": unmapped lpo " << lpo << " reads "
            << read.status();
      }
    });
  }

  void Flush() {
    Observed([&] {
      const Status flushed = ftl_.Flush();
      ASSERT_TRUE(flushed.ok()) << "op " << op_ << ": " << flushed;
    });
    last_flush_op_ = op_;
    erases_at_flush_ = ftl_.stats().erases;
  }

  void PowerLossAndReplay() {
    const bool nothing_erased = ftl_.stats().erases == erases_at_flush_;
    ftl_.SimulatePowerLoss(rng_.UniformU64(Ftl::kJournalMaxUnsynced + 1));
    const Status replayed = ftl_.Replay();
    ASSERT_TRUE(replayed.ok()) << "op " << op_ << ": " << replayed;
    // Replay rebuilds every map page's image from the replayed mapping.
    for (uint64_t p = 0; p < images_.size(); ++p) {
      images_[p] = DurableCopy(p);
      image_known_[p] = 1;
    }
    CheckImages();
    for (uint64_t lpo = 0; lpo < logical_; ++lpo) {
      // The write buffers restart empty, so a mapped lpo is on flash.
      const bool replayed_mapped =
          ftl_.PhysicalSlot(lpo) != Ftl::kUnmappedSlot;
      const bool agrees = replayed_mapped == (mapped_[lpo] != 0);
      if (nothing_erased && last_touch_[lpo] < last_flush_op_) {
        EXPECT_TRUE(agrees)
            << "op " << op_ << ": lpo " << lpo
            << " was durable at the last flush but replays "
            << (replayed_mapped ? "mapped" : "unmapped");
      }
      if (!agrees) {
        EXPECT_TRUE(ftl_.LpoRolledBack(lpo))
            << "op " << op_ << ": lpo " << lpo << " silently replays "
            << (replayed_mapped ? "mapped" : "unmapped") << ", acknowledged "
            << (mapped_[lpo] ? "mapped" : "unmapped");
        mapped_[lpo] = replayed_mapped ? 1 : 0;
        ++rollbacks_;
      }
      Read(lpo);
    }
  }

  // Runs one public FTL call and then checks the map-page images. A page
  // flushed by the call gets a fresh reference copy, unless the call also
  // ran GC (which can change a page's durable content after flushing it
  // within the same call) or flushed some page more than once: then the
  // page's image is not checked again until its next observed flush.
  template <typename Call>
  void Observed(Call call) {
    if (images_.empty()) {
      call();
      return;
    }
    std::vector<uint64_t> slots(images_.size());
    for (uint64_t p = 0; p < slots.size(); ++p) {
      slots[p] = ftl_.MapPageSlot(p);
    }
    const uint64_t map_writes = ftl_.l2p_stats().map_writes;
    const uint64_t relocations = ftl_.stats().gc_relocations;
    const uint64_t erases = ftl_.stats().erases;
    call();
    std::vector<uint64_t> flushed;
    for (uint64_t p = 0; p < slots.size(); ++p) {
      if (ftl_.MapPageSlot(p) != slots[p]) {
        flushed.push_back(p);
      }
    }
    const uint64_t writes = ftl_.l2p_stats().map_writes - map_writes;
    if (writes > flushed.size()) {
      image_known_.assign(image_known_.size(), 0);
    }
    const bool exact = writes == flushed.size() &&
                       ftl_.stats().gc_relocations == relocations &&
                       ftl_.stats().erases == erases;
    for (uint64_t p : flushed) {
      image_known_[p] = exact ? 1 : 0;
      if (exact) {
        images_[p] = DurableCopy(p);
      }
    }
    CheckImages();
  }

  void CheckImages() {
    for (uint64_t p = 0; p < images_.size(); ++p) {
      if (image_known_[p]) {
        ++image_checks_;
        ASSERT_EQ(ftl_.MapPageImage(p), images_[p])
            << "op " << op_ << ": image of map page " << p;
      }
    }
  }

  // The page's durable content as the oracle sees it: one entry per lpo,
  // kUnmappedSlot for unmapped and still-buffered lpos, empty when nothing
  // in the page is durable.
  std::vector<uint64_t> DurableCopy(uint64_t map_index) const {
    std::vector<uint64_t> copy;
    bool any = false;
    for (uint64_t lpo = map_index * entries_per_map_page_;
         lpo < (map_index + 1) * entries_per_map_page_ && lpo < logical_;
         ++lpo) {
      copy.push_back(ftl_.PhysicalSlot(lpo));
      any |= copy.back() != Ftl::kUnmappedSlot;
    }
    return any ? copy : std::vector<uint64_t>{};
  }

  const uint64_t logical_;
  const uint64_t entries_per_map_page_;
  Ftl ftl_;
  Rng rng_;
  std::vector<uint8_t> mapped_;       // per lpo: acknowledged state
  std::vector<uint64_t> last_touch_;  // per lpo: op of its last write/trim
  uint64_t op_ = 0;
  uint64_t last_flush_op_ = 0;
  uint64_t erases_at_flush_ = 0;
  uint64_t rollbacks_ = 0;
  std::vector<std::vector<uint64_t>> images_;  // per map page
  std::vector<uint8_t> image_known_;
  uint64_t image_checks_ = 0;
};

void RunSequence(uint64_t logical, uint64_t map_pages_cached, uint64_t seed,
                 const FlashGeometry& geometry = TinyGeometry(),
                 uint64_t entries_per_map_page = kEntriesPerMapPage) {
  ReferenceMapOracle oracle(logical, map_pages_cached, seed, geometry,
                            entries_per_map_page);
  for (uint64_t i = 0; i < kOps; ++i) {
    oracle.Step();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  // The sequence must have reached every mechanism it exists to cover.
  const Ftl& ftl = oracle.ftl();
  EXPECT_GE(ftl.journal_replays(), 2u);
  EXPECT_GT(ftl.journal().compactions(), 0u);
  EXPECT_GT(ftl.stats().gc_relocations, 0u);
  EXPECT_GT(oracle.rollbacks(), 0u);
  if (ftl.l2p_enabled()) {
    EXPECT_GT(oracle.image_checks(), 0u);
  }
  EXPECT_TRUE(ftl.CheckInvariants().ok());
}

TEST(FtlReferenceMapTest, UnpagedMapMatchesReference) {
  for (uint64_t seed : {101u, 202u, 303u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunSequence(kLogical, /*map_pages_cached=*/0, seed);
  }
}

// Two of 32 map pages cached: almost every access evicts, so map pages are
// flushed, relocated by GC and torn at power loss all the time.
TEST(FtlReferenceMapTest, ThrashingMapWindowMatchesReference) {
  for (uint64_t seed : {101u, 202u, 303u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunSequence(kFlushingLogical, /*map_pages_cached=*/2, seed);
  }
}

// The window holds the whole map, so no page is ever flushed: after each
// replay the mapping lives only in delta records, and compactions must keep
// all of it.
TEST(FtlReferenceMapTest, WholeMapWindowMatchesReference) {
  for (uint64_t seed : {101u, 202u, 303u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunSequence(kLogical, /*map_pages_cached=*/kLogical / kEntriesPerMapPage,
                seed);
  }
}

// Every shipped geometry is a power of two, so the index helpers shift. This
// one is not (6 fPages per block, 3 oPages per fPage, 24 entries per map
// page), so BlockOfFPage, FPageOfSlot and MapPageOf take their divide arm.
TEST(FtlReferenceMapTest, NonPowerOfTwoGeometryMatchesReference) {
  FlashGeometry odd = TinyGeometry();
  odd.blocks_per_plane = 32;
  odd.fpages_per_block = 6;
  odd.opages_per_fpage = 3;
  for (uint64_t seed : {101u, 202u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunSequence(kFlushingLogical, /*map_pages_cached=*/2, seed, odd,
                /*entries_per_map_page=*/24);
  }
}

}  // namespace
}  // namespace salamander
