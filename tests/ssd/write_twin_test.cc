// The two SsdDevice::Write signatures are one write path: a device driven
// through the StatusOr<SimDuration> form and a twin driven through the
// Status form (which adds to the caller's latency) must report the same
// outcome and latency and reach the same FTL state after every write, down
// to a write the FTL refuses for lack of space, which the mDisk layer sheds
// capacity for and retries.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "ssd/ssd_device.h"
#include "tests/testing/device_builder.h"
#include "workload/aging.h"

namespace salamander {
namespace {

using testing_util::TestSsdConfig;
using testing_util::TinyGeometry;

// Eq. 1's reclaimable limbo capacity, recomputed from the per-level counts.
uint64_t ReclaimableFromCounts(const Ftl& ftl) {
  const FtlConfig& config = ftl.config();
  uint64_t total = 0;
  for (unsigned level = 0; level <= config.max_usable_level; ++level) {
    total += (config.geometry.opages_per_fpage - level) *
             ftl.limbo_fpages(level);
  }
  return total;
}

// A device aged to death at a nominal PEC of 10. Each of these seeds sends
// some writes down the shed-and-retry path before the device dies.
struct TwinCase {
  SsdKind kind;
  uint64_t seed;
};

class SsdWriteTwinTest : public ::testing::TestWithParam<TwinCase> {};

TEST_P(SsdWriteTwinTest, BothSignaturesAgreeAfterEveryWrite) {
  const SsdKind kind = GetParam().kind;
  const SsdConfig config = TestSsdConfig(kind, TinyGeometry(),
                                         /*nominal_pec=*/10, GetParam().seed);
  SsdDevice by_value(kind, config);
  SsdDevice by_ref(kind, config);
  LiveSetTracker live;
  LiveSetTracker twin_live;
  live.Apply(by_value.TakeEvents());
  twin_live.Apply(by_ref.TakeEvents());

  Rng rng(GetParam().seed * 3);
  // A nonzero start shows that the Status form adds to the caller's latency
  // and leaves it alone on failure.
  constexpr SimDuration kStart = 12345;
  uint64_t retried = 0;
  for (uint64_t step = 0; step < 200000; ++step) {
    if (by_value.failed() || live.empty()) {
      break;
    }
    const MinidiskId mdisk = live.PickRandom(rng);
    const uint64_t lba = rng.UniformU64(by_value.msize_opages());
    const uint64_t attempts_before = by_value.ftl().stats().host_writes;

    const StatusOr<SimDuration> returned = by_value.Write(mdisk, lba);
    SimDuration added = kStart;
    const Status status = by_ref.Write(mdisk, lba, added);

    ASSERT_EQ(returned.status().code(), status.code()) << "step " << step;
    if (status.ok()) {
      ASSERT_EQ(*returned, added - kStart) << "step " << step;
    } else {
      ASSERT_EQ(added, kStart) << "step " << step;
    }
    // A refused FTL attempt and its retry both count as FTL host writes.
    if (by_value.ftl().stats().host_writes - attempts_before == 2) {
      ++retried;
    }
    ASSERT_EQ(by_value.ftl().StateDigest(), by_ref.ftl().StateDigest())
        << "step " << step;
    ASSERT_EQ(by_value.ftl().reclaimable_limbo_opages(),
              ReclaimableFromCounts(by_value.ftl()))
        << "step " << step;
    live.Apply(by_value.TakeEvents());
    twin_live.Apply(by_ref.TakeEvents());
    ASSERT_EQ(live.live(), twin_live.live()) << "step " << step;
  }
  EXPECT_TRUE(by_value.failed() || live.empty())
      << "the device outlived the write budget";
  EXPECT_EQ(by_ref.failed(), by_value.failed());
  EXPECT_GT(retried, 0u) << "no write reached the shed-and-retry path";
  EXPECT_EQ(by_value.ftl().CheckInvariants(), OkStatus());
  EXPECT_EQ(by_ref.ftl().CheckInvariants(), OkStatus());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SsdWriteTwinTest,
    ::testing::Values(TwinCase{SsdKind::kCvss, 1},
                      TwinCase{SsdKind::kShrinkS, 1},
                      TwinCase{SsdKind::kRegenS, 3}),
    [](const ::testing::TestParamInfo<TwinCase>& param_info) {
      return std::string(SsdKindName(param_info.param.kind));
    });

}  // namespace
}  // namespace salamander
