// RunCapacityMaintenance returns at once when it can see that none of its
// loops would act: no drain policy, no queued transition, no Eq. 2 deficit
// and less than one mSize of reclaimable limbo. These tests age ShrinkS and
// RegenS devices, with grace draining on and off, and check after each
// maintenance round that it left exactly that quiet state behind — so a
// round that returns early is the same decision the full pass would reach.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/minidisk_manager.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestSsdConfig;
using testing_util::TinyGeometry;

struct MaintenanceCase {
  SsdKind kind;
  bool drain;
};

// The state a full maintenance pass leaves behind, read through public
// accessors with the reserve recomputed from its definition: no queued
// transition, under one mSize of reclaimable limbo, no Eq. 2 deficit while
// an mDisk is live, and, with draining on, no room to open another drain.
::testing::AssertionResult Quiet(Ftl& ftl, const MinidiskManager& manager,
                                 const MinidiskConfig& config) {
  const uint64_t msize = config.msize_opages;
  const uint64_t reserve = std::max<uint64_t>(
      static_cast<uint64_t>(
          static_cast<double>(ftl.config().geometry.total_opages()) *
          MinidiskManager::kOpRatio),
      ftl.gc_reserve_opages());
  if (!ftl.TakeTransitions().empty()) {
    return ::testing::AssertionFailure() << "transitions left queued";
  }
  if (ftl.reclaimable_limbo_opages() >= msize) {
    return ::testing::AssertionFailure()
           << ftl.reclaimable_limbo_opages() << " oPages of limbo unclaimed";
  }
  if (manager.live_minidisks() == 0) {
    return ::testing::AssertionSuccess();
  }
  const uint64_t needed = (static_cast<uint64_t>(manager.live_minidisks()) +
                           manager.draining_minidisks()) *
                              msize +
                          reserve;
  if (ftl.usable_opages() < needed) {
    return ::testing::AssertionFailure()
           << "deficit: usable " << ftl.usable_opages() << " < " << needed;
  }
  if (config.drain_before_decommission &&
      manager.draining_minidisks() < config.max_draining &&
      ftl.usable_opages() < needed + config.max_draining * msize) {
    return ::testing::AssertionFailure() << "a drain should have started";
  }
  return ::testing::AssertionSuccess();
}

MinidiskId RandomLive(const MinidiskManager& manager, Rng& rng) {
  std::vector<MinidiskId> live;
  for (MinidiskId id = 0; id < manager.total_minidisks(); ++id) {
    if (manager.IsLive(id)) {
      live.push_back(id);
    }
  }
  return live[rng.UniformU64(live.size())];
}

// The host acknowledges drains a little after they start, as a diFS would
// once the data is re-replicated.
void AckDrainsEvery(uint64_t period, uint64_t writes, MinidiskManager& manager,
                    std::vector<MinidiskId>& draining) {
  for (const MinidiskEvent& event : manager.TakeEvents()) {
    if (event.type == MinidiskEventType::kDraining) {
      draining.push_back(event.mdisk);
    }
  }
  if (writes % period == period - 1) {
    for (MinidiskId id : draining) {
      (void)manager.AckDrain(id);
    }
    draining.clear();
  }
}

class MaintenanceQuietStateTest
    : public ::testing::TestWithParam<MaintenanceCase> {
 protected:
  MinidiskConfig MdiskConfig() const {
    MinidiskConfig config = Config().minidisk;
    config.drain_before_decommission = GetParam().drain;
    return config;
  }
  SsdConfig Config() const {
    return TestSsdConfig(GetParam().kind, TinyGeometry(), /*nominal_pec=*/20);
  }
};

// Host writes through the manager run maintenance after every write.
TEST_P(MaintenanceQuietStateTest, EveryWriteLeavesNothingToDo) {
  const MinidiskConfig config = MdiskConfig();
  Ftl ftl(Config().ftl);
  MinidiskManager manager(&ftl, config);
  Rng rng(11);
  std::vector<MinidiskId> draining;
  for (uint64_t writes = 0;
       writes < 200000 && manager.live_minidisks() > 0; ++writes) {
    (void)manager.Write(RandomLive(manager, rng),
                        rng.UniformU64(config.msize_opages));
    ASSERT_TRUE(Quiet(ftl, manager, config)) << "write " << writes;
    AckDrainsEvery(256, writes, manager, draining);
  }
  EXPECT_GT(manager.decommissioned_total(), 0u);
  if (GetParam().kind == SsdKind::kRegenS) {
    EXPECT_GT(manager.regenerated_total(), 0u);
  }
}

// An event-driven host writes to the FTL directly and drains its
// transitions itself, then runs maintenance now and then. With no
// transition left to signal it, maintenance must still see the deficit and
// the limbo those writes built up.
TEST_P(MaintenanceQuietStateTest, ExplicitRoundsCatchUpWithoutTransitions) {
  const MinidiskConfig config = MdiskConfig();
  Ftl ftl(Config().ftl);
  MinidiskManager manager(&ftl, config);
  Rng rng(13);
  std::vector<MinidiskId> draining;
  for (uint64_t writes = 0;
       writes < 200000 && manager.live_minidisks() > 0; ++writes) {
    const MinidiskId target = RandomLive(manager, rng);
    (void)ftl.Write(manager.minidisk(target).first_lpo +
                    rng.UniformU64(config.msize_opages));
    ftl.TakeTransitions();
    if (writes % 64 == 63) {
      manager.RunCapacityMaintenance();
      ASSERT_TRUE(Quiet(ftl, manager, config)) << "write " << writes;
    }
    AckDrainsEvery(256, writes, manager, draining);
  }
  EXPECT_GT(manager.decommissioned_total(), 0u);
  if (GetParam().kind == SsdKind::kRegenS) {
    EXPECT_GT(manager.regenerated_total(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, MaintenanceQuietStateTest,
    ::testing::Values(MaintenanceCase{SsdKind::kShrinkS, false},
                      MaintenanceCase{SsdKind::kShrinkS, true},
                      MaintenanceCase{SsdKind::kRegenS, false},
                      MaintenanceCase{SsdKind::kRegenS, true}),
    [](const ::testing::TestParamInfo<MaintenanceCase>& param_info) {
      const MaintenanceCase& c = param_info.param;
      return std::string(c.kind == SsdKind::kRegenS ? "regens" : "shrinks") +
             (c.drain ? "_drain" : "_nodrain");
    });

}  // namespace
}  // namespace salamander
