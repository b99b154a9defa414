#include "faults/fault_injector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace salamander {
namespace {

FaultConfig AllSitesConfig(uint64_t seed = 42) {
  FaultConfig config;
  config.program_fail = 0.1;
  config.erase_fail = 0.1;
  config.read_corrupt = 0.1;
  config.transient_unavailable = 0.1;
  config.event_drop = 0.1;
  config.event_duplicate = 0.1;
  config.event_delay = 0.1;
  config.crash_during_drain = 0.1;
  config.node_outage = 0.1;
  config.ack_drain_lost = 0.1;
  config.seed = seed;
  return config;
}

TEST(FaultInjectorTest, DefaultConstructedIsDisabled) {
  FaultInjector injector;
  EXPECT_FALSE(injector.enabled());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(injector.ProgramFails());
    EXPECT_FALSE(injector.EraseFails());
    EXPECT_FALSE(injector.CorruptsRead());
    EXPECT_FALSE(injector.TransientlyUnavailable());
    EXPECT_FALSE(injector.DropsEvent());
    EXPECT_FALSE(injector.DuplicatesEvent());
    EXPECT_EQ(injector.EventDelayWaves(), 0u);
    EXPECT_FALSE(injector.CrashesDuringDrain());
    EXPECT_FALSE(injector.StartsNodeOutage());
    EXPECT_FALSE(injector.LosesAckDrain());
  }
  EXPECT_EQ(injector.stats().total(), 0u);
}

TEST(FaultInjectorTest, ZeroProbabilitySiteNeverFires) {
  FaultConfig config;  // all probabilities zero
  FaultInjector injector(config, /*stream_id=*/0);
  EXPECT_TRUE(injector.enabled());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(injector.ProgramFails());
  }
  EXPECT_EQ(injector.stats().count(FaultSite::kProgramFail), 0u);
}

TEST(FaultInjectorTest, SameSeedSameStreamIdIsDeterministic) {
  FaultInjector a(AllSitesConfig(), /*stream_id=*/3);
  FaultInjector b(AllSitesConfig(), /*stream_id=*/3);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.ProgramFails(), b.ProgramFails());
    EXPECT_EQ(a.DropsEvent(), b.DropsEvent());
    EXPECT_EQ(a.EventDelayWaves(), b.EventDelayWaves());
    EXPECT_EQ(a.LosesAckDrain(), b.LosesAckDrain());
  }
  EXPECT_EQ(a.stats().total(), b.stats().total());
}

TEST(FaultInjectorTest, DistinctStreamIdsDiverge) {
  FaultInjector a(AllSitesConfig(), /*stream_id=*/0);
  FaultInjector b(AllSitesConfig(), /*stream_id=*/1);
  int differences = 0;
  for (int i = 0; i < 2000; ++i) {
    differences += a.ProgramFails() != b.ProgramFails() ? 1 : 0;
  }
  EXPECT_GT(differences, 0);
}

// The determinism contract that keeps fault schedules stable as probes are
// added: each site draws from its own stream, so querying (or not querying)
// one site never changes another site's schedule.
TEST(FaultInjectorTest, SitesAreScheduleIndependent) {
  FaultInjector a(AllSitesConfig(), /*stream_id=*/5);
  FaultInjector b(AllSitesConfig(), /*stream_id=*/5);
  std::vector<bool> a_drops;
  for (int i = 0; i < 500; ++i) {
    // `a` interleaves heavy traffic on unrelated sites; `b` does not.
    (void)a.ProgramFails();
    (void)a.EraseFails();
    (void)a.TransientlyUnavailable();
    a_drops.push_back(a.DropsEvent());
  }
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(b.DropsEvent(), a_drops[i]) << "at draw " << i;
  }
}

TEST(FaultInjectorTest, StatsCountEachInjection) {
  FaultConfig config;
  config.program_fail = 1.0;
  FaultInjector injector(config, /*stream_id=*/0);
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(injector.ProgramFails());
  }
  EXPECT_EQ(injector.stats().count(FaultSite::kProgramFail), 7u);
  EXPECT_EQ(injector.stats().total(), 7u);
}

TEST(FaultInjectorTest, DelayWavesWithinConfiguredBound) {
  FaultConfig config;
  config.event_delay = 1.0;
  FaultInjector injector(config, /*stream_id=*/0);
  for (int i = 0; i < 200; ++i) {
    const uint32_t waves = injector.EventDelayWaves();
    EXPECT_GE(waves, 1u);
    EXPECT_LE(waves, kEventDelayWavesMax);
  }
}

TEST(FaultInjectorTest, OutageNodeWithinRange) {
  FaultConfig config;
  config.node_outage = 1.0;
  FaultInjector injector(config, /*stream_id=*/0);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(injector.StartsNodeOutage());
    EXPECT_LT(injector.OutageNode(6), 6u);
    const uint32_t ticks = injector.OutageTicks();
    EXPECT_GE(ticks, 1u);
    EXPECT_LE(ticks, kNodeOutageTicksMax);
  }
}

TEST(FaultConfigTest, ProbabilitiesMustBeFiniteAndInUnitInterval) {
  EXPECT_TRUE(ValidateFaultConfig(FaultConfig{}).ok());
  EXPECT_TRUE(ValidateFaultConfig(AllSitesConfig()).ok());
  FaultConfig config;
  config.program_fail = 1.0;
  config.cohort_unavailable = 1.0;
  EXPECT_TRUE(ValidateFaultConfig(config).ok());
  for (double p : {std::nan(""), -0.1, 1.5,
                   std::numeric_limits<double>::infinity()}) {
    config = FaultConfig{};
    config.torn_journal_write = p;
    const Status status = ValidateFaultConfig(config);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << p;
    EXPECT_NE(status.message().find("torn_journal_write"), std::string::npos)
        << status.message();
  }
}

TEST(FaultConfigDeathTest, InjectorDiesOnInvalidProbability) {
  FaultConfig config;
  config.node_outage = std::nan("");
  EXPECT_DEATH(FaultInjector(config, /*stream_id=*/0), "invalid config");
  config = FaultConfig{};
  config.read_corrupt = -0.1;
  EXPECT_DEATH(FaultInjector(config, /*stream_id=*/0), "invalid config");
  config = FaultConfig{};
  config.power_loss = 1.5;
  EXPECT_DEATH(FaultInjector(config, /*stream_id=*/0), "invalid config");
}

TEST(FaultInjectorTest, SiteNamesAreStable) {
  EXPECT_EQ(FaultSiteName(FaultSite::kProgramFail), "program_fail");
  EXPECT_EQ(FaultSiteName(FaultSite::kAckDrainLost), "ack_drain_lost");
}

}  // namespace
}  // namespace salamander
