// FleetConfig validation and the fleet's journal decision.
//
// ValidateFleetConfig rejects every config the simulator cannot run, and the
// FleetSim constructor aborts on it in every build mode (one death test per
// rule). FleetPowerLossPossible decides whether the fleet's FTLs keep a
// journal; its table below pins which configs can lose power.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "fleet/fleet_sim.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

FleetConfig Valid() {
  FleetConfig config;
  config.kind = SsdKind::kRegenS;
  config.devices = 2;
  config.geometry = testing_util::TinyGeometry();
  config.ecc = FPageEccGeometry{};
  config.wear = testing_util::FastWear(config.ecc, /*nominal_pec=*/20);
  config.msize_opages = 64;
  config.days = 5;
  config.sample_every_days = 1;
  return config;
}

TEST(FleetConfigTest, DefaultsAndValidShapesPass) {
  EXPECT_TRUE(ValidateFleetConfig(FleetConfig{}).ok());
  EXPECT_TRUE(ValidateFleetConfig(Valid()).ok());
  FleetConfig edges = Valid();
  edges.devices = 0;  // an empty fleet is a valid degenerate run
  edges.afr = 1.0;
  edges.power_loss_per_device_day = 1.0;
  edges.domain.rack_power_loss_per_day = 0.0;
  edges.domain.cohort_unavailable_per_day = 1.0;
  edges.dwpd = 0.0;
  edges.dwpd_sigma = 0.0;
  EXPECT_TRUE(ValidateFleetConfig(edges).ok());
}

TEST(FleetConfigTest, EveryRuleReportsInvalidArgument) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<FleetConfig> bad(10, Valid());
  bad[0].days = 0;
  bad[1].sample_every_days = 0;
  bad[2].afr = 1.5;
  bad[3].afr = nan;
  bad[4].power_loss_per_device_day = -0.1;
  bad[5].domain.rack_power_loss_per_day = 2.0;
  bad[6].domain.cohort_unavailable_per_day = -1.0;
  bad[7].dwpd = -0.5;
  bad[8].dwpd_sigma = -0.1;
  bad[9].dwpd = nan;
  for (size_t i = 0; i < bad.size(); ++i) {
    EXPECT_EQ(ValidateFleetConfig(bad[i]).code(),
              StatusCode::kInvalidArgument)
        << "case " << i;
  }
}

TEST(FleetConfigDeathTest, DiesOnZeroDays) {
  FleetConfig config = Valid();
  config.days = 0;
  EXPECT_DEATH(FleetSim{config}, "invalid config: days");
}

TEST(FleetConfigDeathTest, DiesOnZeroSampleInterval) {
  FleetConfig config = Valid();
  config.sample_every_days = 0;
  EXPECT_DEATH(FleetSim{config}, "invalid config: sample_every_days");
}

TEST(FleetConfigDeathTest, DiesOnAfrOutsideUnitInterval) {
  FleetConfig config = Valid();
  config.afr = 1.01;
  EXPECT_DEATH(FleetSim{config}, "invalid config: afr");
}

TEST(FleetConfigDeathTest, DiesOnPowerLossOutsideUnitInterval) {
  FleetConfig config = Valid();
  config.power_loss_per_device_day = -0.01;
  EXPECT_DEATH(FleetSim{config}, "invalid config: power_loss_per_device_day");
}

TEST(FleetConfigDeathTest, DiesOnRackPowerLossOutsideUnitInterval) {
  FleetConfig config = Valid();
  config.domain.devices_per_rack = 1;
  config.domain.rack_power_loss_per_day = 1.5;
  EXPECT_DEATH(FleetSim{config}, "rack_power_loss_per_day");
}

TEST(FleetConfigDeathTest, DiesOnCohortWaveRateOutsideUnitInterval) {
  FleetConfig config = Valid();
  config.domain.batch_cohorts = 1;
  config.domain.cohort_unavailable_per_day = 3.0;
  EXPECT_DEATH(FleetSim{config}, "cohort_unavailable_per_day");
}

TEST(FleetConfigDeathTest, DiesOnNegativeDwpd) {
  FleetConfig config = Valid();
  config.dwpd = -1.0;
  EXPECT_DEATH(FleetSim{config}, "invalid config: dwpd must");
}

TEST(FleetConfigDeathTest, DiesOnNegativeDwpdSigma) {
  FleetConfig config = Valid();
  config.dwpd_sigma = -0.3;
  EXPECT_DEATH(FleetSim{config}, "invalid config: dwpd_sigma");
}

// Which configs can lose power — and therefore journal. Rack events need a
// rack axis; the per-device path is `power_loss_per_device_day`.
TEST(FleetPowerLossPredicateTest, Table) {
  struct Row {
    const char* name;
    FleetConfig config;
    bool possible;
  };
  FleetConfig none = Valid();
  none.domain.rack_power_loss_per_day = 0.5;  // inert: no rack axis
  FleetConfig rack = Valid();
  rack.domain.devices_per_rack = 2;
  rack.domain.rack_power_loss_per_day = 0.3;
  FleetConfig per_device = Valid();
  per_device.power_loss_per_device_day = 0.3;
  const Row rows[] = {
      {"none", none, false},
      {"rack events", rack, true},
      {"power_loss_per_device_day", per_device, true},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(FleetPowerLossPossible(row.config), row.possible) << row.name;
    // Either way the fleet runs: a journaled fleet restarts from its
    // outages, an unjournaled one never reaches SimulatePowerLoss (which
    // would abort).
    FleetSim sim(row.config);
    sim.Run();
    EXPECT_EQ(sim.power_losses_total() > 0, row.possible) << row.name;
  }
}

}  // namespace
}  // namespace salamander
