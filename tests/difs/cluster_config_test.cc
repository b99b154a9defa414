// Cluster config validation: ValidateDifsConfig / ValidateEcConfig reject
// every invalid shape with a Status, and both constructors abort on an
// invalid config in every build mode (one death test per rule).
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <utility>

#include "difs/cluster.h"
#include "difs/ec_cluster.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestSsdConfig;
using testing_util::TinyGeometry;

std::function<std::unique_ptr<SsdDevice>(uint32_t)> Factory() {
  return [](uint32_t index) {
    return std::make_unique<SsdDevice>(
        SsdKind::kShrinkS, TestSsdConfig(SsdKind::kShrinkS, TinyGeometry(),
                                         1000000, 31 + index));
  };
}

DifsConfig ValidDifs() {
  DifsConfig config;
  config.nodes = 4;
  config.replication = 3;
  config.chunk_opages = 16;
  return config;
}

EcConfig ValidEc() {
  EcConfig config;
  config.nodes = 6;
  config.data_cells = 4;
  config.parity_cells = 2;
  config.cell_opages = 16;
  return config;
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Applies `mutate` to a valid config of each scheme and returns both
// validation codes, for the rules every scheme shares.
template <typename Mutate>
std::pair<StatusCode, StatusCode> SharedRuleCodes(Mutate mutate) {
  DifsConfig difs = ValidDifs();
  mutate(difs);
  EcConfig ec = ValidEc();
  mutate(ec);
  return {ValidateDifsConfig(difs).code(), ValidateEcConfig(ec).code()};
}

TEST(ClusterConfigTest, DefaultsAndValidShapesPass) {
  EXPECT_TRUE(ValidateDifsConfig(DifsConfig{}).ok());
  EXPECT_TRUE(ValidateEcConfig(EcConfig{}).ok());
  EXPECT_TRUE(ValidateDifsConfig(ValidDifs()).ok());
  EXPECT_TRUE(ValidateEcConfig(ValidEc()).ok());
  // The edges of the shared ranges are valid.
  const std::pair<StatusCode, StatusCode> ok{StatusCode::kOk,
                                             StatusCode::kOk};
  for (const double fill : {1.0, 1e-9}) {
    EXPECT_EQ(SharedRuleCodes([&](ClusterConfig& c) { c.fill_fraction = fill; }),
              ok);
  }
  for (const double threshold : {0.0, 1.0}) {
    EXPECT_EQ(SharedRuleCodes([&](ClusterConfig& c) {
                c.drain_health_threshold = threshold;
              }),
              ok);
  }
  for (const double horizon : {0.0, 3.0}) {
    EXPECT_EQ(SharedRuleCodes(
                  [&](ClusterConfig& c) { c.drain_pec_horizon = horizon; }),
              ok);
  }
}

TEST(ClusterConfigTest, EveryRuleReportsInvalidArgument) {
  DifsConfig difs = ValidDifs();
  difs.replication = 0;
  EXPECT_EQ(ValidateDifsConfig(difs).code(), StatusCode::kInvalidArgument);
  difs = ValidDifs();
  difs.nodes = 2;
  EXPECT_EQ(ValidateDifsConfig(difs).code(), StatusCode::kInvalidArgument);
  difs = ValidDifs();
  difs.chunk_opages = 0;
  EXPECT_EQ(ValidateDifsConfig(difs).code(), StatusCode::kInvalidArgument);
  difs = ValidDifs();
  difs.sched.queue_depth = 8;  // enabled with a zero arrival interval
  EXPECT_EQ(ValidateDifsConfig(difs).code(), StatusCode::kInvalidArgument);

  EcConfig ec = ValidEc();
  ec.data_cells = 0;
  EXPECT_EQ(ValidateEcConfig(ec).code(), StatusCode::kInvalidArgument);
  ec = ValidEc();
  ec.parity_cells = 0;
  EXPECT_EQ(ValidateEcConfig(ec).code(), StatusCode::kInvalidArgument);
  ec = ValidEc();
  ec.data_cells = 250;
  ec.parity_cells = 6;
  ec.nodes = 256;
  EXPECT_EQ(ValidateEcConfig(ec).code(), StatusCode::kInvalidArgument);
  ec = ValidEc();
  ec.nodes = 5;
  EXPECT_EQ(ValidateEcConfig(ec).code(), StatusCode::kInvalidArgument);
  ec = ValidEc();
  ec.sched.queue_depth = 8;
  EXPECT_EQ(ValidateEcConfig(ec).code(), StatusCode::kInvalidArgument);

  // Shared ranges, both schemes. A NaN fill fraction would make Bootstrap's
  // unit count undefined behaviour; a NaN drain threshold would keep
  // maintenance awake yet never flag a device.
  const std::pair<StatusCode, StatusCode> invalid{
      StatusCode::kInvalidArgument, StatusCode::kInvalidArgument};
  for (const double fill : {0.0, -0.5, 1.0001, kNan, kInf, -kInf}) {
    EXPECT_EQ(SharedRuleCodes([&](ClusterConfig& c) { c.fill_fraction = fill; }),
              invalid)
        << "fill_fraction " << fill;
  }
  for (const double threshold : {-0.1, 1.5, kNan, kInf, -kInf}) {
    EXPECT_EQ(SharedRuleCodes([&](ClusterConfig& c) {
                c.drain_health_threshold = threshold;
              }),
              invalid)
        << "drain_health_threshold " << threshold;
  }
  for (const double horizon : {-0.25, kNan, kInf, -kInf}) {
    EXPECT_EQ(SharedRuleCodes(
                  [&](ClusterConfig& c) { c.drain_pec_horizon = horizon; }),
              invalid)
        << "drain_pec_horizon " << horizon;
  }
}

TEST(ClusterConfigDeathTest, DiesOnNanFillFraction) {
  DifsConfig difs = ValidDifs();
  difs.fill_fraction = kNan;
  EXPECT_DEATH(DifsCluster(difs, Factory()), "fill_fraction");
  EcConfig ec = ValidEc();
  ec.fill_fraction = kNan;
  EXPECT_DEATH(EcCluster(ec, Factory()), "fill_fraction");
}

TEST(ClusterConfigDeathTest, DifsDiesOnZeroReplication) {
  DifsConfig config = ValidDifs();
  config.replication = 0;
  EXPECT_DEATH(DifsCluster(config, Factory()), "invalid config");
}

TEST(ClusterConfigDeathTest, DifsDiesWithFewerNodesThanReplicas) {
  DifsConfig config = ValidDifs();
  config.nodes = 2;
  EXPECT_DEATH(DifsCluster(config, Factory()), "invalid config");
}

TEST(ClusterConfigDeathTest, EcDiesOnZeroDataCells) {
  EcConfig config = ValidEc();
  config.data_cells = 0;
  EXPECT_DEATH(EcCluster(config, Factory()), "invalid config");
}

TEST(ClusterConfigDeathTest, EcDiesOnZeroParityCells) {
  EcConfig config = ValidEc();
  config.parity_cells = 0;
  EXPECT_DEATH(EcCluster(config, Factory()), "invalid config");
}

TEST(ClusterConfigDeathTest, EcDiesWithFewerNodesThanCells) {
  EcConfig config = ValidEc();
  config.nodes = 5;
  EXPECT_DEATH(EcCluster(config, Factory()), "invalid config");
}

TEST(ClusterConfigDeathTest, EcDiesWhenCellIndexOverflowsSlotRef) {
  EcConfig config = ValidEc();
  config.data_cells = 250;
  config.parity_cells = 6;
  config.nodes = 256;
  EXPECT_DEATH(EcCluster(config, Factory()), "invalid config");
}

TEST(ClusterConfigDeathTest, DiesWhenMdiskSmallerThanOneUnit) {
  // TinyGeometry's mDisks hold far fewer than 1 << 20 oPages.
  DifsConfig difs = ValidDifs();
  difs.chunk_opages = 1 << 20;
  EXPECT_DEATH(DifsCluster(difs, Factory()), "slots_per_mdisk");
  EcConfig ec = ValidEc();
  ec.cell_opages = 1 << 20;
  EXPECT_DEATH(EcCluster(ec, Factory()), "slots_per_mdisk");
}

TEST(ClusterConfigDeathTest, DiesOnInvalidSchedConfig) {
  DifsConfig difs = ValidDifs();
  difs.sched.queue_depth = 8;  // enabled with a zero arrival interval
  EXPECT_DEATH(DifsCluster(difs, Factory()), "arrival_interval_ns");
  EcConfig ec = ValidEc();
  ec.sched.queue_depth = 8;
  EXPECT_DEATH(EcCluster(ec, Factory()), "arrival_interval_ns");
}

}  // namespace
}  // namespace salamander
