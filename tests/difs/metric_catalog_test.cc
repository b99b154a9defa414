// Metric-name catalog for both cluster flavors. Each test builds a cluster
// with every optional feature on — queueing with hedging and brownout, a
// suspect window, domain-spread placement, proactive drain, cluster and
// device fault injectors — runs a short workload, and diffs the sorted
// "<kind> <name>" list of CollectMetrics against a checked-in catalog
// (tests/difs/metric_catalog_{difs,ec}.txt). Metric names are a stable
// interface: a rename or a dropped instrument shows up here for review.
//
// To regenerate after an intended change, run the test with
// SALA_UPDATE_METRIC_CATALOG=1 and commit the rewritten catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/units.h"
#include "difs/cluster.h"
#include "difs/ec_cluster.h"
#include "difs/placement.h"
#include "faults/fault_injector.h"
#include "telemetry/metrics.h"
#include "tests/testing/device_builder.h"

namespace salamander {
namespace {

using testing_util::TestSsdConfig;
using testing_util::TinyGeometry;

std::function<std::unique_ptr<SsdDevice>(uint32_t)> FaultyFactory() {
  return [](uint32_t index) {
    SsdConfig config = TestSsdConfig(SsdKind::kShrinkS, TinyGeometry(),
                                     /*nominal_pec=*/40, 900 + index * 13);
    FaultConfig faults;
    faults.read_corrupt = 0.01;
    faults.transient_unavailable = 0.01;
    faults.seed = 77;
    config.faults = std::make_shared<FaultInjector>(faults, index);
    return std::make_unique<SsdDevice>(SsdKind::kShrinkS, config);
  };
}

std::shared_ptr<FaultInjector> ClusterInjector() {
  FaultConfig faults;
  faults.node_outage = 0.05;
  faults.ack_drain_lost = 0.1;
  faults.seed = 78;
  return std::make_shared<FaultInjector>(faults, /*stream_id=*/1000);
}

// Every optional cluster feature on: the union of all conditional blocks.
template <typename Config>
void EnableEverything(Config& config) {
  config.nodes = 8;
  config.devices_per_node = 1;
  config.fill_fraction = 0.4;
  config.seed = 4711;
  config.sched.queue_depth = 32;
  config.sched.arrival_interval_ns = 4 * kMicrosecond;
  config.sched.hedge_threshold_ns = 30 * kMicrosecond;
  config.sched.slo_p99_ns = 300 * kMicrosecond;
  config.sched.brownout_window_ops = 32;
  config.suspect_grace_ticks = 4;
  config.nodes_per_rack = 2;
  config.placement = MakeDomainSpreadPlacement(2);
  config.drain_health_threshold = 0.6;
  config.faults = ClusterInjector();
}

std::string Catalog(const MetricRegistry& registry) {
  std::vector<std::string> lines;
  for (const auto& [name, counter] : registry.counters()) {
    lines.push_back(name + " counter");
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    lines.push_back(name + " gauge");
  }
  for (const auto& [name, histogram] : registry.histograms()) {
    lines.push_back(name + " histogram");
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line + "\n";
  }
  return out;
}

void ExpectCatalog(const MetricRegistry& registry, const std::string& file) {
  const std::string path = std::string(SALA_TESTS_DIR) + "/difs/" + file;
  const std::string actual = Catalog(registry);
  if (std::getenv("SALA_UPDATE_METRIC_CATALOG") != nullptr) {
    std::ofstream(path) << actual;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing catalog " << path;
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "metric names drifted from " << path
      << " (rerun with SALA_UPDATE_METRIC_CATALOG=1 if intended)";
}

TEST(MetricCatalogTest, DifsClusterNamesMatchCatalog) {
  DifsConfig config;
  EnableEverything(config);
  config.replication = 3;
  config.chunk_opages = 16;
  DifsCluster cluster(config, FaultyFactory());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  (void)cluster.StepWrites(512);
  (void)cluster.StepReads(256);
  (void)cluster.ScrubStep(64);
  cluster.ForceReconcile();
  MetricRegistry registry;
  cluster.CollectMetrics(registry);
  ExpectCatalog(registry, "metric_catalog_difs.txt");
}

TEST(MetricCatalogTest, EcClusterNamesMatchCatalog) {
  EcConfig config;
  EnableEverything(config);
  config.data_cells = 2;
  config.parity_cells = 2;
  config.cell_opages = 16;
  EcCluster cluster(config, FaultyFactory());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  (void)cluster.StepWrites(512);
  (void)cluster.StepReads(256);
  cluster.ForceReconcile();
  MetricRegistry registry;
  cluster.CollectMetrics(registry);
  ExpectCatalog(registry, "metric_catalog_ec.txt");
}

}  // namespace
}  // namespace salamander
