// Traffic-engine suite: config validation (every out-of-range field is a
// Status error, constructors die on invalid input), golden op streams,
// engine determinism, tenant-major emission order, arrival shaping, churn,
// skew accounting, the shared zeta cache, and metric export.
#include "workload/traffic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "tests/testing/device_builder.h"
#include "workload/aging.h"
#include "workload/generators.h"

namespace salamander {
namespace {

TenantConfig SmallTenant() {
  TenantConfig tenant;
  tenant.objects = 4096;
  tenant.ops_per_day = 500.0;
  return tenant;
}

TrafficConfig TwoTenants() {
  TrafficConfig config;
  config.seed = 77;
  config.tenants = {SmallTenant(), SmallTenant()};
  return config;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

TEST(TrafficValidationTest, DefaultTenantIsValid) {
  EXPECT_TRUE(ValidateTenantConfig(TenantConfig{}).ok());
}

TEST(TrafficValidationTest, ZeroObjectsRejected) {
  TenantConfig tenant;
  tenant.objects = 0;
  const Status status = ValidateTenantConfig(tenant);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("objects"), std::string::npos);
}

TEST(TrafficValidationTest, ThetaOutsideOpenUnitIntervalRejected) {
  for (double theta : {0.0, 1.0, 1.5, -0.2}) {
    TenantConfig tenant;
    tenant.zipf_theta = theta;
    EXPECT_FALSE(ValidateTenantConfig(tenant).ok()) << theta;
  }
}

TEST(TrafficValidationTest, FractionFieldsRejectOutOfRange) {
  TenantConfig tenant;
  tenant.read_fraction = 1.5;
  EXPECT_FALSE(ValidateTenantConfig(tenant).ok());
  tenant = TenantConfig{};
  tenant.read_fraction = -0.1;
  EXPECT_FALSE(ValidateTenantConfig(tenant).ok());
  tenant = TenantConfig{};
  tenant.churn_per_day = 1.0001;
  EXPECT_FALSE(ValidateTenantConfig(tenant).ok());
}

TEST(TrafficValidationTest, NonFiniteFieldsRejected) {
  TenantConfig tenant;
  tenant.ops_per_day = std::nan("");
  EXPECT_FALSE(ValidateTenantConfig(tenant).ok());
  tenant = TenantConfig{};
  tenant.ops_per_day = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ValidateTenantConfig(tenant).ok());
}

TEST(TrafficValidationTest, DiurnalPhaseMustBeHalfOpen) {
  TenantConfig tenant;
  tenant.diurnal_phase = 1.0;
  EXPECT_FALSE(ValidateTenantConfig(tenant).ok());
  tenant.diurnal_phase = 0.999;
  EXPECT_TRUE(ValidateTenantConfig(tenant).ok());
}

TEST(TrafficValidationTest, BurstMeanPreservationEnforced) {
  // The burst shape's static_asserts keep on_fraction * multiplier <= 1, so
  // the scaled-down off phase preserves the long-run mean: over ~1000 burst
  // cycles a bursty tenant's demand averages ops_per_day.
  TrafficConfig config;
  config.seed = 21;
  TenantConfig tenant = SmallTenant();
  tenant.ops_per_day = 1000.0;
  tenant.read_fraction = 0.0;
  tenant.arrival = ArrivalShape::kBursty;
  config.tenants = {tenant};
  TrafficEngine engine(config, 1 << 16);
  constexpr uint32_t kDays = 8000;
  uint64_t writes = 0;
  for (uint32_t day = 0; day < kDays; ++day) {
    writes += engine.DayWriteDemand(day);
  }
  EXPECT_NEAR(static_cast<double>(writes) / kDays, tenant.ops_per_day,
              0.1 * tenant.ops_per_day);
}

TEST(TrafficValidationTest, EmptyTenantListRejected) {
  TrafficConfig config;
  const Status status = ValidateTrafficConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(TrafficValidationTest, BadTenantNamedByIndex) {
  TrafficConfig config = TwoTenants();
  config.tenants[1].objects = 0;
  const Status status = ValidateTrafficConfig(config);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("tenant 1"), std::string::npos);
}

TEST(TrafficValidationDeathTest, EngineDiesOnInvalidConfig) {
  TrafficConfig config = TwoTenants();
  config.tenants[0].read_fraction = 2.0;
  EXPECT_DEATH(TrafficEngine(config, 1024), "invalid config");
}

TEST(TrafficValidationDeathTest, EngineDiesOnZeroAddressSpace) {
  EXPECT_DEATH(TrafficEngine(TwoTenants(), 0), "address_space");
}

// ---------------------------------------------------------------------------
// AgingConfig validation (satellite: same contract as the traffic configs)
// ---------------------------------------------------------------------------

TEST(AgingValidationTest, DefaultIsValid) {
  EXPECT_TRUE(ValidateAgingConfig(AgingConfig{}).ok());
}

TEST(AgingValidationTest, RejectsOutOfRangeFields) {
  AgingConfig config;
  config.zipfian_fraction = -0.5;
  EXPECT_FALSE(ValidateAgingConfig(config).ok());
  config = AgingConfig{};
  config.zipfian_fraction = 1.5;
  EXPECT_FALSE(ValidateAgingConfig(config).ok());
  config = AgingConfig{};
  config.zipfian_theta = 1.0;
  EXPECT_FALSE(ValidateAgingConfig(config).ok());
  config = AgingConfig{};
  config.working_set_fraction = 0.0;
  EXPECT_FALSE(ValidateAgingConfig(config).ok());
  config = AgingConfig{};
  config.working_set_fraction = std::nan("");
  EXPECT_FALSE(ValidateAgingConfig(config).ok());
}

TEST(AgingValidationDeathTest, DriverDiesOnInvalidConfig) {
  SsdDevice device(SsdKind::kRegenS,
                   testing_util::TestSsdConfig(
                       SsdKind::kRegenS, testing_util::TinyGeometry(), 20));
  AgingConfig config;
  config.zipfian_fraction = 7.0;
  EXPECT_DEATH(AgingDriver(&device, 1, config), "invalid config");
}

// ---------------------------------------------------------------------------
// Determinism & golden streams
// ---------------------------------------------------------------------------

TEST(TrafficEngineTest, SameConfigSameStream) {
  TrafficEngine a(TwoTenants(), 1 << 16);
  TrafficEngine b(TwoTenants(), 1 << 16);
  std::vector<TrafficOp> ops_a;
  std::vector<TrafficOp> ops_b;
  for (uint32_t day = 0; day < 10; ++day) {
    a.EmitDay(day, &ops_a);
    b.EmitDay(day, &ops_b);
  }
  ASSERT_FALSE(ops_a.empty());
  ASSERT_EQ(ops_a.size(), ops_b.size());
  for (size_t i = 0; i < ops_a.size(); ++i) {
    EXPECT_EQ(ops_a[i].tenant, ops_b[i].tenant);
    EXPECT_EQ(ops_a[i].is_read, ops_b[i].is_read);
    EXPECT_EQ(ops_a[i].address, ops_b[i].address);
  }
  EXPECT_EQ(a.StreamDigest(), b.StreamDigest());
}

TEST(TrafficEngineTest, GoldenStreamDigest) {
  // Pinned fingerprint of the canonical two-tenant stream. A change here
  // means the op stream itself changed — every fleet/cluster result built
  // on it silently moved. Update only with a changelog entry explaining why.
  TrafficEngine engine(TwoTenants(), 1 << 16);
  for (uint32_t day = 0; day < 10; ++day) {
    engine.EmitDay(day, nullptr);
  }
  EXPECT_EQ(engine.StreamDigest(), 0x87c25abab688f566ULL);
  EXPECT_EQ(engine.ops_emitted(), 10020u);
}

TEST(TrafficEngineTest, DifferentSeedsDiverge) {
  TrafficConfig other = TwoTenants();
  other.seed = 78;
  TrafficEngine a(TwoTenants(), 1 << 16);
  TrafficEngine b(other, 1 << 16);
  for (uint32_t day = 0; day < 5; ++day) {
    a.EmitDay(day, nullptr);
    b.EmitDay(day, nullptr);
  }
  EXPECT_NE(a.StreamDigest(), b.StreamDigest());
}

TEST(TrafficEngineTest, TenantStreamsIndependentOfTenantCount) {
  // Tenant 0's ops must be identical whether or not tenant 1 exists —
  // the fork-in-tenant-ID-order discipline.
  TrafficConfig solo;
  solo.seed = 77;
  solo.tenants = {SmallTenant()};
  TrafficEngine a(solo, 1 << 16);
  TrafficEngine b(TwoTenants(), 1 << 16);
  std::vector<TrafficOp> ops_a;
  std::vector<TrafficOp> ops_b;
  a.EmitDay(0, &ops_a);
  b.EmitDay(0, &ops_b);
  std::vector<TrafficOp> b_tenant0;
  for (const TrafficOp& op : ops_b) {
    if (op.tenant == 0) {
      b_tenant0.push_back(op);
    }
  }
  ASSERT_EQ(ops_a.size(), b_tenant0.size());
  for (size_t i = 0; i < ops_a.size(); ++i) {
    EXPECT_EQ(ops_a[i].is_read, b_tenant0[i].is_read);
    EXPECT_EQ(ops_a[i].address, b_tenant0[i].address);
  }
}

TEST(TrafficEngineTest, EmitDayIsTenantMajor) {
  TrafficEngine engine(TwoTenants(), 1 << 16);
  std::vector<TrafficOp> ops;
  engine.EmitDay(0, &ops);
  ASSERT_FALSE(ops.empty());
  uint32_t last = 0;
  for (const TrafficOp& op : ops) {
    EXPECT_GE(op.tenant, last);
    last = op.tenant;
  }
  EXPECT_EQ(last, 1u);  // both tenants emitted
}

TEST(TrafficEngineTest, AddressesStayInSpace) {
  const uint64_t space = 777;  // deliberately non-power-of-two
  TrafficEngine engine(TwoTenants(), space);
  std::vector<TrafficOp> ops;
  for (uint32_t day = 0; day < 5; ++day) {
    engine.EmitDay(day, &ops);
  }
  for (const TrafficOp& op : ops) {
    EXPECT_LT(op.address, space);
  }
}

TEST(TrafficEngineTest, DayGapsAdvanceWithoutEmitting) {
  // A fleet device that was dark for days 1..3 asks for day 4 directly; the
  // engine must catch up phase/churn state and still be deterministic.
  TrafficConfig config = TwoTenants();
  config.tenants[0].churn_per_day = 0.01;
  TrafficEngine a(config, 1 << 16);
  TrafficEngine b(config, 1 << 16);
  a.EmitDay(0, nullptr);
  b.EmitDay(0, nullptr);
  a.EmitDay(4, nullptr);
  b.EmitDay(4, nullptr);
  EXPECT_EQ(a.StreamDigest(), b.StreamDigest());
  EXPECT_GT(a.ops_emitted(), 0u);
}

TEST(TrafficEngineTest, DayWriteDemandDeterministicAndCounted) {
  TrafficConfig config = TwoTenants();
  config.tenants[0].read_fraction = 0.25;
  config.tenants[1].read_fraction = 0.75;
  TrafficEngine a(config, 1 << 16);
  TrafficEngine b(config, 1 << 16);
  uint64_t total_writes = 0;
  for (uint32_t day = 0; day < 50; ++day) {
    const uint64_t writes = a.DayWriteDemand(day);
    EXPECT_EQ(writes, b.DayWriteDemand(day)) << day;
    total_writes += writes;
  }
  EXPECT_EQ(a.ops_emitted(), a.reads_emitted() + a.writes_emitted());
  EXPECT_EQ(a.writes_emitted(), total_writes);
  // Long-run mix: tenant 0 writes ~75% of 500, tenant 1 ~25% of 500 —
  // about 500 writes/day total. Poisson + Binomial noise stays well inside
  // +/- 20% over 50 days.
  const double mean_writes = static_cast<double>(total_writes) / 50.0;
  EXPECT_GT(mean_writes, 400.0);
  EXPECT_LT(mean_writes, 600.0);
}

// ---------------------------------------------------------------------------
// Arrival shaping & churn
// ---------------------------------------------------------------------------

TEST(TrafficEngineTest, DiurnalDemandSwings) {
  TrafficConfig config;
  config.seed = 5;
  TenantConfig tenant = SmallTenant();
  tenant.ops_per_day = 20000.0;  // large mean: Poisson noise ~0.7%
  tenant.arrival = ArrivalShape::kDiurnal;
  config.tenants = {tenant};
  TrafficEngine engine(config, 1 << 16);
  std::vector<uint64_t> per_day;
  for (uint32_t day = 0; day < 7; ++day) {
    per_day.push_back(engine.EmitDay(day, nullptr));
  }
  // The 7-day sinusoid peaks at day 1.75 and bottoms out at day 5.25; the
  // nearest whole days sit at ~1.49x and ~0.51x, a ~2.9x ratio far beyond
  // noise.
  static_assert(kDiurnalPeriodDays == 7.0 && kDiurnalAmplitude == 0.5);
  EXPECT_GT(per_day[2], per_day[5] * 2);
}

TEST(TrafficEngineTest, BurstyDemandAlternates) {
  TrafficConfig config;
  config.seed = 9;
  TenantConfig tenant = SmallTenant();
  tenant.ops_per_day = 5000.0;
  tenant.arrival = ArrivalShape::kBursty;
  config.tenants = {tenant};
  TrafficEngine engine(config, 1 << 16);
  uint64_t min_day = UINT64_MAX;
  uint64_t max_day = 0;
  for (uint32_t day = 0; day < 64; ++day) {
    const uint64_t ops = engine.EmitDay(day, nullptr);
    min_day = std::min(min_day, ops);
    max_day = std::max(max_day, ops);
  }
  // On-phase demand is 3x the mean, off-phase is 1/3x: the spread must
  // show both regimes.
  static_assert(kBurstMultiplier == 3.0 && kBurstOnFraction == 0.25);
  EXPECT_GT(max_day, 12000u);
  EXPECT_LT(min_day, 5000u);
}

TEST(TrafficEngineTest, ChurnMigratesTheHotSet) {
  TrafficConfig still = TwoTenants();
  TrafficConfig churning = TwoTenants();
  churning.tenants[0].churn_per_day = 0.05;
  churning.tenants[1].churn_per_day = 0.05;
  TrafficEngine a(still, 1 << 16);
  TrafficEngine b(churning, 1 << 16);
  // Churn shifts the rank->object rotation from day 0 onward (the advance
  // loop credits each simulated day, including the first), so the two
  // engines' address streams must diverge.
  for (uint32_t day = 0; day <= 10; ++day) {
    a.EmitDay(day, nullptr);
    b.EmitDay(day, nullptr);
  }
  EXPECT_NE(a.StreamDigest(), b.StreamDigest());
}

TEST(TrafficEngineTest, SkewAccountingMatchesTheta) {
  TrafficConfig config;
  config.seed = 3;
  TenantConfig hot = SmallTenant();
  hot.zipf_theta = 0.99;
  TenantConfig mild = SmallTenant();
  mild.zipf_theta = 0.1;
  config.tenants = {hot, mild};
  TrafficEngine engine(config, 1 << 16);
  for (uint32_t day = 0; day < 20; ++day) {
    engine.EmitDay(day, nullptr);
  }
  // Tenant 0 concentrates far more of its ops in the top 1% of ranks, and
  // needs far fewer objects to cover half its mass.
  EXPECT_GT(engine.TenantAchievedSkew(0), 0.4);
  EXPECT_LT(engine.TenantAchievedSkew(1), engine.TenantAchievedSkew(0) / 2);
  EXPECT_LT(engine.TenantHotSetObjects(0), engine.TenantHotSetObjects(1));
}

TEST(TrafficEngineTest, MakeUniformTrafficRotatesShapes) {
  const TrafficConfig mixed =
      MakeUniformTraffic(6, SmallTenant(), 1, /*mixed_arrivals=*/true);
  ASSERT_EQ(mixed.tenants.size(), 6u);
  EXPECT_EQ(mixed.tenants[0].arrival, ArrivalShape::kSteady);
  EXPECT_EQ(mixed.tenants[1].arrival, ArrivalShape::kDiurnal);
  EXPECT_EQ(mixed.tenants[2].arrival, ArrivalShape::kBursty);
  EXPECT_EQ(mixed.tenants[3].arrival, ArrivalShape::kSteady);
  // Diurnal phases are staggered, not phase-locked.
  EXPECT_NE(mixed.tenants[1].diurnal_phase, mixed.tenants[4].diurnal_phase);
  const TrafficConfig plain =
      MakeUniformTraffic(3, SmallTenant(), 1, /*mixed_arrivals=*/false);
  for (const TenantConfig& tenant : plain.tenants) {
    EXPECT_EQ(tenant.arrival, ArrivalShape::kSteady);
  }
}

TEST(TrafficEngineTest, ArrivalShapeNames) {
  EXPECT_EQ(ArrivalShapeName(ArrivalShape::kSteady), "steady");
  EXPECT_EQ(ArrivalShapeName(ArrivalShape::kDiurnal), "diurnal");
  EXPECT_EQ(ArrivalShapeName(ArrivalShape::kBursty), "bursty");
}

// ---------------------------------------------------------------------------
// Zeta cache
// ---------------------------------------------------------------------------

TEST(ZetaCacheTest, MatchesDirectSum) {
  const double cached = ZipfianGenerator::CachedZeta(1000, 0.99);
  double direct = 0.0;
  for (uint64_t i = 1; i <= 1000; ++i) {
    direct += 1.0 / std::pow(static_cast<double>(i), 0.99);
  }
  EXPECT_DOUBLE_EQ(cached, direct);
}

TEST(ZetaCacheTest, RepeatedLookupsDoNotGrowTheCache) {
  (void)ZipfianGenerator::CachedZeta(12345, 0.77);
  const size_t size = ZipfianGenerator::ZetaCacheSize();
  for (int i = 0; i < 10; ++i) {
    (void)ZipfianGenerator::CachedZeta(12345, 0.77);
  }
  EXPECT_EQ(ZipfianGenerator::ZetaCacheSize(), size);
  (void)ZipfianGenerator::CachedZeta(12346, 0.77);
  EXPECT_EQ(ZipfianGenerator::ZetaCacheSize(), size + 1);
}

TEST(ZetaCacheTest, CachedGeneratorsMatchFreshOnes) {
  // Two generators with the same (space, theta) share cached constants and
  // must produce identical sequences from identical rng states.
  ZipfianGenerator a(50000, 0.99);
  ZipfianGenerator b(50000, 0.99);
  Rng rng_a(11);
  Rng rng_b(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(rng_a), b.Next(rng_b));
  }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(TrafficEngineTest, CollectMetricsExportsCounts) {
  TrafficEngine engine(TwoTenants(), 1 << 16);
  for (uint32_t day = 0; day < 3; ++day) {
    engine.EmitDay(day, nullptr);
  }
  MetricRegistry registry;
  engine.CollectMetrics(registry);
  EXPECT_EQ(registry.GetCounter("workload.ops").value(),
            engine.ops_emitted());
  EXPECT_EQ(registry.GetCounter("workload.reads").value(),
            engine.reads_emitted());
  EXPECT_EQ(registry.GetCounter("workload.writes").value(),
            engine.writes_emitted());
  EXPECT_EQ(registry.GetCounter("workload.tenant.0.ops").value() +
                registry.GetCounter("workload.tenant.1.ops").value(),
            engine.ops_emitted());
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("workload.tenant.1.achieved_skew"), std::string::npos);
}

// StreamDigest folds runs of zero bytes into one multiply; it must equal
// FNV-1a computed byte by byte over the ops EmitDay returned. Tenant ids
// above 255, a churning tenant and an address space wider than 32 bits
// cover multi-byte fields of every op field.
TEST(TrafficEngineTest, StreamDigestMatchesByteSerialFnv) {
  for (const uint64_t space : {uint64_t{1000}, (uint64_t{1} << 40) + 7}) {
    TenantConfig tenant = SmallTenant();
    tenant.ops_per_day = 3.0;
    tenant.churn_per_day = 0.3;
    TrafficEngine engine(MakeUniformTraffic(300, tenant, 5), space);
    std::vector<TrafficOp> ops;
    for (uint32_t day = 0; day < 4; ++day) {
      engine.EmitDay(day, &ops);
    }
    ASSERT_GT(ops.size(), 1000u);
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const TrafficOp& op : ops) {
      for (const uint64_t value :
           {uint64_t{op.tenant}, uint64_t{op.is_read ? 1u : 0u}, op.address}) {
        for (int byte = 0; byte < 8; ++byte) {
          hash ^= (value >> (byte * 8)) & 0xff;
          hash *= 0x100000001b3ULL;
        }
      }
    }
    EXPECT_EQ(engine.StreamDigest(), hash) << "address space " << space;
  }
}

TEST(TrafficEngineTest, ModByReciprocalMatchesModulo) {
  Rng rng(17);
  for (const uint64_t d :
       {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{10922},
        (uint64_t{1} << 32) + 1, (uint64_t{1} << 63) + 1, UINT64_MAX}) {
    const uint64_t inv = UINT64_MAX / d;
    const uint64_t top = inv * d;  // the largest multiple of d
    std::vector<uint64_t> xs = {0,       1,       d - 1,          d,
                                top - 1, top,     UINT64_MAX - 1, UINT64_MAX};
    if (d <= UINT64_MAX / 2) {
      xs.insert(xs.end(), {d + 1, 2 * d - 1, 2 * d, top - d, top - d + 1});
    }
    for (int i = 0; i < 10000; ++i) {
      xs.push_back(rng.NextU64());
      xs.push_back(rng.NextU64() >> rng.UniformU64(64));
    }
    for (const uint64_t x : xs) {
      ASSERT_EQ(ModByReciprocal(x, d, inv), x % d) << "x " << x << " d " << d;
    }
  }
}

}  // namespace
}  // namespace salamander
