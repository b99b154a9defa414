#include "workload/traffic.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace salamander {
namespace {

constexpr double kPi = 3.14159265358979323846;

// SplitMix64 finalizer: the per-tenant object -> address scatter. A full
// avalanche mixer, so each tenant's objects land pseudo-uniformly over the
// shared address space while staying a pure function of (salt, object).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

// kFnvPrimePow[k] = kFnvPrime^k mod 2^64.
constexpr std::array<uint64_t, 9> kFnvPrimePow = [] {
  std::array<uint64_t, 9> pow{};
  pow[0] = 1;
  for (size_t k = 1; k < pow.size(); ++k) {
    pow[k] = pow[k - 1] * kFnvPrime;
  }
  return pow;
}();

// FNV-1a over the 8 little-endian bytes of `value`. A zero byte's xor is a
// no-op, so the run of zero high bytes folds into one multiply by
// kFnvPrime^k — the same hash mod 2^64 as the byte-serial loop.
uint64_t FnvMix64(uint64_t hash, uint64_t value) {
  int bytes = 0;
  for (; value != 0; value >>= 8, ++bytes) {
    hash ^= value & 0xff;
    hash *= kFnvPrime;
  }
  return hash * kFnvPrimePow[8 - bytes];
}

Status FractionError(const char* field, double value) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "%s must be in [0, 1], got %g", field,
                value);
  return InvalidArgumentError(buffer);
}

bool InUnitInterval(double v) { return std::isfinite(v) && v >= 0.0 && v <= 1.0; }

}  // namespace

std::string_view ArrivalShapeName(ArrivalShape shape) {
  switch (shape) {
    case ArrivalShape::kSteady:
      return "steady";
    case ArrivalShape::kDiurnal:
      return "diurnal";
    case ArrivalShape::kBursty:
      return "bursty";
  }
  return "unknown";
}

Status ValidateTenantConfig(const TenantConfig& config) {
  if (config.objects == 0) {
    return InvalidArgumentError("TenantConfig: objects must be > 0");
  }
  if (!std::isfinite(config.zipf_theta) || config.zipf_theta <= 0.0 ||
      config.zipf_theta >= 1.0) {
    return InvalidArgumentError(
        "TenantConfig: zipf_theta must be in (0, 1) (YCSB convention)");
  }
  if (!InUnitInterval(config.read_fraction)) {
    return FractionError("TenantConfig: read_fraction", config.read_fraction);
  }
  if (!std::isfinite(config.ops_per_day) || config.ops_per_day < 0.0) {
    return InvalidArgumentError(
        "TenantConfig: ops_per_day must be finite and >= 0");
  }
  if (!std::isfinite(config.diurnal_phase) || config.diurnal_phase < 0.0 ||
      config.diurnal_phase >= 1.0) {
    return InvalidArgumentError(
        "TenantConfig: diurnal_phase must be in [0, 1)");
  }
  if (!InUnitInterval(config.churn_per_day)) {
    return FractionError("TenantConfig: churn_per_day", config.churn_per_day);
  }
  return OkStatus();
}

Status ValidateTrafficConfig(const TrafficConfig& config) {
  if (config.tenants.empty()) {
    return InvalidArgumentError("TrafficConfig: at least one tenant required");
  }
  for (size_t i = 0; i < config.tenants.size(); ++i) {
    Status status = ValidateTenantConfig(config.tenants[i]);
    if (!status.ok()) {
      char buffer[160];
      std::snprintf(buffer, sizeof(buffer), "tenant %zu: %s", i,
                    status.message().c_str());
      return InvalidArgumentError(buffer);
    }
  }
  return OkStatus();
}

TrafficConfig MakeUniformTraffic(uint32_t n, const TenantConfig& tenant,
                                 uint64_t seed, bool mixed_arrivals) {
  TrafficConfig config;
  config.seed = seed;
  config.tenants.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    TenantConfig t = tenant;
    if (mixed_arrivals) {
      switch (i % 3) {
        case 0:
          t.arrival = ArrivalShape::kSteady;
          break;
        case 1:
          t.arrival = ArrivalShape::kDiurnal;
          // Stagger phases so the aggregate is not phase-locked; i/n covers
          // [0, 1) exactly once across the tenant set.
          t.diurnal_phase = static_cast<double>(i) / static_cast<double>(n);
          break;
        case 2:
          t.arrival = ArrivalShape::kBursty;
          break;
      }
    }
    config.tenants.push_back(t);
  }
  return config;
}

TrafficEngine::TrafficEngine(const TrafficConfig& config,
                             uint64_t address_space)
    : address_space_(address_space),
      address_space_inv_(address_space == 0 ? 0
                                            : UINT64_MAX / address_space) {
  Status status = ValidateTrafficConfig(config);
  if (!status.ok()) {
    std::fprintf(stderr, "TrafficEngine: invalid config: %s\n",
                 status.message().c_str());
    std::abort();
  }
  if (address_space == 0) {
    std::fprintf(stderr, "TrafficEngine: address_space must be > 0\n");
    std::abort();
  }
  // Root stream: every tenant's stream and salt are forked here, in
  // tenant-ID order, so stream identity depends only on (seed, tenant id).
  Rng engine_rng(config.seed ^ 0x7e4a47f1c0de0001ULL);
  tenants_.reserve(config.tenants.size());
  for (const TenantConfig& tenant_config : config.tenants) {
    TenantState tenant(tenant_config, engine_rng.Fork());
    tenant.salt = engine_rng.ForkSeed();
    // Bursty tenants start in a full off phase drawn from their own stream
    // (staggered starts); steady/diurnal tenants draw nothing here.
    if (tenant_config.arrival == ArrivalShape::kBursty) {
      tenant.burst_on = false;
      constexpr double kOffDays = kBurstCycleDays * (1.0 - kBurstOnFraction);
      tenant.burst_days_left = tenant.rng.Exponential(1.0 / kOffDays);
    }
    // Analytic hot-set size: smallest rank prefix holding half the Zipf
    // mass. The partial-sum loop is bounded (<= objects, and in practice a
    // tiny prefix for theta near 1); the zeta denominator is cached.
    const double total =
        ZipfianGenerator::CachedZeta(tenant_config.objects,
                                     tenant_config.zipf_theta);
    double mass = 0.0;
    uint64_t ranks = 0;
    const uint64_t scan_cap = tenant_config.objects;
    while (ranks < scan_cap && mass < 0.5 * total) {
      ++ranks;
      mass += 1.0 / std::pow(static_cast<double>(ranks),
                             tenant_config.zipf_theta);
    }
    tenant.hot_set_objects = ranks == 0 ? 1 : ranks;
    tenants_.push_back(std::move(tenant));
  }
}

double TrafficEngine::AdvanceTenantToDay(TenantState& tenant, uint32_t day) {
  const TenantConfig& config = tenant.config;
  // Catch up phase/churn state one day at a time. Both fleet engines step a
  // device's alive days in the same sequence (dark days are jumped by both),
  // so the catch-up draws are identical in lockstep and event mode.
  const uint32_t from = any_day_seen_ ? last_day_ + 1 : day;
  for (uint32_t d = from; d <= day; ++d) {
    if (config.churn_per_day > 0.0) {
      tenant.churn_accum +=
          config.churn_per_day * static_cast<double>(config.objects);
      const uint64_t steps = static_cast<uint64_t>(tenant.churn_accum);
      if (steps > 0) {
        tenant.churn_accum -= static_cast<double>(steps);
        tenant.hot_offset = (tenant.hot_offset + steps) % config.objects;
      }
    }
    if (config.arrival == ArrivalShape::kBursty) {
      tenant.burst_days_left -= 1.0;
      while (tenant.burst_days_left <= 0.0) {
        tenant.burst_on = !tenant.burst_on;
        const double mean_days =
            kBurstCycleDays *
            (tenant.burst_on ? kBurstOnFraction : 1.0 - kBurstOnFraction);
        tenant.burst_days_left += tenant.rng.Exponential(1.0 / mean_days);
      }
    }
  }
  double factor = 1.0;
  switch (config.arrival) {
    case ArrivalShape::kSteady:
      break;
    case ArrivalShape::kDiurnal:
      factor = 1.0 + kDiurnalAmplitude *
                         std::sin(2.0 * kPi *
                                  (static_cast<double>(day) /
                                       kDiurnalPeriodDays +
                                   config.diurnal_phase));
      break;
    case ArrivalShape::kBursty: {
      // Off-phase demand is scaled so the long-run mean stays ops_per_day:
      // on_frac * mult + (1 - on_frac) * off = 1.
      constexpr double kOff = (1.0 - kBurstOnFraction * kBurstMultiplier) /
                              (1.0 - kBurstOnFraction);
      factor = tenant.burst_on ? kBurstMultiplier : kOff;
      break;
    }
  }
  return config.ops_per_day * factor;
}

uint64_t TrafficEngine::RankToAddress(const TenantState& tenant,
                                      uint64_t rank) const {
  // Churn drift: popularity rank r points at object (r + hot_offset) mod
  // objects, so the hot set is a contiguous window that migrates over time;
  // the salted mixer then scatters the object over the shared address space.
  // Both rank and hot_offset are below objects, so one subtract reduces.
  const uint64_t objects = tenant.config.objects;
  const uint64_t object = rank >= objects - tenant.hot_offset
                              ? rank - (objects - tenant.hot_offset)
                              : rank + tenant.hot_offset;
  return ModByReciprocal(Mix64(tenant.salt ^ object), address_space_,
                         address_space_inv_);
}

uint64_t TrafficEngine::EmitDay(uint32_t day, std::vector<TrafficOp>* out) {
  uint64_t emitted = 0;
  const uint32_t t_count = static_cast<uint32_t>(tenants_.size());
  for (uint32_t t = 0; t < t_count; ++t) {
    TenantState& tenant = tenants_[t];
    const double mean = AdvanceTenantToDay(tenant, day);
    const uint64_t ops = mean <= 0.0 ? 0 : tenant.rng.Poisson(mean);
    const uint64_t hot_cut =
        std::max<uint64_t>(1, tenant.config.objects / 100);
    for (uint64_t i = 0; i < ops; ++i) {
      const bool is_read = tenant.rng.Bernoulli(tenant.config.read_fraction);
      const uint64_t rank = tenant.zipf.Next(tenant.rng);
      TrafficOp op;
      op.tenant = t;
      op.is_read = is_read;
      op.address = RankToAddress(tenant, rank);
      if (out != nullptr) {
        out->push_back(op);
      }
      ++tenant.ops;
      if (is_read) {
        ++tenant.reads;
        ++reads_emitted_;
      } else {
        ++tenant.writes;
        ++writes_emitted_;
      }
      tenant.hot_rank_ops += rank < hot_cut ? 1 : 0;
      ++ops_emitted_;
      ++emitted;
      // FNV-1a over the op triple — the golden-stream fingerprint.
      stream_digest_ = FnvMix64(stream_digest_, op.tenant);
      stream_digest_ = FnvMix64(stream_digest_, op.is_read ? 1 : 0);
      stream_digest_ = FnvMix64(stream_digest_, op.address);
    }
  }
  any_day_seen_ = true;
  last_day_ = day;
  return emitted;
}

uint64_t TrafficEngine::DayWriteDemand(uint32_t day) {
  uint64_t writes = 0;
  for (TenantState& tenant : tenants_) {
    const double mean = AdvanceTenantToDay(tenant, day);
    const uint64_t ops = mean <= 0.0 ? 0 : tenant.rng.Poisson(mean);
    // One Binomial draw splits the day's ops into reads and writes — the
    // same marginal distribution as EmitDay's per-op Bernoulli stream,
    // without materializing addresses the caller will not use.
    const uint64_t reads =
        tenant.config.read_fraction <= 0.0
            ? 0
            : tenant.rng.Binomial(ops, tenant.config.read_fraction);
    const uint64_t tenant_writes = ops - reads;
    tenant.ops += ops;
    tenant.reads += reads;
    tenant.writes += tenant_writes;
    ops_emitted_ += ops;
    reads_emitted_ += reads;
    writes_emitted_ += tenant_writes;
    writes += tenant_writes;
  }
  any_day_seen_ = true;
  last_day_ = day;
  return writes;
}

uint64_t TrafficEngine::TenantHotSetObjects(uint32_t t) const {
  return tenants_[t].hot_set_objects;
}

double TrafficEngine::TenantAchievedSkew(uint32_t t) const {
  const TenantState& tenant = tenants_[t];
  return tenant.ops == 0 ? 0.0
                         : static_cast<double>(tenant.hot_rank_ops) /
                               static_cast<double>(tenant.ops);
}

void TrafficEngine::CollectMetrics(MetricRegistry& registry,
                                   const std::string& prefix) const {
  const std::string base = prefix + "workload.";
  registry.GetCounter(base + "ops").Add(ops_emitted_);
  registry.GetCounter(base + "reads").Add(reads_emitted_);
  registry.GetCounter(base + "writes").Add(writes_emitted_);
  registry.GetGauge(base + "tenants").Set(static_cast<double>(tenants_.size()));
  for (uint32_t t = 0; t < static_cast<uint32_t>(tenants_.size()); ++t) {
    const TenantState& tenant = tenants_[t];
    const std::string tbase = base + "tenant." + std::to_string(t) + ".";
    registry.GetCounter(tbase + "ops").Add(tenant.ops);
    registry.GetCounter(tbase + "reads").Add(tenant.reads);
    registry.GetCounter(tbase + "writes").Add(tenant.writes);
    registry.GetGauge(tbase + "hot_set_objects")
        .Set(static_cast<double>(tenant.hot_set_objects));
    registry.GetGauge(tbase + "achieved_skew").Set(TenantAchievedSkew(t));
  }
}

}  // namespace salamander
