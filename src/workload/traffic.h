// Multi-tenant traffic engine: the simulator's front-end workload.
//
// A TrafficEngine models N tenants sharing one storage target (a cluster's
// chunk address space, or one device's mDisk space). Each tenant owns
//   * an object population with Zipf-skewed popularity (rank 0 hottest),
//     mapped onto the shared address space through a per-tenant salted hash;
//   * a read/write mix (per-op Bernoulli);
//   * an arrival process in simulated days — steady, diurnal sinusoid, or
//     bursty on/off phases — whose per-day op count is a Poisson draw around
//     the shaped mean;
//   * hot/cold aging: the popularity ranking drifts across the object space
//     at `churn_per_day`, migrating the hot set over time.
//
// Determinism contract (DESIGN.md "Workload engine"): every tenant's draws
// come from its own Rng stream, forked from the engine seed in tenant-ID
// order at construction; EmitDay() iterates tenants in ID order and days
// must be requested in strictly increasing order. Stream identity therefore
// depends only on (seed, tenant id) — never on other tenants' consumption —
// so any parallel harness that gives each engine instance a single owner
// reproduces the serial op stream bit for bit (the fleet gives each device
// slot its own engine; the clusters are driven by one engine serially).
#ifndef SALAMANDER_WORKLOAD_TRAFFIC_H_
#define SALAMANDER_WORKLOAD_TRAFFIC_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "telemetry/metrics.h"
#include "workload/generators.h"

namespace salamander {

// Per-day demand shape. All curves are sampled once per simulated day (the
// fleet's time quantum), so the "diurnal" sinusoid models any periodic load
// curve at day granularity — here a 7-day week.
enum class ArrivalShape : uint8_t {
  kSteady = 0,   // constant mean
  kDiurnal = 1,  // 1 + kDiurnalAmplitude * sin(2*pi * (day/period + phase))
  kBursty = 2,   // on/off renewal phases; kBurstMultiplier while on
};

// kDiurnal: relative swing and period in days.
inline constexpr double kDiurnalAmplitude = 0.5;
inline constexpr double kDiurnalPeriodDays = 7.0;
static_assert(kDiurnalAmplitude >= 0.0 && kDiurnalAmplitude <= 1.0);
static_assert(kDiurnalPeriodDays > 0.0);

// kBursty: exponential on/off phases with mean cycle kBurstCycleDays; the on
// phase covers kBurstOnFraction of the cycle at kBurstMultiplier x demand,
// and the off phase is scaled down so the long-run mean stays ops_per_day.
inline constexpr double kBurstOnFraction = 0.25;
inline constexpr double kBurstMultiplier = 3.0;
inline constexpr double kBurstCycleDays = 8.0;
static_assert(kBurstOnFraction > 0.0 && kBurstOnFraction < 1.0);
static_assert(kBurstMultiplier >= 1.0);
// Otherwise the off phase would need negative demand to preserve the mean.
static_assert(kBurstOnFraction * kBurstMultiplier <= 1.0);
static_assert(kBurstCycleDays > 0.0);

std::string_view ArrivalShapeName(ArrivalShape shape);

struct TenantConfig {
  // Logical object population (> 0). Objects are mapped onto the target
  // address space by a per-tenant salted hash, so tenants interleave over
  // shared storage without coordinating.
  uint64_t objects = 1 << 16;
  // Zipf skew over object ranks, in (0, 1) (YCSB convention; 0.99 ~ "zipfian").
  double zipf_theta = 0.99;
  // Probability an op is a read, in [0, 1].
  double read_fraction = 0.5;
  // Mean ops per simulated day at shape factor 1 (>= 0, finite).
  double ops_per_day = 1000.0;

  ArrivalShape arrival = ArrivalShape::kSteady;

  // kDiurnal: phase offset as a fraction of the period, in [0, 1).
  double diurnal_phase = 0.0;

  // Fraction of the object space the popularity ranking drifts per day, in
  // [0, 1]. 0 freezes the hot set; 0.01 migrates it across the full
  // population in ~100 days.
  double churn_per_day = 0.0;
};

struct TrafficConfig {
  uint64_t seed = 1;
  std::vector<TenantConfig> tenants;
};

// Field validation (satellite contract: out-of-range fractions, zero
// tenants, zero object space are Status errors, never silent misbehavior).
// TrafficEngine's constructor dies on an invalid config; callers holding
// untrusted input validate first and propagate the Status.
Status ValidateTenantConfig(const TenantConfig& config);
Status ValidateTrafficConfig(const TrafficConfig& config);

// One emitted operation. Addresses are oPage-granular offsets into the
// engine's target address space; the harness maps them onto its storage
// (chunk = addr / chunk_opages, offset = addr % chunk_opages, etc.).
struct TrafficOp {
  uint32_t tenant = 0;
  bool is_read = false;
  uint64_t address = 0;
};

// Convenience builder: `n` tenants from one template. When `mixed_arrivals`
// is true the arrival shapes rotate steady/diurnal/bursty in tenant-ID
// order, and bursty/diurnal phases are staggered per tenant so the fleet's
// aggregate demand is not phase-locked.
TrafficConfig MakeUniformTraffic(uint32_t n, const TenantConfig& tenant,
                                 uint64_t seed, bool mixed_arrivals = false);

// x % d for d > 0, given inv = UINT64_MAX / d: the multiply-high estimate
// of x / d is at most one short for every 64-bit x, so one conditional
// subtract finishes the reduction. Exact; no divide.
inline uint64_t ModByReciprocal(uint64_t x, uint64_t d, uint64_t inv) {
  const uint64_t q = static_cast<uint64_t>(
      (static_cast<__uint128_t>(x) * inv) >> 64);
  const uint64_t r = x - q * d;
  return r >= d ? r - d : r;
}

class TrafficEngine {
 public:
  // `address_space` is the size of the shared oPage address space the ops
  // target (> 0). Dies with a message on an invalid config (see
  // ValidateTrafficConfig).
  TrafficEngine(const TrafficConfig& config, uint64_t address_space);

  // Appends day `day`'s ops to `out` in canonical tenant-major order
  // (tenant 0's ops first, each tenant's ops in draw order). Days must be
  // requested in strictly increasing order; intervening days (a fleet's
  // dark-day jumps) are advanced internally without materializing demand.
  // Returns the number of ops appended.
  uint64_t EmitDay(uint32_t day, std::vector<TrafficOp>* out);

  // Arrival-only path for harnesses that provide their own address stream
  // (the fleet's AgingDriver): advances the same per-day tenant state as
  // EmitDay and returns the day's total *write* demand in oPages, without
  // drawing per-op addresses. Same strictly-increasing-day contract. An
  // engine instance serves either EmitDay or DayWriteDemand, not both.
  uint64_t DayWriteDemand(uint32_t day);

  uint64_t address_space() const { return address_space_; }
  uint32_t tenant_count() const {
    return static_cast<uint32_t>(tenants_.size());
  }

  // ---- Telemetry -----------------------------------------------------------

  uint64_t ops_emitted() const { return ops_emitted_; }
  uint64_t reads_emitted() const { return reads_emitted_; }
  uint64_t writes_emitted() const { return writes_emitted_; }
  // FNV-1a digest over every emitted (tenant, is_read, address) triple —
  // the golden-stream fingerprint the determinism tests pin.
  uint64_t StreamDigest() const { return stream_digest_; }

  // Number of hottest ranks covering half of tenant `t`'s Zipf mass — the
  // analytic hot-set size (how concentrated the tenant's traffic is).
  uint64_t TenantHotSetObjects(uint32_t t) const;
  // Measured skew: fraction of tenant `t`'s emitted ops that landed in the
  // top 1% of ranks (>= 0.99-ish for theta 0.99; ~0.01 for uniform traffic).
  double TenantAchievedSkew(uint32_t t) const;

  // Scrapes per-tenant op counts, hot-set sizes, and achieved skew into
  // "<prefix>workload.*" (additive; see telemetry/collect.h).
  void CollectMetrics(MetricRegistry& registry,
                      const std::string& prefix = "") const;

 private:
  struct TenantState {
    TenantConfig config;
    Rng rng;
    ZipfianGenerator zipf;
    uint64_t salt = 0;           // per-tenant address-hash salt
    uint64_t hot_offset = 0;     // popularity drift origin (churn)
    double churn_accum = 0.0;    // fractional churn carried across days
    // Bursty renewal state.
    bool burst_on = false;
    double burst_days_left = 0.0;
    // Analytic hot-set size (ranks to 50% Zipf mass), fixed at construction.
    uint64_t hot_set_objects = 0;
    // Telemetry.
    uint64_t ops = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t hot_rank_ops = 0;   // ops whose rank fell in the top 1%

    TenantState(const TenantConfig& c, Rng r)
        : config(c), rng(r), zipf(c.objects, c.zipf_theta) {}
  };

  // Advances tenant phase/churn state into `day` and returns the day's
  // shaped mean demand (before the Poisson draw).
  double AdvanceTenantToDay(TenantState& tenant, uint32_t day);
  uint64_t RankToAddress(const TenantState& tenant, uint64_t rank) const;

  uint64_t address_space_;
  uint64_t address_space_inv_;  // UINT64_MAX / address_space_
  std::vector<TenantState> tenants_;
  // Last day advanced to; days must arrive strictly increasing.
  bool any_day_seen_ = false;
  uint32_t last_day_ = 0;
  uint64_t ops_emitted_ = 0;
  uint64_t reads_emitted_ = 0;
  uint64_t writes_emitted_ = 0;
  uint64_t stream_digest_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
};

}  // namespace salamander

#endif  // SALAMANDER_WORKLOAD_TRAFFIC_H_
