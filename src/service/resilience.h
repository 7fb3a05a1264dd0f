#ifndef DBA_SERVICE_RESILIENCE_H_
#define DBA_SERVICE_RESILIENCE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/processor.h"
#include "query/planner.h"
#include "system/board.h"

namespace dba::service {

// ---------------------------------------------------------------------------
// SLO classes and per-tenant admission policies
// ---------------------------------------------------------------------------

/// Service-level-objective classes a tenant can be assigned to. A class
/// fixes the default deadline stamped on requests that carry none and an
/// additive priority boost on top of ServiceConfig::tenant_priorities.
enum class SloClass : uint8_t {
  kInteractive = 0,  // tight deadline, boosted priority
  kStandard = 1,     // moderate deadline, neutral priority
  kBatch = 2,        // no implied deadline, deboosted priority
};

std::string_view SloClassName(SloClass slo);

/// The class's default *relative* deadline in service-clock ns (added to
/// the submit time when the request has deadline_ns == 0); 0 = none.
uint64_t SloDefaultDeadlineNs(SloClass slo);

/// The class's additive priority boost.
int SloPriorityBoost(SloClass slo);

/// Per-tenant admission policy: an SLO class plus a token-bucket rate
/// limit. Tenants without a policy are unlimited kStandard.
struct TenantPolicy {
  SloClass slo = SloClass::kStandard;
  /// Sustained admission rate in requests/second (0 = unlimited).
  double rate_per_sec = 0;
  /// Bucket depth in requests (>= 1 when rate-limited): how large a
  /// burst the tenant may submit at once before the limiter sheds.
  double burst = 1;

  Status Validate() const;
};

// ---------------------------------------------------------------------------
// Token bucket
// ---------------------------------------------------------------------------

/// Deterministic token bucket over an injectable clock. Internally the
/// GCRA (virtual-scheduling) form: pure integer nanosecond arithmetic --
/// one token every emission_interval_ns with burst_tolerance_ns of
/// credit -- so replays under a VirtualClock admit the exact same
/// request sequence at any host-thread count. Not thread-safe; callers
/// serialize (QueryService acquires under its admission mutex).
class TokenBucket {
 public:
  /// Unlimited bucket: every TryAcquire succeeds.
  TokenBucket() = default;
  /// rate_per_sec <= 0 is unlimited; burst < 1 is clamped to 1.
  TokenBucket(double rate_per_sec, double burst);

  bool unlimited() const { return interval_ns_ == 0; }
  /// ns between sustained admissions (0 when unlimited).
  uint64_t emission_interval_ns() const { return interval_ns_; }
  /// Extra credit in ns: (burst - 1) * emission_interval_ns.
  uint64_t burst_tolerance_ns() const { return tolerance_ns_; }

  /// Takes one token at `now_ns`; false = the bucket is dry (shed).
  bool TryAcquire(uint64_t now_ns);

 private:
  uint64_t interval_ns_ = 0;   // 0 = unlimited
  uint64_t tolerance_ns_ = 0;
  uint64_t tat_ns_ = 0;        // theoretical arrival time of next token
};

// ---------------------------------------------------------------------------
// Deadline-aware retry budget
// ---------------------------------------------------------------------------

/// Service-level re-submit policy for transiently failed board work.
struct RetryConfig {
  /// Re-submits per dispatched operation after the first attempt (0
  /// disables service-level retries; board-internal recovery rounds are
  /// governed separately by RecoveryPolicy).
  int max_retries = 2;
  /// Backoff before retry k (k >= 1): backoff_base_ns << (k-1), plus
  /// deterministic jitter in [0, delay/2], capped at backoff_cap_ns.
  uint64_t backoff_base_ns = 100'000;
  uint64_t backoff_cap_ns = 10'000'000;
  /// Seed for the jitter hash (mixed with the per-operation key).
  uint64_t jitter_seed = 0xd1cef00dULL;

  Status Validate() const;
};

/// One operation's retry budget: exponential backoff with seeded jitter,
/// bounded by both the retry count and the request deadline -- a retry
/// whose backoff would land past the deadline is refused, so board
/// rounds and service-level re-submits share one expiry. Jitter is a
/// pure function of (jitter_seed, key, attempt): deterministic at any
/// host-thread count.
class RetryBudget {
 public:
  /// `deadline_ns` is the absolute service-clock deadline (0 = none);
  /// `key` identifies the operation (e.g. the batch ordinal).
  RetryBudget(const RetryConfig& config, uint64_t deadline_ns, uint64_t key);

  /// The backoff delay to charge before the next retry, or nullopt when
  /// the budget (retries or deadline) is exhausted. Consumes one retry.
  std::optional<uint64_t> NextDelayNs(uint64_t now_ns);

  int retries_used() const { return retries_; }
  uint64_t deadline_ns() const { return deadline_ns_; }

 private:
  RetryConfig config_;
  uint64_t deadline_ns_ = 0;
  uint64_t key_ = 0;
  int retries_ = 0;
};

// ---------------------------------------------------------------------------
// Board-health circuit breaker
// ---------------------------------------------------------------------------

enum class BreakerState : uint8_t {
  kClosed = 0,    // board healthy: all work dispatches normally
  kHalfOpen = 1,  // cool-down elapsed: limited probes test the board
  kOpen = 2,      // board unhealthy: direct ops fall back or shed
};

std::string_view BreakerStateName(BreakerState state);

struct BreakerConfig {
  bool enabled = true;
  /// Consecutive board-level failures that trip the breaker open.
  int failure_threshold = 3;
  /// Fraction of cores quarantined that trips the breaker immediately,
  /// even off an otherwise successful (degraded) operation.
  double quarantine_fraction = 0.5;
  /// Board-internal retries within one operation that count as a
  /// failure signal even when the operation succeeded (0 disables).
  uint32_t retry_alarm = 8;
  /// Cool-down after tripping before probes are admitted (half-open).
  uint64_t open_duration_ns = 1'000'000;
  /// Probe requests admitted per half-open period (>= 1).
  int half_open_probes = 2;
  /// Probe successes that close the breaker (1..half_open_probes).
  int probe_successes_to_close = 1;

  Status Validate() const;
};

/// Closed/open/half-open circuit breaker over the board's health,
/// fed by operation outcomes and RecoveryTelemetry (quarantine count,
/// retry rate, round failures). All timing comes from caller-supplied
/// service-clock timestamps, so transitions are deterministic under a
/// VirtualClock. Not thread-safe: the scheduler thread owns it.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(const BreakerConfig& config);

  /// Current state at `now_ns` (applies the open -> half-open cool-down
  /// transition as a side effect).
  BreakerState StateAt(uint64_t now_ns);

  /// In half-open: grants up to half_open_probes probe slots per
  /// period. Elsewhere: false.
  bool AllowProbe(uint64_t now_ns);

  /// Feed the outcome of one board-level operation. `telemetry` may be
  /// null when the operation failed before producing one; `num_cores`
  /// scales the quarantine fraction.
  void OnBoardResult(bool ok, const system::RecoveryTelemetry* telemetry,
                     int num_cores, uint64_t now_ns);

  /// Granular signals (OnBoardResult composes these; unit tests drive
  /// them directly).
  void RecordSuccess(uint64_t now_ns);
  void RecordFailure(uint64_t now_ns);

  uint64_t transitions() const { return transitions_; }
  int consecutive_failures() const { return consecutive_failures_; }
  const BreakerConfig& config() const { return config_; }

 private:
  void TripOpen(uint64_t now_ns);
  void Close();

  BreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  uint64_t opened_at_ns_ = 0;
  int probes_granted_ = 0;
  int probe_successes_ = 0;
  uint64_t transitions_ = 0;
};

// ---------------------------------------------------------------------------
// Host-fallback execution (degraded mode)
// ---------------------------------------------------------------------------

/// Degraded mode's one planner policy, for direct ops and predicate
/// intersections alike: DefaultCostModel() (no calibration run), no
/// partition index, no forced route. It picks galloping or SIMD merge,
/// never the EIS route degraded mode must avoid (planner_test guards it).
query::PlannerOptions DegradedPlannerOptions();

/// Executes one direct set operation entirely on host kernels --
/// byte-identical to the board path, zero accelerator cycles: the
/// DegradedPlannerOptions() planner picks the host route and
/// query::RunRoute runs the op on it.
Result<std::vector<uint32_t>> RunHostFallbackOp(SetOp op,
                                                std::span<const uint32_t> a,
                                                std::span<const uint32_t> b);

}  // namespace dba::service

#endif  // DBA_SERVICE_RESILIENCE_H_
