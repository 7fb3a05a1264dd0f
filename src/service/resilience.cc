#include "service/resilience.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"

namespace dba::service {

// --- SLO classes -----------------------------------------------------------

std::string_view SloClassName(SloClass slo) {
  switch (slo) {
    case SloClass::kInteractive:
      return "interactive";
    case SloClass::kStandard:
      return "standard";
    case SloClass::kBatch:
      return "batch";
  }
  return "unknown";
}

uint64_t SloDefaultDeadlineNs(SloClass slo) {
  switch (slo) {
    case SloClass::kInteractive:
      return 5'000'000;  // 5 ms
    case SloClass::kStandard:
      return 50'000'000;  // 50 ms
    case SloClass::kBatch:
      return 0;  // unbounded
  }
  return 0;
}

int SloPriorityBoost(SloClass slo) {
  switch (slo) {
    case SloClass::kInteractive:
      return 10;
    case SloClass::kStandard:
      return 0;
    case SloClass::kBatch:
      return -10;
  }
  return 0;
}

Status TenantPolicy::Validate() const {
  if (!std::isfinite(rate_per_sec) || rate_per_sec < 0) {
    return Status::InvalidArgument(
        "TenantPolicy::rate_per_sec must be finite and >= 0");
  }
  if (rate_per_sec > 1e9) {
    return Status::InvalidArgument(
        "TenantPolicy::rate_per_sec must be <= 1e9");
  }
  if (rate_per_sec > 0 && (!std::isfinite(burst) || burst < 1)) {
    return Status::InvalidArgument(
        "TenantPolicy::burst must be >= 1 when rate-limited");
  }
  if (burst > 1e9) {
    return Status::InvalidArgument("TenantPolicy::burst must be <= 1e9");
  }
  return Status::Ok();
}

// --- TokenBucket -----------------------------------------------------------

TokenBucket::TokenBucket(double rate_per_sec, double burst) {
  if (rate_per_sec <= 0) return;  // unlimited
  const double interval = 1e9 / rate_per_sec;
  interval_ns_ = interval < 1 ? 1 : static_cast<uint64_t>(interval + 0.5);
  const double depth = burst < 1 ? 1 : burst;
  tolerance_ns_ = static_cast<uint64_t>((depth - 1) *
                                        static_cast<double>(interval_ns_));
}

bool TokenBucket::TryAcquire(uint64_t now_ns) {
  if (interval_ns_ == 0) return true;
  // GCRA conformance: the next theoretical arrival may lag `now` by at
  // most the burst tolerance.
  if (tat_ns_ > now_ns && tat_ns_ - now_ns > tolerance_ns_) return false;
  tat_ns_ = std::max(tat_ns_, now_ns) + interval_ns_;
  return true;
}

// --- RetryBudget -----------------------------------------------------------

Status RetryConfig::Validate() const {
  if (max_retries < 0 || max_retries > 16) {
    return Status::InvalidArgument(
        "RetryConfig::max_retries must be in 0..16");
  }
  if (max_retries > 0 && backoff_base_ns < 1) {
    return Status::InvalidArgument(
        "RetryConfig::backoff_base_ns must be >= 1");
  }
  if (backoff_cap_ns < backoff_base_ns) {
    return Status::InvalidArgument(
        "RetryConfig::backoff_cap_ns must be >= backoff_base_ns");
  }
  return Status::Ok();
}

RetryBudget::RetryBudget(const RetryConfig& config, uint64_t deadline_ns,
                         uint64_t key)
    : config_(config), deadline_ns_(deadline_ns), key_(key) {}

std::optional<uint64_t> RetryBudget::NextDelayNs(uint64_t now_ns) {
  if (retries_ >= config_.max_retries) return std::nullopt;
  uint64_t delay = retries_ >= 63
                       ? config_.backoff_cap_ns
                       : config_.backoff_base_ns << retries_;
  delay = std::min(delay, config_.backoff_cap_ns);
  // Deterministic jitter in [0, delay/2]: decorrelates retry storms
  // without breaking same-seed replays.
  const uint64_t jitter_window = delay / 2 + 1;
  delay += Mix64(config_.jitter_seed ^ Mix64(key_ ^
                                             static_cast<uint64_t>(retries_))) %
           jitter_window;
  delay = std::min(delay, config_.backoff_cap_ns);
  if (deadline_ns_ != 0 && now_ns + delay > deadline_ns_) {
    return std::nullopt;  // the retry would land past the deadline
  }
  ++retries_;
  return delay;
}

// --- CircuitBreaker --------------------------------------------------------

std::string_view BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kHalfOpen:
      return "half_open";
    case BreakerState::kOpen:
      return "open";
  }
  return "unknown";
}

Status BreakerConfig::Validate() const {
  if (failure_threshold < 1) {
    return Status::InvalidArgument(
        "BreakerConfig::failure_threshold must be >= 1");
  }
  if (!std::isfinite(quarantine_fraction) || quarantine_fraction <= 0 ||
      quarantine_fraction > 1) {
    return Status::InvalidArgument(
        "BreakerConfig::quarantine_fraction must be in (0, 1]");
  }
  if (open_duration_ns < 1) {
    return Status::InvalidArgument(
        "BreakerConfig::open_duration_ns must be >= 1");
  }
  if (half_open_probes < 1) {
    return Status::InvalidArgument(
        "BreakerConfig::half_open_probes must be >= 1");
  }
  if (probe_successes_to_close < 1 ||
      probe_successes_to_close > half_open_probes) {
    return Status::InvalidArgument(
        "BreakerConfig::probe_successes_to_close must be in "
        "1..half_open_probes");
  }
  return Status::Ok();
}

CircuitBreaker::CircuitBreaker(const BreakerConfig& config)
    : config_(config) {}

void CircuitBreaker::TripOpen(uint64_t now_ns) {
  state_ = BreakerState::kOpen;
  opened_at_ns_ = now_ns;
  probes_granted_ = 0;
  probe_successes_ = 0;
  ++transitions_;
}

void CircuitBreaker::Close() {
  state_ = BreakerState::kClosed;
  consecutive_failures_ = 0;
  probes_granted_ = 0;
  probe_successes_ = 0;
  ++transitions_;
}

BreakerState CircuitBreaker::StateAt(uint64_t now_ns) {
  if (!config_.enabled) return BreakerState::kClosed;
  if (state_ == BreakerState::kOpen &&
      now_ns >= opened_at_ns_ + config_.open_duration_ns) {
    state_ = BreakerState::kHalfOpen;
    probes_granted_ = 0;
    probe_successes_ = 0;
    ++transitions_;
  }
  return state_;
}

bool CircuitBreaker::AllowProbe(uint64_t now_ns) {
  if (StateAt(now_ns) != BreakerState::kHalfOpen) return false;
  if (probes_granted_ >= config_.half_open_probes) return false;
  ++probes_granted_;
  return true;
}

void CircuitBreaker::RecordSuccess(uint64_t now_ns) {
  if (!config_.enabled) return;
  switch (StateAt(now_ns)) {
    case BreakerState::kClosed:
      consecutive_failures_ = 0;
      break;
    case BreakerState::kHalfOpen:
      if (++probe_successes_ >= config_.probe_successes_to_close) Close();
      break;
    case BreakerState::kOpen:
      break;  // stale success from before the trip: ignore
  }
}

void CircuitBreaker::RecordFailure(uint64_t now_ns) {
  if (!config_.enabled) return;
  switch (StateAt(now_ns)) {
    case BreakerState::kClosed:
      if (++consecutive_failures_ >= config_.failure_threshold) {
        TripOpen(now_ns);
      }
      break;
    case BreakerState::kHalfOpen:
      TripOpen(now_ns);  // a failed probe re-arms the cool-down
      break;
    case BreakerState::kOpen:
      break;
  }
}

void CircuitBreaker::OnBoardResult(bool ok,
                                   const system::RecoveryTelemetry* telemetry,
                                   int num_cores, uint64_t now_ns) {
  if (!config_.enabled) return;
  // Quarantine fraction trips immediately, even off a degraded success:
  // a board finishing on too few cores is already unhealthy.
  if (telemetry != nullptr && num_cores > 0 &&
      static_cast<double>(telemetry->quarantined_cores.size()) + 1e-9 >=
          config_.quarantine_fraction * static_cast<double>(num_cores)) {
    if (StateAt(now_ns) != BreakerState::kOpen) TripOpen(now_ns);
    return;
  }
  const bool retry_storm = telemetry != nullptr && config_.retry_alarm > 0 &&
                           telemetry->retries >= config_.retry_alarm;
  if (!ok || retry_storm) {
    RecordFailure(now_ns);
  } else {
    RecordSuccess(now_ns);
  }
}

// --- Host fallback ---------------------------------------------------------

query::PlannerOptions DegradedPlannerOptions() {
  query::PlannerOptions options;
  options.cost_model = query::DefaultCostModel();
  options.allow_partition_index = false;
  return options;
}

Result<std::vector<uint32_t>> RunHostFallbackOp(SetOp op,
                                                std::span<const uint32_t> a,
                                                std::span<const uint32_t> b) {
  static const query::Planner planner(DegradedPlannerOptions());
  const query::Route route =
      planner.Plan(a.size(), b.size(), /*index_available=*/false).route;
  DBA_ASSIGN_OR_RETURN(
      query::RouteRun run,
      query::RunRoute(op, route, a, b, /*processor=*/nullptr));
  return std::move(run.result);
}

}  // namespace dba::service
