// Unit tests for the service resilience layer (service/resilience.h)
// and its integration seams: token-bucket arithmetic, deadline-aware
// retry budgets, circuit-breaker transitions under explicit timestamps,
// host-fallback bit-identity against the serial reference, the board's
// recovery deadline budget, typed rate-limit sheds, breaker-open
// shedding with fallback disabled, the dba_service_* registry against
// the service's tally, and ServiceConfig::Validate rejections for every
// new knob.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "fault/chaos.h"
#include "fault/fault.h"
#include "obs/metrics/metrics.h"
#include "prefetch/streaming.h"
#include "query/engine.h"
#include "query/predicate.h"
#include "query/table.h"
#include "service/query_service.h"
#include "service/resilience.h"
#include "service/service_clock.h"
#include "shared/service_test_util.h"
#include "system/board.h"

namespace dba::service {
namespace {

// --- TokenBucket -----------------------------------------------------------

TEST(TokenBucket, DefaultIsUnlimited) {
  TokenBucket bucket;
  EXPECT_TRUE(bucket.unlimited());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(bucket.TryAcquire(0));
}

TEST(TokenBucket, ZeroRateIsUnlimited) {
  TokenBucket bucket(0.0, 5.0);
  EXPECT_TRUE(bucket.unlimited());
  EXPECT_TRUE(bucket.TryAcquire(123));
}

TEST(TokenBucket, BurstThenDry) {
  // 1000 req/s -> one token per ms; burst 3 -> three immediate admits.
  TokenBucket bucket(1000.0, 3.0);
  EXPECT_EQ(bucket.emission_interval_ns(), 1'000'000u);
  EXPECT_EQ(bucket.burst_tolerance_ns(), 2'000'000u);
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_FALSE(bucket.TryAcquire(0));
  // One emission interval later exactly one token is back.
  EXPECT_TRUE(bucket.TryAcquire(1'000'000));
  EXPECT_FALSE(bucket.TryAcquire(1'000'000));
}

TEST(TokenBucket, SustainedRateAdmitsEveryInterval) {
  TokenBucket bucket(1000.0, 1.0);
  uint64_t now = 0;
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(bucket.TryAcquire(now)) << "tick " << i;
    EXPECT_FALSE(bucket.TryAcquire(now)) << "tick " << i;
    now += 1'000'000;
  }
}

TEST(TokenBucket, IdleCreditDoesNotExceedBurst) {
  TokenBucket bucket(1000.0, 2.0);
  // A long idle period must not bank more than `burst` tokens.
  const uint64_t later = 1'000'000'000;
  EXPECT_TRUE(bucket.TryAcquire(later));
  EXPECT_TRUE(bucket.TryAcquire(later));
  EXPECT_FALSE(bucket.TryAcquire(later));
}

// --- RetryBudget -----------------------------------------------------------

TEST(RetryBudget, ExponentialBackoffWithBoundedJitter) {
  RetryConfig config;
  config.max_retries = 3;
  config.backoff_base_ns = 1000;
  config.backoff_cap_ns = 1'000'000;
  RetryBudget budget(config, /*deadline_ns=*/0, /*key=*/7);
  uint64_t expected_base = 1000;
  for (int k = 0; k < 3; ++k) {
    const std::optional<uint64_t> delay = budget.NextDelayNs(0);
    ASSERT_TRUE(delay.has_value()) << "retry " << k;
    EXPECT_GE(*delay, expected_base);
    EXPECT_LE(*delay, expected_base + expected_base / 2);
    expected_base <<= 1;
  }
  EXPECT_FALSE(budget.NextDelayNs(0).has_value()) << "budget exhausted";
  EXPECT_EQ(budget.retries_used(), 3);
}

TEST(RetryBudget, DeterministicPerKey) {
  RetryConfig config;
  config.max_retries = 4;
  RetryBudget a(config, 0, 42);
  RetryBudget b(config, 0, 42);
  RetryBudget c(config, 0, 43);
  bool any_difference = false;
  for (int k = 0; k < 4; ++k) {
    const auto da = a.NextDelayNs(0);
    const auto db = b.NextDelayNs(0);
    const auto dc = c.NextDelayNs(0);
    ASSERT_TRUE(da && db && dc);
    EXPECT_EQ(*da, *db) << "same key must replay identically";
    any_difference = any_difference || *da != *dc;
  }
  EXPECT_TRUE(any_difference) << "different keys should decorrelate";
}

TEST(RetryBudget, RefusesRetryPastDeadline) {
  RetryConfig config;
  config.max_retries = 5;
  config.backoff_base_ns = 1000;
  // Deadline 500 ns out: even the first (>= 1000 ns) backoff overshoots.
  RetryBudget budget(config, /*deadline_ns=*/10'500, /*key=*/1);
  EXPECT_FALSE(budget.NextDelayNs(10'000).has_value());
  EXPECT_EQ(budget.retries_used(), 0);
  // With room to spare the same budget grants the retry.
  RetryBudget roomy(config, /*deadline_ns=*/20'000, /*key=*/1);
  EXPECT_TRUE(roomy.NextDelayNs(10'000).has_value());
}

TEST(RetryBudget, CapBoundsDelay) {
  RetryConfig config;
  config.max_retries = 16;
  config.backoff_base_ns = 1'000'000;
  config.backoff_cap_ns = 4'000'000;
  RetryBudget budget(config, 0, 9);
  for (int k = 0; k < 16; ++k) {
    const auto delay = budget.NextDelayNs(0);
    ASSERT_TRUE(delay.has_value());
    EXPECT_LE(*delay, config.backoff_cap_ns);
  }
}

// --- CircuitBreaker --------------------------------------------------------

BreakerConfig TestBreaker() {
  BreakerConfig config;
  config.failure_threshold = 2;
  config.open_duration_ns = 1000;
  config.half_open_probes = 2;
  config.probe_successes_to_close = 2;
  return config;
}

TEST(CircuitBreaker, TripsAfterConsecutiveFailures) {
  CircuitBreaker breaker(TestBreaker());
  EXPECT_EQ(breaker.StateAt(0), BreakerState::kClosed);
  breaker.RecordFailure(10);
  EXPECT_EQ(breaker.StateAt(10), BreakerState::kClosed);
  // A success resets the streak.
  breaker.RecordSuccess(20);
  breaker.RecordFailure(30);
  EXPECT_EQ(breaker.StateAt(30), BreakerState::kClosed);
  breaker.RecordFailure(40);
  EXPECT_EQ(breaker.StateAt(40), BreakerState::kOpen);
  EXPECT_EQ(breaker.transitions(), 1u);
}

TEST(CircuitBreaker, CoolDownThenProbeLadderCloses) {
  CircuitBreaker breaker(TestBreaker());
  breaker.RecordFailure(0);
  breaker.RecordFailure(0);
  ASSERT_EQ(breaker.StateAt(0), BreakerState::kOpen);
  EXPECT_EQ(breaker.StateAt(999), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowProbe(999));
  // Cool-down elapsed: half-open grants exactly half_open_probes slots.
  EXPECT_EQ(breaker.StateAt(1000), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.AllowProbe(1000));
  EXPECT_TRUE(breaker.AllowProbe(1001));
  EXPECT_FALSE(breaker.AllowProbe(1002));
  // probe_successes_to_close = 2: first success keeps it half-open.
  breaker.RecordSuccess(1003);
  EXPECT_EQ(breaker.StateAt(1003), BreakerState::kHalfOpen);
  breaker.RecordSuccess(1004);
  EXPECT_EQ(breaker.StateAt(1004), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  // closed->open, open->half-open, half-open->closed.
  EXPECT_EQ(breaker.transitions(), 3u);
}

TEST(CircuitBreaker, FailedProbeReArmsCoolDown) {
  CircuitBreaker breaker(TestBreaker());
  breaker.RecordFailure(0);
  breaker.RecordFailure(0);
  ASSERT_EQ(breaker.StateAt(1000), BreakerState::kHalfOpen);
  ASSERT_TRUE(breaker.AllowProbe(1000));
  breaker.RecordFailure(1100);
  EXPECT_EQ(breaker.StateAt(1100), BreakerState::kOpen);
  // The cool-down restarts from the failed probe, not the first trip.
  EXPECT_EQ(breaker.StateAt(2099), BreakerState::kOpen);
  EXPECT_EQ(breaker.StateAt(2100), BreakerState::kHalfOpen);
}

TEST(CircuitBreaker, QuarantineFractionTripsImmediately) {
  BreakerConfig config = TestBreaker();
  config.quarantine_fraction = 0.5;
  CircuitBreaker breaker(config);
  system::RecoveryTelemetry telemetry;
  telemetry.quarantined_cores = {0, 1};
  // A *successful* but degraded run on 2/4 quarantined cores trips.
  breaker.OnBoardResult(true, &telemetry, /*num_cores=*/4, /*now_ns=*/5);
  EXPECT_EQ(breaker.StateAt(5), BreakerState::kOpen);
}

TEST(CircuitBreaker, RetryAlarmCountsAsFailureSignal) {
  BreakerConfig config = TestBreaker();
  config.retry_alarm = 8;
  CircuitBreaker breaker(config);
  system::RecoveryTelemetry telemetry;
  telemetry.retries = 8;
  breaker.OnBoardResult(true, &telemetry, 4, 0);
  EXPECT_EQ(breaker.StateAt(0), BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 1);
  breaker.OnBoardResult(true, &telemetry, 4, 1);
  EXPECT_EQ(breaker.StateAt(1), BreakerState::kOpen);
}

TEST(CircuitBreaker, DisabledNeverTrips) {
  BreakerConfig config = TestBreaker();
  config.enabled = false;
  CircuitBreaker breaker(config);
  for (uint64_t i = 0; i < 10; ++i) breaker.RecordFailure(i);
  EXPECT_EQ(breaker.StateAt(100), BreakerState::kClosed);
  EXPECT_EQ(breaker.transitions(), 0u);
}

// --- Host fallback ---------------------------------------------------------

TEST(HostFallback, BitIdenticalToSerialReference) {
  test::SerialReference reference("orders", 64, 7);
  Random rng(2026);
  const SetOp ops[] = {SetOp::kIntersect, SetOp::kUnion, SetOp::kDifference,
                       SetOp::kMerge};
  for (int trial = 0; trial < 200; ++trial) {
    const SetOp op = ops[trial % 4];
    const auto a = test::MakeSortedSet(rng, 96, 8192);
    const auto b = test::MakeSortedSet(rng, 96, 8192);
    auto expected = reference.Direct(op, a, b);
    ASSERT_TRUE(expected.ok()) << expected.status();
    auto fallback = RunHostFallbackOp(op, a, b);
    ASSERT_TRUE(fallback.ok()) << fallback.status();
    EXPECT_EQ(*fallback, *expected) << "trial " << trial;
  }
}

TEST(HostFallback, DegenerateEmptyOperandsMatchBoardSemantics) {
  // Every layer that short-cuts an empty operand answers with one rule.
  // The expected answers are written out rather than taken from
  // eis::EmptyOperandResult, so changing the rule for any op fails here
  // at every layer that runs that op. Cycles are pinned too: a core
  // charges 3 cycles per 4-element copy beat (the board per partition,
  // the streamed tail beside its DMA), the query engine charges nothing.
  const std::vector<uint32_t> a_set = {3, 7, 9, 12, 20};
  const std::vector<uint32_t> b_set = {2, 4, 10, 15, 30, 31, 40, 41, 50};
  const std::vector<uint32_t> none;
  enum Empty { kAEmpty, kBEmpty, kBothEmpty };
  struct Case {
    SetOp op;
    Empty empty;
    std::vector<uint32_t> expected;
    uint64_t board_cycles;   // Board::RunSetOperation on 4 cores
    uint64_t batch_cycles;   // one RunSetOperationBatch item
    uint64_t stream_cycles;  // StreamingSetOperation::Run (DMA-bound)
  };
  const std::vector<Case> cases = {
      {SetOp::kIntersect, kAEmpty, {}, 0, 0, 0},
      {SetOp::kIntersect, kBEmpty, {}, 0, 0, 0},
      {SetOp::kIntersect, kBothEmpty, {}, 0, 0, 0},
      {SetOp::kUnion, kAEmpty, b_set, 12, 9, 34},
      {SetOp::kUnion, kBEmpty, a_set, 12, 6, 33},
      {SetOp::kUnion, kBothEmpty, {}, 0, 0, 0},
      {SetOp::kDifference, kAEmpty, {}, 0, 0, 0},
      {SetOp::kDifference, kBEmpty, a_set, 12, 6, 33},
      {SetOp::kDifference, kBothEmpty, {}, 0, 0, 0},
      {SetOp::kMerge, kAEmpty, b_set, 12, 9, 34},
      {SetOp::kMerge, kBEmpty, a_set, 12, 6, 33},
      {SetOp::kMerge, kBothEmpty, {}, 0, 0, 0},
  };

  system::BoardConfig board_config;
  board_config.num_cores = 4;
  board_config.host_threads = 1;
  auto board = system::Board::Create(board_config);
  ASSERT_TRUE(board.ok()) << board.status();
  auto processor = Processor::Create(ProcessorKind::kDba2LsuEis);
  ASSERT_TRUE(processor.ok()) << processor.status();
  prefetch::StreamingSetOperation streaming(processor->get(),
                                            prefetch::DmaConfig{});

  // RID sets for the query engine: ka = 1 selects a_set, kb = 1 selects
  // b_set, and 99 selects nothing.
  query::Table table("t");
  std::vector<uint32_t> ka(64, 0);
  std::vector<uint32_t> kb(64, 0);
  for (const uint32_t rid : a_set) ka[rid] = 1;
  for (const uint32_t rid : b_set) kb[rid] = 1;
  ASSERT_TRUE(table.AddColumn("ka", std::move(ka)).ok());
  ASSERT_TRUE(table.AddColumn("kb", std::move(kb)).ok());
  query::QueryEngine engine(&table, processor->get());
  ASSERT_TRUE(engine.BuildIndex("ka").ok());
  ASSERT_TRUE(engine.BuildIndex("kb").ok());

  for (const Case& c : cases) {
    const std::span<const uint32_t> a =
        c.empty == kBEmpty ? std::span<const uint32_t>(a_set) : none;
    const std::span<const uint32_t> b =
        c.empty == kAEmpty ? std::span<const uint32_t>(b_set) : none;
    const std::string label = std::string(eis::SopModeName(c.op)) +
                              (c.empty == kAEmpty   ? " A empty"
                               : c.empty == kBEmpty ? " B empty"
                                                    : " both empty");

    auto rule = eis::EmptyOperandResult(c.op, a, b);
    ASSERT_TRUE(rule.ok()) << label;
    EXPECT_EQ(std::vector<uint32_t>(rule->begin(), rule->end()), c.expected)
        << "rule: " << label;

    auto board_run = (*board)->RunSetOperation(c.op, a, b);
    ASSERT_TRUE(board_run.ok()) << label << ": " << board_run.status();
    EXPECT_EQ(board_run->result, c.expected) << "board: " << label;
    EXPECT_EQ(board_run->total_core_cycles, c.board_cycles)
        << "board: " << label;

    system::Board::BatchItem item;
    item.op = c.op;
    item.a = a;
    item.b = b;
    auto batch = (*board)->RunSetOperationBatch({&item, 1});
    ASSERT_TRUE(batch.ok()) << label << ": " << batch.status();
    EXPECT_EQ(batch->results[0], c.expected) << "batch: " << label;
    EXPECT_EQ(batch->run.total_core_cycles, c.batch_cycles)
        << "batch: " << label;

    auto streamed = streaming.Run(c.op, a, b);
    ASSERT_TRUE(streamed.ok()) << label << ": " << streamed.status();
    EXPECT_EQ(streamed->result, c.expected) << "streaming: " << label;
    EXPECT_EQ(streamed->total_cycles, c.stream_cycles)
        << "streaming: " << label;

    // AND / OR / AND NOT over one leaf that matches nothing (AND
    // intersects smallest first, so its empty leaf is always A; merge
    // has no predicate form).
    auto leaf = [](const char* column, bool empty) {
      return query::Equals(column, empty ? 99 : 1);
    };
    const bool a_empty = c.empty != kBEmpty;
    const bool b_empty = c.empty != kAEmpty;
    query::PredicatePtr predicate;
    if (c.op == SetOp::kIntersect) {
      predicate = query::And(leaf("ka", a_empty), leaf("kb", b_empty));
    } else if (c.op == SetOp::kUnion) {
      predicate = query::Or(leaf("ka", a_empty), leaf("kb", b_empty));
    } else if (c.op == SetOp::kDifference) {
      predicate = query::And(leaf("ka", a_empty),
                             query::Not(leaf("kb", b_empty)));
    }
    if (predicate != nullptr) {
      query::QueryStats stats;
      auto selected = engine.Select(*predicate, &stats);
      ASSERT_TRUE(selected.ok()) << label << ": " << selected.status();
      EXPECT_EQ(*selected, c.expected) << "engine: " << label;
      EXPECT_EQ(stats.accelerator_cycles, 0u) << "engine: " << label;
      EXPECT_EQ(stats.set_operations, 0u) << "engine: " << label;
    }

    auto fallback = RunHostFallbackOp(c.op, a, b);
    ASSERT_TRUE(fallback.ok()) << label << ": " << fallback.status();
    EXPECT_EQ(*fallback, c.expected) << "fallback: " << label;
  }
}

// --- Board recovery deadline budget ----------------------------------------

std::unique_ptr<system::Board> MakeBoard(const fault::FaultPlan& plan) {
  system::BoardConfig config;
  config.num_cores = 4;
  config.host_threads = 2;
  config.fault_plan = plan;
  auto board = system::Board::Create(config);
  EXPECT_TRUE(board.ok()) << board.status();
  return *std::move(board);
}

system::Board::BatchItem Item(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b) {
  system::Board::BatchItem item;
  item.op = SetOp::kIntersect;
  item.a = a;
  item.b = b;
  return item;
}

TEST(BoardDeadlineBudget, ExhaustedBudgetFailsTyped) {
  // Core 0 is permanently hung: the batch item pinned to it fails every
  // round. With a tiny cycle budget the board must stop the recovery
  // ladder early and return kDeadlineExceeded -- the regression this
  // guards: it used to burn the full retry ladder regardless of the
  // caller's deadline.
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.broken_cores = {0, 1, 2, 3};
  plan.hang_watchdog_cycles = 2000;
  auto board = MakeBoard(plan);
  const std::vector<uint32_t> a = {1, 5, 9, 12};
  const std::vector<uint32_t> b = {5, 9, 30};
  const std::vector<system::Board::BatchItem> items = {Item(a, b)};
  system::Board::BatchOptions options;
  options.deadline_cycles = 1;
  auto run = board->RunSetOperationBatch(items, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded)
      << run.status();
}

TEST(BoardDeadlineBudget, FaultFreeFirstRoundIgnoresBudget) {
  // The budget only cuts *recovery rounds* short: a clean first round
  // completes even under an absurdly small budget.
  auto board = MakeBoard(fault::FaultPlan{});
  const std::vector<uint32_t> a = {1, 5, 9, 12};
  const std::vector<uint32_t> b = {5, 9, 30};
  const std::vector<system::Board::BatchItem> items = {Item(a, b)};
  system::Board::BatchOptions options;
  options.deadline_cycles = 1;
  auto run = board->RunSetOperationBatch(items, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->results[0], (std::vector<uint32_t>{5, 9}));
}

TEST(BoardDeadlineBudget, UnboundedMatchesDefault) {
  auto board = MakeBoard(fault::FaultPlan{});
  const std::vector<uint32_t> a = {2, 4, 6};
  const std::vector<uint32_t> b = {4, 6, 8};
  const std::vector<system::Board::BatchItem> items = {Item(a, b)};
  auto bounded = board->RunSetOperationBatch(items,
                                             system::Board::BatchOptions{});
  auto defaulted = board->RunSetOperationBatch(items);
  ASSERT_TRUE(bounded.ok());
  ASSERT_TRUE(defaulted.ok());
  EXPECT_EQ(bounded->results[0], defaulted->results[0]);
  EXPECT_EQ(bounded->run.makespan_cycles, defaulted->run.makespan_cycles);
}

// --- Service integration: rate limits and breaker sheds --------------------

TEST(ServiceResilience, RateLimitShedsTyped) {
  system::BoardConfig board_config;
  board_config.num_cores = 2;
  board_config.host_threads = 1;
  auto board = system::Board::Create(board_config);
  ASSERT_TRUE(board.ok());
  VirtualClock clock;
  ServiceConfig config;
  config.board = board->get();
  config.clock = &clock;
  TenantPolicy policy;
  policy.rate_per_sec = 1000;  // one token per virtual ms
  policy.burst = 2;
  config.tenant_policies["metered"] = policy;
  auto service_or = QueryService::Create(config);
  ASSERT_TRUE(service_or.ok()) << service_or.status();
  auto service = *std::move(service_or);

  const auto submit = [&](const std::string& tenant) {
    ServiceRequest request;
    request.tenant = tenant;
    request.op = SetOp::kIntersect;
    request.a = {1, 2, 3};
    request.b = {2, 3, 4};
    return service->Submit(std::move(request));
  };

  // Burst of 2 admits; the third sheds kRateLimited without queueing.
  auto f1 = submit("metered");
  auto f2 = submit("metered");
  auto f3 = submit("metered");
  // An unmetered tenant is untouched by the bucket.
  auto f4 = submit("other");
  EXPECT_EQ(f3.get().status.code(), StatusCode::kRateLimited);
  service->Drain();
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
  EXPECT_TRUE(f4.get().status.ok());
  EXPECT_EQ(service->counters().rate_limited, 1u);
  // A refill interval later the tenant is admitted again.
  clock.AdvanceBy(1'000'000);
  auto f5 = submit("metered");
  service->Drain();
  EXPECT_TRUE(f5.get().status.ok());
}

TEST(ServiceResilience, BreakerOpenWithoutFallbackShedsTyped) {
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.broken_cores = {0, 1};
  plan.hang_watchdog_cycles = 2000;
  system::BoardConfig board_config;
  board_config.num_cores = 2;
  board_config.host_threads = 1;
  board_config.fault_plan = plan;
  auto board = system::Board::Create(board_config);
  ASSERT_TRUE(board.ok());
  VirtualClock clock;
  ServiceConfig config;
  config.board = board->get();
  config.clock = &clock;
  config.breaker.failure_threshold = 1;
  config.host_fallback = false;
  auto service_or = QueryService::Create(config);
  ASSERT_TRUE(service_or.ok()) << service_or.status();
  auto service = *std::move(service_or);

  const auto submit_and_wait = [&] {
    ServiceRequest request;
    request.tenant = "t";
    request.op = SetOp::kUnion;
    request.a = {1, 3};
    request.b = {2, 4};
    auto future = service->Submit(std::move(request));
    service->Drain();
    return future.get();
  };

  // First dispatch fails on the dead board and trips the breaker.
  const ServiceResponse first = submit_and_wait();
  EXPECT_FALSE(first.status.ok());
  EXPECT_EQ(service->breaker_state(), BreakerState::kOpen);
  // With fallback disabled the next request is a typed breaker shed.
  const ServiceResponse second = submit_and_wait();
  EXPECT_EQ(second.status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(second.degraded);
  EXPECT_GE(service->counters().breaker_sheds, 1u);
}

TEST(ServiceResilience, SloClassStampsDefaultDeadline) {
  system::BoardConfig board_config;
  board_config.num_cores = 2;
  board_config.host_threads = 1;
  auto board = system::Board::Create(board_config);
  ASSERT_TRUE(board.ok());
  VirtualClock clock;
  ServiceConfig config;
  config.board = board->get();
  config.clock = &clock;
  TenantPolicy interactive;
  interactive.slo = SloClass::kInteractive;
  config.tenant_policies["ui"] = interactive;
  auto service_or = QueryService::Create(config);
  ASSERT_TRUE(service_or.ok()) << service_or.status();
  auto service = *std::move(service_or);

  service->PauseDispatch();
  ServiceRequest request;
  request.tenant = "ui";
  request.op = SetOp::kIntersect;
  request.a = {1, 2};
  request.b = {2, 3};
  auto future = service->Submit(std::move(request));
  // Step the clock past the interactive SLO's 5 ms default deadline
  // while the request is still queued: it must shed, typed.
  clock.AdvanceBy(SloDefaultDeadlineNs(SloClass::kInteractive) + 1);
  service->ResumeDispatch();
  service->Drain();
  EXPECT_EQ(future.get().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service->counters().shed, 1u);
}

// --- Service counters against the registry --------------------------------

// Each dba_service_* counter beside the ServiceCounters field it books.
std::vector<std::pair<std::string, uint64_t>> RegistryView(
    const ServiceCounters& c) {
  return {
      {"dba_service_submitted_total", c.submitted},
      {"dba_service_rejected_total", c.rejected},
      {"dba_service_shed_total{reason=\"queue_full\"}", c.rejected},
      {"dba_service_shed_total{reason=\"deadline\"}", c.shed},
      {"dba_service_shed_total{reason=\"rate_limited\"}", c.rate_limited},
      {"dba_service_shed_total{reason=\"breaker_open\"}", c.breaker_sheds},
      {"dba_service_dispatched_total", c.dispatched},
      {"dba_service_batches_total", c.batches},
      {"dba_service_dedup_total", c.deduplicated},
      {"dba_service_cache_hits_total", c.cache_hits},
      {"dba_service_cache_misses_total", c.cache_misses},
      {"dba_service_cache_evictions_total", c.cache_evictions},
      {"dba_service_cache_invalidations_total", c.cache_invalidations},
      {"dba_service_retries_total", c.retries},
      {"dba_service_degraded_total", c.degraded},
      {"dba_service_breaker_transitions_total", c.breaker_transitions},
  };
}

uint64_t CounterIn(const obs::MetricsSnapshot& snapshot,
                   const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

// Drives a fresh VirtualClock service through traffic that moves every
// ServiceCounters field a service with this `host_fallback` can move:
// admission refusals, a deadline shed, a dedup twin, cache hits, misses,
// evictions and invalidations, engine retries, then a board outage that
// trips the breaker. Returns the tally after the last response.
ServiceCounters RunCounterTraffic(bool host_fallback) {
  system::BoardConfig board_config;
  board_config.num_cores = 2;
  board_config.host_threads = 1;
  auto board = system::Board::Create(board_config);
  EXPECT_TRUE(board.ok()) << board.status();
  VirtualClock clock;
  ServiceConfig config;
  config.board = board->get();
  config.clock = &clock;
  config.queue_capacity = 5;
  config.cache_capacity = 2;
  config.max_attempts = 2;
  config.breaker.failure_threshold = 1;
  config.host_fallback = host_fallback;
  TenantPolicy metered;
  metered.rate_per_sec = 1000;  // burst 1: one token per virtual ms
  config.tenant_policies["metered"] = metered;
  auto service_or = QueryService::Create(config);
  EXPECT_TRUE(service_or.ok()) << service_or.status();
  QueryService& service = **service_or;
  EXPECT_TRUE(service
                  .RegisterTable(std::make_unique<query::Table>(
                      test::MakeServiceTable("orders", 512, 7)))
                  .ok());
  // Every engine set-op step fails its first attempt: one retry each.
  service.SetAttemptFaultHook([](std::string_view, int attempt) {
    return attempt == 0 ? Status::Unavailable("injected") : Status::Ok();
  });

  const auto pool = test::MakePredicatePool(4);
  const auto query = [&](size_t p, const std::string& tenant = "t") {
    ServiceRequest request;
    request.tenant = tenant;
    request.table = "orders";
    request.predicate = pool[p];
    return request;
  };
  const auto direct = [] {
    ServiceRequest request;
    request.tenant = "t";
    request.op = SetOp::kUnion;
    request.a = {1, 3};
    request.b = {2, 4};
    return request;
  };
  std::vector<std::future<ServiceResponse>> futures;
  const auto batch = [&](std::vector<ServiceRequest> requests) {
    service.PauseDispatch();
    for (ServiceRequest& request : requests) {
      futures.push_back(service.Submit(std::move(request)));
    }
    clock.AdvanceBy(100);
    service.ResumeDispatch();
    service.Drain();
  };

  ServiceRequest doomed = query(2);
  doomed.deadline_ns = 10;
  // Five queue up (one twin, one past its deadline at dispatch); the
  // second metered request is rate-limited and the last finds the queue
  // full.
  batch({query(1), query(1), std::move(doomed), query(3, "metered"),
         query(3, "metered"), direct(), query(0)});
  batch({query(1), query(0)});  // a hit, then a miss that evicts
  EXPECT_TRUE(service
                  .UpdateColumn("orders", "region",
                                test::MakeColumnValues("region", 512, 8))
                  .ok());
  fault::FaultPlan outage;
  outage.seed = 5;
  outage.broken_cores = {0, 1};
  outage.hang_watchdog_cycles = 2000;
  EXPECT_TRUE(service.board()->SetFaultPlan(outage).ok());
  batch({direct()});  // fails on the board and trips the breaker
  batch({direct(), query(1)});  // served around the open breaker
  for (auto& future : futures) future.get();
  return service.counters();
}

TEST(ServiceResilience, RegistryMatchesTheTallyOfEveryCounter) {
  // The dba_service_* registry counters move by exactly the service's
  // tally, and each shed reason label equals its field; the two
  // services together move every field.
  std::map<std::string, uint64_t> moved;
  for (const bool host_fallback : {true, false}) {
    SCOPED_TRACE(host_fallback ? "host fallback" : "no host fallback");
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::Global().Snapshot();
    const ServiceCounters tally = RunCounterTraffic(host_fallback);
    const obs::MetricsSnapshot after =
        obs::MetricsRegistry::Global().Snapshot();
    for (const auto& [name, value] : RegistryView(tally)) {
      EXPECT_EQ(CounterIn(after, name) - CounterIn(before, name), value)
          << name;
      moved[name] += value;
    }
  }
  for (const auto& [name, total] : moved) {
    EXPECT_GT(total, 0u) << name << " never moved";
  }
}

// --- Validate() rejections -------------------------------------------------

TEST(ResilienceValidate, RejectsBadKnobs) {
  system::BoardConfig board_config;
  board_config.num_cores = 2;
  auto board = system::Board::Create(board_config);
  ASSERT_TRUE(board.ok());

  ServiceConfig base;
  base.board = board->get();
  ASSERT_TRUE(base.Validate().ok());

  {
    ServiceConfig config = base;
    TenantPolicy policy;
    policy.rate_per_sec = -1;
    config.tenant_policies["t"] = policy;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    ServiceConfig config = base;
    TenantPolicy policy;
    policy.rate_per_sec = 10;
    policy.burst = 0.5;
    config.tenant_policies["t"] = policy;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    ServiceConfig config = base;
    config.breaker.failure_threshold = 0;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    ServiceConfig config = base;
    config.breaker.quarantine_fraction = 1.5;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    ServiceConfig config = base;
    config.breaker.probe_successes_to_close = 99;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    ServiceConfig config = base;
    config.retry.max_retries = 17;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    ServiceConfig config = base;
    config.retry.backoff_cap_ns = 1;
    config.retry.backoff_base_ns = 2;
    EXPECT_FALSE(config.Validate().ok());
  }
}

// --- ChaosSchedule ---------------------------------------------------------

TEST(ChaosSchedule, DeterministicAndValidated) {
  for (size_t p = 0; p < fault::kNumChaosProfiles; ++p) {
    const auto profile = static_cast<fault::ChaosProfile>(p);
    auto a = fault::ChaosSchedule::Make(profile, 77);
    auto b = fault::ChaosSchedule::Make(profile, 77);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->phases().size(), b->phases().size());
    ASSERT_FALSE(a->phases().empty());
    for (size_t i = 0; i < a->phases().size(); ++i) {
      EXPECT_EQ(a->phases()[i].plan.seed, b->phases()[i].plan.seed);
      EXPECT_EQ(a->phases()[i].plan.broken_cores,
                b->phases()[i].plan.broken_cores);
      EXPECT_TRUE(a->phases()[i].plan.Validate().ok());
    }
    // Steps map onto phases in order and clamp at the end.
    EXPECT_EQ(a->PhaseIndexForStep(0), 0u);
    EXPECT_EQ(a->PhaseIndexForStep(a->total_steps() + 100),
              a->phases().size() - 1);
  }
}

TEST(ChaosSchedule, ProfileNamesRoundTrip) {
  for (size_t p = 0; p < fault::kNumChaosProfiles; ++p) {
    const auto profile = static_cast<fault::ChaosProfile>(p);
    auto parsed = fault::ChaosProfileFromName(fault::ChaosProfileName(profile));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, profile);
  }
  EXPECT_FALSE(fault::ChaosProfileFromName("tsunami").ok());
}

TEST(ChaosSchedule, MeltdownBreaksEveryCoreThenHeals) {
  auto schedule = fault::ChaosSchedule::Make(fault::ChaosProfile::kMeltdown,
                                             3);
  ASSERT_TRUE(schedule.ok());
  ASSERT_EQ(schedule->phases().size(), 3u);
  EXPECT_TRUE(schedule->phases()[0].plan.broken_cores.empty());
  EXPECT_EQ(schedule->phases()[1].plan.broken_cores.size(), 4u);
  EXPECT_TRUE(schedule->phases()[2].heal);
  EXPECT_FALSE(schedule->phases()[2].plan.enabled());
}

}  // namespace
}  // namespace dba::service
