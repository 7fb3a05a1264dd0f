// Tests of the runtime-metrics subsystem (src/obs/metrics): log-bucket
// boundaries, quantile accuracy, deterministic merging across host
// threads, the Prometheus text exposition, the dba.metrics.v1 JSON
// schema, ScopedSpan trace-sink integration, the structured event log,
// and the end-to-end acceptance property -- a fault-injected board run
// whose registry counters match RecoveryTelemetry exactly and whose
// snapshot is byte-identical at any host thread count -- plus the exact
// counters a failed board operation leaves at each failure exit.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/workload.h"
#include "obs/metrics/event_log.h"
#include "obs/metrics/metrics.h"
#include "obs/metrics_json.h"
#include "obs/trace_writer.h"
#include "system/board.h"

namespace dba::obs {
namespace {

// --- Histogram bucketing ---

TEST(HistogramBucketTest, SmallValuesGetExactUnitBuckets) {
  for (std::uint64_t value = 0; value < 16; ++value) {
    EXPECT_EQ(Histogram::BucketIndex(value), value);
    EXPECT_EQ(Histogram::BucketLowerBound(value), value);
    EXPECT_EQ(Histogram::BucketUpperBound(value), value + 1);
  }
}

TEST(HistogramBucketTest, BoundsPartitionTheValueRange) {
  for (std::size_t index = 0; index + 1 < kHistogramBuckets; ++index) {
    // Buckets tile the axis: each upper bound is the next lower bound.
    EXPECT_EQ(Histogram::BucketUpperBound(index),
              Histogram::BucketLowerBound(index + 1));
    // Every bucket contains its own lower bound.
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketLowerBound(index)),
              index);
    // And its last value.
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketUpperBound(index) - 1),
              index);
  }
  EXPECT_EQ(Histogram::BucketUpperBound(kHistogramBuckets - 1), UINT64_MAX);
}

TEST(HistogramBucketTest, IndexIsMonotoneAndContainsValue) {
  std::size_t previous = 0;
  for (std::uint64_t value = 0; value < 3'000'000; value += 997) {
    const std::size_t index = Histogram::BucketIndex(value);
    EXPECT_GE(index, previous);
    EXPECT_LE(Histogram::BucketLowerBound(index), value);
    EXPECT_GT(Histogram::BucketUpperBound(index), value);
    previous = index;
  }
}

TEST(HistogramBucketTest, RelativeBucketWidthIsBounded) {
  // Four sub-buckets per octave: width / lower <= 1/4 for every
  // non-unit bucket below the top one.
  for (std::size_t index = 16; index + 1 < kHistogramBuckets; ++index) {
    const double lower =
        static_cast<double>(Histogram::BucketLowerBound(index));
    const double width =
        static_cast<double>(Histogram::BucketUpperBound(index)) - lower;
    EXPECT_LE(width / lower, 0.25) << "bucket " << index;
  }
}

// --- Quantiles ---

TEST(HistogramTest, CountAndSumAreExact) {
  Histogram histogram;
  std::uint64_t expected_sum = 0;
  for (std::uint64_t value = 0; value < 1000; ++value) {
    histogram.Observe(value * value);
    expected_sum += value * value;
  }
  const HistogramStats stats = histogram.Stats();
  EXPECT_EQ(stats.count, 1000u);
  EXPECT_EQ(stats.sum, expected_sum);
}

TEST(HistogramTest, QuantilesAreAccurateToOneBucket) {
  // Deterministic pseudo-random workload (an LCG; no std::random to keep
  // the sequence stable across standard libraries).
  Histogram histogram;
  std::vector<std::uint64_t> values;
  std::uint64_t state = 88172645463325252ull;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t value = (state >> 33) % 1'000'000;
    values.push_back(value);
    histogram.Observe(value);
  }
  std::sort(values.begin(), values.end());
  const HistogramStats stats = histogram.Stats();
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const std::uint64_t exact = values[static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1))];
    const double estimate = stats.Quantile(q);
    const std::size_t exact_bucket = Histogram::BucketIndex(exact);
    // The estimate may sit exactly on a bucket boundary; allow one
    // bucket of slack on either side.
    const std::size_t estimate_bucket =
        Histogram::BucketIndex(static_cast<std::uint64_t>(estimate));
    EXPECT_LE(estimate_bucket > exact_bucket
                  ? estimate_bucket - exact_bucket
                  : exact_bucket - estimate_bucket,
              1u)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
}

TEST(HistogramTest, EmptyHistogramQuantileIsZero) {
  Histogram histogram;
  EXPECT_EQ(histogram.Stats().Quantile(0.5), 0.0);
}

// --- Deterministic merging ---

TEST(MetricsMergeTest, ValuesAreInvariantUnderThreadPartitioning) {
  // The same multiset of updates, partitioned across 1, 2, and 8
  // threads, must merge to the same counter value and histogram stats.
  std::uint64_t reference_count = 0;
  HistogramStats reference_stats;
  for (const int threads : {1, 2, 8}) {
    Counter counter;
    Histogram histogram;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = t; i < 4096; i += threads) {
          counter.Increment(static_cast<std::uint64_t>(i % 7));
          histogram.Observe(static_cast<std::uint64_t>(i * 13 % 100000));
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    if (threads == 1) {
      reference_count = counter.Value();
      reference_stats = histogram.Stats();
    } else {
      EXPECT_EQ(counter.Value(), reference_count);
      EXPECT_EQ(histogram.Stats(), reference_stats);
    }
  }
}

TEST(MetricsMergeTest, ConcurrentHammerLosesNothing) {
  // TSan coverage: eight threads hammer one counter and one histogram.
  Counter counter;
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr int kUpdates = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kUpdates; ++i) {
        counter.Increment();
        histogram.Observe(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(counter.Value(),
            static_cast<std::uint64_t>(kThreads) * kUpdates);
  EXPECT_EQ(histogram.Stats().count,
            static_cast<std::uint64_t>(kThreads) * kUpdates);
}

// --- Registry ---

TEST(MetricsRegistryTest, SameIdentityReturnsSamePointer) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("reg_test_total", "help");
  Counter* b = registry.GetCounter("reg_test_total");
  EXPECT_EQ(a, b);
  Counter* labeled =
      registry.GetCounter("reg_test_total", "kind", "x", "help");
  EXPECT_NE(labeled, a);
}

TEST(MetricsRegistryTest, KindConflictReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("conflicted"), nullptr);
  EXPECT_EQ(registry.GetGauge("conflicted"), nullptr);
  EXPECT_EQ(registry.GetHistogram("conflicted"), nullptr);
  EXPECT_NE(registry.GetCounter("conflicted"), nullptr);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsRegistration) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("reset_total");
  Histogram* histogram = registry.GetHistogram("reset_cycles");
  counter->Increment(5);
  histogram->Observe(42);
  registry.Reset();
  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_EQ(histogram->Stats().count, 0u);
  // The cached pointer is still the registered instrument.
  EXPECT_EQ(registry.GetCounter("reset_total"), counter);
  counter->Increment();
  EXPECT_EQ(registry.Snapshot().counters.at("reset_total"), 1u);
}

TEST(MetricsRegistryTest, SnapshotUsesIdentityStrings) {
  MetricsRegistry registry;
  registry.GetCounter("snap_total", "kind", "a", "")->Increment(2);
  registry.GetGauge("snap_level")->Set(3.5);
  registry.GetHistogram("snap_cycles")->Observe(10);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("snap_total{kind=\"a\"}"), 2u);
  EXPECT_EQ(snapshot.gauges.at("snap_level"), 3.5);
  EXPECT_EQ(snapshot.histograms.at("snap_cycles").count, 1u);
}

// --- Prometheus exposition ---

TEST(PrometheusTest, GoldenFormat) {
  MetricsRegistry registry;
  registry.GetCounter("test_ops_total", "Operations.")->Increment(3);
  registry.GetCounter("test_runs_total", "kind", "a", "Runs by kind.")
      ->Increment(1);
  registry.GetCounter("test_runs_total", "kind", "b", "Runs by kind.")
      ->Increment(2);
  registry.GetGauge("test_level")->Set(1.5);
  Histogram* histogram = registry.GetHistogram("test_latency", "Latency.");
  histogram->Observe(3);
  histogram->Observe(3);
  histogram->Observe(300);

  const std::string expected =
      "# HELP test_latency Latency.\n"
      "# TYPE test_latency histogram\n"
      "test_latency_bucket{le=\"4\"} 2\n"
      "test_latency_bucket{le=\"320\"} 3\n"
      "test_latency_bucket{le=\"+Inf\"} 3\n"
      "test_latency_sum 306\n"
      "test_latency_count 3\n"
      "# TYPE test_level gauge\n"
      "test_level 1.5\n"
      "# HELP test_ops_total Operations.\n"
      "# TYPE test_ops_total counter\n"
      "test_ops_total 3\n"
      "# HELP test_runs_total Runs by kind.\n"
      "# TYPE test_runs_total counter\n"
      "test_runs_total{kind=\"a\"} 1\n"
      "test_runs_total{kind=\"b\"} 2\n";
  EXPECT_EQ(registry.ExposePrometheus(), expected);
}

TEST(PrometheusTest, HistogramBucketsAreCumulative) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("cum_cycles");
  for (std::uint64_t value : {1ull, 1ull, 2ull, 100ull}) {
    histogram->Observe(value);
  }
  const std::string text = registry.ExposePrometheus();
  // The +Inf bucket always equals the total count.
  EXPECT_NE(text.find("cum_cycles_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("cum_cycles_count 4\n"), std::string::npos);
  EXPECT_NE(text.find("cum_cycles_sum 104\n"), std::string::npos);
}

// --- dba.metrics.v1 JSON ---

TEST(MetricsJsonTest, SnapshotRoundTripValidates) {
  MetricsRegistry registry;
  registry.GetCounter("json_total", "kind", "x", "")->Increment(7);
  registry.GetGauge("json_level")->Set(-2.5);
  Histogram* histogram = registry.GetHistogram("json_cycles");
  histogram->Observe(5);
  histogram->Observe(5000);
  const JsonValue document = MetricsSnapshotToJson(registry.Snapshot());
  ASSERT_TRUE(ValidateMetricsJson(document).ok());
  auto reparsed = JsonValue::Parse(document.Dump(2));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(ValidateMetricsJson(*reparsed).ok());
  EXPECT_EQ(reparsed->at("counters").at("json_total{kind=\"x\"}").as_u64(),
            7u);
  EXPECT_EQ(reparsed->at("histograms").at("json_cycles").at("count").as_u64(),
            2u);
}

TEST(MetricsJsonTest, ValidatorRejectsBadDocuments) {
  // Wrong schema tag.
  auto bad = JsonValue::Parse(
      "{\"schema\":\"dba.metrics.v0\",\"counters\":{},\"gauges\":{},"
      "\"histograms\":{}}");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(ValidateMetricsJson(*bad).ok());

  // Negative counter.
  bad = JsonValue::Parse(
      "{\"schema\":\"dba.metrics.v1\",\"counters\":{\"x\":-1},"
      "\"gauges\":{},\"histograms\":{}}");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(ValidateMetricsJson(*bad).ok());

  // Histogram whose bucket counts do not sum to its count.
  bad = JsonValue::Parse(
      "{\"schema\":\"dba.metrics.v1\",\"counters\":{},\"gauges\":{},"
      "\"histograms\":{\"h\":{\"count\":3,\"sum\":10,\"p50\":1,\"p90\":1,"
      "\"p99\":1,\"p999\":1,\"buckets\":[[4,1]]}}}");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(ValidateMetricsJson(*bad).ok());

  // Descending bucket bounds.
  bad = JsonValue::Parse(
      "{\"schema\":\"dba.metrics.v1\",\"counters\":{},\"gauges\":{},"
      "\"histograms\":{\"h\":{\"count\":2,\"sum\":10,\"p50\":1,\"p90\":1,"
      "\"p99\":1,\"p999\":1,\"buckets\":[[8,1],[4,1]]}}}");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(ValidateMetricsJson(*bad).ok());

  // A minimal well-formed document passes.
  auto good = JsonValue::Parse(
      "{\"schema\":\"dba.metrics.v1\",\"counters\":{\"x\":1},"
      "\"gauges\":{\"g\":0.5},\"histograms\":{}}");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(ValidateMetricsJson(*good).ok());
}

// --- ScopedSpan ---

TEST(ScopedSpanTest, FeedsHistogramAndTraceSink) {
  MetricsRegistry registry;
  Histogram* latency = registry.GetHistogram("span_cycles");
  ChromeTraceWriter writer("metrics-test");
  {
    ScopedSpan span(latency, &writer, "work", 100);
    span.SetEndCycle(250);
  }
  EXPECT_EQ(writer.event_count(), 2u);  // B + E
  const HistogramStats stats = latency->Stats();
  ASSERT_EQ(stats.count, 1u);
  EXPECT_EQ(stats.sum, 150u);
}

TEST(ScopedSpanTest, AbandonedSpanRecordsNothing) {
  MetricsRegistry registry;
  Histogram* latency = registry.GetHistogram("abandoned_cycles");
  ChromeTraceWriter writer("metrics-test");
  {
    ScopedSpan span(latency, &writer, "failed-run", 10);
    // No SetEndCycle: the run failed.
  }
  EXPECT_EQ(latency->Stats().count, 0u);
  // Only the B event; the writer closes dangling regions at flush.
  EXPECT_EQ(writer.event_count(), 1u);
  EXPECT_TRUE(writer.ToJson().is_object());
}

TEST(ScopedSpanTest, WorksWithoutASink) {
  MetricsRegistry registry;
  Histogram* latency = registry.GetHistogram("sinkless_cycles");
  {
    ScopedSpan span(latency, nullptr, "work", 0);
    span.SetEndCycle(42);
  }
  EXPECT_EQ(latency->Stats().sum, 42u);
}

// --- EventLog ---

TEST(EventLogTest, RingKeepsTheMostRecentEvents) {
  EventLog log(4);
  for (int i = 0; i < 6; ++i) {
    log.Log(EventLevel::kInfo, "test", "event " + std::to_string(i),
            {{"i", std::to_string(i)}}, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(log.total(), 6u);
  const std::vector<Event> tail = log.Tail(10);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().seq, 2u);          // oldest surviving
  EXPECT_EQ(tail.back().seq, 5u);           // newest
  EXPECT_EQ(tail.back().message, "event 5");
  EXPECT_EQ(tail.back().cycle, 5u);
  ASSERT_EQ(tail.back().fields.size(), 1u);
  EXPECT_EQ(tail.back().fields[0].first, "i");
}

TEST(EventLogTest, LevelsAreCountedAndNamed) {
  EventLog log(8);
  log.Log(EventLevel::kWarn, "test", "w");
  log.Log(EventLevel::kWarn, "test", "w");
  log.Log(EventLevel::kError, "test", "e");
  EXPECT_EQ(log.total(EventLevel::kWarn), 2u);
  EXPECT_EQ(log.total(EventLevel::kError), 1u);
  EXPECT_EQ(log.total(EventLevel::kDebug), 0u);
  EXPECT_EQ(EventLevelName(EventLevel::kWarn), "warn");
  EXPECT_EQ(EventLevelName(EventLevel::kError), "error");
  log.Clear();
  EXPECT_EQ(log.total(), 0u);
  EXPECT_TRUE(log.Tail(8).empty());
}

// --- End-to-end acceptance: fault-injected board run ---

system::BoardConfig AcceptanceConfig(int host_threads) {
  system::BoardConfig config;
  config.num_cores = 8;
  config.host_threads = host_threads;
  config.fault_plan.seed = 20140622;
  config.fault_plan.hang_rate = 0.1;
  config.fault_plan.input_flip_rate = 0.1;
  config.fault_plan.result_flip_rate = 0.1;
  config.fault_plan.transfer_fail_rate = 0.1;
  config.fault_plan.transfer_timeout_rate = 0.1;
  config.fault_plan.hang_watchdog_cycles = 4000;
  config.fault_plan.broken_cores = {0, 1};
  config.recovery.max_attempts = 6;
  return config;
}

TEST(MetricsBoardTest, RegistryMatchesRecoveryTelemetryAtAnyThreadCount) {
  auto pair = GenerateSetPair(60000, 60000, 0.5, 20140622);
  ASSERT_TRUE(pair.ok());

  // Warmup run: registers every instrument the workload touches so the
  // measured snapshots below share one instrument set.
  {
    MetricsRegistry::Global().Reset();
    auto board = system::Board::Create(AcceptanceConfig(1));
    ASSERT_TRUE(board.ok());
    auto run = (*board)->RunSetOperation(SetOp::kIntersect, pair->a, pair->b);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
  }

  std::string reference_dump;
  for (const int host_threads : {1, 2, 8}) {
    MetricsRegistry::Global().Reset();
    auto board = system::Board::Create(AcceptanceConfig(host_threads));
    ASSERT_TRUE(board.ok());
    auto run = (*board)->RunSetOperation(SetOp::kIntersect, pair->a, pair->b);
    ASSERT_TRUE(run.ok()) << run.status().ToString();

    const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    const auto counter = [&snapshot](const std::string& name) {
      const auto it = snapshot.counters.find(name);
      return it == snapshot.counters.end() ? std::uint64_t{0} : it->second;
    };
    // Registry counters mirror RecoveryTelemetry exactly: they are
    // incremented at the same points of the deterministic reduce.
    const system::RecoveryTelemetry& recovery = run->recovery;
    EXPECT_EQ(counter("dba_system_faults_injected_total"),
              recovery.faults_injected);
    EXPECT_EQ(counter("dba_system_failed_attempts_total"),
              recovery.failed_attempts);
    EXPECT_EQ(counter("dba_system_retries_total"), recovery.retries);
    EXPECT_EQ(counter("dba_system_requeues_total"), recovery.requeues);
    EXPECT_EQ(counter("dba_system_verification_failures_total"),
              recovery.verification_failures);
    EXPECT_EQ(counter("dba_system_recovery_rounds_total"), recovery.rounds);
    EXPECT_EQ(counter("dba_system_recovery_cycles_total"),
              recovery.recovery_cycles);
    EXPECT_EQ(counter("dba_system_quarantines_total"),
              recovery.quarantined_cores.size());
    EXPECT_GT(counter("dba_system_noc_feed_bytes_total"), 0u);
    EXPECT_EQ(snapshot.gauges.at("dba_system_quarantined_cores"),
              static_cast<double>(recovery.quarantined_cores.size()));

    // The serialized snapshot is byte-identical at any host_threads:
    // instruments only record simulated quantities, and shard merges
    // are commutative integer sums.
    const std::string dump = MetricsSnapshotToJson(snapshot).Dump(2);
    ASSERT_TRUE(ValidateMetricsJson(MetricsSnapshotToJson(snapshot)).ok());
    if (reference_dump.empty()) {
      reference_dump = dump;
      EXPECT_GT(counter("dba_system_faults_injected_total"), 0u)
          << "fault injection did not fire; the acceptance run is vacuous";
    } else {
      EXPECT_EQ(dump, reference_dump)
          << "metrics snapshot differs at host_threads=" << host_threads;
    }
  }
}

// --- Failed board operations: the counters each failure exit books ---

using CounterDeltas = std::map<std::string, std::uint64_t>;

// The dba_system_* counters that moved between two snapshots.
CounterDeltas SystemCounterDeltas(const MetricsSnapshot& before,
                                  const MetricsSnapshot& after) {
  CounterDeltas deltas;
  for (const auto& [name, value] : after.counters) {
    if (name.rfind("dba_system_", 0) != 0) continue;
    const auto it = before.counters.find(name);
    const std::uint64_t base = it == before.counters.end() ? 0 : it->second;
    if (value != base) deltas[name] = value - base;
  }
  return deltas;
}

// Runs `op` on a fresh board of `config` at host_threads 1 and 3: it must
// fail with `code` and move exactly the `expected` dba_system_* counters
// at both thread counts.
void ExpectFailedOpDeltas(system::BoardConfig config,
                          const std::function<Status(system::Board&)>& op,
                          StatusCode code, const CounterDeltas& expected) {
  for (const int host_threads : {1, 3}) {
    SCOPED_TRACE("host_threads=" + std::to_string(host_threads));
    config.host_threads = host_threads;
    auto board = system::Board::Create(config);
    ASSERT_TRUE(board.ok()) << board.status();
    const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
    const Status status = op(**board);
    const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(status.code(), code) << status;
    EXPECT_EQ(SystemCounterDeltas(before, after), expected);
  }
}

TEST(MetricsBoardTest, EveryCoreQuarantinedExitBooksItsRounds) {
  // Every core hangs: two rounds fail both partitions, the second
  // quarantines both cores, and the op fails with the hang's status.
  auto pair = GenerateSetPair(2000, 2000, 0.5, 42);
  ASSERT_TRUE(pair.ok());
  system::BoardConfig config;
  config.num_cores = 2;
  config.fault_plan.broken_cores = {0, 1};
  config.fault_plan.hang_watchdog_cycles = 2000;
  ExpectFailedOpDeltas(
      config,
      [&](system::Board& board) {
        return board.RunSetOperation(SetOp::kIntersect, pair->a, pair->b)
            .status();
      },
      StatusCode::kDeadlineExceeded,
      {{"dba_system_board_ops_total", 1},
       {"dba_system_board_op_failures_total", 1},
       {"dba_system_recovery_rounds_total", 2},
       {"dba_system_faults_injected_total", 4},
       {"dba_system_failed_attempts_total", 4},
       {"dba_system_retries_total", 2},
       {"dba_system_recovery_cycles_total", 8512},
       {"dba_system_quarantines_total", 2}});
}

TEST(MetricsBoardTest, QuarantinedBoardExitBooksAFailureAndTheGauges) {
  // The first op benches both cores of the all-broken board above; the
  // second finds no healthy core and fails before its first round. Each
  // op books its exit, the health gauges included.
  auto pair = GenerateSetPair(2000, 2000, 0.5, 42);
  ASSERT_TRUE(pair.ok());
  system::BoardConfig config;
  config.num_cores = 2;
  config.fault_plan.broken_cores = {0, 1};
  config.fault_plan.hang_watchdog_cycles = 2000;
  const auto expect_gauges = [] {
    const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(snapshot.gauges.at("dba_system_healthy_cores"), 0.0);
    EXPECT_EQ(snapshot.gauges.at("dba_system_quarantined_cores"), 2.0);
  };
  for (const int host_threads : {1, 3}) {
    SCOPED_TRACE("host_threads=" + std::to_string(host_threads));
    config.host_threads = host_threads;
    auto board = system::Board::Create(config);
    ASSERT_TRUE(board.ok()) << board.status();
    const auto run = [&] {
      return (*board)->RunSetOperation(SetOp::kIntersect, pair->a, pair->b)
          .status();
    };
    EXPECT_EQ(run().code(), StatusCode::kDeadlineExceeded);
    expect_gauges();
    const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(run().code(), StatusCode::kUnavailable);
    const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(SystemCounterDeltas(before, after),
              (CounterDeltas{{"dba_system_board_ops_total", 1},
                             {"dba_system_board_op_failures_total", 1}}));
    expect_gauges();
  }
}

TEST(MetricsBoardTest, OutOfAttemptsExitBooksItsRounds) {
  // Transient faults with one attempt per partition: the first failed
  // partition fails the op after a single round.
  auto pair = GenerateSetPair(60000, 60000, 0.5, 20140622);
  ASSERT_TRUE(pair.ok());
  system::BoardConfig config = AcceptanceConfig(1);
  config.fault_plan.broken_cores.clear();
  config.recovery.max_attempts = 1;
  ExpectFailedOpDeltas(
      config,
      [&](system::Board& board) {
        return board.RunSetOperation(SetOp::kIntersect, pair->a, pair->b)
            .status();
      },
      StatusCode::kDataLoss,
      {{"dba_system_board_ops_total", 1},
       {"dba_system_board_op_failures_total", 1},
       {"dba_system_recovery_rounds_total", 1},
       {"dba_system_faults_injected_total", 3},
       {"dba_system_failed_attempts_total", 3},
       {"dba_system_recovery_cycles_total", 8818},
       {"dba_system_noc_feed_bytes_total", 374160},
       {"dba_system_noc_transfer_failures_total", 1}});
}

TEST(MetricsBoardTest, DeadlineExitBooksItsRounds) {
  // Six batch items on four hung cores under a one-cycle budget: the
  // first round fails every item and quarantines the two cores that ran
  // two items, then the spent budget fails the op.
  const std::vector<std::uint32_t> a = {1, 5, 9, 12};
  const std::vector<std::uint32_t> b = {5, 9, 30};
  const std::vector<system::Board::BatchItem> items(
      6, system::Board::BatchItem{SetOp::kIntersect, a, b});
  system::BoardConfig config;
  config.num_cores = 4;
  config.fault_plan.seed = 11;
  config.fault_plan.broken_cores = {0, 1, 2, 3};
  config.fault_plan.hang_watchdog_cycles = 2000;
  system::Board::BatchOptions options;
  options.deadline_cycles = 1;
  ExpectFailedOpDeltas(
      config,
      [&](system::Board& board) {
        return board.RunSetOperationBatch(items, options).status();
      },
      StatusCode::kDeadlineExceeded,
      {{"dba_system_board_ops_total", 1},
       {"dba_system_board_op_failures_total", 1},
       {"dba_system_recovery_rounds_total", 1},
       {"dba_system_faults_injected_total", 6},
       {"dba_system_failed_attempts_total", 6},
       {"dba_system_recovery_cycles_total", 12000},
       {"dba_system_quarantines_total", 2}});
}

}  // namespace
}  // namespace dba::obs
