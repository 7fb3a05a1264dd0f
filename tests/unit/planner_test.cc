#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baseline/galloping_baseline.h"
#include "baseline/scalar_baseline.h"
#include "common/random.h"
#include "core/workload.h"
#include "obs/metrics/metrics.h"
#include "query/engine.h"
#include "query/partition_index.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "query/table.h"
#include "shared/scan_select.h"

namespace dba::query {
namespace {

/// Fixed constants (no calibration run) so every routing decision in
/// this suite is deterministic and computable by hand.
CostModel TestCostModel() {
  CostModel model;
  model.eis_setup_ns = 2000.0;
  model.eis_ns_per_element = 1.0;
  model.gallop_ns_per_probe = 8.0;
  model.simd_ns_per_element = 0.8;
  model.partition_probe_ns = 6.0;
  model.partition_build_ns_per_element = 2.0;
  model.decision_ns = 50.0;
  return model;
}

PlannerOptions TestPlannerOptions() {
  PlannerOptions options;
  options.cost_model = TestCostModel();
  return options;
}

// --- PartitionIndex ---

TEST(PartitionIndexTest, IntersectMatchesScalarAcrossShapes) {
  for (uint32_t indexed : {1u, 255u, 256u, 257u, 5000u, 70000u}) {
    for (double selectivity : {0.0, 0.4, 1.0}) {
      auto pair = GenerateSetPair(std::min(indexed, 300u), indexed,
                                  selectivity, 11 + indexed);
      ASSERT_TRUE(pair.ok());
      const PartitionIndex index = PartitionIndex::Build(pair->b);
      EXPECT_EQ(index.size(), pair->b.size());
      EXPECT_EQ(index.Intersect(pair->a),
                baseline::ScalarIntersect(pair->a, pair->b))
          << "indexed " << indexed << " selectivity " << selectivity;
    }
  }
}

TEST(PartitionIndexTest, ContainsAndEmpty) {
  const PartitionIndex empty = PartitionIndex::Build({});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_FALSE(empty.Contains(0));
  EXPECT_TRUE(empty.Intersect(std::vector<uint32_t>{1, 2}).empty());

  const std::vector<uint32_t> values = {2, 7, 100, 4096, 1u << 30};
  const PartitionIndex index = PartitionIndex::Build(values);
  for (uint32_t v : values) EXPECT_TRUE(index.Contains(v)) << v;
  for (uint32_t v : {0u, 3u, 99u, 101u, 4097u, (1u << 30) + 1}) {
    EXPECT_FALSE(index.Contains(v)) << v;
  }
}

TEST(PartitionIndexTest, SparseDomainGetsMultiPartitionStructure) {
  // 40 bits of span per value: past the bitmap's 32, so a directory.
  std::vector<uint32_t> values(10000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = 5 + 40 * static_cast<uint32_t>(i);
  }
  const PartitionIndex index = PartitionIndex::Build(values);
  EXPECT_EQ(index.num_partitions(),
            (values.size() + PartitionIndex::kPartitionWidth - 1) /
                PartitionIndex::kPartitionWidth);
  EXPECT_GT(index.directory_size(), 1u);
  std::vector<uint32_t> probes = {0, 5, 17, 9000, 10004, 10005, 20000};
  EXPECT_EQ(index.Intersect(probes),
            baseline::ScalarIntersect(probes, values));

  // As many consecutive values are dense: a bitmap, with no partitions.
  std::vector<uint32_t> dense(10000);
  std::iota(dense.begin(), dense.end(), 5u);
  const PartitionIndex bitmap = PartitionIndex::Build(dense);
  EXPECT_EQ(bitmap.num_partitions(), 0u);
  EXPECT_EQ(bitmap.bitmap_span(), dense.size());
  EXPECT_EQ(bitmap.Intersect(probes), baseline::ScalarIntersect(probes, dense));
}

// Every edge of both index forms, on sets small enough to enumerate.
// Sizes 0-40 (under one 16-value block up to several, one short slice),
// 250-290 (the 256-value slice edge) and 500-530 (a short last slice
// after two full ones), with gaps of 1-3 (bitmaps) and of 33-40
// (directories, but for the smallest sets), placed near 0, straddling
// 2^31 (where a signed 32-bit compare would misorder the values) and
// ending at 0xFFFFFFFF. Then sets whose span is exactly 32 n (the
// largest a bitmap takes) and 32 n + 1, and {0, 0xFFFFFFFF}, whose span
// of 2^32 is 0 in 32-bit arithmetic. Each set must take the form the
// span rule names. Probes are each 16-value block's last value, each
// slice's maximum, each 64-bit bitmap word's first bit, their
// neighbours, and values below the first and past the last, as one
// sorted stream and one at a time (a fresh cursor per probe).
TEST(PartitionIndexTest, SmallScopeMatchesScalar) {
  constexpr size_t kBlock = 16;
  const size_t slice = PartitionIndex::kPartitionWidth;
  const auto check = [&](const std::vector<uint32_t>& values) {
    const size_t n = values.size();
    const PartitionIndex index = PartitionIndex::Build(values);
    ASSERT_EQ(index.size(), n);
    const uint64_t span =
        n == 0 ? 0 : uint64_t{values.back()} - values.front() + 1;
    const bool bitmap =
        n > 0 && span <= PartitionIndex::kBitmapSpanPerValue * n;
    EXPECT_EQ(index.bitmap_span(), bitmap ? span : 0);
    EXPECT_EQ(index.num_partitions(),
              bitmap ? 0 : (n + slice - 1) / slice);

    // Signed 64-bit, so the neighbours of 0 and 0xFFFFFFFF fit.
    std::vector<int64_t> edges = {0, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF};
    if (n > 0) {
      edges.push_back(int64_t{values.front()} - 1);  // below the first
      edges.push_back(int64_t{values.back()} + 1);   // past the last
      // Bitmap words start at min + 64 k: min + 63, + 64 and + 65 for
      // the first in either form, every one in the bitmap form.
      const uint64_t words = bitmap ? span / 64 : 1;
      for (uint64_t k = 1; k <= words; ++k) {
        edges.push_back(int64_t{values.front()} + static_cast<int64_t>(64 * k));
      }
    }
    for (size_t end = kBlock; end < n + kBlock; end += kBlock) {
      edges.push_back(values[std::min(end, n) - 1]);  // block's last
    }
    for (size_t end = slice; end < n + slice; end += slice) {
      edges.push_back(values[std::min(end, n) - 1]);  // slice maximum
    }
    std::vector<uint32_t> probes;
    for (const int64_t edge : edges) {
      for (const int64_t probe : {edge - 1, edge, edge + 1}) {
        if (probe >= 0 && probe <= 0xFFFFFFFF) {
          probes.push_back(static_cast<uint32_t>(probe));
        }
      }
    }
    std::sort(probes.begin(), probes.end());
    probes.erase(std::unique(probes.begin(), probes.end()), probes.end());

    EXPECT_EQ(index.Intersect(probes),
              baseline::ScalarIntersect(probes, values));
    for (const uint32_t probe : probes) {
      const std::vector<uint32_t> one = {probe};
      EXPECT_EQ(index.Intersect(one), baseline::ScalarIntersect(one, values))
          << "probe " << probe;
      EXPECT_EQ(index.Contains(probe), std::binary_search(values.begin(),
                                                          values.end(), probe))
          << "probe " << probe;
    }
  };
  // The three placements of a set of span `span`.
  Random rng(2601);
  const auto starts = [&rng](uint64_t span) {
    return std::vector<uint64_t>{rng.Uniform(3),
                                 (uint64_t{1} << 31) - span / 2,
                                 (uint64_t{1} << 32) - span};
  };

  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 40; ++n) sizes.push_back(n);
  for (size_t n = 250; n <= 290; ++n) sizes.push_back(n);
  for (size_t n = 500; n <= 530; ++n) sizes.push_back(n);
  for (const uint32_t min_gap : {1u, 33u}) {
    for (const size_t n : sizes) {
      // Gaps of 1-3 or 33-40 leave non-members between members.
      std::vector<uint32_t> gaps(n);
      uint64_t span = 0;
      for (uint32_t& gap : gaps) {
        gap = min_gap +
              static_cast<uint32_t>(rng.Uniform(min_gap == 1 ? 3 : 8));
        span += gap;
      }
      for (const uint64_t start : starts(span)) {
        std::vector<uint32_t> values;
        uint64_t value = start;
        for (const uint32_t gap : gaps) {
          value += gap;
          values.push_back(static_cast<uint32_t>(value - 1));
        }
        SCOPED_TRACE("size " + std::to_string(n) + ", gaps from " +
                     std::to_string(min_gap) + ", first value " +
                     std::to_string(start));
        check(values);
      }
    }
  }

  // Spans of exactly 32 n (a bitmap) and 32 n + 1 (a directory): values
  // 32 apart, the last one moved out to the span's end.
  for (size_t n = 2; n <= 40; ++n) {
    for (const uint64_t extra : {uint64_t{0}, uint64_t{1}}) {
      const uint64_t span = PartitionIndex::kBitmapSpanPerValue * n + extra;
      for (const uint64_t start : starts(span)) {
        std::vector<uint32_t> values;
        for (size_t i = 0; i + 1 < n; ++i) {
          values.push_back(static_cast<uint32_t>(start + 32 * i));
        }
        values.push_back(static_cast<uint32_t>(start + span - 1));
        SCOPED_TRACE("size " + std::to_string(n) + ", span " +
                     std::to_string(span) + ", first value " +
                     std::to_string(start));
        check(values);
      }
    }
  }

  SCOPED_TRACE("{0, 0xFFFFFFFF}");
  check({0, 0xFFFFFFFF});
}

// --- PartitionSavingsMeter ---

TEST(SavingsMeterTest, TripsExactlyAtPayback) {
  PartitionSavingsMeter meter;
  // Threshold = 2.0 * 1000; each miss saves 600 -> trips on miss 4.
  EXPECT_FALSE(meter.RecordMiss(600, 1000, 2.0));
  EXPECT_FALSE(meter.RecordMiss(600, 1000, 2.0));
  EXPECT_FALSE(meter.RecordMiss(600, 1000, 2.0));
  EXPECT_TRUE(meter.RecordMiss(600, 1000, 2.0));
  EXPECT_EQ(meter.misses_recorded(), 4u);
  EXPECT_DOUBLE_EQ(meter.missed_savings_ns(), 2400.0);
  meter.ChargeBuild(1000);
  EXPECT_DOUBLE_EQ(meter.missed_savings_ns(), 1400.0);
  // Non-positive savings are ignored entirely.
  EXPECT_FALSE(meter.RecordMiss(0, 1000, 2.0));
  EXPECT_FALSE(meter.RecordMiss(-5, 1000, 2.0));
  EXPECT_EQ(meter.misses_recorded(), 4u);
}

// --- Planner decisions ---

TEST(PlannerTest, RoutesFollowCostModel) {
  Planner planner(TestPlannerOptions());
  // Heavy skew: galloping's log-depth curve wins.
  EXPECT_EQ(planner.Plan(64, 65536, false).route, Route::kGalloping);
  // With an index available the probe route undercuts everything.
  EXPECT_EQ(planner.Plan(64, 65536, true).route, Route::kPartitionProbe);
  // Balanced sets: SIMD merge beats EIS setup+stream at these constants.
  EXPECT_EQ(planner.Plan(4096, 4096, false).route, Route::kSimdMerge);
  // Make host merging expensive: the EIS datapath wins balanced sets.
  PlannerOptions eis_friendly = TestPlannerOptions();
  eis_friendly.cost_model->simd_ns_per_element = 2.0;
  Planner eis_planner(eis_friendly);
  EXPECT_EQ(eis_planner.Plan(4096, 4096, false).route, Route::kEisMerge);
}

TEST(PlannerTest, ForcedRouteAlwaysWins) {
  for (size_t r = 0; r < kNumRoutes; ++r) {
    PlannerOptions options = TestPlannerOptions();
    options.force_route = static_cast<Route>(r);
    Planner planner(options);
    const PlanDecision decision = planner.Plan(100, 100000, false);
    EXPECT_TRUE(decision.forced);
    EXPECT_EQ(decision.route, static_cast<Route>(r));
  }
}

TEST(PlannerTest, PartitionRouteNeedsAnIndex) {
  PlannerOptions options = TestPlannerOptions();
  Planner planner(options);
  EXPECT_NE(planner.Plan(64, 65536, false).route, Route::kPartitionProbe);
  options.allow_partition_index = false;
  Planner no_partition(options);
  EXPECT_NE(no_partition.Plan(64, 65536, true).route,
            Route::kPartitionProbe);
}

TEST(PlannerTest, DefaultModelWithoutIndexNeverPicksEis) {
  // service::RunHostFallbackOp routes degraded-mode intersections with
  // exactly this planner; it has no processor, so an EIS pick would fail
  // every degraded intersect with FailedPrecondition.
  PlannerOptions options;
  options.cost_model = DefaultCostModel();
  const Planner planner(options);
  std::vector<size_t> sizes;
  for (int k = 0; k <= 20; ++k) {
    const size_t power = size_t{1} << k;
    if (power > 1) sizes.push_back(power - 1);
    sizes.push_back(power);
    sizes.push_back(power + 1);
  }
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  for (const size_t a : sizes) {
    for (const size_t b : sizes) {
      const Route route = planner.Plan(a, b, /*index_available=*/false).route;
      EXPECT_TRUE(route == Route::kGalloping || route == Route::kSimdMerge)
          << a << " x " << b << " -> " << RouteName(route);
    }
  }
}

TEST(PlannerTest, RouteNamesRoundTrip) {
  for (size_t r = 0; r < kNumRoutes; ++r) {
    const Route route = static_cast<Route>(r);
    auto parsed = ParseRoute(RouteName(route));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, route);
  }
  EXPECT_FALSE(ParseRoute("warp_drive").ok());
}

TEST(PlannerTest, CalibratedModelIsSane) {
  const CostModel& model = Planner::Calibrated();
  EXPECT_GT(model.eis_ns_per_element, 0.0);
  EXPECT_GT(model.simd_ns_per_element, 0.0);
  EXPECT_GT(model.gallop_ns_per_probe, 0.0);
  EXPECT_GT(model.partition_probe_ns, 0.0);
  EXPECT_GT(model.partition_build_ns_per_element, 0.0);
  // The same process-wide model every time.
  EXPECT_EQ(&Planner::Calibrated(), &model);
}

// --- Route equivalence: every route, byte-identical to scalar ---

TEST(RouteEquivalenceTest, AllRoutesMatchScalarAcrossGrid) {
  auto processor = Processor::Create(ProcessorKind::kDba2LsuEis);
  ASSERT_TRUE(processor.ok());
  for (uint32_t small : {16u, 500u}) {
    for (uint32_t skew : {1u, 16u, 256u}) {
      for (double selectivity : {0.0, 0.5, 1.0}) {
        auto pair = GenerateSetPair(small, small * skew, selectivity,
                                    1000 + small + skew);
        ASSERT_TRUE(pair.ok());
        const std::vector<uint32_t> expected =
            baseline::ScalarIntersect(pair->a, pair->b);
        for (size_t r = 0; r < kNumRoutes; ++r) {
          const Route route = static_cast<Route>(r);
          auto run = RunIntersectRoute(route, pair->a, pair->b,
                                       processor->get());
          ASSERT_TRUE(run.ok()) << RouteName(route);
          EXPECT_EQ(run->result, expected)
              << RouteName(route) << " small=" << small << " skew=" << skew
              << " selectivity=" << selectivity;
        }
      }
    }
  }
}

TEST(RouteEquivalenceTest, EveryOpOnEveryRoute) {
  auto processor = Processor::Create(ProcessorKind::kDba2LsuEis);
  ASSERT_TRUE(processor.ok());
  auto pair = GenerateSetPair(300, 1200, 0.5, 4242);
  ASSERT_TRUE(pair.ok());
  // Merge inputs hold duplicates, within each side and across both.
  std::vector<uint32_t> merge_a;
  std::vector<uint32_t> merge_b;
  Random rng(4243);
  for (int i = 0; i < 400; ++i) {
    merge_a.push_back(static_cast<uint32_t>(rng.Uniform(500)));
    merge_b.push_back(static_cast<uint32_t>(rng.Uniform(500)));
  }
  std::sort(merge_a.begin(), merge_a.end());
  std::sort(merge_b.begin(), merge_b.end());

  const auto reference = [](SetOp op, std::span<const uint32_t> a,
                            std::span<const uint32_t> b) {
    std::vector<uint32_t> out;
    const auto sink = std::back_inserter(out);
    switch (op) {
      case SetOp::kIntersect:
        std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), sink);
        break;
      case SetOp::kUnion:
        std::set_union(a.begin(), a.end(), b.begin(), b.end(), sink);
        break;
      case SetOp::kDifference:
        std::set_difference(a.begin(), a.end(), b.begin(), b.end(), sink);
        break;
      case SetOp::kMerge:
        std::merge(a.begin(), a.end(), b.begin(), b.end(), sink);
        break;
    }
    return out;
  };

  const std::vector<uint32_t> none;
  for (const SetOp op : {SetOp::kIntersect, SetOp::kUnion, SetOp::kDifference,
                         SetOp::kMerge}) {
    const std::vector<uint32_t>& a =
        op == SetOp::kMerge ? merge_a : pair->a;
    const std::vector<uint32_t>& b =
        op == SetOp::kMerge ? merge_b : pair->b;
    for (size_t r = 0; r < kNumRoutes; ++r) {
      const Route route = static_cast<Route>(r);
      const std::string label =
          std::string(eis::SopModeName(op)) + " on " +
          std::string(RouteName(route));
      for (const bool swap : {false, true}) {
        const std::vector<uint32_t>& x = swap ? b : a;
        const std::vector<uint32_t>& y = swap ? a : b;
        auto run = RunRoute(op, route, x, y, processor->get());
        ASSERT_TRUE(run.ok()) << label << ": " << run.status();
        EXPECT_EQ(run->result, reference(op, x, y))
            << label << (swap ? " (B, A)" : " (A, B)");
        EXPECT_EQ(run->route, route) << label;
      }
      // Empty operands take the shared rule on every route, and need no
      // processor even on the EIS route.
      for (const auto& [x, y] : {std::pair{&none, &b}, std::pair{&a, &none},
                                 std::pair{&none, &none}}) {
        auto rule = eis::EmptyOperandResult(op, *x, *y);
        ASSERT_TRUE(rule.ok());
        auto run = RunRoute(op, route, *x, *y, /*processor=*/nullptr);
        ASSERT_TRUE(run.ok()) << label << ": " << run.status();
        EXPECT_EQ(run->result,
                  std::vector<uint32_t>(rule->begin(), rule->end()))
            << label << " with " << x->size() << " x " << y->size();
      }
    }
  }
}

// --- Engine integration ---

Table MakeOrdersTable(uint32_t rows, uint64_t seed) {
  Random rng(seed);
  Table table("orders");
  std::vector<uint32_t> region(rows);
  std::vector<uint32_t> status(rows);
  std::vector<uint32_t> amount(rows);
  for (uint32_t i = 0; i < rows; ++i) {
    region[i] = static_cast<uint32_t>(rng.Uniform(5));
    status[i] = static_cast<uint32_t>(rng.Uniform(3));
    amount[i] = static_cast<uint32_t>(rng.Uniform(10000));
  }
  EXPECT_TRUE(table.AddColumn("region", std::move(region)).ok());
  EXPECT_TRUE(table.AddColumn("status", std::move(status)).ok());
  EXPECT_TRUE(table.AddColumn("amount", std::move(amount)).ok());
  return table;
}

class PlannerEngineTest : public ::testing::Test {
 protected:
  PlannerEngineTest() : table_(MakeOrdersTable(4000, 77)) {
    auto processor = Processor::Create(ProcessorKind::kDba2LsuEis);
    EXPECT_TRUE(processor.ok());
    processor_ = *std::move(processor);
  }

  std::unique_ptr<QueryEngine> MakeEngine() {
    auto engine = std::make_unique<QueryEngine>(&table_, processor_.get());
    EXPECT_TRUE(engine->BuildIndex("region").ok());
    EXPECT_TRUE(engine->BuildIndex("status").ok());
    EXPECT_TRUE(engine->BuildIndex("amount").ok());
    return engine;
  }

  std::vector<PredicatePtr> TestPredicates() {
    std::vector<PredicatePtr> predicates;
    predicates.push_back(And(Equals("region", 1), LessEq("amount", 120)));
    predicates.push_back(And(Equals("region", 2),
                             And(Equals("status", 0),
                                 Between("amount", 1000, 9000))));
    predicates.push_back(Or(And(Equals("region", 0), Equals("status", 1)),
                            Between("amount", 0, 50)));
    predicates.push_back(And(Between("amount", 0, 9999),
                             Not(Equals("status", 2))));
    return predicates;
  }

  Table table_;
  std::unique_ptr<Processor> processor_;
};

TEST_F(PlannerEngineTest, PlannerKeepsSelectResultsIdenticalToAlwaysEis) {
  auto baseline_engine = MakeEngine();
  auto planned_engine = MakeEngine();
  planned_engine->EnableAdaptivePlanner(TestPlannerOptions());
  uint32_t planned_total = 0;
  for (const PredicatePtr& predicate : TestPredicates()) {
    QueryStats baseline_stats;
    QueryStats planned_stats;
    auto expected = baseline_engine->Select(*predicate, &baseline_stats);
    auto actual = planned_engine->Select(*predicate, &planned_stats);
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(*actual, *expected) << predicate->ToString();
    planned_total += planned_stats.planned_ops;
    // Every planned op lands in exactly one route bucket.
    uint32_t routed = 0;
    for (uint32_t count : planned_stats.route_counts) routed += count;
    EXPECT_EQ(routed, planned_stats.planned_ops);
  }
  EXPECT_GT(planned_total, 0u);
}

TEST_F(PlannerEngineTest, ForcedRoutesMatchPlannerChoice) {
  auto chosen_engine = MakeEngine();
  chosen_engine->EnableAdaptivePlanner(TestPlannerOptions());
  for (size_t r = 0; r < kNumRoutes; ++r) {
    PlannerOptions options = TestPlannerOptions();
    options.force_route = static_cast<Route>(r);
    auto forced_engine = MakeEngine();
    forced_engine->EnableAdaptivePlanner(options);
    for (const PredicatePtr& predicate : TestPredicates()) {
      QueryStats forced_stats;
      auto expected = chosen_engine->Select(*predicate);
      auto actual = forced_engine->Select(*predicate, &forced_stats);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(actual.ok());
      EXPECT_EQ(*actual, *expected)
          << RouteName(static_cast<Route>(r)) << " " << predicate->ToString();
      // Forced engines route every planned op to the forced bucket.
      EXPECT_EQ(forced_stats.route_counts[r], forced_stats.planned_ops);
    }
  }
}

TEST_F(PlannerEngineTest, LazyIndexBuildsOnlyAfterPayback) {
  auto engine = MakeEngine();
  PlannerOptions options = TestPlannerOptions();
  options.payback_factor = 2.0;
  engine->EnableAdaptivePlanner(options);

  // region = 1 yields ~800 RIDs (the indexable large operand);
  // amount <= 120 yields a few dozen (the probe side).
  const auto predicate = And(Equals("region", 1), LessEq("amount", 120));
  QueryStats probe_stats;
  auto small = engine->Select(*LessEq("amount", 120), &probe_stats);
  auto large = engine->Select(*Equals("region", 1), &probe_stats);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());

  // Expected miss accounting, by hand from the injected cost model.
  const CostModel model = TestCostModel();
  const double chosen =
      Planner(options).Plan(small->size(), large->size(), false).chosen_ns;
  const double savings = chosen -
                         model.PartitionProbeNs(small->size(), large->size()) -
                         model.decision_ns;
  ASSERT_GT(savings, 0.0);
  const double build_cost = model.PartitionBuildNs(large->size());
  const auto misses_needed = static_cast<uint32_t>(
      std::ceil(options.payback_factor * build_cost / savings));
  ASSERT_GE(misses_needed, 2u) << "test wants a multi-query payback";

  QueryStats stats;
  for (uint32_t i = 0; i + 1 < misses_needed; ++i) {
    ASSERT_TRUE(engine->Select(*predicate, &stats).ok());
    EXPECT_EQ(stats.partition_index_builds, 0u) << "miss " << i;
  }
  EXPECT_EQ(engine->partition_state("region").indexes_built, 0u);

  // The payback miss: the index materializes and serves this very query.
  ASSERT_TRUE(engine->Select(*predicate, &stats).ok());
  EXPECT_EQ(stats.partition_index_builds, 1u);
  const ColumnIndexState state = engine->partition_state("region");
  EXPECT_EQ(state.indexes_built, 1u);
  EXPECT_EQ(state.misses_recorded, misses_needed);
  EXPECT_EQ(state.indexed_entries, large->size());
  EXPECT_GT(stats.route_counts[static_cast<size_t>(Route::kPartitionProbe)],
            0u);

  // Subsequent identical queries reuse the cached index: no more builds.
  QueryStats after;
  ASSERT_TRUE(engine->Select(*predicate, &after).ok());
  EXPECT_EQ(after.partition_index_builds, 0u);
  EXPECT_EQ(after.route_counts[static_cast<size_t>(Route::kPartitionProbe)],
            after.planned_ops);
}

TEST_F(PlannerEngineTest, SameSeedReplayIsDeterministic) {
  auto run_once = [this] {
    auto engine = MakeEngine();
    engine->EnableAdaptivePlanner(TestPlannerOptions());
    QueryStats stats;
    for (const PredicatePtr& predicate : TestPredicates()) {
      auto rids = engine->Select(*predicate, &stats);
      EXPECT_TRUE(rids.ok());
    }
    return stats;
  };
  const QueryStats first = run_once();
  const QueryStats second = run_once();
  EXPECT_EQ(first.plan, second.plan);
  EXPECT_EQ(first.route_counts, second.route_counts);
  EXPECT_EQ(first.planned_ops, second.planned_ops);
  EXPECT_EQ(first.partition_index_builds, second.partition_index_builds);
  EXPECT_EQ(first.accelerator_cycles, second.accelerator_cycles);
  EXPECT_EQ(first.elements_processed, second.elements_processed);
}

TEST_F(PlannerEngineTest, MetricsRouteCountersMatchQueryStats) {
  // Every registry counter the engine books must move by exactly its
  // QueryStats field, summed over one run that takes every booking path:
  // EIS set ops, each planner route with a retried first attempt, lazy
  // index builds, chunked JoinKeys sorts and a chunked ORDER BY.
  std::vector<std::string> names = {
      "dba_query_setops_total", "dba_query_sorts_total",
      "dba_query_retries_total", "dba_query_partition_index_builds_total"};
  for (size_t r = 0; r < kNumRoutes; ++r) {
    names.push_back(obs::InstrumentIdentity(
        "dba_query_plan_total", "route", RouteName(static_cast<Route>(r))));
  }
  const auto registry_counts = [&names] {
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();
    std::vector<uint64_t> counts;
    for (const std::string& name : names) {
      auto it = snapshot.counters.find(name);
      counts.push_back(it == snapshot.counters.end() ? 0 : it->second);
    }
    return counts;
  };
  const auto stats_counts = [](const QueryStats& stats) {
    std::vector<uint64_t> counts = {stats.set_operations, stats.sorts,
                                    stats.retries,
                                    stats.partition_index_builds};
    counts.insert(counts.end(), stats.route_counts.begin(),
                  stats.route_counts.end());
    return counts;
  };

  // Key columns beyond the 8184-element local-store sort: 9000 keys sort
  // in two chunks joined by a streamed merge.
  std::vector<uint32_t> keys_a(9000);
  std::vector<uint32_t> keys_b(3000);
  for (size_t i = 0; i < keys_a.size(); ++i) {
    keys_a[i] = static_cast<uint32_t>((i * 7919) % keys_a.size());
  }
  for (size_t i = 0; i < keys_b.size(); ++i) {
    keys_b[i] = static_cast<uint32_t>(3 * i);
  }
  Table orders("orders_m");
  Table customers("customers_m");
  ASSERT_TRUE(orders.AddColumn("cust_key", std::move(keys_a)).ok());
  ASSERT_TRUE(orders.AddColumn("flag", std::vector<uint32_t>(9000, 1)).ok());
  ASSERT_TRUE(customers.AddColumn("key", std::move(keys_b)).ok());

  const std::vector<uint64_t> before = registry_counts();
  QueryStats stats;

  auto unplanned = MakeEngine();
  for (const PredicatePtr& predicate : TestPredicates()) {
    ASSERT_TRUE(unplanned->Select(*predicate, &stats).ok());
  }

  for (size_t r = 0; r < kNumRoutes; ++r) {
    PlannerOptions options = TestPlannerOptions();
    options.force_route = static_cast<Route>(r);
    auto forced = MakeEngine();
    forced->EnableAdaptivePlanner(options);
    forced->SetMaxAttempts(2);
    forced->SetAttemptFaultHook([](std::string_view, int attempt) {
      return attempt == 0 ? Status::Unavailable("injected") : Status::Ok();
    });
    for (const PredicatePtr& predicate : TestPredicates()) {
      ASSERT_TRUE(forced->Select(*predicate, &stats).ok())
          << RouteName(static_cast<Route>(r));
    }
  }

  // With payback_factor 0 the first miss builds a lazy partition index;
  // the repeat probes it.
  PlannerOptions eager = TestPlannerOptions();
  eager.payback_factor = 0.0;
  auto planned = MakeEngine();
  planned->EnableAdaptivePlanner(eager);
  const auto repeated = And(Equals("region", 1), LessEq("amount", 120));
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(planned->Select(*repeated, &stats).ok());
  }
  ASSERT_EQ(stats.partition_index_builds, 1u);

  QueryEngine join(&orders, processor_.get());
  join.EnableAdaptivePlanner(TestPlannerOptions());
  ASSERT_TRUE(join.BuildIndex("flag").ok());
  ASSERT_TRUE(join.JoinKeys("cust_key", customers, "key", &stats).ok());
  ASSERT_TRUE(
      join.SelectValuesOrdered(*Equals("flag", 1), "cust_key", &stats).ok());
  // 9000 + 3000 keys, then 9000 ORDER BY values: 2 + 1 + 2 chunk sorts.
  EXPECT_EQ(stats.sorts, 5u);
  EXPECT_GT(stats.retries, 0u);

  const std::vector<uint64_t> after = registry_counts();
  const std::vector<uint64_t> booked = stats_counts(stats);
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(after[i] - before[i], booked[i]) << names[i];
  }
}

TEST_F(PlannerEngineTest, PlannedJoinKeysMatchesUnplanned) {
  // JoinKeys' final intersection routes through the planner; the keys
  // and the sort steps must match the always-EIS engine's.
  std::vector<uint32_t> keys_a(1500);
  std::vector<uint32_t> keys_b(900);
  std::iota(keys_a.begin(), keys_a.end(), 10u);
  for (size_t i = 0; i < keys_b.size(); ++i) {
    keys_b[i] = static_cast<uint32_t>(10 + 2 * i);
  }
  Table orders("orders_j");
  Table customers("customers_j");
  ASSERT_TRUE(orders.AddColumn("cust_key", std::move(keys_a)).ok());
  ASSERT_TRUE(customers.AddColumn("key", std::move(keys_b)).ok());

  QueryEngine unplanned(&orders, processor_.get());
  QueryStats unplanned_stats;
  auto expected =
      unplanned.JoinKeys("cust_key", customers, "key", &unplanned_stats);
  ASSERT_TRUE(expected.ok()) << expected.status();

  QueryEngine planned(&orders, processor_.get());
  planned.EnableAdaptivePlanner(TestPlannerOptions());
  QueryStats planned_stats;
  auto keys = planned.JoinKeys("cust_key", customers, "key", &planned_stats);
  ASSERT_TRUE(keys.ok()) << keys.status();

  EXPECT_EQ(*keys, *expected);
  // Both sort steps match; only the intersection step names a route.
  ASSERT_EQ(planned_stats.plan.size(), 3u);
  ASSERT_EQ(unplanned_stats.plan.size(), 3u);
  EXPECT_EQ(planned_stats.plan[0], unplanned_stats.plan[0]);
  EXPECT_EQ(planned_stats.plan[1], unplanned_stats.plan[1]);
  EXPECT_EQ(planned_stats.sorts, unplanned_stats.sorts);
  EXPECT_EQ(unplanned_stats.planned_ops, 0u);
  EXPECT_EQ(planned_stats.planned_ops, 1u);
  uint32_t routed = 0;
  for (const uint32_t count : planned_stats.route_counts) routed += count;
  EXPECT_EQ(routed, planned_stats.planned_ops);
}

TEST_F(PlannerEngineTest, DisableRestoresAlwaysEis) {
  auto engine = MakeEngine();
  engine->EnableAdaptivePlanner(TestPlannerOptions());
  EXPECT_TRUE(engine->planner_enabled());
  engine->DisableAdaptivePlanner();
  EXPECT_FALSE(engine->planner_enabled());
  QueryStats stats;
  auto rids = engine->Select(*And(Equals("region", 1), LessEq("amount", 120)),
                             &stats);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(stats.planned_ops, 0u);
  EXPECT_GT(stats.accelerator_cycles, 0u);
}

// Regression: BuildIndex used to replace a column's secondary index but
// keep the partition indexes cached over its old probe results, so the
// next planned intersection probed the old RIDs.
TEST_F(PlannerEngineTest, BuildIndexDropsTheColumnsPartitionIndexes) {
  auto engine = MakeEngine();
  PlannerOptions eager = TestPlannerOptions();
  eager.payback_factor = 0.0;
  engine->EnableAdaptivePlanner(eager);
  // amount <= 120 is the selective leaf; region = 1 the broad one, over
  // which the first planned miss builds a partition index.
  const auto predicate = And(Equals("region", 1), LessEq("amount", 120));
  QueryStats first;
  ASSERT_TRUE(engine->Select(*predicate, &first).ok());
  ASSERT_EQ(first.partition_index_builds, 1u);

  // Every row moves to the next region, so region = 1 matches new rows.
  const std::span<const uint32_t> old_region = *table_.Column("region");
  std::vector<uint32_t> region(old_region.begin(), old_region.end());
  for (uint32_t& value : region) value = (value + 1) % 5;
  ASSERT_TRUE(table_.UpdateColumn("region", std::move(region)).ok());
  ASSERT_TRUE(engine->BuildIndex("region").ok());

  std::vector<Rid> scan;
  const std::span<const uint32_t> regions = *table_.Column("region");
  const std::span<const uint32_t> amounts = *table_.Column("amount");
  for (Rid rid = 0; rid < table_.num_rows(); ++rid) {
    if (regions[rid] == 1 && amounts[rid] <= 120) scan.push_back(rid);
  }
  QueryStats after;
  auto rids = engine->Select(*predicate, &after);
  ASSERT_TRUE(rids.ok()) << rids.status();
  EXPECT_EQ(*rids, scan);
  EXPECT_EQ(after.partition_index_builds, 1u);
}

// Regression: refreshing a stale column used to drop the cached
// partition indexes of every column whose name starts with
// "<column>:", so column "a:b" rebuilt its index after "a" changed.
TEST_F(PlannerEngineTest, UpdatingAColumnKeepsOtherColumnsPartitionIndexes) {
  Random rng(91);
  std::vector<uint32_t> a(4000);
  std::vector<uint32_t> ab(4000);
  std::vector<uint32_t> selective(4000);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<uint32_t>(rng.Uniform(5));
    ab[i] = static_cast<uint32_t>(rng.Uniform(5));
    selective[i] = static_cast<uint32_t>(rng.Uniform(10000));
  }
  Table table("prefixed");
  ASSERT_TRUE(table.AddColumn("a", a).ok());
  ASSERT_TRUE(table.AddColumn("a:b", std::move(ab)).ok());
  ASSERT_TRUE(table.AddColumn("s", std::move(selective)).ok());
  QueryEngine engine(&table, processor_.get());
  for (const char* column : {"a", "a:b", "s"}) {
    ASSERT_TRUE(engine.BuildIndex(column).ok()) << column;
  }
  PlannerOptions eager = TestPlannerOptions();
  eager.payback_factor = 0.0;
  engine.EnableAdaptivePlanner(eager);

  const auto predicate = And(Equals("a:b", 1), LessEq("s", 120));
  QueryStats built;
  ASSERT_TRUE(engine.Select(*predicate, &built).ok());
  ASSERT_EQ(built.partition_index_builds, 1u);
  ASSERT_EQ(engine.partition_state("a:b").indexes_built, 1u);

  for (uint32_t& value : a) value = (value + 1) % 5;
  ASSERT_TRUE(table.UpdateColumn("a", std::move(a)).ok());
  ASSERT_TRUE(engine.Select(*Equals("a", 1)).ok());

  QueryStats reused;
  ASSERT_TRUE(engine.Select(*predicate, &reused).ok());
  EXPECT_EQ(reused.partition_index_builds, 0u);
  EXPECT_GT(reused.planned_ops, 0u);
  EXPECT_EQ(reused.route_counts[static_cast<size_t>(Route::kPartitionProbe)],
            reused.planned_ops);
  EXPECT_EQ(engine.partition_state("a:b").indexes_built, 1u);
}

// A leaf whose range holds one value borrows its column index's entries,
// and only the first probe of a column in a Select may rebuild that
// index. After UpdateColumn, each predicate below probes the stale
// column twice: the first probe rebuilds the index, and both borrowed
// leaves must still read the rebuilt one when the set operations run.
// Planner off, on and forced to each route, against a column scan.
TEST_F(PlannerEngineTest, BorrowedLeavesSurviveAStaleColumn) {
  // Moves every row's region on by one, leaving the engine's index of
  // the column stale.
  const auto update_region = [this] {
    const std::span<const uint32_t> old_region = *table_.Column("region");
    std::vector<uint32_t> region(old_region.begin(), old_region.end());
    for (uint32_t& value : region) value = (value + 1) % 5;
    ASSERT_TRUE(table_.UpdateColumn("region", std::move(region)).ok());
  };
  std::vector<PredicatePtr> predicates;
  predicates.push_back(And(Equals("region", 1), Not(Equals("region", 2))));
  predicates.push_back(Or(Equals("region", 1),
                          And(Equals("region", 2), Equals("status", 0))));
  std::vector<std::optional<PlannerOptions>> modes = {std::nullopt,
                                                      TestPlannerOptions()};
  for (size_t r = 0; r < kNumRoutes; ++r) {
    PlannerOptions forced = TestPlannerOptions();
    forced.force_route = static_cast<Route>(r);
    modes.push_back(forced);
  }
  for (size_t mode = 0; mode < modes.size(); ++mode) {
    auto engine = MakeEngine();
    if (modes[mode].has_value()) engine->EnableAdaptivePlanner(*modes[mode]);
    for (int round = 0; round < 3; ++round) {
      for (const PredicatePtr& predicate : predicates) {
        update_region();
        auto rids = engine->Select(*predicate);
        ASSERT_TRUE(rids.ok()) << rids.status();
        EXPECT_EQ(*rids, test::ScanSelect(table_, *predicate))
            << "mode " << mode << ", round " << round << ": "
            << predicate->ToString();
      }
    }
  }
}

// The partition route on both index forms. The AND over `sparse` (one
// value every 40 rows: 40 bits of span per RID) probes a directory-form
// index, the AND over `dense` (one of two values per row) a bitmap. Each
// runs on the eager planner, which builds its index on the first query,
// and forced to partition_probe, against a column scan, before and after
// both columns change and are re-indexed.
TEST_F(PlannerEngineTest, PartitionRouteMatchesAScanInBothIndexForms) {
  constexpr Rid kRows = 40000;
  Random rng(2902);
  std::vector<uint32_t> sparse(kRows);
  std::vector<uint32_t> dense(kRows);
  std::vector<uint32_t> pick(kRows);
  for (Rid rid = 0; rid < kRows; ++rid) {
    sparse[rid] = rid % 40 == 0 ? 0 : 1 + static_cast<uint32_t>(rng.Uniform(9));
    dense[rid] = static_cast<uint32_t>(rng.Uniform(2));
    // The 40-row probe side: every 2000th row, a member of `sparse`
    // until the update, and the row 20 past it, a member after.
    pick[rid] = rid % 2000 == 0 || rid % 2000 == 20 ? 0 : 1;
  }
  Table table("forms");
  ASSERT_TRUE(table.AddColumn("sparse", sparse).ok());
  ASSERT_TRUE(table.AddColumn("dense", dense).ok());
  ASSERT_TRUE(table.AddColumn("pick", std::move(pick)).ok());
  QueryEngine planned(&table, processor_.get());
  QueryEngine forced(&table, processor_.get());
  for (QueryEngine* engine : {&planned, &forced}) {
    for (const char* column : {"sparse", "dense", "pick"}) {
      ASSERT_TRUE(engine->BuildIndex(column).ok()) << column;
    }
  }
  PlannerOptions eager = TestPlannerOptions();
  eager.payback_factor = 0.0;
  planned.EnableAdaptivePlanner(eager);
  eager.force_route = Route::kPartitionProbe;
  forced.EnableAdaptivePlanner(eager);

  const auto on_sparse = And(Equals("pick", 0), Equals("sparse", 0));
  const auto on_dense = And(Equals("pick", 0), Equals("dense", 1));
  const size_t probe_route = static_cast<size_t>(Route::kPartitionProbe);
  for (int phase = 0; phase < 2; ++phase) {
    SCOPED_TRACE(phase == 0 ? "as built" : "after the update");
    // The form each AND's larger operand takes.
    const PartitionIndex sparse_index =
        PartitionIndex::Build(test::ScanSelect(table, *Equals("sparse", 0)));
    EXPECT_EQ(sparse_index.num_partitions(),
              (kRows / 40 + PartitionIndex::kPartitionWidth - 1) /
                  PartitionIndex::kPartitionWidth);
    EXPECT_GT(sparse_index.directory_size(), 1u);
    const PartitionIndex dense_index =
        PartitionIndex::Build(test::ScanSelect(table, *Equals("dense", 1)));
    EXPECT_EQ(dense_index.num_partitions(), 0u);
    EXPECT_EQ(dense_index.directory_size(), 0u);

    for (const Predicate* predicate : {on_sparse.get(), on_dense.get()}) {
      const std::vector<Rid> scan = test::ScanSelect(table, *predicate);
      ASSERT_FALSE(scan.empty()) << predicate->ToString();
      for (QueryEngine* engine : {&planned, &forced}) {
        QueryStats stats;
        auto rids = engine->Select(*predicate, &stats);
        ASSERT_TRUE(rids.ok()) << rids.status();
        EXPECT_EQ(*rids, scan) << predicate->ToString();
        EXPECT_EQ(stats.planned_ops, 1u);
        EXPECT_EQ(stats.route_counts[probe_route], 1u)
            << predicate->ToString();
      }
    }
    // The planner built and cached one index per column; the forced
    // route builds a transient one per query.
    EXPECT_EQ(planned.partition_state("sparse").indexed_entries,
              sparse_index.size());
    EXPECT_EQ(planned.partition_state("dense").indexed_entries,
              dense_index.size());
    EXPECT_EQ(forced.partition_state("sparse").indexes_built, 0u);

    // `sparse` moves its members 20 rows on, `dense` is drawn again.
    for (Rid rid = 0; rid < kRows; ++rid) {
      sparse[rid] =
          rid % 40 == 20 ? 0 : 1 + static_cast<uint32_t>(rng.Uniform(9));
      dense[rid] = static_cast<uint32_t>(rng.Uniform(2));
    }
    ASSERT_TRUE(table.UpdateColumn("sparse", sparse).ok());
    ASSERT_TRUE(table.UpdateColumn("dense", dense).ok());
    for (QueryEngine* engine : {&planned, &forced}) {
      ASSERT_TRUE(engine->BuildIndex("sparse").ok());
      ASSERT_TRUE(engine->BuildIndex("dense").ok());
    }
  }
}

}  // namespace
}  // namespace dba::query
