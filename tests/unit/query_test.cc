#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "obs/metrics/metrics.h"
#include "query/engine.h"
#include "query/planner.h"
#include "query/index.h"
#include "query/predicate.h"
#include "query/table.h"
#include "shared/scan_select.h"

namespace dba::query {
namespace {

using test::ScanSelect;

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

// --- Table ---

TEST(TableTest, AddAndAccessColumns) {
  Table table("t");
  ASSERT_TRUE(table.AddColumn("a", {1, 2, 3}).ok());
  ASSERT_TRUE(table.AddColumn("b", {4, 5, 6}).ok());
  EXPECT_EQ(table.num_rows(), 3u);
  EXPECT_EQ(table.num_columns(), 2u);
  EXPECT_TRUE(table.HasColumn("a"));
  EXPECT_FALSE(table.HasColumn("c"));
  EXPECT_EQ((*table.Column("b"))[1], 5u);
  EXPECT_EQ(*table.Value("a", 2), 3u);
  EXPECT_EQ(table.ColumnNames(), (std::vector<std::string>{"a", "b"}));
}

TEST(TableTest, Validation) {
  Table table("t");
  ASSERT_TRUE(table.AddColumn("a", {1, 2, 3}).ok());
  EXPECT_EQ(table.AddColumn("a", {7, 8, 9}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(table.AddColumn("b", {1}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(table.Column("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(table.Value("a", 5).status().code(), StatusCode::kOutOfRange);
}

// --- SecondaryIndex ---

TEST(SecondaryIndexTest, ProbesReturnSortedRids) {
  Table table("t");
  ASSERT_TRUE(table.AddColumn("k", {5, 1, 5, 3, 5, 1}).ok());
  auto index = SecondaryIndex::Build(table, "k");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->ProbeEquals(5), (std::vector<Rid>{0, 2, 4}));
  EXPECT_EQ(index->ProbeEquals(1), (std::vector<Rid>{1, 5}));
  EXPECT_TRUE(index->ProbeEquals(7).empty());
  EXPECT_EQ(index->ProbeRange(1, 3), (std::vector<Rid>{1, 3, 5}));
  EXPECT_EQ(index->ProbeRange(0, 0xFFFFFFFF), index->AllRids());
  EXPECT_TRUE(index->ProbeRange(4, 2).empty());  // inverted range
  EXPECT_EQ(index->ProbeRange(4, 6), (std::vector<Rid>{0, 2, 4}));
  EXPECT_EQ(*index->MinValue(), 1u);
  EXPECT_EQ(*index->MaxValue(), 5u);

  // Single-value probes skip the RID sort and rely on Build keeping each
  // value's RIDs ascending: a small domain over many rows gives long
  // runs of equal values, which an unstable sort would scramble.
  Table big("big");
  Random rng(1401);
  auto column = [&rng] {
    std::vector<uint32_t> values(10000);
    for (auto& value : values) value = static_cast<uint32_t>(rng.Uniform(7));
    return values;
  };
  ASSERT_TRUE(big.AddColumn("k", column()).ok());
  for (int version = 0; version < 2; ++version) {
    if (version == 1) {
      ASSERT_TRUE(big.UpdateColumn("k", column()).ok());
    }
    auto big_index = SecondaryIndex::Build(big, "k");
    ASSERT_TRUE(big_index.ok());
    const std::span<const uint32_t> values = *big.Column("k");
    for (uint32_t lo = 0; lo < 8; ++lo) {
      for (uint32_t hi = lo; hi < 8; ++hi) {
        std::vector<Rid> expected;
        for (Rid rid = 0; rid < values.size(); ++rid) {
          if (values[rid] >= lo && values[rid] <= hi) expected.push_back(rid);
        }
        EXPECT_EQ(big_index->ProbeRange(lo, hi), expected)
            << "version " << version << ", [" << lo << ", " << hi << "]";
      }
    }
  }
}

// Build against a std::stable_sort of the RIDs by value, over columns of
// 1, 2, 17 and 20000 rows and domains from one value to the full uint32
// range: a column that keeps every digit, one that differs in the low
// digit only, and ones whose values differ in two, three or all four
// digits (0, 0x7FFFFFFF, 0x80000000 and 0xFFFFFFFF present in the
// full-range columns). Every distinct value, seeded random ranges and
// the extremes must probe as the reference does, before and after an
// UpdateColumn.
TEST(SecondaryIndexTest, BuildMatchesStableSortReference) {
  constexpr uint64_t kFullRange = uint64_t{1} << 32;
  const uint32_t extremes[] = {0, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF};
  Random rng(2602);
  for (const uint32_t rows : {1u, 2u, 17u, 20000u}) {
    for (const uint64_t domain : {uint64_t{1}, uint64_t{2}, uint64_t{7},
                                  uint64_t{257}, uint64_t{65537},
                                  kFullRange}) {
      auto column = [&] {
        std::vector<uint32_t> values(rows);
        for (uint32_t& value : values) {
          value = static_cast<uint32_t>(rng.Uniform(domain));
        }
        if (domain == kFullRange) {
          const size_t planted = std::min<size_t>(std::size(extremes), rows);
          for (size_t i = 0; i < planted; ++i) {
            values[i * rows / planted] = extremes[i];
          }
        }
        return values;
      };
      Table table("t");
      ASSERT_TRUE(table.AddColumn("k", column()).ok());
      for (int version = 0; version < 2; ++version) {
        if (version == 1) {
          ASSERT_TRUE(table.UpdateColumn("k", column()).ok());
        }
        const std::span<const uint32_t> values = *table.Column("k");
        std::vector<Rid> order(rows);
        std::iota(order.begin(), order.end(), 0u);
        std::stable_sort(order.begin(), order.end(), [&](Rid x, Rid y) {
          return values[x] < values[y];
        });
        std::vector<uint32_t> sorted(rows);
        for (size_t i = 0; i < rows; ++i) sorted[i] = values[order[i]];
        // The reference answer: the RIDs of [lo, hi], sorted.
        auto expected = [&](uint32_t lo, uint32_t hi) {
          if (lo > hi) return std::vector<Rid>{};
          const auto begin =
              std::lower_bound(sorted.begin(), sorted.end(), lo) -
              sorted.begin();
          const auto end =
              std::upper_bound(sorted.begin(), sorted.end(), hi) -
              sorted.begin();
          std::vector<Rid> rids(order.begin() + begin, order.begin() + end);
          std::sort(rids.begin(), rids.end());
          return rids;
        };
        const std::string where = "rows " + std::to_string(rows) +
                                  ", domain " + std::to_string(domain) +
                                  ", version " + std::to_string(version);

        auto index = SecondaryIndex::Build(table, "k");
        ASSERT_TRUE(index.ok()) << where;
        EXPECT_EQ(index->num_entries(), rows) << where;
        EXPECT_EQ(*index->MinValue(), sorted.front()) << where;
        EXPECT_EQ(*index->MaxValue(), sorted.back()) << where;
        for (size_t i = 0; i < rows; ++i) {
          if (i > 0 && sorted[i] == sorted[i - 1]) continue;
          ASSERT_EQ(index->ProbeEquals(sorted[i]),
                    expected(sorted[i], sorted[i]))
              << where << ", value " << sorted[i];
        }
        for (int range = 0; range < 64; ++range) {
          const auto lo = static_cast<uint32_t>(rng.Uniform(domain));
          const auto hi = static_cast<uint32_t>(rng.Uniform(domain));
          EXPECT_EQ(index->ProbeRange(lo, hi), expected(lo, hi))
              << where << ", [" << lo << ", " << hi << "]";
        }
        for (const uint32_t lo : extremes) {
          for (const uint32_t hi : extremes) {
            EXPECT_EQ(index->ProbeRange(lo, hi), expected(lo, hi))
                << where << ", [" << lo << ", " << hi << "]";
          }
        }
      }
    }
  }
}

// A leaf probe borrows the index's own entries when its range holds at
// most one value (QueryEngine::Operand). Over columns of 1, 2, 17 and
// 20000 rows and domains of 1, 2, 7 and 257 values, with 0 and
// 0xFFFFFFFF planted: every single value, present or absent, must slice
// exactly ProbeRange(v, v), and a range must report a single value
// exactly when it holds at most one present value.
TEST(SecondaryIndexTest, BorrowedSliceMatchesProbeRange) {
  const uint32_t extremes[] = {0, 0xFFFFFFFF};
  Random rng(2811);
  for (const uint32_t rows : {1u, 2u, 17u, 20000u}) {
    for (const uint32_t domain : {1u, 2u, 7u, 257u}) {
      std::vector<uint32_t> values(rows);
      for (uint32_t& value : values) {
        value = static_cast<uint32_t>(rng.Uniform(domain));
      }
      const size_t planted = std::min<size_t>(std::size(extremes), rows);
      for (size_t i = 0; i < planted; ++i) {
        values[i * rows / planted] = extremes[i];
      }
      std::vector<uint32_t> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      std::vector<uint32_t> present = sorted;
      present.erase(std::unique(present.begin(), present.end()),
                    present.end());
      // Bounds: every present value, its neighbours and the extremes.
      std::vector<uint32_t> bounds = {0, 1, 0xFFFFFFFE, 0xFFFFFFFF};
      for (const uint32_t value : present) {
        bounds.push_back(value);
        if (value > 0) bounds.push_back(value - 1);
        if (value < 0xFFFFFFFF) bounds.push_back(value + 1);
      }
      std::sort(bounds.begin(), bounds.end());
      bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
      const auto count_in = [](const std::vector<uint32_t>& of, uint32_t lo,
                               uint32_t hi) {
        return std::upper_bound(of.begin(), of.end(), hi) -
               std::lower_bound(of.begin(), of.end(), lo);
      };

      Table table("t");
      ASSERT_TRUE(table.AddColumn("k", std::move(values)).ok());
      auto index = SecondaryIndex::Build(table, "k");
      ASSERT_TRUE(index.ok());
      const std::string where = "rows " + std::to_string(rows) +
                                ", domain " + std::to_string(domain);
      for (const uint32_t value : bounds) {
        const SecondaryIndex::Slice slice = index->Lookup(value, value);
        EXPECT_TRUE(slice.single_value) << where << ", value " << value;
        EXPECT_EQ(std::vector<Rid>(slice.rids.begin(), slice.rids.end()),
                  index->ProbeRange(value, value))
            << where << ", value " << value;
      }
      for (const uint32_t lo : bounds) {
        for (auto hi = std::lower_bound(bounds.begin(), bounds.end(), lo);
             hi != bounds.end(); ++hi) {
          const SecondaryIndex::Slice slice = index->Lookup(lo, *hi);
          ASSERT_EQ(slice.rids.size(),
                    static_cast<size_t>(count_in(sorted, lo, *hi)))
              << where << ", [" << lo << ", " << *hi << "]";
          ASSERT_EQ(slice.single_value, count_in(present, lo, *hi) <= 1)
              << where << ", [" << lo << ", " << *hi << "]";
        }
      }
      EXPECT_TRUE(index->Lookup(1, 0).rids.empty()) << where;
      EXPECT_TRUE(index->Lookup(1, 0).single_value) << where;
    }
  }
}

TEST(SecondaryIndexTest, UnknownColumnFails) {
  Table table("t");
  ASSERT_TRUE(table.AddColumn("k", {1}).ok());
  EXPECT_FALSE(SecondaryIndex::Build(table, "nope").ok());
}

// --- Predicate ---

TEST(PredicateTest, BuildersAndToString) {
  auto predicate = And(Equals("region", 3),
                       Not(Or(Equals("status", 1), GreaterEq("amount", 100))));
  EXPECT_EQ(predicate->ToString(),
            "(region = 3 AND NOT (status = 1 OR amount >= 100))");
  EXPECT_FALSE(predicate->is_leaf());
  EXPECT_TRUE(Equals("x", 1)->is_leaf());
  EXPECT_EQ(Between("x", 2, 9)->ToString(), "x BETWEEN 2 AND 9");
  EXPECT_EQ(LessEq("x", 9)->ToString(), "x <= 9");
}

// --- QueryEngine ---

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest() : table_(MakeOrdersTable(4000, 77)) {
    auto processor = Processor::Create(ProcessorKind::kDba2LsuEis);
    EXPECT_TRUE(processor.ok());
    processor_ = *std::move(processor);
    engine_ = std::make_unique<QueryEngine>(&table_, processor_.get());
    EXPECT_TRUE(engine_->BuildIndex("region").ok());
    EXPECT_TRUE(engine_->BuildIndex("status").ok());
    EXPECT_TRUE(engine_->BuildIndex("amount").ok());
  }

  void ExpectMatchesScan(const Predicate& predicate) {
    QueryStats stats;
    auto rids = engine_->Select(predicate, &stats);
    ASSERT_TRUE(rids.ok()) << rids.status();
    EXPECT_EQ(*rids, ScanSelect(table_, predicate)) << predicate.ToString();
  }

  Table table_;
  std::unique_ptr<Processor> processor_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(QueryEngineTest, SingleLeaf) {
  ExpectMatchesScan(*Equals("region", 2));
  ExpectMatchesScan(*Between("amount", 1000, 2000));
  ExpectMatchesScan(*LessEq("amount", 500));
  ExpectMatchesScan(*GreaterEq("amount", 9500));
}

// A single-leaf Select reads the index's own entries while it runs, but
// its result is the caller's copy: neither a rebuild of the index nor
// the end of the engine can change it.
TEST_F(QueryEngineTest, SingleLeafResultOutlivesItsIndex) {
  const auto predicate = Equals("region", 3);
  const std::vector<Rid> expected = ScanSelect(table_, *predicate);
  auto rids = engine_->Select(*predicate);
  ASSERT_TRUE(rids.ok()) << rids.status();
  EXPECT_EQ(*rids, expected);

  const std::span<const uint32_t> old_region = *table_.Column("region");
  std::vector<uint32_t> region(old_region.begin(), old_region.end());
  for (uint32_t& value : region) value = (value + 1) % 5;
  ASSERT_TRUE(table_.UpdateColumn("region", std::move(region)).ok());
  ASSERT_TRUE(engine_->BuildIndex("region").ok());
  EXPECT_EQ(*rids, expected);
  engine_.reset();
  EXPECT_EQ(*rids, expected);
}

TEST_F(QueryEngineTest, ConjunctionUsesIntersection) {
  QueryStats stats;
  auto predicate = And(Equals("region", 1), Equals("status", 0));
  auto rids = engine_->Select(*predicate, &stats);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(*rids, ScanSelect(table_, *predicate));
  EXPECT_EQ(stats.index_probes, 2u);
  EXPECT_EQ(stats.set_operations, 1u);
  EXPECT_GT(stats.accelerator_cycles, 0u);
  EXPECT_GT(stats.accelerator_seconds, 0.0);
  ASSERT_EQ(stats.plan.size(), 3u);
  EXPECT_NE(stats.plan[2].find("intersect"), std::string::npos);
}

TEST_F(QueryEngineTest, DisjunctionUsesUnion) {
  QueryStats stats;
  auto predicate = Or(Equals("region", 0), Equals("region", 4));
  auto rids = engine_->Select(*predicate, &stats);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(*rids, ScanSelect(table_, *predicate));
  EXPECT_EQ(stats.set_operations, 1u);
  EXPECT_NE(stats.plan[2].find("union"), std::string::npos);
}

TEST_F(QueryEngineTest, AndNotUsesDifferenceWithoutComplement) {
  QueryStats stats;
  auto predicate = And(Equals("region", 1), Not(Equals("status", 2)));
  auto rids = engine_->Select(*predicate, &stats);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(*rids, ScanSelect(table_, *predicate));
  bool used_difference = false;
  for (const std::string& step : stats.plan) {
    used_difference |= step.find("difference") != std::string::npos;
  }
  EXPECT_TRUE(used_difference);
  // Exactly one set operation: A \ B, no complement materialization.
  EXPECT_EQ(stats.set_operations, 1u);
}

TEST_F(QueryEngineTest, TopLevelNotComplements) {
  auto predicate = Not(Equals("region", 3));
  ExpectMatchesScan(*predicate);
}

TEST_F(QueryEngineTest, NestedBooleanStructure) {
  auto predicate =
      And(Or(Equals("region", 0), Equals("region", 1)),
          And(Between("amount", 2000, 8000), Not(Equals("status", 1))));
  ExpectMatchesScan(*predicate);
}

TEST_F(QueryEngineTest, EmptyResults) {
  ExpectMatchesScan(*Equals("region", 99));       // no such value
  ExpectMatchesScan(*And(Equals("region", 99),    // empty AND arm
                         Equals("status", 0)));
  ExpectMatchesScan(*Or(Equals("region", 99), Equals("region", 98)));
}

TEST_F(QueryEngineTest, MissingIndexIsReported) {
  Table extra("extra");
  ASSERT_TRUE(extra.AddColumn("x", {1, 2}).ok());
  QueryEngine engine(&extra, processor_.get());
  auto rids = engine.Select(*Equals("x", 1));
  EXPECT_EQ(rids.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(QueryEngineTest, OrderedValues) {
  QueryStats stats;
  auto predicate = Equals("region", 2);
  auto values = engine_->SelectValuesOrdered(*predicate, "amount", &stats);
  ASSERT_TRUE(values.ok()) << values.status();
  // Matches the scan + sort reference.
  std::vector<uint32_t> expected;
  for (Rid rid : ScanSelect(table_, *predicate)) {
    expected.push_back(*table_.Value("amount", rid));
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(*values, expected);
  EXPECT_EQ(stats.sorts, 1u);
}

TEST_F(QueryEngineTest, ChunkedOrderByBeyondLocalStore) {
  // A predicate matching nearly everything: the ORDER BY input exceeds
  // the 8k-element local-store sort capacity.
  Table big("big");
  Random rng(5);
  std::vector<uint32_t> key(30000);
  std::vector<uint32_t> flag(30000);
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = rng.Next32() % 100000;
    flag[i] = static_cast<uint32_t>(rng.Uniform(10) != 0);  // 90% ones
  }
  std::vector<uint32_t> key_copy = key;
  ASSERT_TRUE(big.AddColumn("key", std::move(key)).ok());
  ASSERT_TRUE(big.AddColumn("flag", std::move(flag)).ok());
  QueryEngine engine(&big, processor_.get());
  ASSERT_TRUE(engine.BuildIndex("flag").ok());

  QueryStats stats;
  auto predicate = Equals("flag", 1);
  auto values = engine.SelectValuesOrdered(*predicate, "key", &stats);
  ASSERT_TRUE(values.ok()) << values.status();
  EXPECT_GT(stats.sorts, 1u);  // chunked
  EXPECT_TRUE(std::is_sorted(values->begin(), values->end()));
  std::vector<uint32_t> expected;
  for (Rid rid = 0; rid < big.num_rows(); ++rid) {
    if (*big.Value("flag", rid) == 1) expected.push_back(key_copy[rid]);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(*values, expected);
}

// Regression: ORDER BY sorts used to run outside the retry policy, so a
// sort that tripped the watchdog failed the query even with attempts to
// spare, while JoinKeys sorts retried.
TEST_F(QueryEngineTest, OrderByRetriesTransientSortFailures) {
  Table big("big");
  Random rng(16);
  std::vector<uint32_t> key(2000);
  for (uint32_t& value : key) value = rng.Next32() % 100000;
  std::vector<uint32_t> expected = key;
  std::sort(expected.begin(), expected.end());
  ASSERT_TRUE(big.AddColumn("key", std::move(key)).ok());
  ASSERT_TRUE(big.AddColumn("flag", std::vector<uint32_t>(2000, 1)).ok());
  QueryEngine engine(&big, processor_.get());
  ASSERT_TRUE(engine.BuildIndex("flag").ok());
  const auto predicate = Equals("flag", 1);

  QueryStats unlimited;
  ASSERT_TRUE(engine.SelectValuesOrdered(*predicate, "key", &unlimited).ok());
  ASSERT_EQ(unlimited.sorts, 1u);  // one local-store sort, no chunks
  const uint64_t sort_cycles = unlimited.accelerator_cycles;

  // The sort needs 3x the watchdog budget: the attempts at 1x and 2x
  // trip it, the one at 4x fits.
  RunSettings settings;
  settings.max_cycles = sort_cycles / 3 + 1;
  engine.SetRunSettings(settings);
  engine.SetMaxAttempts(3);
  obs::Counter* retries =
      obs::MetricsRegistry::Global().GetCounter("dba_query_retries_total");
  const uint64_t retries_before = retries->Value();
  QueryStats stats;
  auto values = engine.SelectValuesOrdered(*predicate, "key", &stats);
  ASSERT_TRUE(values.ok()) << values.status();
  EXPECT_EQ(*values, expected);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(retries->Value() - retries_before, 2u);
  EXPECT_EQ(stats.sorts, 1u);
  EXPECT_EQ(stats.accelerator_cycles, sort_cycles);
  const std::string retry = "retry sort of big.key after DeadlineExceeded";
  ASSERT_EQ(stats.plan.size(), 4u);
  EXPECT_EQ(stats.plan[1], retry);
  EXPECT_EQ(stats.plan[2], retry);
  EXPECT_EQ(stats.plan[3], "sort 2000 values on key");

  engine.SetMaxAttempts(1);
  EXPECT_EQ(engine.SelectValuesOrdered(*predicate, "key").status().code(),
            StatusCode::kDeadlineExceeded);
}

TEST_F(QueryEngineTest, RandomizedPredicatesMatchScan) {
  Random rng(123);
  for (int trial = 0; trial < 25; ++trial) {
    // Random depth-2 boolean structure.
    auto leaf = [&rng]() -> PredicatePtr {
      switch (rng.Uniform(3)) {
        case 0:
          return Equals("region", static_cast<uint32_t>(rng.Uniform(6)));
        case 1:
          return Equals("status", static_cast<uint32_t>(rng.Uniform(4)));
        default: {
          const auto lo = static_cast<uint32_t>(rng.Uniform(9000));
          return Between("amount", lo,
                         lo + static_cast<uint32_t>(rng.Uniform(4000)));
        }
      }
    };
    auto maybe_not = [&rng, &leaf]() {
      auto p = leaf();
      return rng.Bernoulli(0.3) ? Not(std::move(p)) : std::move(p);
    };
    PredicatePtr predicate;
    if (rng.Bernoulli(0.5)) {
      predicate = And(maybe_not(), Or(maybe_not(), maybe_not()));
    } else {
      predicate = Or(And(maybe_not(), maybe_not()), maybe_not());
    }
    QueryStats stats;
    auto rids = engine_->Select(*predicate, &stats);
    ASSERT_TRUE(rids.ok()) << predicate->ToString() << ": " << rids.status();
    ASSERT_EQ(*rids, ScanSelect(table_, *predicate))
        << "trial " << trial << ": " << predicate->ToString();
  }
}

TEST_F(QueryEngineTest, InListPredicate) {
  auto predicate = In("region", {0, 2, 4});
  ExpectMatchesScan(*predicate);
  // Single-value IN degenerates to an equality leaf.
  auto single = In("region", {3});
  EXPECT_TRUE(single->is_leaf());
  ExpectMatchesScan(*single);
}

TEST_F(QueryEngineTest, JoinKeysMatchesReference) {
  // Build a second table sharing ~half the key domain.
  Table customers("customers");
  Random rng(31);
  std::vector<uint32_t> left_keys;
  std::vector<uint32_t> right_keys;
  uint32_t next = 0;
  for (int i = 0; i < 3000; ++i) {
    next += 1 + static_cast<uint32_t>(rng.Uniform(4));
    if (rng.Bernoulli(0.7)) left_keys.push_back(next);
    if (rng.Bernoulli(0.7)) right_keys.push_back(next);
  }
  // Shuffle: JoinKeys must sort them itself.
  for (size_t i = left_keys.size(); i > 1; --i) {
    std::swap(left_keys[i - 1], left_keys[rng.Uniform(i)]);
  }
  for (size_t i = right_keys.size(); i > 1; --i) {
    std::swap(right_keys[i - 1], right_keys[rng.Uniform(i)]);
  }
  std::vector<uint32_t> left_sorted = left_keys;
  std::vector<uint32_t> right_sorted = right_keys;
  std::sort(left_sorted.begin(), left_sorted.end());
  std::sort(right_sorted.begin(), right_sorted.end());
  std::vector<uint32_t> expected;
  std::set_intersection(left_sorted.begin(), left_sorted.end(),
                        right_sorted.begin(), right_sorted.end(),
                        std::back_inserter(expected));

  Table orders2("orders2");
  ASSERT_TRUE(orders2.AddColumn("cust_key", std::move(left_keys)).ok());
  ASSERT_TRUE(customers.AddColumn("key", std::move(right_keys)).ok());
  QueryEngine engine(&orders2, processor_.get());
  QueryStats stats;
  auto keys = engine.JoinKeys("cust_key", customers, "key", &stats);
  ASSERT_TRUE(keys.ok()) << keys.status();
  EXPECT_EQ(*keys, expected);
  EXPECT_GE(stats.sorts, 2u);
  EXPECT_GE(stats.set_operations, 1u);
}

TEST_F(QueryEngineTest, JoinKeysCountsStreamedMergesLikeOrderedSelect) {
  // Key columns beyond max_sort_elements() sort in chunks joined by
  // streamed merges; like SelectValuesOrdered, JoinKeys books each merge
  // as a set operation over its inputs, in QueryStats and the registry.
  ASSERT_EQ(processor_->max_sort_elements(), 8184u);
  Random rng(1402);
  auto shuffled_keys = [&rng](uint32_t count) {
    std::vector<uint32_t> keys(count);
    for (uint32_t i = 0; i < count; ++i) keys[i] = 3 * i + (i % 2);
    for (size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.Uniform(i)]);
    }
    return keys;
  };
  Table orders2("orders2");
  Table customers("customers");
  ASSERT_TRUE(orders2.AddColumn("cust_key", shuffled_keys(20000)).ok());
  ASSERT_TRUE(customers.AddColumn("key", shuffled_keys(9000)).ok());
  obs::Counter* setops = obs::MetricsRegistry::Global().GetCounter(
      "dba_query_setops_total");

  QueryEngine engine(&orders2, processor_.get());
  const uint64_t setops_before = setops->Value();
  QueryStats stats;
  auto keys = engine.JoinKeys("cust_key", customers, "key", &stats);
  ASSERT_TRUE(keys.ok()) << keys.status();
  EXPECT_EQ(keys->size(), 9000u);
  // 20000 keys: 3 chunks, 2 merges; 9000 keys: 2 chunks, 1 merge; plus
  // the final intersection.
  EXPECT_EQ(stats.sorts, 5u);
  EXPECT_EQ(stats.set_operations, 4u);
  EXPECT_EQ(setops->Value() - setops_before, 4u);
  // Sorted elements (20000 + 9000), merged inputs ((8184 + 8184) +
  // (16368 + 3632) and 8184 + 816) and the 20000 x 9000 intersection.
  EXPECT_EQ(stats.elements_processed, 103368u);
}

TEST_F(QueryEngineTest, JoinKeysRejectsDuplicateKeys) {
  Table left("left");
  Table right("right");
  ASSERT_TRUE(left.AddColumn("k", {1, 2, 2, 3}).ok());
  ASSERT_TRUE(right.AddColumn("k", {1, 2, 3, 4}).ok());
  QueryEngine engine(&left, processor_.get());
  EXPECT_EQ(engine.JoinKeys("k", right, "k").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(QueryEngineTest, UpdateColumnBumpsVersionAndRebuildsStaleIndex) {
  ASSERT_EQ(*table_.ColumnVersion("region"), 1u);

  Random rng(321);
  std::vector<uint32_t> fresh(table_.num_rows());
  for (auto& value : fresh) value = static_cast<uint32_t>(rng.Uniform(5));
  ASSERT_TRUE(table_.UpdateColumn("region", std::move(fresh)).ok());
  EXPECT_EQ(*table_.ColumnVersion("region"), 2u);
  EXPECT_EQ(*table_.ColumnVersion("status"), 1u);

  // The engine still holds the index built against version 1; Select
  // must notice the stale version and rebuild before probing.
  auto predicate = And(Equals("region", 2), Equals("status", 1));
  auto rids = engine_->Select(*predicate);
  ASSERT_TRUE(rids.ok()) << rids.status();
  EXPECT_EQ(*rids, ScanSelect(table_, *predicate));

  // A second mutation while queries interleave with it: each Select
  // after the update sees the new values, never the old index.
  std::vector<uint32_t> again(table_.num_rows(), 2);
  ASSERT_TRUE(table_.UpdateColumn("region", std::move(again)).ok());
  EXPECT_EQ(*table_.ColumnVersion("region"), 3u);
  auto rids2 = engine_->Select(*predicate);
  ASSERT_TRUE(rids2.ok()) << rids2.status();
  EXPECT_EQ(*rids2, ScanSelect(table_, *predicate));
}

// Regression: retry accounting used to be wired only into the EIS
// dispatch path, so planner-routed host kernels (galloping / SIMD
// merge) silently ignored SetMaxAttempts and reported retries == 0
// even when the fault hook failed their first attempt.
TEST_F(QueryEngineTest, RetryAccountingIsRouteIndependent) {
  auto predicate = And(Equals("region", 1), Equals("status", 0));
  const auto expected = ScanSelect(table_, *predicate);

  for (const Route route :
       {Route::kEisMerge, Route::kGalloping, Route::kSimdMerge}) {
    QueryEngine engine(&table_, processor_.get());
    ASSERT_TRUE(engine.BuildIndex("region").ok());
    ASSERT_TRUE(engine.BuildIndex("status").ok());
    PlannerOptions options;
    options.force_route = route;
    engine.EnableAdaptivePlanner(options);
    engine.SetMaxAttempts(2);
    // Fail exactly the first attempt of every set operation; the retry
    // budget must cover it regardless of which kernel the planner
    // picked.
    engine.SetAttemptFaultHook([](std::string_view, int attempt) {
      return attempt == 0 ? Status::Unavailable("injected") : Status::Ok();
    });

    QueryStats stats;
    auto rids = engine.Select(*predicate, &stats);
    ASSERT_TRUE(rids.ok()) << RouteName(route) << ": " << rids.status();
    EXPECT_EQ(*rids, expected) << RouteName(route);
    EXPECT_EQ(stats.set_operations, 1u) << RouteName(route);
    EXPECT_EQ(stats.retries, 1u) << RouteName(route);

    // With attempts capped at 1 the same schedule must surface the
    // injected failure instead of silently succeeding.
    engine.SetMaxAttempts(1);
    auto failed = engine.Select(*predicate);
    EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable)
        << RouteName(route);
  }
}

TEST_F(QueryEngineTest, WorksOnScalarConfigurationToo) {
  auto mini = Processor::Create(ProcessorKind::k108Mini);
  ASSERT_TRUE(mini.ok());
  QueryEngine engine(&table_, mini->get());
  ASSERT_TRUE(engine.BuildIndex("region").ok());
  ASSERT_TRUE(engine.BuildIndex("status").ok());
  auto predicate = And(Equals("region", 1), Equals("status", 0));
  auto rids = engine.Select(*predicate);
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(*rids, ScanSelect(table_, *predicate));
}

}  // namespace
}  // namespace dba::query
