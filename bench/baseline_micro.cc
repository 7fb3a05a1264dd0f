// Google-benchmark microbenchmarks of the host software baselines
// (Section 5.4): scalar vs SIMD merge-sort and set intersection across
// sizes and selectivities, and the query planner's partition-probe
// route against SIMD merge on skewed RID sets.

#include <benchmark/benchmark.h>

#include <vector>

#include "baseline/scalar_baseline.h"
#include "baseline/simd_baseline.h"
#include "common/random.h"
#include "core/workload.h"
#include "query/partition_index.h"

namespace dba::baseline {
namespace {

void BM_ScalarMergeSort(benchmark::State& state) {
  const auto n = static_cast<uint32_t>(state.range(0));
  const std::vector<uint32_t> values = GenerateSortInput(n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScalarMergeSort(values));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScalarMergeSort)->Range(1 << 10, 1 << 19);

void BM_SimdMergeSort(benchmark::State& state) {
  const auto n = static_cast<uint32_t>(state.range(0));
  const std::vector<uint32_t> values = GenerateSortInput(n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimdMergeSort(values));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimdMergeSort)->Range(1 << 10, 1 << 19);

void BM_ScalarIntersect(benchmark::State& state) {
  const auto n = static_cast<uint32_t>(state.range(0));
  const auto selectivity = static_cast<double>(state.range(1)) / 100.0;
  auto pair = GenerateSetPair(n, n, selectivity, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScalarIntersect(pair->a, pair->b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_ScalarIntersect)
    ->Args({1 << 12, 50})
    ->Args({1 << 16, 50})
    ->Args({1 << 20, 50})
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 100});

void BM_SimdIntersect(benchmark::State& state) {
  const auto n = static_cast<uint32_t>(state.range(0));
  const auto selectivity = static_cast<double>(state.range(1)) / 100.0;
  auto pair = GenerateSetPair(n, n, selectivity, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimdIntersect(pair->a, pair->b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_SimdIntersect)
    ->Args({1 << 12, 50})
    ->Args({1 << 16, 50})
    ->Args({1 << 20, 50})
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 100});

void BM_ScalarUnion(benchmark::State& state) {
  const auto n = static_cast<uint32_t>(state.range(0));
  auto pair = GenerateSetPair(n, n, 0.5, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScalarUnion(pair->a, pair->b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_ScalarUnion)->Arg(1 << 16);

void BM_ScalarDifference(benchmark::State& state) {
  const auto n = static_cast<uint32_t>(state.range(0));
  auto pair = GenerateSetPair(n, n, 0.5, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScalarDifference(pair->a, pair->b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_ScalarDifference)->Arg(1 << 16);

// The planner's AND shapes (perfbench planner_skew): A is the RID set of
// one value of a column with 2 * skew values, B that of a column with 2
// values (~8192 RIDs), both over 16384 rows. Each benchmark cycles
// through 32 distinct pairs so the branch predictor cannot learn one.
// `stride` multiplies every RID: at 1, B's index is a bitmap; at 40, B
// spans more than PartitionIndex::kBitmapSpanPerValue bits per value and
// its index takes the directory form. `per_probe` is the host time per
// element of A, the unit of CostModel::partition_probe_ns, so the two
// benchmarks' figures compare as the planner compares the two routes.
constexpr uint32_t kSkewRows = 16384;
constexpr int kSkewInputs = 32;

struct RidSetPair {
  std::vector<uint32_t> a;
  std::vector<uint32_t> b;
};

std::vector<uint32_t> RidsOfOneValue(uint32_t domain, uint32_t stride,
                                     Random& rng) {
  std::vector<uint32_t> rids;
  for (uint32_t rid = 0; rid < kSkewRows; ++rid) {
    if (rng.Uniform(domain) == 0) rids.push_back(rid * stride);
  }
  return rids;
}

std::vector<RidSetPair> SkewedPairs(uint32_t skew, uint32_t stride) {
  Random rng(skew);
  std::vector<RidSetPair> pairs(kSkewInputs);
  for (RidSetPair& pair : pairs) {
    pair.a = RidsOfOneValue(2 * skew, stride, rng);
    pair.b = RidsOfOneValue(2, stride, rng);
  }
  return pairs;
}

void ReportTimePerProbe(benchmark::State& state, uint64_t probes) {
  state.counters["per_probe"] =
      benchmark::Counter(static_cast<double>(probes),
                         benchmark::Counter::kIsRate |
                             benchmark::Counter::kInvert);
}

/// Probes of A into a prebuilt index over B, output allocation included.
void BM_PartitionProbe(benchmark::State& state) {
  const std::vector<RidSetPair> pairs =
      SkewedPairs(static_cast<uint32_t>(state.range(0)),
                  static_cast<uint32_t>(state.range(1)));
  std::vector<query::PartitionIndex> indexes;
  for (const RidSetPair& pair : pairs) {
    indexes.push_back(query::PartitionIndex::Build(pair.b));
  }
  uint64_t probes = 0;
  size_t next = 0;
  for (auto _ : state) {
    const size_t k = next++ % kSkewInputs;
    benchmark::DoNotOptimize(indexes[k].Intersect(pairs[k].a));
    probes += pairs[k].a.size();
  }
  ReportTimePerProbe(state, probes);
  state.SetLabel(indexes[0].bitmap_span() != 0 ? "bitmap" : "directory");
}
BENCHMARK(BM_PartitionProbe)->ArgsProduct({{1, 4, 16, 64, 256}, {1, 40}});

void BM_SkewedSimdIntersect(benchmark::State& state) {
  const std::vector<RidSetPair> pairs =
      SkewedPairs(static_cast<uint32_t>(state.range(0)), 1);
  uint64_t probes = 0;
  size_t next = 0;
  for (auto _ : state) {
    const RidSetPair& pair = pairs[next++ % kSkewInputs];
    benchmark::DoNotOptimize(SimdIntersect(pair.a, pair.b));
    probes += pair.a.size();
  }
  ReportTimePerProbe(state, probes);
}
BENCHMARK(BM_SkewedSimdIntersect)->Arg(1)->Arg(4)->Arg(16);

}  // namespace
}  // namespace dba::baseline

BENCHMARK_MAIN();
