// Google-benchmark microbenchmarks of the simulator's host cost on the
// exact EIS stepper: fast-forward RunSetOperation and RunMerge at 3000
// elements per side and RunSort at 4000 values on one DBA_2LSU_EIS
// core, reported as host time per input element (`per_element`, in ns
// on the console). Report-only: no baseline is committed and nothing
// gates on it.
//
// Each benchmark cycles through 32 distinct seeded inputs. One input
// repeated would mislead: within a few repetitions the host's branch
// predictor learns that input's compare outcomes, so a branchy scalar
// SOP word looks about twice as cheap as on the never-repeating inputs
// a board partition sees.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "core/processor.h"
#include "core/workload.h"

namespace dba {
namespace {

constexpr int kInputs = 32;
constexpr uint32_t kSetSize = 3000;  // per side
constexpr uint32_t kSortSize = 4000;
constexpr uint64_t kFirstSeed = 101;

std::unique_ptr<Processor> MakeCore() {
  auto core = Processor::Create(ProcessorKind::kDba2LsuEis);
  if (!core.ok()) std::abort();
  return *std::move(core);
}

std::vector<SetPair> SetPairs() {
  std::vector<SetPair> pairs;
  for (int k = 0; k < kInputs; ++k) {
    auto pair = GenerateSetPair(kSetSize, kSetSize, 0.5,
                                kFirstSeed + static_cast<uint64_t>(k));
    if (!pair.ok()) std::abort();
    pairs.push_back(*std::move(pair));
  }
  return pairs;
}

RunSettings FastForward() {
  RunSettings settings;
  settings.sim_mode = sim::ExecMode::kFastForward;
  return settings;
}

/// Host time per input element over the whole run: an inverted rate
/// counter, which the console prints with its unit ("7.4ns") and JSON
/// holds in seconds.
void ReportTimePerElement(benchmark::State& state, uint64_t elements_per_run) {
  state.counters["per_element"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(elements_per_run),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

/// RunSetOperation for `op`, or RunMerge for SetOp::kMerge.
void BM_SetOperation(benchmark::State& state, SetOp op) {
  const std::unique_ptr<Processor> core = MakeCore();
  const std::vector<SetPair> pairs = SetPairs();
  const RunSettings settings = FastForward();
  size_t next = 0;
  for (auto _ : state) {
    const SetPair& pair = pairs[next++ % kInputs];
    auto run = op == SetOp::kMerge
                   ? core->RunMerge(pair.a, pair.b, settings)
                   : core->RunSetOperation(op, pair.a, pair.b, settings);
    if (!run.ok()) {
      state.SkipWithError(run.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(run->result.data());
    benchmark::ClobberMemory();
  }
  ReportTimePerElement(state, 2 * kSetSize);
}
BENCHMARK_CAPTURE(BM_SetOperation, intersect, SetOp::kIntersect);
BENCHMARK_CAPTURE(BM_SetOperation, union, SetOp::kUnion);
BENCHMARK_CAPTURE(BM_SetOperation, difference, SetOp::kDifference);
BENCHMARK_CAPTURE(BM_SetOperation, merge, SetOp::kMerge);

void BM_Sort(benchmark::State& state) {
  const std::unique_ptr<Processor> core = MakeCore();
  std::vector<std::vector<uint32_t>> inputs;
  for (int k = 0; k < kInputs; ++k) {
    inputs.push_back(
        GenerateSortInput(kSortSize, kFirstSeed + static_cast<uint64_t>(k)));
  }
  const RunSettings settings = FastForward();
  size_t next = 0;
  for (auto _ : state) {
    auto run = core->RunSort(inputs[next++ % kInputs], settings);
    if (!run.ok()) {
      state.SkipWithError(run.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(run->sorted.data());
    benchmark::ClobberMemory();
  }
  ReportTimePerElement(state, kSortSize);
}
BENCHMARK(BM_Sort);

}  // namespace
}  // namespace dba

BENCHMARK_MAIN();
