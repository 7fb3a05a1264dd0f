// Differential suite (ctest label "differential"): the fast-forward and
// turbo execution modes against the interpreter reference.
//
//  - fast-forward, profiled: results AND ExecStats bit-identical to
//    kInterpret, including the per-pc profile vectors, for all ten
//    kernel programs (four set ops and sort, EIS and scalar form) on both
//    LSU configs. Profiling keeps the run on the per-word superblock
//    loop.
//  - fast-forward, lean (profile off): the accelerated path -- the EIS
//    loop accelerator with its exact cursor stepper for the Figure 11
//    set-op loops and the Figure 12 merge loop -- bit-identical to
//    kInterpret in results, every ExecStats field and the EIS datapath
//    counters, over a grid of sizes that leave partial windows, tail
//    beats and capacity edges, both partial-loading settings and unroll
//    1 and 32. Merge and sort stay exact in turbo and are pinned there
//    too.
//  - turbo: results identical; cycle totals within the documented model
//    tolerance (docs/ARCHITECTURE.md, "Execution modes").
//  - board: partition schedule and recovery telemetry identical across
//    modes, under fault injection and the hang watchdog too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/processor.h"
#include "core/workload.h"
#include "shared/kernel_grid.h"
#include "sim/exec_mode.h"
#include "system/board.h"

namespace dba {
namespace {

using test::ExpectCountersIdentical;
using test::ExpectStatsBitIdentical;
using test::Kernel;
using test::KernelRun;
using test::kKernels;

/// Documented turbo cycle-model tolerance: the bulk segment of a
/// steady-state loop is extrapolated from a calibration prefix, so
/// cycle totals track the cycle-accurate count to within a few tenths
/// of a percent on the shipped kernels. 2% keeps the bound meaningful
/// without pinning the model to one workload.
constexpr double kTurboCycleTolerance = 0.02;

Result<KernelRun> RunKernel(Processor& processor, const Kernel& kernel,
                            sim::ExecMode mode, bool profile) {
  RunSettings settings;
  settings.sim_mode = mode;
  settings.profile = profile;
  if (kernel.sort) {
    const auto values = GenerateSortInput(3000, 7);
    return test::RunKernel(processor, kernel, values, {}, settings);
  }
  DBA_ASSIGN_OR_RETURN(SetPair pair, GenerateSetPair(2000, 2000, 0.5, 7));
  return test::RunKernel(processor, kernel, pair.a, pair.b, settings);
}

class ModeDifferentialTest
    : public ::testing::TestWithParam<ProcessorKind> {};

TEST_P(ModeDifferentialTest, FastForwardBitIdenticalToInterpret) {
  auto processor = Processor::Create(GetParam());
  ASSERT_TRUE(processor.ok());
  for (const Kernel& kernel : kKernels) {
    auto reference =
        RunKernel(**processor, kernel, sim::ExecMode::kInterpret, true);
    ASSERT_TRUE(reference.ok()) << kernel.name;
    auto fast =
        RunKernel(**processor, kernel, sim::ExecMode::kFastForward, true);
    ASSERT_TRUE(fast.ok()) << kernel.name;
    EXPECT_EQ(fast->result, reference->result) << kernel.name;
    ExpectStatsBitIdentical(fast->stats, reference->stats, kernel.name);
  }
}

TEST_P(ModeDifferentialTest, TurboResultsExactCyclesWithinTolerance) {
  auto processor = Processor::Create(GetParam());
  ASSERT_TRUE(processor.ok());
  for (const Kernel& kernel : kKernels) {
    auto reference =
        RunKernel(**processor, kernel, sim::ExecMode::kInterpret, false);
    ASSERT_TRUE(reference.ok()) << kernel.name;
    auto turbo = RunKernel(**processor, kernel, sim::ExecMode::kTurbo, false);
    ASSERT_TRUE(turbo.ok()) << kernel.name;
    EXPECT_EQ(turbo->result, reference->result) << kernel.name;
    const double reference_cycles =
        static_cast<double>(reference->stats.cycles);
    EXPECT_NEAR(static_cast<double>(turbo->stats.cycles), reference_cycles,
                reference_cycles * kTurboCycleTolerance)
        << kernel.name;
  }
}

INSTANTIATE_TEST_SUITE_P(BothLsuConfigs, ModeDifferentialTest,
                         ::testing::Values(ProcessorKind::kDba1LsuEis,
                                           ProcessorKind::kDba2LsuEis),
                         [](const auto& param_info) {
                           return param_info.param ==
                                          ProcessorKind::kDba1LsuEis
                                      ? "Dba1LsuEis"
                                      : "Dba2LsuEis";
                         });

// --- Lean fast-forward path (profile off) ---

/// Sorted values in [0, universe) with duplicates (merge inputs).
std::vector<uint32_t> SortedWithDuplicates(uint32_t n, uint32_t universe,
                                           uint64_t seed) {
  Random rng(seed);
  std::vector<uint32_t> values(n);
  for (uint32_t& v : values) v = static_cast<uint32_t>(rng.Uniform(universe));
  std::sort(values.begin(), values.end());
  return values;
}

struct LeanCase {
  std::vector<uint32_t> a;
  std::vector<uint32_t> b;
  std::string name;
};

/// Sizes that leave empty, single-lane, partial and full windows, tail
/// beats, and a long steady state.
constexpr uint32_t kLeanSizes[] = {0, 1, 3, 4, 5, 9, 33, 2000};

/// Every pair of kLeanSizes, plus each capacity edge (capacity - 1 and
/// capacity against a small and a large other side, both ways round).
std::vector<LeanCase> SetCases(const Processor& processor, bool duplicates) {
  std::vector<std::pair<uint32_t, uint32_t>> sizes;
  for (const uint32_t na : kLeanSizes) {
    for (const uint32_t nb : kLeanSizes) sizes.emplace_back(na, nb);
  }
  for (const uint32_t other : {0u, 5u, 2000u}) {
    const uint32_t cap = processor.max_set_elements(other);
    for (const uint32_t n : {cap - 1, cap}) {
      if (other > processor.max_set_elements(n)) continue;
      sizes.emplace_back(n, other);
      sizes.emplace_back(other, n);
    }
  }
  std::vector<LeanCase> cases;
  uint64_t seed = 1;
  for (const auto& [na, nb] : sizes) {
    LeanCase c;
    c.name = std::to_string(na) + "x" + std::to_string(nb);
    if (duplicates) {
      // Few distinct values: long equal runs within a side, across beat
      // boundaries, and matched pairs across the sides. Side B keeps
      // distinct values in every other case (duplicates within one side).
      c.name += "-dup";
      c.a = SortedWithDuplicates(na, std::max<uint32_t>(na / 3, 2), seed++);
      c.b = seed % 2 == 0 ? SortedWithDuplicates(
                                nb, std::max<uint32_t>(nb / 2, 2), seed++)
                          : GenerateSetPair(0, nb, 0.0, seed++)->b;
    } else {
      auto pair = GenerateSetPair(na, nb, 0.5, seed++);
      if (!pair.ok()) continue;
      c.a = std::move(pair->a);
      c.b = std::move(pair->b);
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

std::vector<LeanCase> SortCases(const Processor& processor) {
  std::vector<LeanCase> cases;
  std::vector<uint32_t> sizes(std::begin(kLeanSizes), std::end(kLeanSizes));
  sizes.push_back(processor.max_sort_elements() - 1);
  sizes.push_back(processor.max_sort_elements());
  for (const uint32_t n : sizes) {
    cases.push_back({GenerateSortInput(n, n + 3), {}, std::to_string(n)});
  }
  return cases;
}

TEST(LeanDifferentialTest, FastForwardBitIdenticalToInterpret) {
  int compared = 0;
  for (const ProcessorKind kind :
       {ProcessorKind::kDba1LsuEis, ProcessorKind::kDba2LsuEis}) {
    for (const bool partial : {true, false}) {
      for (const int unroll : {1, 32}) {
        ProcessorOptions options;
        options.partial_loading = partial;
        options.unroll = unroll;
        auto processor = Processor::Create(kind, options);
        ASSERT_TRUE(processor.ok());
        // Only the EIS set-op programs depend on the options; the merge,
        // sort and scalar kernels run once per LSU config.
        const bool first_options = partial && unroll == 1;
        for (const Kernel& kernel : kKernels) {
          const bool eis_setop =
              !kernel.scalar && !kernel.sort && kernel.op != SetOp::kMerge;
          if (!eis_setop && !first_options) continue;
          const bool merge_eis = !kernel.scalar && kernel.op == SetOp::kMerge;
          std::vector<LeanCase> cases =
              kernel.sort ? SortCases(**processor)
                          : SetCases(**processor, /*duplicates=*/false);
          if (kernel.op == SetOp::kMerge && !kernel.sort) {
            for (LeanCase& c : SetCases(**processor, /*duplicates=*/true)) {
              cases.push_back(std::move(c));
            }
          }
          for (const LeanCase& c : cases) {
            const std::string context =
                std::string(kind == ProcessorKind::kDba1LsuEis ? "1lsu"
                                                               : "2lsu") +
                (partial ? "/partial" : "/full") + "/unroll" +
                std::to_string(unroll) + "/" + kernel.name + "/" + c.name;
            SCOPED_TRACE(context);
            RunSettings settings;
            settings.sim_mode = sim::ExecMode::kInterpret;
            auto reference =
                test::RunKernel(**processor, kernel, c.a, c.b, settings);
            ASSERT_TRUE(reference.ok()) << reference.status().ToString();
            // Merge loops get no turbo extrapolation, so merge and sort
            // are exact in turbo as well.
            std::vector<sim::ExecMode> modes = {sim::ExecMode::kFastForward};
            if (merge_eis) modes.push_back(sim::ExecMode::kTurbo);
            for (const sim::ExecMode mode : modes) {
              SCOPED_TRACE(std::string(sim::ExecModeName(mode)));
              settings.sim_mode = mode;
              auto run =
                  test::RunKernel(**processor, kernel, c.a, c.b, settings);
              ASSERT_TRUE(run.ok()) << run.status().ToString();
              EXPECT_EQ(run->result, reference->result);
              ExpectStatsBitIdentical(run->stats, reference->stats, context);
              ExpectCountersIdentical(run->counters, reference->counters);
              ++compared;
              // One mismatching case tells the story; stop before the
              // rest of the grid repeats it.
              if (HasFailure()) return;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 2500);
}

// --- Board-level schedule and fault/watchdog differentials ---

Result<system::ParallelRun> RunBoard(sim::ExecMode mode, double fault_rate,
                                     std::vector<int> broken_cores) {
  system::BoardConfig config;
  config.num_cores = 4;
  config.host_threads = 1;
  config.sim_mode = mode;
  config.fault_plan.seed = 99;
  config.fault_plan.hang_rate = fault_rate;
  config.fault_plan.input_flip_rate = fault_rate;
  config.fault_plan.result_flip_rate = fault_rate;
  config.fault_plan.transfer_fail_rate = fault_rate;
  config.fault_plan.transfer_timeout_rate = fault_rate;
  config.fault_plan.broken_cores = std::move(broken_cores);
  DBA_ASSIGN_OR_RETURN(auto board, system::Board::Create(config));
  DBA_ASSIGN_OR_RETURN(SetPair pair, GenerateSetPair(40000, 40000, 0.5, 13));
  return board->RunSetOperation(SetOp::kIntersect, pair.a, pair.b);
}

void ExpectSameRecovery(const system::RecoveryTelemetry& got,
                        const system::RecoveryTelemetry& want) {
  EXPECT_EQ(got.faults_injected, want.faults_injected);
  EXPECT_EQ(got.failed_attempts, want.failed_attempts);
  EXPECT_EQ(got.verification_failures, want.verification_failures);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.requeues, want.requeues);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.quarantined_cores, want.quarantined_cores);
  EXPECT_EQ(got.degraded, want.degraded);
}

TEST(BoardDifferentialTest, FastForwardScheduleByteIdentical) {
  auto reference = RunBoard(sim::ExecMode::kInterpret, 0.0, {});
  ASSERT_TRUE(reference.ok());
  auto fast = RunBoard(sim::ExecMode::kFastForward, 0.0, {});
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->result, reference->result);
  EXPECT_EQ(fast->makespan_cycles, reference->makespan_cycles);
  EXPECT_EQ(fast->per_core_cycles, reference->per_core_cycles);
}

TEST(BoardDifferentialTest, TurboResultsExactScheduleWithinTolerance) {
  auto reference = RunBoard(sim::ExecMode::kInterpret, 0.0, {});
  ASSERT_TRUE(reference.ok());
  auto turbo = RunBoard(sim::ExecMode::kTurbo, 0.0, {});
  ASSERT_TRUE(turbo.ok());
  EXPECT_EQ(turbo->result, reference->result);
  const double reference_makespan =
      static_cast<double>(reference->makespan_cycles);
  EXPECT_NEAR(static_cast<double>(turbo->makespan_cycles),
              reference_makespan,
              reference_makespan * kTurboCycleTolerance);
}

TEST(BoardDifferentialTest, FaultRecoveryIdenticalAcrossModes) {
  auto reference = RunBoard(sim::ExecMode::kInterpret, 0.05, {});
  ASSERT_TRUE(reference.ok());
  for (const sim::ExecMode mode :
       {sim::ExecMode::kFastForward, sim::ExecMode::kTurbo}) {
    SCOPED_TRACE(std::string(sim::ExecModeName(mode)));
    auto run = RunBoard(mode, 0.05, {});
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->result, reference->result);
    ExpectSameRecovery(run->recovery, reference->recovery);
  }
  // Fast-forward additionally pins the schedule bit-exactly.
  auto fast = RunBoard(sim::ExecMode::kFastForward, 0.05, {});
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->makespan_cycles, reference->makespan_cycles);
  EXPECT_EQ(fast->per_core_cycles, reference->per_core_cycles);
}

TEST(BoardDifferentialTest, HangWatchdogIdenticalAcrossModes) {
  // A permanently broken core exercises the cycle-watchdog path: the
  // hang program runs on the real Cpu under each mode and the watchdog
  // budget -- not a simulated status -- raises the failure.
  auto reference = RunBoard(sim::ExecMode::kInterpret, 0.0, {1});
  ASSERT_TRUE(reference.ok());
  EXPECT_GT(reference->recovery.requeues, 0u);
  for (const sim::ExecMode mode :
       {sim::ExecMode::kFastForward, sim::ExecMode::kTurbo}) {
    SCOPED_TRACE(std::string(sim::ExecModeName(mode)));
    auto run = RunBoard(mode, 0.0, {1});
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->result, reference->result);
    ExpectSameRecovery(run->recovery, reference->recovery);
  }
}

}  // namespace
}  // namespace dba
