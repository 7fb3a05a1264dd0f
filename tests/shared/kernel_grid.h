#ifndef DBA_TESTS_SHARED_KERNEL_GRID_H_
#define DBA_TESTS_SHARED_KERNEL_GRID_H_

// The ten kernel programs of a Processor (four set ops and sort, each in
// EIS and scalar form), one runner for them, the bit-identity checks
// the execution-mode suites apply to their runs (every ExecStats field,
// including the per-pc profile vectors, and the EIS datapath counters),
// and the count of TIE-loop entries by the engine that ran them.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/processor.h"
#include "eis/eis_extension.h"
#include "obs/metrics/metrics.h"
#include "sim/stats.h"

namespace dba::test {

struct Kernel {
  const char* name;
  SetOp op;
  bool scalar;
  bool sort;
};

inline constexpr Kernel kKernels[] = {
    {"intersect-eis", SetOp::kIntersect, false, false},
    {"intersect-scalar", SetOp::kIntersect, true, false},
    {"union-eis", SetOp::kUnion, false, false},
    {"union-scalar", SetOp::kUnion, true, false},
    {"difference-eis", SetOp::kDifference, false, false},
    {"difference-scalar", SetOp::kDifference, true, false},
    {"merge-eis", SetOp::kMerge, false, false},
    {"merge-scalar", SetOp::kMerge, true, false},
    {"sort-eis", SetOp::kMerge, false, true},
    {"sort-scalar", SetOp::kMerge, true, true},
};

struct KernelRun {
  std::vector<uint32_t> result;
  sim::ExecStats stats;
  eis::EisCounters counters;  // all zero on a core without the EIS
};

/// Runs `kernel` with `settings` (force_scalar is taken from the
/// kernel). Set-op and merge kernels combine `a` and `b`; sort kernels
/// sort `a`.
inline Result<KernelRun> RunKernel(Processor& processor, const Kernel& kernel,
                                   std::span<const uint32_t> a,
                                   std::span<const uint32_t> b,
                                   RunSettings settings) {
  settings.force_scalar = kernel.scalar;
  KernelRun out;
  if (kernel.sort) {
    DBA_ASSIGN_OR_RETURN(SortRun run, processor.RunSort(a, settings));
    out.result = std::move(run.sorted);
    out.stats = std::move(run.metrics.stats);
  } else {
    DBA_ASSIGN_OR_RETURN(
        SetOpRun run,
        kernel.op == SetOp::kMerge
            ? processor.RunMerge(a, b, settings)
            : processor.RunSetOperation(kernel.op, a, b, settings));
    out.result = std::move(run.result);
    out.stats = std::move(run.metrics.stats);
  }
  if (processor.eis() != nullptr) out.counters = processor.eis()->counters();
  return out;
}

inline void ExpectStatsBitIdentical(const sim::ExecStats& got,
                                    const sim::ExecStats& want,
                                    const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.bundles, want.bundles);
  EXPECT_EQ(got.instructions, want.instructions);
  EXPECT_EQ(got.taken_branches, want.taken_branches);
  EXPECT_EQ(got.mispredicted_branches, want.mispredicted_branches);
  EXPECT_EQ(got.branch_penalty_cycles, want.branch_penalty_cycles);
  EXPECT_EQ(got.load_stall_cycles, want.load_stall_cycles);
  EXPECT_EQ(got.store_stall_cycles, want.store_stall_cycles);
  EXPECT_EQ(got.port_stall_cycles, want.port_stall_cycles);
  EXPECT_EQ(got.ext_extra_cycles, want.ext_extra_cycles);
  EXPECT_EQ(got.lsu_beats[0], want.lsu_beats[0]);
  EXPECT_EQ(got.lsu_beats[1], want.lsu_beats[1]);
  EXPECT_EQ(got.pc_counts, want.pc_counts);
  ASSERT_EQ(got.pc_cycles.size(), want.pc_cycles.size());
  for (size_t pc = 0; pc < got.pc_cycles.size(); ++pc) {
    SCOPED_TRACE("pc " + std::to_string(pc));
    EXPECT_EQ(got.pc_cycles[pc].issue_cycles, want.pc_cycles[pc].issue_cycles);
    EXPECT_EQ(got.pc_cycles[pc].branch_penalty_cycles,
              want.pc_cycles[pc].branch_penalty_cycles);
    EXPECT_EQ(got.pc_cycles[pc].load_stall_cycles,
              want.pc_cycles[pc].load_stall_cycles);
    EXPECT_EQ(got.pc_cycles[pc].store_stall_cycles,
              want.pc_cycles[pc].store_stall_cycles);
    EXPECT_EQ(got.pc_cycles[pc].port_stall_cycles,
              want.pc_cycles[pc].port_stall_cycles);
    EXPECT_EQ(got.pc_cycles[pc].ext_extra_cycles,
              want.pc_cycles[pc].ext_extra_cycles);
    EXPECT_EQ(got.pc_cycles[pc].lsu_beats[0], want.pc_cycles[pc].lsu_beats[0]);
    EXPECT_EQ(got.pc_cycles[pc].lsu_beats[1], want.pc_cycles[pc].lsu_beats[1]);
  }
  EXPECT_EQ(got.mnemonic_counts, want.mnemonic_counts);
}

inline void ExpectCountersIdentical(const eis::EisCounters& got,
                                    const eis::EisCounters& want) {
  EXPECT_EQ(got.sop_executions, want.sop_executions);
  EXPECT_EQ(got.elements_consumed, want.elements_consumed);
  EXPECT_EQ(got.elements_emitted, want.elements_emitted);
  EXPECT_EQ(got.matches, want.matches);
  EXPECT_EQ(got.load_beats, want.load_beats);
  EXPECT_EQ(got.store_beats, want.store_beats);
}

/// TIE-loop entries so far that the given engine ran
/// (dba_eis_tie_loops_total{engine}: "setop_stepper", "merge_stepper" or
/// "per_word"). Only the core's superblock loop offers loops to the
/// loop accelerator, so a run that takes the reference loop adds none.
inline uint64_t TieLoops(std::string_view engine) {
  return obs::MetricsRegistry::Global()
      .GetCounter("dba_eis_tie_loops_total", "engine", engine)
      ->Value();
}

}  // namespace dba::test

#endif  // DBA_TESTS_SHARED_KERNEL_GRID_H_
