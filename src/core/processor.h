#ifndef DBA_CORE_PROCESSOR_H_
#define DBA_CORE_PROCESSOR_H_

#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/program_cache.h"
#include "dbkern/eis_kernels.h"
#include "eis/eis_extension.h"
#include "eis/sop.h"
#include "hwmodel/synthesis.h"
#include "mem/memory.h"
#include "sim/cpu.h"

namespace dba {

/// The evaluated processor configurations; re-exported from the
/// hardware model so the public API has a single vocabulary.
using ProcessorKind = hwmodel::ConfigKind;
using SetOp = eis::SopMode;

/// Construction-time options of a processor instance.
struct ProcessorOptions {
  /// Partial loading of the Word states (EIS configurations only;
  /// Table 2 evaluates both settings).
  bool partial_loading = true;
  /// Unroll factor of the EIS set-operation core loop.
  int unroll = dbkern::kDefaultUnroll;
  /// Technology node used for frequency/power/energy conversions.
  hwmodel::TechNode tech = hwmodel::TechNode::k65nmTsmcLp;
};

/// Per-run overrides.
struct RunSettings {
  /// How the core's run loop advances the machine (sim/exec_mode.h):
  /// interpret (reference), fast-forward (default; bit-identical stats),
  /// or turbo (results exact, cycles from the loop model).
  sim::ExecMode sim_mode = sim::ExecMode::kFastForward;
  /// Run the scalar kernel even on an EIS-capable configuration
  /// (ablation support).
  bool force_scalar = false;
  /// Collect per-pc execution counts and the dynamic instruction mix in
  /// the returned stats (for toolchain::BuildProfile).
  bool profile = false;
  /// Record the first N issued words as rendered trace lines in the
  /// returned stats (0 = off).
  uint32_t trace_limit = 0;
  /// Validate that set-operation inputs are strictly increasing before
  /// running the kernel, returning InvalidArgument instead of silently
  /// producing garbage. Off by default: the hot path trusts its caller
  /// (the board turns it on for attempts that may see injected faults).
  bool validate_inputs = false;
  /// Watchdog budget for the kernel run in cycles; 0 keeps the
  /// simulator's default (2^36). Fault-tolerant callers set a tight
  /// budget so a hung core surfaces as DeadlineExceeded quickly.
  uint64_t max_cycles = 0;
  /// Cycle-trace receiver (non-owning; may be null). The run is wrapped
  /// in a kernel-phase region (e.g. "intersect[DBA_2LSU_EIS]") and the
  /// core emits label-region slices and stall/beat counter tracks into
  /// it; render with obs::ChromeTraceWriter for ui.perfetto.dev.
  sim::CycleTraceSink* trace_sink = nullptr;
};

/// Timing/energy results of one kernel execution.
struct RunMetrics {
  uint64_t cycles = 0;
  double seconds = 0;
  double throughput_meps = 0;        // million elements per second
  double energy_nj_per_element = 0;  // at the synthesis power estimate
  sim::ExecStats stats;
};

struct SetOpRun {
  std::vector<uint32_t> result;
  RunMetrics metrics;
};

struct SortRun {
  std::vector<uint32_t> sorted;
  RunMetrics metrics;
};

/// A fully assembled processor: the cycle-accurate core, its memories,
/// the instruction-set extension (for EIS configurations), the kernel
/// programs, and the synthesis-model figures that convert cycle counts
/// to wall-clock and energy.
///
/// This is the primary entry point of the library:
///
///   auto processor = dba::Processor::Create(
///       dba::ProcessorKind::kDba2LsuEis, {});
///   auto run = (*processor)->RunSetOperation(
///       dba::SetOp::kIntersect, rid_list_a, rid_list_b);
///   // run->result, run->metrics.throughput_meps, ...
class Processor {
 public:
  /// Creates a processor with its own ProgramCache, built for `options`.
  static Result<std::unique_ptr<Processor>> Create(
      ProcessorKind kind, const ProcessorOptions& options = {});

  /// Creates a processor that reads its kernel programs from a shared
  /// immutable cache (the board hands one cache to all of its cores; see
  /// ProgramCache). `programs` must be non-null and built with the same
  /// kernel options; the processor keeps a shared reference. Fails on a
  /// null cache or an options mismatch.
  static Result<std::unique_ptr<Processor>> Create(
      ProcessorKind kind, const ProcessorOptions& options,
      std::shared_ptr<const ProgramCache> programs);

  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  ProcessorKind kind() const { return kind_; }
  const ProcessorOptions& options() const { return options_; }
  bool has_eis() const { return eis_ != nullptr; }
  const hwmodel::SynthesisReport& synthesis() const { return synthesis_; }
  double frequency_hz() const { return synthesis_.fmax_hz(); }

  /// Capacity limits implied by the local-store sizes (Section 5.2:
  /// 5000-element sets / 6500-value sort inputs "fit in the local data
  /// memories"). Baseline 108Mini runs from system memory and is
  /// limited only by its size.
  uint32_t max_set_elements(uint32_t other_set_size) const;
  uint32_t max_sort_elements() const;

  /// Executes a sorted-set operation (intersection, union, difference).
  /// Inputs must be strictly increasing (sorted, duplicate-free) and
  /// within capacity; set RunSettings::validate_inputs to have the
  /// processor check the ordering instead of trusting the caller. Uses
  /// the EIS kernel when available.
  Result<SetOpRun> RunSetOperation(SetOp op, std::span<const uint32_t> a,
                                   std::span<const uint32_t> b,
                                   const RunSettings& settings = {});

  /// Merges two sorted sequences (duplicates allowed) into one sorted
  /// sequence with the merge kernel (the paper's Figure 2 merge
  /// procedure / Figure 12 EIS loop). Same capacity rules as
  /// RunSetOperation; the building block of external sorting.
  Result<SetOpRun> RunMerge(std::span<const uint32_t> a,
                            std::span<const uint32_t> b,
                            const RunSettings& settings = {});

  /// Sorts `values` with the configuration's merge-sort kernel.
  Result<SortRun> RunSort(std::span<const uint32_t> values,
                          const RunSettings& settings = {});

  // --- Advanced access (profiling, custom programs, tests) ---
  sim::Cpu& cpu() { return *cpu_; }
  eis::EisExtension* eis() { return eis_.get(); }

  /// Kernel programs as loaded into the instruction memory -- input for
  /// the disassembler and toolchain::BuildProfile. Every kernel a run
  /// loads is looked up here, in the processor's ProgramCache; `op`
  /// kMerge is the merge-pair kernel.
  Result<const isa::Program*> setop_program(SetOp op, bool scalar);
  Result<const isa::Program*> sort_program(bool scalar);

 private:
  Processor(ProcessorKind kind, const ProcessorOptions& options);

  Status Build();
  bool uses_local_store() const {
    return kind_ != ProcessorKind::k108Mini;
  }
  bool kind_has_eis() const {
    return kind_ == ProcessorKind::kDba1LsuEis ||
           kind_ == ProcessorKind::kDba2LsuEis;
  }
  int num_lsus() const {
    return (kind_ == ProcessorKind::kDba2Lsu ||
            kind_ == ProcessorKind::kDba2LsuEis)
               ? 2
               : 1;
  }

  /// Runs the loaded program: the one place RunSettings become
  /// sim::RunOptions (profile, trace_limit and trace_sink pick the core's
  /// run loop). Counts the invocation under `phase` and wraps the run in
  /// its kernel span.
  Result<sim::ExecStats> RunCore(const RunSettings& settings,
                                 std::string_view phase);
  Result<SetOpRun> ExecuteBinaryKernel(const isa::Program& program,
                                       std::span<const uint32_t> a,
                                       std::span<const uint32_t> b,
                                       const RunSettings& settings,
                                       std::string_view phase);
  RunMetrics MakeMetrics(uint64_t elements, sim::ExecStats stats) const;

  ProcessorKind kind_;
  ProcessorOptions options_;
  hwmodel::SynthesisReport synthesis_;

  std::unique_ptr<sim::Cpu> cpu_;
  std::unique_ptr<eis::EisExtension> eis_;
  std::vector<std::unique_ptr<mem::Memory>> memories_;
  mem::Memory* ldm0_ = nullptr;    // local data memory of LSU0
  mem::Memory* ldm1_ = nullptr;    // local data memory of LSU1 (2-LSU)
  mem::Memory* result_ = nullptr;  // result region on the store port
  mem::Memory* sysmem_ = nullptr;  // system memory (108Mini)

  /// Every kernel program, built before the processor (never null; a
  /// board's cores share one cache).
  std::shared_ptr<const ProgramCache> programs_;
};

}  // namespace dba

#endif  // DBA_CORE_PROCESSOR_H_
