#include "core/processor.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <utility>

#include "common/bits.h"
#include "common/check.h"
#include "isa/registers.h"
#include "obs/metrics/metrics.h"

namespace dba {

namespace {

using isa::Reg;

obs::Histogram* KernelCyclesHistogram() {
  static obs::Histogram* const histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "dba_core_kernel_cycles",
          "Simulated cycles per kernel invocation.");
  return histogram;
}

// dba_core_kernel_invocations_total{kernel}, one counter per kernel label
// ("intersect[DBA_2LSU_EIS]" -> kernel="intersect"). Each label's counter
// is resolved on the label's first run and kept, as every other
// instrument here is: board cores run kernels from several host threads
// at once, and a registry lookup per run made them queue on the
// registry's mutex.
void CountKernelInvocation(std::string_view phase) {
  static constexpr std::string_view kKernels[] = {
      "intersect", "union", "difference", "merge", "sort"};
  static std::atomic<obs::Counter*> counters[std::size(kKernels)];
  const std::string_view kernel = phase.substr(0, phase.find('['));
  const size_t index = static_cast<size_t>(
      std::find(std::begin(kKernels), std::end(kKernels), kernel) -
      std::begin(kKernels));
  DBA_CHECK_MSG(index < std::size(kKernels), "unknown kernel label");
  obs::Counter* counter = counters[index].load(std::memory_order_acquire);
  if (counter == nullptr) {
    // Two threads may both look the label up; the registry returns the
    // same counter to both.
    counter = obs::MetricsRegistry::Global().GetCounter(
        "dba_core_kernel_invocations_total", "kernel", kernel,
        "Kernel invocations by kernel label.");
    counters[index].store(counter, std::memory_order_release);
  }
  counter->Increment();
}

obs::Counter* ProgramCacheHits() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter(
          "dba_core_program_cache_hits_total",
          "Kernel program lookups served from a built program cache.");
  return counter;
}

// Flat address map of the processor model. LSU0 serves LDM0, LSU1
// serves LDM1; the result region sits on the store port. 108Mini has no
// local store and runs entirely from the (slower) system memory.
constexpr uint64_t kLdm0Base = 0x0001'0000;
constexpr uint64_t kLdm1Base = 0x0010'0000;
constexpr uint64_t kResultBase = 0x0020'0000;
constexpr uint64_t kResultSize = 1ull << 20;
constexpr uint64_t kSysBase = 0x1000'0000;
constexpr uint64_t kSysSize = 32ull << 20;
constexpr uint32_t kSysLatencyCycles = 4;
constexpr uint64_t kLocalDataBytesTotal = 64ull << 10;

/// Bytes a set occupies in a local memory, including beat padding.
uint64_t PaddedBytes(uint64_t elements) {
  return AlignUp(elements * 4, mem::kBeatBytes);
}

/// Zeroes the beat-padding tail of a staged input block: bytes
/// [addr + 4*elements, addr + PaddedBytes(elements)). The kernels read
/// whole 128-bit beats, so the final partial beat must be deterministic;
/// everything else the core reads back is written by the kernel itself.
/// Zeroing only the tail (instead of Clear()-ing whole memories) keeps
/// the staging cost independent of memory size -- the streaming path
/// invokes a kernel every few thousand elements, and a 1 MiB result-bank
/// memset per invocation would dominate the fast-forward run loop.
void ZeroPadTail(mem::Memory* memory, uint64_t addr, uint64_t elements) {
  const uint64_t used = elements * 4;
  const uint64_t padded = PaddedBytes(elements);
  if (padded == used) return;
  std::span<uint8_t> raw = memory->mutable_raw();
  std::fill_n(raw.begin() +
                  static_cast<ptrdiff_t>(addr - memory->config().base + used),
              static_cast<ptrdiff_t>(padded - used), uint8_t{0});
}

}  // namespace

Processor::Processor(ProcessorKind kind, const ProcessorOptions& options)
    : kind_(kind),
      options_(options),
      synthesis_(hwmodel::Synthesize(kind, options.tech)) {}

Result<std::unique_ptr<Processor>> Processor::Create(
    ProcessorKind kind, const ProcessorOptions& options) {
  // ProgramCache::Build rejects an unroll factor outside 1..256.
  DBA_ASSIGN_OR_RETURN(std::shared_ptr<const ProgramCache> programs,
                       ProgramCache::Build(options));
  return Create(kind, options, std::move(programs));
}

Result<std::unique_ptr<Processor>> Processor::Create(
    ProcessorKind kind, const ProcessorOptions& options,
    std::shared_ptr<const ProgramCache> programs) {
  if (programs == nullptr) {
    return Status::InvalidArgument("Processor::Create needs a ProgramCache");
  }
  if (programs->partial_loading() != options.partial_loading ||
      programs->unroll() != options.unroll) {
    return Status::InvalidArgument(
        "shared ProgramCache was built with different kernel options");
  }
  std::unique_ptr<Processor> processor(new Processor(kind, options));
  processor->programs_ = std::move(programs);
  DBA_RETURN_IF_ERROR(processor->Build());
  return processor;
}

Status Processor::Build() {
  sim::CoreConfig config;
  config.name = std::string(hwmodel::ConfigKindName(kind_));
  config.num_lsus = num_lsus();
  config.branch_mispredict_penalty = 3;
  if (uses_local_store()) {
    config.data_bus_bits = 128;
    config.instruction_bus_bits = 64;
    config.instruction_memory_bytes = 32ull << 10;
  } else {
    config.data_bus_bits = 32;
    config.instruction_bus_bits = 32;
    config.instruction_memory_bytes = 0;  // fetched from system memory
  }
  cpu_ = std::make_unique<sim::Cpu>(config);

  auto add_memory = [this](mem::MemoryConfig mem_config,
                           mem::Memory** out) -> Status {
    DBA_ASSIGN_OR_RETURN(mem::Memory memory,
                         mem::Memory::Create(std::move(mem_config)));
    memories_.push_back(std::make_unique<mem::Memory>(std::move(memory)));
    *out = memories_.back().get();
    return cpu_->AttachMemory(memories_.back().get());
  };

  if (uses_local_store()) {
    const uint64_t bank_bytes =
        num_lsus() == 2 ? kLocalDataBytesTotal / 2 : kLocalDataBytesTotal;
    DBA_RETURN_IF_ERROR(add_memory(
        {.name = "ldm0", .base = kLdm0Base, .size = bank_bytes,
         .access_latency = 1, .dual_port = true},
        &ldm0_));
    if (num_lsus() == 2) {
      DBA_RETURN_IF_ERROR(add_memory(
          {.name = "ldm1", .base = kLdm1Base, .size = bank_bytes,
           .access_latency = 1, .dual_port = true},
          &ldm1_));
    }
    DBA_RETURN_IF_ERROR(add_memory(
        {.name = "result", .base = kResultBase, .size = kResultSize,
         .access_latency = 1, .dual_port = true},
        &result_));
  } else {
    DBA_RETURN_IF_ERROR(add_memory(
        {.name = "sysmem", .base = kSysBase, .size = kSysSize,
         .access_latency = kSysLatencyCycles},
        &sysmem_));
  }

  if (kind_has_eis()) {
    eis_ = std::make_unique<eis::EisExtension>();
    DBA_RETURN_IF_ERROR(eis_->Attach(cpu_.get()));
    cpu_->SetLoopAccelerator(eis_.get());
  }
  return Status::Ok();
}

uint32_t Processor::max_set_elements(uint32_t other_set_size) const {
  if (!uses_local_store()) {
    return static_cast<uint32_t>(kSysSize / 16);  // plenty; shared region
  }
  if (num_lsus() == 2) {
    // Each set lives in its own 32 KiB bank.
    return static_cast<uint32_t>(kLocalDataBytesTotal / 2 / 4 - 4);
  }
  // Both sets share the 64 KiB bank.
  const uint64_t other_bytes = PaddedBytes(other_set_size);
  if (other_bytes + mem::kBeatBytes >= kLocalDataBytesTotal) return 0;
  return static_cast<uint32_t>(
      (kLocalDataBytesTotal - other_bytes) / 4 - 4);
}

uint32_t Processor::max_sort_elements() const {
  if (!uses_local_store()) {
    return static_cast<uint32_t>(kSysSize / 16);
  }
  // Two ping-pong buffers of 4n bytes each across the local store.
  return static_cast<uint32_t>(kLocalDataBytesTotal / 8 - 8);
}

Result<const isa::Program*> Processor::setop_program(SetOp op,
                                                     bool scalar) {
  const isa::Program* program = programs_->setop(op, scalar);
  if (program == nullptr) {
    return Status::InvalidArgument("no kernel program for this operation");
  }
  ProgramCacheHits()->Increment();
  return program;
}

Result<const isa::Program*> Processor::sort_program(bool scalar) {
  ProgramCacheHits()->Increment();
  return programs_->sort(scalar);
}

RunMetrics Processor::MakeMetrics(uint64_t elements,
                                  sim::ExecStats stats) const {
  RunMetrics metrics;
  metrics.cycles = stats.cycles;
  metrics.seconds = static_cast<double>(stats.cycles) / frequency_hz();
  if (metrics.seconds > 0) {
    metrics.throughput_meps =
        static_cast<double>(elements) / metrics.seconds / 1e6;
  }
  if (metrics.throughput_meps > 0) {
    metrics.energy_nj_per_element =
        synthesis_.power_mw / metrics.throughput_meps;
  }
  metrics.stats = std::move(stats);
  return metrics;
}

Result<SetOpRun> Processor::RunSetOperation(SetOp op,
                                            std::span<const uint32_t> a,
                                            std::span<const uint32_t> b,
                                            const RunSettings& settings) {
  if (op == SetOp::kMerge) {
    return Status::InvalidArgument(
        "kMerge is the merge-sort building block; use RunSort");
  }
  if (settings.validate_inputs) {
    DBA_RETURN_IF_ERROR(eis::ValidateOperands(op, a, b));
  }
  if (a.size() > max_set_elements(static_cast<uint32_t>(b.size())) ||
      b.size() > max_set_elements(static_cast<uint32_t>(a.size()))) {
    return Status::ResourceExhausted(
        "input sets exceed the local data memories of " +
        std::string(hwmodel::ConfigKindName(kind_)) +
        "; stream larger sets with the data prefetcher (src/prefetch)");
  }
  const bool scalar = settings.force_scalar || !kind_has_eis();
  DBA_ASSIGN_OR_RETURN(const isa::Program* program,
                       setop_program(op, scalar));
  const std::string phase = std::string(eis::SopModeName(op)) + "[" +
                            std::string(hwmodel::ConfigKindName(kind_)) + "]";
  return ExecuteBinaryKernel(*program, a, b, settings, phase);
}

Result<SetOpRun> Processor::RunMerge(std::span<const uint32_t> a,
                                     std::span<const uint32_t> b,
                                     const RunSettings& settings) {
  DBA_RETURN_IF_ERROR(eis::ValidateOperands(SetOp::kMerge, a, b));
  if (a.size() > max_set_elements(static_cast<uint32_t>(b.size())) ||
      b.size() > max_set_elements(static_cast<uint32_t>(a.size()))) {
    return Status::ResourceExhausted(
        "merge inputs exceed the local data memories of " +
        std::string(hwmodel::ConfigKindName(kind_)));
  }
  const bool scalar = settings.force_scalar || !kind_has_eis();
  DBA_ASSIGN_OR_RETURN(const isa::Program* program,
                       setop_program(SetOp::kMerge, scalar));
  const std::string phase = "merge[" +
                            std::string(hwmodel::ConfigKindName(kind_)) + "]";
  return ExecuteBinaryKernel(*program, a, b, settings, phase);
}

Result<sim::ExecStats> Processor::RunCore(const RunSettings& settings,
                                          std::string_view phase) {
  sim::RunOptions run_options;
  run_options.mode = settings.sim_mode;
  run_options.profile = settings.profile;
  run_options.trace_limit = settings.trace_limit;
  run_options.trace_sink = settings.trace_sink;
  if (settings.max_cycles > 0) run_options.max_cycles = settings.max_cycles;
  CountKernelInvocation(phase);
  // The span begins the trace region and, once SetEndCycle runs, feeds the
  // kernel-cycles histogram and ends the region. On failure the phase
  // region stays open; the trace writer closes dangling regions at the
  // last seen timestamp.
  obs::ScopedSpan span(KernelCyclesHistogram(), settings.trace_sink, phase);
  DBA_ASSIGN_OR_RETURN(sim::ExecStats stats, cpu_->Run(run_options));
  span.SetEndCycle(stats.cycles);
  return stats;
}

Result<SetOpRun> Processor::ExecuteBinaryKernel(
    const isa::Program& program, std::span<const uint32_t> a,
    std::span<const uint32_t> b, const RunSettings& settings,
    std::string_view phase) {
  // Place the inputs. 2-LSU: A in LDM0, B in LDM1. 1-LSU: both in LDM0.
  // 108Mini: everything in system memory.
  uint64_t addr_a = 0;
  uint64_t addr_b = 0;
  uint64_t addr_c = 0;
  if (!uses_local_store()) {
    addr_a = kSysBase;
    addr_b = addr_a + PaddedBytes(a.size());
    addr_c = addr_b + PaddedBytes(b.size());
    DBA_RETURN_IF_ERROR(sysmem_->WriteBlock(addr_a, a));
    ZeroPadTail(sysmem_, addr_a, a.size());
    DBA_RETURN_IF_ERROR(sysmem_->WriteBlock(addr_b, b));
    ZeroPadTail(sysmem_, addr_b, b.size());
  } else {
    addr_a = kLdm0Base;
    DBA_RETURN_IF_ERROR(ldm0_->WriteBlock(addr_a, a));
    ZeroPadTail(ldm0_, addr_a, a.size());
    if (num_lsus() == 2) {
      addr_b = kLdm1Base;
      DBA_RETURN_IF_ERROR(ldm1_->WriteBlock(addr_b, b));
      ZeroPadTail(ldm1_, addr_b, b.size());
    } else {
      addr_b = addr_a + PaddedBytes(a.size());
      DBA_RETURN_IF_ERROR(ldm0_->WriteBlock(addr_b, b));
      ZeroPadTail(ldm0_, addr_b, b.size());
    }
    addr_c = kResultBase;
  }

  cpu_->ResetArchState();
  if (eis_) eis_->ResetState();
  DBA_RETURN_IF_ERROR(cpu_->LoadProgram(program));
  cpu_->set_reg(isa::abi::kPtrA, static_cast<uint32_t>(addr_a));
  cpu_->set_reg(isa::abi::kPtrB, static_cast<uint32_t>(addr_b));
  cpu_->set_reg(isa::abi::kLenA, static_cast<uint32_t>(a.size()));
  cpu_->set_reg(isa::abi::kLenB, static_cast<uint32_t>(b.size()));
  cpu_->set_reg(isa::abi::kPtrC, static_cast<uint32_t>(addr_c));

  DBA_ASSIGN_OR_RETURN(sim::ExecStats stats, RunCore(settings, phase));

  const uint32_t count = cpu_->reg(isa::abi::kLenC);
  DBA_ASSIGN_OR_RETURN(mem::Memory * result_memory,
                       cpu_->memory_system().Route(addr_c, 4));
  SetOpRun run;
  if (count > 0) {
    DBA_ASSIGN_OR_RETURN(run.result, result_memory->ReadBlock(addr_c, count));
  }
  run.metrics = MakeMetrics(a.size() + b.size(), std::move(stats));
  return run;
}

Result<SortRun> Processor::RunSort(std::span<const uint32_t> values,
                                   const RunSettings& settings) {
  if (values.size() > max_sort_elements()) {
    return Status::ResourceExhausted(
        "sort input exceeds the local data memories of " +
        std::string(hwmodel::ConfigKindName(kind_)));
  }
  const bool scalar = settings.force_scalar || !kind_has_eis();
  DBA_ASSIGN_OR_RETURN(const isa::Program* program_ptr,
                       sort_program(scalar));
  const isa::Program& program = *program_ptr;

  // Ping-pong buffers: LDM0 + LDM1 on 2-LSU cores, both halves of LDM0
  // on 1-LSU cores, system memory on 108Mini.
  uint64_t buf0 = 0;
  uint64_t buf1 = 0;
  const uint64_t bytes = PaddedBytes(values.size());
  if (!uses_local_store()) {
    buf0 = kSysBase;
    buf1 = buf0 + bytes;
    DBA_RETURN_IF_ERROR(sysmem_->WriteBlock(buf0, values));
    ZeroPadTail(sysmem_, buf0, values.size());
    ZeroPadTail(sysmem_, buf1, values.size());
  } else if (num_lsus() == 2) {
    buf0 = kLdm0Base;
    buf1 = kLdm1Base;
    DBA_RETURN_IF_ERROR(ldm0_->WriteBlock(buf0, values));
    ZeroPadTail(ldm0_, buf0, values.size());
    ZeroPadTail(ldm1_, buf1, values.size());
  } else {
    buf0 = kLdm0Base;
    buf1 = buf0 + bytes;
    DBA_RETURN_IF_ERROR(ldm0_->WriteBlock(buf0, values));
    ZeroPadTail(ldm0_, buf0, values.size());
    ZeroPadTail(ldm0_, buf1, values.size());
  }

  cpu_->ResetArchState();
  if (eis_) eis_->ResetState();
  DBA_RETURN_IF_ERROR(cpu_->LoadProgram(program));
  cpu_->set_reg(isa::abi::kPtrA, static_cast<uint32_t>(buf0));
  cpu_->set_reg(isa::abi::kLenA, static_cast<uint32_t>(values.size()));
  cpu_->set_reg(isa::abi::kPtrC, static_cast<uint32_t>(buf1));

  const std::string phase =
      "sort[" + std::string(hwmodel::ConfigKindName(kind_)) + "]";
  DBA_ASSIGN_OR_RETURN(sim::ExecStats stats, RunCore(settings, phase));

  SortRun run;
  const uint32_t sorted_ptr = cpu_->reg(isa::abi::kLenC);
  if (!values.empty()) {
    DBA_ASSIGN_OR_RETURN(mem::Memory * memory,
                         cpu_->memory_system().Route(sorted_ptr, 4));
    DBA_ASSIGN_OR_RETURN(run.sorted,
                         memory->ReadBlock(sorted_ptr, values.size()));
  }
  run.metrics = MakeMetrics(values.size(), std::move(stats));
  return run;
}

}  // namespace dba
