#ifndef DBA_SIM_CPU_H_
#define DBA_SIM_CPU_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "isa/disassembler.h"
#include "isa/instruction.h"
#include "isa/program.h"
#include "mem/memory.h"
#include "sim/core_config.h"
#include "sim/exec_mode.h"
#include "sim/ext_op.h"
#include "sim/loop_accel.h"
#include "sim/stats.h"
#include "sim/trace_sink.h"

namespace dba::sim {

/// Execution controls for Cpu::Run. Setting `profile`, `trace_limit` or
/// `trace_sink` sends the run to the reference loop in every mode (they
/// need per-word bookkeeping); only lean fast-forward and turbo runs take
/// the superblock loop and offer TIE loops to the loop accelerator.
struct RunOptions {
  /// How the run loop advances the machine (see sim/exec_mode.h). The
  /// default fast-forward path is bit-identical to the interpreter;
  /// turbo is opt-in and batch-executes recognized kernel loops.
  ExecMode mode = ExecMode::kFastForward;
  /// Watchdog: abort with DeadlineExceeded after this many cycles.
  uint64_t max_cycles = 1ull << 36;
  /// Collect per-pc counts, per-pc cycle attribution, and the dynamic
  /// instruction mix (slower).
  bool profile = false;
  /// Record the first `trace_limit` issued words as rendered trace
  /// lines in ExecStats::trace (the debug interface of the processor
  /// model); 0 disables tracing.
  uint32_t trace_limit = 0;
  /// Cycle-trace receiver (non-owning; may be null). When set, the run
  /// emits a duration slice per enclosing label region and samples the
  /// stall/beat counter tracks at each region boundary. The Chrome
  /// trace-event writer in src/obs renders these for ui.perfetto.dev.
  CycleTraceSink* trace_sink = nullptr;
};

/// Cycle-accurate in-order model of the configurable core.
///
/// The model issues one program word per cycle and adds stall cycles for
/// the events that dominate the paper's analysis:
///   - memory latency of scalar loads/stores (local store vs. system
///     memory is the 108Mini vs. DBA_1LSU difference),
///   - mispredicted data-dependent branches (static BTFN predictor),
///   - load-store-unit port contention of extension beats (1 vs. 2 LSUs),
///   - extra datapath cycles declared by extension operations.
///
/// Instruction fetch is modelled as ideal for all configurations (see
/// DESIGN.md, deliberate deviations).
class Cpu {
 public:
  explicit Cpu(CoreConfig config);

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  const CoreConfig& config() const { return config_; }

  /// Maps a memory into the core's address space (non-owning).
  Status AttachMemory(mem::Memory* memory);
  const mem::MemorySystem& memory_system() const { return memory_system_; }

  /// Registers a TIE extension operation under `ext_id` (1..0xFFF).
  Status RegisterExtOp(uint16_t ext_id, std::string name, ExtOpFn fn);
  bool HasExtOp(uint16_t ext_id) const { return ext_ops_.count(ext_id) != 0; }

  /// Registers the batch executor for steady-state extension loops
  /// (non-owning; may be null to clear). Consulted by the superblock loop
  /// of lean fast-forward and turbo runs for superblocks that are TIE
  /// loops. Drops the cached exec plans and the resident plan's
  /// MatchesTieLoop verdicts, which were the previous accelerator's.
  void SetLoopAccelerator(LoopAccelerator* accel);
  LoopAccelerator* loop_accelerator() const { return loop_accel_; }

  /// Mnemonic lookup for the disassembler.
  isa::ExtNameResolver MakeExtNameResolver() const;

  /// Validates, decodes, and installs `program`; resets pc to 0.
  /// Fails if the program exceeds the local instruction memory, uses
  /// 64-bit FLIX words on a 32-bit instruction bus, or references
  /// unregistered extension operations. A program whose exec plan the
  /// core still holds (the resident one, or one of the last
  /// kExecPlanCapacity - 1 others it ran) is not decoded again.
  Status LoadProgram(const isa::Program& program);

  /// Exec plans a core keeps, the resident one included: a Processor's
  /// ten kernels plus the board's fault hang loop, so switching between
  /// kernels never decodes a program twice.
  static constexpr size_t kExecPlanCapacity = 11;

  // --- Architectural state ---
  uint32_t reg(isa::Reg r) const {
    return regs_[static_cast<size_t>(isa::RegIndex(r))];
  }
  void set_reg(isa::Reg r, uint32_t value) {
    regs_[static_cast<size_t>(isa::RegIndex(r))] = value;
  }
  uint32_t pc() const { return pc_; }
  void set_pc(uint32_t pc) { pc_ = pc; }

  /// Resets pc and registers (memories and extension state untouched).
  void ResetArchState();

  /// Runs until kHalt. Returns the cycle-accurate statistics.
  Result<ExecStats> Run(const RunOptions& options = {});

  /// Decode-once superblocks of the resident program (tests and the
  /// toolchain introspect these; built by LoadProgram when the core holds
  /// no plan for the program's content).
  struct SuperBlock {
    uint32_t head = 0;  // first pc of the straight-line region
    uint32_t len = 0;   // words in [head, head + len)
    /// The block is a steady-state TIE loop: `len - 1` base kTie words
    /// followed by a backward conditional branch to `head`. Such blocks
    /// are offered to the registered LoopAccelerator.
    bool tie_loop = false;
    /// Cached MatchesTieLoop verdict (0 unknown, 1 yes, 2 no).
    uint8_t accel_state = 0;
    /// Pre-decoded micro-trace of a tie_loop body plus its branch.
    std::vector<isa::Instruction> tie_body;
    isa::Instruction tie_branch;
  };
  size_t num_superblocks() const { return plan_.blocks.size(); }
  const SuperBlock& superblock_at(uint32_t pc) const {
    return plan_.blocks[plan_.block_of[pc]];
  }

 private:
  friend class ExtContext;

  struct ExtOp {
    std::string name;
    ExtOpFn fn;
  };

  /// Issues the word at pc: its issue cycle, its semantics through the
  /// exec plan's resolved extension handlers, and its stall cycles. The
  /// one per-word executor of both run loops; sets *halted on kHalt.
  /// Defined inline in cpu.cc, the only file that calls it.
  inline Status Step(ExecStats* stats, bool* halted);
  Status ExecuteBase(const isa::Instruction& instr, ExecStats* stats,
                     bool* halted);
  /// Charges the beats and datapath cycles that the extension operations
  /// of one issued word recorded in `ctx`.
  static void Charge(const ExtContext& ctx, ExecStats* stats);
  Result<mem::Memory*> RouteData(uint64_t addr, uint64_t bytes);
  /// FailedPrecondition for a 128-bit beat on a narrower data bus.
  static Status NarrowBusError();

  /// Everything LoadProgram derives from one program, keyed by the
  /// program's content (its words and labels), never its address.
  struct ExecPlan {
    std::vector<uint64_t> words;
    std::vector<std::pair<std::string, uint32_t>> labels;
    std::vector<isa::DecodedWord> decoded;
    /// Enclosing label per pc (empty when none); names the cycle-trace
    /// regions and the stall-attribution rows.
    std::vector<std::string> pc_labels;
    /// Superblock table (with each block's cached MatchesTieLoop
    /// verdict), pc -> block map, and pre-resolved extension handlers
    /// (no map lookup on the fast paths).
    std::vector<SuperBlock> blocks;
    std::vector<uint32_t> block_of;
    std::vector<const ExtOp*> ext_of;  // base kTie words only, else null
    std::vector<std::array<const ExtOp*, isa::kMaxFlixSlots>> slot_ext_of;

    bool Holds(const isa::Program& program) const {
      return program.words() == words && program.labels() == labels;
    }
  };

  /// Validates and decodes `program`, segments it into superblocks and
  /// resolves the per-pc extension handlers (decode-once micro-traces).
  Result<ExecPlan> BuildExecPlan(const isa::Program& program) const;

  /// The reference loop: word by word, with the profile, trace and
  /// cycle-trace bookkeeping around each Step.
  Result<ExecStats> RunInterpret(const RunOptions& options);
  /// The superblock loop of lean fast-forward and turbo runs: no per-word
  /// bookkeeping, TIE loops offered to the loop accelerator.
  Result<ExecStats> RunSuperblocks(const RunOptions& options);

  CoreConfig config_;
  mem::MemorySystem memory_system_;
  std::map<uint16_t, ExtOp> ext_ops_;
  LoopAccelerator* loop_accel_ = nullptr;

  /// The resident program's plan, held by value so that the run loops
  /// reach its tables with no more indirection than a plain member.
  ExecPlan plan_;
  /// Plans of the programs the core ran before the resident one, most
  /// recently resident first; at most kExecPlanCapacity - 1.
  std::vector<ExecPlan> cached_plans_;

  std::array<uint32_t, isa::kNumRegs> regs_{};
  uint32_t pc_ = 0;
};

inline int ExtContext::num_lsus() const { return cpu_->config().num_lsus; }

inline uint32_t ExtContext::reg(isa::Reg r) const { return cpu_->reg(r); }

inline void ExtContext::set_reg(isa::Reg r, uint32_t value) {
  cpu_->set_reg(r, value);
}

inline mem::Memory* ExtContext::Port(int lsu, uint64_t addr, uint64_t bytes) {
  mem::Memory* memory = cpu_->memory_system_.Find(addr, bytes);
  if (memory != nullptr) {
    const int port = lsu < 0 || lsu >= num_lsus() ? 0 : lsu;
    beats_[port] += memory->config().access_latency;
  }
  return memory;
}

inline Result<mem::Beat128> ExtContext::LoadBeat(int lsu, uint64_t addr) {
  if (cpu_->config().data_bus_bits < 128) return Cpu::NarrowBusError();
  mem::Memory* memory = Port(lsu, addr, mem::kBeatBytes);
  if (memory == nullptr) return cpu_->RouteData(addr, mem::kBeatBytes).status();
  return memory->Load128(addr);
}

inline Status ExtContext::StoreBeat(int lsu, uint64_t addr,
                                    const mem::Beat128& beat) {
  if (cpu_->config().data_bus_bits < 128) return Cpu::NarrowBusError();
  mem::Memory* memory = Port(lsu, addr, mem::kBeatBytes);
  if (memory == nullptr) return cpu_->RouteData(addr, mem::kBeatBytes).status();
  return memory->Store128(addr, beat);
}

inline Result<uint32_t> ExtContext::LoadWord(int lsu, uint64_t addr) {
  mem::Memory* memory = Port(lsu, addr, 4);
  if (memory == nullptr) return cpu_->RouteData(addr, 4).status();
  return memory->LoadU32(addr);
}

inline Status ExtContext::StoreWord(int lsu, uint64_t addr, uint32_t value) {
  mem::Memory* memory = Port(lsu, addr, 4);
  if (memory == nullptr) return cpu_->RouteData(addr, 4).status();
  return memory->StoreU32(addr, value);
}

}  // namespace dba::sim

#endif  // DBA_SIM_CPU_H_
