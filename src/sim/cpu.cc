#include "sim/cpu.h"

#include <cstdio>

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/check.h"
#include "isa/encoding.h"
#include "isa/opcode.h"
#include "obs/metrics/metrics.h"

namespace dba::sim {

using isa::Instruction;
using isa::Opcode;
using isa::Reg;

namespace {

// Registry lookups happen once (function-local statics); the hot path is a
// single relaxed fetch_add per Cpu::Run / LoadProgram, never per instruction.
obs::Counter* SimRunCounter(ExecMode mode) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const interpret = registry.GetCounter(
      "dba_sim_runs_total", "mode", "interpret",
      "Cpu::Run invocations by execution mode.");
  static obs::Counter* const fast_forward = registry.GetCounter(
      "dba_sim_runs_total", "mode", "fast-forward",
      "Cpu::Run invocations by execution mode.");
  static obs::Counter* const turbo = registry.GetCounter(
      "dba_sim_runs_total", "mode", "turbo",
      "Cpu::Run invocations by execution mode.");
  switch (mode) {
    case ExecMode::kInterpret:
      return interpret;
    case ExecMode::kFastForward:
      return fast_forward;
    case ExecMode::kTurbo:
      return turbo;
  }
  return fast_forward;
}

}  // namespace

Cpu::Cpu(CoreConfig config) : config_(std::move(config)) {
  DBA_CHECK_MSG(config_.num_lsus >= 1 && config_.num_lsus <= 2,
                "core supports 1 or 2 load-store units");
}

Status Cpu::AttachMemory(mem::Memory* memory) {
  return memory_system_.AddRegion(memory);
}

Status Cpu::RegisterExtOp(uint16_t ext_id, std::string name, ExtOpFn fn) {
  if (ext_id == 0 || ext_id > isa::kMaxExtId) {
    return Status::InvalidArgument("ext_id must be in 1..4095");
  }
  if (ext_ops_.count(ext_id) != 0) {
    return Status::AlreadyExists("ext_id " + std::to_string(ext_id) +
                                 " already registered as '" +
                                 ext_ops_[ext_id].name + "'");
  }
  if (!fn) return Status::InvalidArgument("extension function must be set");
  ext_ops_.emplace(ext_id, ExtOp{std::move(name), std::move(fn)});
  return Status::Ok();
}

isa::ExtNameResolver Cpu::MakeExtNameResolver() const {
  return [this](uint16_t ext_id) -> std::string {
    auto it = ext_ops_.find(ext_id);
    return it == ext_ops_.end() ? std::string() : it->second.name;
  };
}

void Cpu::SetLoopAccelerator(LoopAccelerator* accel) {
  loop_accel_ = accel;
  cached_plans_.clear();
  for (SuperBlock& block : plan_.blocks) block.accel_state = 0;
}

Status Cpu::LoadProgram(const isa::Program& program) {
  if (program.empty()) {
    return Status::InvalidArgument("cannot load an empty program");
  }
  // A program the core holds a plan for -- the resident one (a board
  // core runs the same kernel for every partition) or one it switched
  // away from -- only resets the pc. The check compares content, not
  // identity, so a different program that happens to reuse a freed
  // address can never match a stale plan.
  bool held = plan_.Holds(program);
  if (!held) {
    const auto cached = std::find_if(
        cached_plans_.begin(), cached_plans_.end(),
        [&](const ExecPlan& plan) { return plan.Holds(program); });
    if (cached != cached_plans_.end()) {
      // The cached plan becomes resident, and the one it replaces moves
      // to the front of the cache as the most recently resident.
      std::swap(plan_, *cached);
      std::rotate(cached_plans_.begin(), cached, std::next(cached));
      held = true;
    }
  }
  if (held) {
    static obs::Counter* const reloads =
        obs::MetricsRegistry::Global().GetCounter(
            "dba_sim_program_reloads_total",
            "Program loads that reused a decode and exec plan the core "
            "held (the resident program's or a cached one).");
    reloads->Increment();
    pc_ = 0;
    return Status::Ok();
  }
  DBA_ASSIGN_OR_RETURN(ExecPlan plan, BuildExecPlan(program));
  if (!plan_.decoded.empty()) {
    if (cached_plans_.size() == kExecPlanCapacity - 1) {
      cached_plans_.pop_back();
    }
    cached_plans_.insert(cached_plans_.begin(), std::move(plan_));
  }
  plan_ = std::move(plan);
  {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    static obs::Counter* const decodes = registry.GetCounter(
        "dba_sim_program_decodes_total",
        "Program loads that required a full decode.");
    static obs::Counter* const rebuilds = registry.GetCounter(
        "dba_sim_superblock_rebuilds_total",
        "Superblock exec-plan rebuilds (one per full program decode).");
    static obs::Counter* const superblocks = registry.GetCounter(
        "dba_sim_superblocks_built_total",
        "Superblocks constructed across all exec-plan rebuilds.");
    decodes->Increment();
    rebuilds->Increment();
    superblocks->Increment(plan_.blocks.size());
  }
  pc_ = 0;
  return Status::Ok();
}

namespace {
bool IsCondBranch(Opcode opcode) {
  switch (opcode) {
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBltu:
    case Opcode::kBge:
    case Opcode::kBgeu:
      return true;
    default:
      return false;
  }
}
}  // namespace

Result<Cpu::ExecPlan> Cpu::BuildExecPlan(const isa::Program& program) const {
  ExecPlan plan;
  plan.decoded.reserve(program.size());
  uint64_t bytes = 0;
  for (size_t pc = 0; pc < program.size(); ++pc) {
    auto word = isa::Decode(program.word(pc));
    if (!word.ok()) {
      return Status::InvalidArgument("program word " + std::to_string(pc) +
                                     ": " + word.status().message());
    }
    if (word->kind == isa::DecodedWord::Kind::kFlix) {
      if (config_.instruction_bus_bits < 64) {
        return Status::FailedPrecondition(
            "FLIX bundles require a 64-bit instruction bus; core '" +
            config_.name + "' has " +
            std::to_string(config_.instruction_bus_bits) + " bits");
      }
      for (const isa::TieSlot& slot : word->slots) {
        if (!slot.empty() && ext_ops_.count(slot.ext_id) == 0) {
          return Status::NotFound("program word " + std::to_string(pc) +
                                  " uses unregistered extension op " +
                                  std::to_string(slot.ext_id));
        }
      }
      bytes += 8;
    } else {
      if (word->base.opcode == Opcode::kTie &&
          ext_ops_.count(word->base.ext_id) == 0) {
        return Status::NotFound("program word " + std::to_string(pc) +
                                " uses unregistered extension op " +
                                std::to_string(word->base.ext_id));
      }
      bytes += 4;
    }
    plan.decoded.push_back(*std::move(word));
  }
  if (config_.instruction_memory_bytes != 0 &&
      bytes > config_.instruction_memory_bytes) {
    return Status::ResourceExhausted(
        "program needs " + std::to_string(bytes) +
        " bytes of instruction memory; core '" + config_.name + "' has " +
        std::to_string(config_.instruction_memory_bytes));
  }
  plan.words = program.words();
  plan.labels = program.labels();
  const size_t n = plan.decoded.size();

  // Enclosing label per pc: the label bound at the greatest position at
  // or before it.
  plan.pc_labels.assign(n, std::string());
  auto sorted_labels = plan.labels;
  std::stable_sort(sorted_labels.begin(), sorted_labels.end(),
                   [](const auto& x, const auto& y) {
                     return x.second < y.second;
                   });
  for (const auto& [name, position] : sorted_labels) {
    for (size_t pc = position; pc < n; ++pc) plan.pc_labels[pc] = name;
  }

  plan.ext_of.assign(n, nullptr);
  plan.slot_ext_of.assign(n, {});
  // Superblock heads: entry, every branch/jump target, the word after
  // every control-flow word, and every label position. A control-flow
  // word can therefore only ever be the last word of its block.
  std::vector<uint8_t> is_head(n, 0);
  if (n > 0) is_head[0] = 1;
  auto mark_head = [&](uint64_t pc) {
    if (pc < n) is_head[pc] = 1;
  };
  for (const auto& [name, position] : plan.labels) mark_head(position);
  for (size_t pc = 0; pc < n; ++pc) {
    const isa::DecodedWord& word = plan.decoded[pc];
    if (word.kind == isa::DecodedWord::Kind::kFlix) {
      for (int i = 0; i < isa::kMaxFlixSlots; ++i) {
        const isa::TieSlot& slot = word.slots[static_cast<size_t>(i)];
        if (!slot.empty()) {
          plan.slot_ext_of[pc][static_cast<size_t>(i)] =
              &ext_ops_.find(slot.ext_id)->second;
        }
      }
      continue;
    }
    const Instruction& instr = word.base;
    if (instr.opcode == Opcode::kTie) {
      plan.ext_of[pc] = &ext_ops_.find(instr.ext_id)->second;
    } else if (IsCondBranch(instr.opcode) || instr.opcode == Opcode::kJ) {
      mark_head(static_cast<uint64_t>(static_cast<int64_t>(pc) + 1 +
                                      instr.imm));
      mark_head(pc + 1);
    } else if (instr.opcode == Opcode::kHalt) {
      mark_head(pc + 1);
    }
  }

  plan.block_of.assign(n, 0);
  for (size_t pc = 0; pc < n; ++pc) {
    if (is_head[pc]) {
      SuperBlock block;
      block.head = static_cast<uint32_t>(pc);
      plan.blocks.push_back(std::move(block));
    }
    plan.block_of[pc] = static_cast<uint32_t>(plan.blocks.size() - 1);
    ++plan.blocks.back().len;
  }

  // Steady-state TIE loops: a body of base kTie words closed by one
  // backward conditional branch to the block head. Their pre-decoded
  // micro-trace is what the loop accelerator consumes.
  for (SuperBlock& block : plan.blocks) {
    if (block.len < 2) continue;
    const uint32_t last = block.head + block.len - 1;
    const isa::DecodedWord& tail = plan.decoded[last];
    if (tail.kind != isa::DecodedWord::Kind::kBase ||
        !IsCondBranch(tail.base.opcode) || tail.base.imm >= 0 ||
        static_cast<int64_t>(last) + 1 + tail.base.imm != block.head) {
      continue;
    }
    bool all_tie = true;
    for (uint32_t pc = block.head; pc < last; ++pc) {
      const isa::DecodedWord& word = plan.decoded[pc];
      if (word.kind != isa::DecodedWord::Kind::kBase ||
          word.base.opcode != Opcode::kTie) {
        all_tie = false;
        break;
      }
    }
    if (!all_tie) continue;
    block.tie_loop = true;
    block.tie_body.reserve(block.len - 1);
    for (uint32_t pc = block.head; pc < last; ++pc) {
      block.tie_body.push_back(plan.decoded[pc].base);
    }
    block.tie_branch = tail.base;
  }
  return plan;
}

void Cpu::ResetArchState() {
  regs_.fill(0);
  pc_ = 0;
}

Result<mem::Memory*> Cpu::RouteData(uint64_t addr, uint64_t bytes) {
  return memory_system_.Route(addr, bytes);
}

Status Cpu::NarrowBusError() {
  return Status::FailedPrecondition("128-bit beats require a 128-bit data bus");
}

// --- Execution ---

void Cpu::Charge(const ExtContext& ctx, ExecStats* stats) {
  const uint32_t port_cycles = std::max(ctx.beats_[0], ctx.beats_[1]);
  if (port_cycles > 1) {
    stats->port_stall_cycles += port_cycles - 1;
    stats->cycles += port_cycles - 1;
  }
  stats->ext_extra_cycles += ctx.extra_cycles_;
  stats->cycles += ctx.extra_cycles_;
  stats->lsu_beats[0] += ctx.beats_[0];
  stats->lsu_beats[1] += ctx.beats_[1];
}

// Inline so that both run loops compile it into their loop bodies: as
// an out-of-line call it cost the reference loop ~20% host time on
// scalar kernels.
inline Status Cpu::Step(ExecStats* stats, bool* halted) {
  const uint32_t pc = pc_;
  const isa::DecodedWord& word = plan_.decoded[pc];
  ++stats->bundles;
  ++stats->cycles;  // issue cycle
  if (word.kind == isa::DecodedWord::Kind::kBase) {
    ++stats->instructions;
    return ExecuteBase(word.base, stats, halted);
  }
  // FLIX bundle: all slots issue in the same cycle and share the LSU
  // ports; port contention across slots serializes beats.
  ExtContext ctx(this, 0);
  for (int i = 0; i < isa::kMaxFlixSlots; ++i) {
    const ExtOp* op = plan_.slot_ext_of[pc][static_cast<size_t>(i)];
    if (op == nullptr) continue;
    ++stats->instructions;
    ctx.operand_ = word.slots[static_cast<size_t>(i)].operand;
    DBA_RETURN_IF_ERROR(op->fn(ctx));
  }
  Charge(ctx, stats);
  pc_ = pc + 1;
  return Status::Ok();
}

Status Cpu::ExecuteBase(const Instruction& instr, ExecStats* stats,
                        bool* halted) {
  const uint32_t rs1 = reg(instr.rs1);
  const uint32_t rs2 = reg(instr.rs2);
  const auto imm = static_cast<uint32_t>(instr.imm);
  uint32_t next_pc = pc_ + 1;

  switch (instr.opcode) {
    case Opcode::kNop:
      break;
    case Opcode::kHalt:
      *halted = true;
      break;

    case Opcode::kAdd:
      set_reg(instr.rd, rs1 + rs2);
      break;
    case Opcode::kSub:
      set_reg(instr.rd, rs1 - rs2);
      break;
    case Opcode::kAnd:
      set_reg(instr.rd, rs1 & rs2);
      break;
    case Opcode::kOr:
      set_reg(instr.rd, rs1 | rs2);
      break;
    case Opcode::kXor:
      set_reg(instr.rd, rs1 ^ rs2);
      break;
    case Opcode::kSll:
      set_reg(instr.rd, rs1 << (rs2 & 31));
      break;
    case Opcode::kSrl:
      set_reg(instr.rd, rs1 >> (rs2 & 31));
      break;
    case Opcode::kSra:
      set_reg(instr.rd, static_cast<uint32_t>(static_cast<int32_t>(rs1) >>
                                              (rs2 & 31)));
      break;
    case Opcode::kSlt:
      set_reg(instr.rd, static_cast<int32_t>(rs1) < static_cast<int32_t>(rs2)
                            ? 1u
                            : 0u);
      break;
    case Opcode::kSltu:
      set_reg(instr.rd, rs1 < rs2 ? 1u : 0u);
      break;
    case Opcode::kMul:
      set_reg(instr.rd, rs1 * rs2);
      break;
    case Opcode::kMin:
      set_reg(instr.rd, rs1 < rs2 ? rs1 : rs2);
      break;
    case Opcode::kMax:
      set_reg(instr.rd, rs1 > rs2 ? rs1 : rs2);
      break;

    case Opcode::kAddi:
      set_reg(instr.rd, rs1 + imm);
      break;
    case Opcode::kAndi:
      set_reg(instr.rd, rs1 & imm);
      break;
    case Opcode::kOri:
      set_reg(instr.rd, rs1 | imm);
      break;
    case Opcode::kXori:
      set_reg(instr.rd, rs1 ^ imm);
      break;
    case Opcode::kSlli:
      set_reg(instr.rd, rs1 << (imm & 31));
      break;
    case Opcode::kSrli:
      set_reg(instr.rd, rs1 >> (imm & 31));
      break;
    case Opcode::kSrai:
      set_reg(instr.rd,
              static_cast<uint32_t>(static_cast<int32_t>(rs1) >> (imm & 31)));
      break;
    case Opcode::kSlti:
      set_reg(instr.rd,
              static_cast<int32_t>(rs1) < instr.imm ? 1u : 0u);
      break;
    case Opcode::kSltiu:
      set_reg(instr.rd, rs1 < imm ? 1u : 0u);
      break;

    case Opcode::kMovi:
      set_reg(instr.rd, imm);
      break;
    case Opcode::kLui:
      set_reg(instr.rd, static_cast<uint32_t>(instr.imm) << 12);
      break;

    case Opcode::kLw: {
      const uint32_t addr = rs1 + imm;
      DBA_ASSIGN_OR_RETURN(mem::Memory * memory, RouteData(addr, 4));
      DBA_ASSIGN_OR_RETURN(uint32_t value, memory->LoadU32(addr));
      set_reg(instr.rd, value);
      const uint32_t stall = memory->config().access_latency - 1;
      stats->load_stall_cycles += stall;
      stats->cycles += stall;
      break;
    }
    case Opcode::kSw: {
      const uint32_t addr = rs1 + imm;
      DBA_ASSIGN_OR_RETURN(mem::Memory * memory, RouteData(addr, 4));
      DBA_RETURN_IF_ERROR(memory->StoreU32(addr, rs2));
      const uint32_t stall = memory->config().access_latency - 1;
      stats->store_stall_cycles += stall;
      stats->cycles += stall;
      break;
    }

    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBltu:
    case Opcode::kBge:
    case Opcode::kBgeu: {
      bool taken = false;
      switch (instr.opcode) {
        case Opcode::kBeq:
          taken = rs1 == rs2;
          break;
        case Opcode::kBne:
          taken = rs1 != rs2;
          break;
        case Opcode::kBlt:
          taken = static_cast<int32_t>(rs1) < static_cast<int32_t>(rs2);
          break;
        case Opcode::kBltu:
          taken = rs1 < rs2;
          break;
        case Opcode::kBge:
          taken = static_cast<int32_t>(rs1) >= static_cast<int32_t>(rs2);
          break;
        case Opcode::kBgeu:
          taken = rs1 >= rs2;
          break;
        default:
          break;
      }
      // Static BTFN prediction: backward branches predicted taken,
      // forward branches predicted not-taken.
      const bool predicted_taken = instr.imm < 0;
      if (taken) {
        ++stats->taken_branches;
        next_pc = static_cast<uint32_t>(static_cast<int64_t>(pc_) + 1 +
                                        instr.imm);
      }
      if (taken != predicted_taken) {
        ++stats->mispredicted_branches;
        stats->branch_penalty_cycles += config_.branch_mispredict_penalty;
        stats->cycles += config_.branch_mispredict_penalty;
      }
      break;
    }
    case Opcode::kJ:
      next_pc =
          static_cast<uint32_t>(static_cast<int64_t>(pc_) + 1 + instr.imm);
      break;

    case Opcode::kTie: {
      ExtContext ctx(this, instr.operand);
      DBA_RETURN_IF_ERROR(plan_.ext_of[pc_]->fn(ctx));
      Charge(ctx, stats);
      break;
    }
  }

  if (!*halted) pc_ = next_pc;
  return Status::Ok();
}

Result<ExecStats> Cpu::Run(const RunOptions& options) {
  if (plan_.decoded.empty()) {
    return Status::FailedPrecondition("no program loaded");
  }
  SimRunCounter(options.mode)->Increment();
  // Profiles, trace lines and cycle-trace regions need per-word
  // bookkeeping, which only the reference loop keeps, and they are the
  // same in every mode; so such runs take the reference loop whatever
  // their mode.
  const bool bookkeeping = options.profile || options.trace_limit != 0 ||
                           options.trace_sink != nullptr;
  Result<ExecStats> result =
      options.mode == ExecMode::kInterpret || bookkeeping
          ? RunInterpret(options)
          : RunSuperblocks(options);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (result.ok()) {
    static obs::Counter* const cycles = registry.GetCounter(
        "dba_sim_run_cycles_total",
        "Simulated cycles accumulated by successful Cpu::Run calls.");
    cycles->Increment(result->cycles);
  } else {
    static obs::Counter* const failures = registry.GetCounter(
        "dba_sim_run_failures_total",
        "Cpu::Run calls that returned an error (watchdog, faults).");
    failures->Increment();
  }
  return result;
}

Result<ExecStats> Cpu::RunInterpret(const RunOptions& options) {
  ExecStats stats;
  if (options.profile) {
    stats.pc_counts.resize(plan_.decoded.size(), 0);
    stats.pc_cycles.resize(plan_.decoded.size());
  }

  CycleTraceSink* sink = options.trace_sink;
  auto sample_counters = [&stats, sink](uint64_t cycle) {
    sink->Counter(cycle, "stall/branch",
                  static_cast<double>(stats.branch_penalty_cycles));
    sink->Counter(cycle, "stall/load",
                  static_cast<double>(stats.load_stall_cycles));
    sink->Counter(cycle, "stall/store",
                  static_cast<double>(stats.store_stall_cycles));
    sink->Counter(cycle, "stall/port",
                  static_cast<double>(stats.port_stall_cycles));
    sink->Counter(cycle, "stall/ext",
                  static_cast<double>(stats.ext_extra_cycles));
    sink->Counter(cycle, "lsu0/beats",
                  static_cast<double>(stats.lsu_beats[0]));
    sink->Counter(cycle, "lsu1/beats",
                  static_cast<double>(stats.lsu_beats[1]));
  };
  const std::string* open_region = nullptr;  // label of the open region

  bool halted = false;
  while (!halted) {
    if (stats.cycles >= options.max_cycles) {
      return Status::DeadlineExceeded(
          "watchdog: exceeded " + std::to_string(options.max_cycles) +
          " cycles at pc " + std::to_string(pc_));
    }
    if (pc_ >= plan_.decoded.size()) {
      return Status::Internal("pc " + std::to_string(pc_) +
                              " outside the program (missing halt?)");
    }
    const uint32_t issue_pc = pc_;
    const isa::DecodedWord& word = plan_.decoded[pc_];
    if (options.profile) ++stats.pc_counts[pc_];
    if (sink != nullptr) {
      const std::string& label = plan_.pc_labels[issue_pc];
      if (open_region == nullptr || label != *open_region) {
        if (open_region != nullptr) {
          sink->EndRegion(stats.cycles);
          sample_counters(stats.cycles);
        }
        sink->BeginRegion(stats.cycles,
                          label.empty() ? std::string_view("(entry)")
                                        : std::string_view(label));
        open_region = &label;
      }
    }
    if (stats.trace.size() < options.trace_limit) {
      char head[32];
      std::snprintf(head, sizeof head, "%8llu %4u: ",
                    static_cast<unsigned long long>(stats.cycles), pc_);
      stats.trace.push_back(
          head + isa::DisassembleWord(word, MakeExtNameResolver()));
    }

    // Snapshot the stall counters so the deltas of this word can be
    // attributed to its pc (and through it, to its enclosing label).
    PcCycleBreakdown before;
    if (options.profile) {
      before.branch_penalty_cycles = stats.branch_penalty_cycles;
      before.load_stall_cycles = stats.load_stall_cycles;
      before.store_stall_cycles = stats.store_stall_cycles;
      before.port_stall_cycles = stats.port_stall_cycles;
      before.ext_extra_cycles = stats.ext_extra_cycles;
      before.lsu_beats[0] = stats.lsu_beats[0];
      before.lsu_beats[1] = stats.lsu_beats[1];
      if (word.kind == isa::DecodedWord::Kind::kFlix) {
        for (const ExtOp* op : plan_.slot_ext_of[issue_pc]) {
          if (op != nullptr) ++stats.mnemonic_counts[op->name];
        }
      } else if (word.base.opcode == Opcode::kTie) {
        ++stats.mnemonic_counts[plan_.ext_of[issue_pc]->name];
      } else {
        ++stats.mnemonic_counts[std::string(
            isa::OpcodeName(word.base.opcode))];
      }
    }

    DBA_RETURN_IF_ERROR(Step(&stats, &halted));

    if (options.profile) {
      PcCycleBreakdown& slot = stats.pc_cycles[issue_pc];
      slot.issue_cycles += 1;
      slot.branch_penalty_cycles +=
          stats.branch_penalty_cycles - before.branch_penalty_cycles;
      slot.load_stall_cycles +=
          stats.load_stall_cycles - before.load_stall_cycles;
      slot.store_stall_cycles +=
          stats.store_stall_cycles - before.store_stall_cycles;
      slot.port_stall_cycles +=
          stats.port_stall_cycles - before.port_stall_cycles;
      slot.ext_extra_cycles +=
          stats.ext_extra_cycles - before.ext_extra_cycles;
      slot.lsu_beats[0] += stats.lsu_beats[0] - before.lsu_beats[0];
      slot.lsu_beats[1] += stats.lsu_beats[1] - before.lsu_beats[1];
    }
  }

  if (sink != nullptr && open_region != nullptr) {
    sink->EndRegion(stats.cycles);
    sample_counters(stats.cycles);
  }
  return stats;
}

Result<ExecStats> Cpu::RunSuperblocks(const RunOptions& options) {
  ExecStats stats;
  const bool exact = options.mode != ExecMode::kTurbo;
  bool halted = false;
  while (!halted) {
    if (stats.cycles >= options.max_cycles) {
      return Status::DeadlineExceeded(
          "watchdog: exceeded " + std::to_string(options.max_cycles) +
          " cycles at pc " + std::to_string(pc_));
    }
    if (pc_ >= plan_.decoded.size()) {
      return Status::Internal("pc " + std::to_string(pc_) +
                              " outside the program (missing halt?)");
    }
    SuperBlock& block = plan_.blocks[plan_.block_of[pc_]];
    if (loop_accel_ != nullptr && block.tie_loop && pc_ == block.head &&
        block.accel_state != 2) {
      const TieLoop loop{block.head,
                         std::span<const isa::Instruction>(block.tie_body),
                         block.tie_branch};
      if (block.accel_state == 0) {
        block.accel_state =
            loop_accel_->MatchesTieLoop(loop) ? uint8_t{1} : uint8_t{2};
      }
      if (block.accel_state == 1 &&
          loop_accel_->RunTieLoop(loop, *this, exact, options.max_cycles,
                                  &stats)) {
        continue;
      }
    }
    // Straight-line execution of one superblock. A taken backward
    // branch to `head` (the steady-state case) stays inside this loop;
    // any other control transfer, and the watchdog, exit to the block
    // dispatcher above.
    const uint32_t head = block.head;
    const uint32_t end = head + block.len;
    do {
      DBA_RETURN_IF_ERROR(Step(&stats, &halted));
    } while (!halted && pc_ >= head && pc_ < end &&
             stats.cycles < options.max_cycles);
  }
  return stats;
}

}  // namespace dba::sim
