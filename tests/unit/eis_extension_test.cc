// Per-instruction unit tests of the EIS datapath, driving single TIE
// operations on a two-LSU core (the paper's per-instruction unit tests,
// Section 3.1).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/processor.h"
#include "core/workload.h"
#include "dbkern/eis_kernels.h"
#include "eis/eis_extension.h"
#include "isa/assembler.h"
#include "isa/registers.h"
#include "mem/memory.h"
#include "shared/kernel_grid.h"
#include "sim/cpu.h"

namespace dba::eis {
namespace {

using isa::Assembler;
using isa::Reg;

constexpr uint64_t kMemABase = 0x1000;
constexpr uint64_t kMemBBase = 0x2000;
constexpr uint64_t kMemCBase = 0x3000;

class EisExtensionTest : public ::testing::Test {
 protected:
  EisExtensionTest()
      : mem_a_(*mem::Memory::Create(
            {.name = "a", .base = kMemABase, .size = 1024,
             .access_latency = 1})),
        mem_b_(*mem::Memory::Create(
            {.name = "b", .base = kMemBBase, .size = 1024,
             .access_latency = 1})),
        mem_c_(*mem::Memory::Create(
            {.name = "c", .base = kMemCBase, .size = 1024,
             .access_latency = 1})),
        cpu_(MakeConfig()) {
    EXPECT_TRUE(cpu_.AttachMemory(&mem_a_).ok());
    EXPECT_TRUE(cpu_.AttachMemory(&mem_b_).ok());
    EXPECT_TRUE(cpu_.AttachMemory(&mem_c_).ok());
    EXPECT_TRUE(ext_.Attach(&cpu_).ok());
  }

  static sim::CoreConfig MakeConfig() {
    sim::CoreConfig config;
    config.num_lsus = 2;
    config.data_bus_bits = 128;
    config.instruction_bus_bits = 64;
    return config;
  }

  /// Runs a program that INITs with the given sets, then executes `ops`.
  Result<sim::ExecStats> RunOps(
      std::vector<uint32_t> a, std::vector<uint32_t> b, SopMode mode,
      bool partial, const std::vector<std::pair<uint16_t, uint16_t>>& ops) {
    EXPECT_TRUE(mem_a_.WriteBlock(kMemABase, a).ok());
    EXPECT_TRUE(mem_b_.WriteBlock(kMemBBase, b).ok());
    Assembler masm;
    masm.Tie(op::kInit, MakeInitOperand(mode, partial));
    for (const auto& [ext_id, operand] : ops) masm.Tie(ext_id, operand);
    masm.Halt();
    auto program = masm.Finish();
    if (!program.ok()) return program.status();
    program_ = *std::move(program);
    cpu_.ResetArchState();
    cpu_.set_reg(isa::abi::kPtrA, kMemABase);
    cpu_.set_reg(isa::abi::kPtrB, kMemBBase);
    cpu_.set_reg(isa::abi::kLenA, static_cast<uint32_t>(a.size()));
    cpu_.set_reg(isa::abi::kLenB, static_cast<uint32_t>(b.size()));
    cpu_.set_reg(isa::abi::kPtrC, kMemCBase);
    DBA_RETURN_IF_ERROR(cpu_.LoadProgram(program_));
    return cpu_.Run();
  }

  mem::Memory mem_a_;
  mem::Memory mem_b_;
  mem::Memory mem_c_;
  sim::Cpu cpu_;
  EisExtension ext_;
  isa::Program program_;
};

TEST_F(EisExtensionTest, InitLoadsStatesFromAbiRegisters) {
  auto stats = RunOps({1, 2, 3, 4}, {5, 6}, SopMode::kIntersect, true, {});
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(ext_.mode(), SopMode::kIntersect);
  EXPECT_TRUE(ext_.partial_loading());
  EXPECT_TRUE(ext_.active_flag());
  EXPECT_EQ(ext_.result_count(), 0u);
}

TEST_F(EisExtensionTest, InitRejectsUnalignedPointers) {
  Assembler masm;
  masm.Tie(op::kInit, 0);
  masm.Halt();
  auto program = masm.Finish();
  ASSERT_TRUE(program.ok());
  program_ = *std::move(program);
  cpu_.ResetArchState();
  cpu_.set_reg(isa::abi::kPtrA, kMemABase + 4);  // not 16-byte aligned
  cpu_.set_reg(isa::abi::kLenA, 8);              // stream is live
  ASSERT_TRUE(cpu_.LoadProgram(program_).ok());
  EXPECT_EQ(cpu_.Run().status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EisExtensionTest, LdFillsLoadStates) {
  auto stats = RunOps({1, 2, 3, 4, 5, 6}, {}, SopMode::kIntersect, true,
                      {{op::kLd0, 0}});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(ext_.load_fifo_a_size(), 4);
  EXPECT_EQ(ext_.counters().load_beats, 1u);
  EXPECT_EQ(stats->lsu_beats[0], 1u);
  EXPECT_EQ(stats->lsu_beats[1], 0u);
}

TEST_F(EisExtensionTest, LdUsesLsu1ForSetB) {
  auto stats = RunOps({}, {1, 2, 3, 4}, SopMode::kIntersect, true,
                      {{op::kLd1, 0}});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(ext_.load_fifo_b_size(), 4);
  EXPECT_EQ(stats->lsu_beats[1], 1u);
}

TEST_F(EisExtensionTest, LdShortTail) {
  auto stats =
      RunOps({9, 10}, {}, SopMode::kIntersect, true, {{op::kLd0, 0}});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(ext_.load_fifo_a_size(), 2);
}

TEST_F(EisExtensionTest, RedundantLdSpendsBeatButKeepsData) {
  // Three LDs on a 12-element stream: Load states hold 8 (two beats),
  // the third beat is a redundant prefetch.
  std::vector<uint32_t> a(12);
  for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<uint32_t>(i);
  auto stats = RunOps(a, {}, SopMode::kIntersect, true,
                      {{op::kLd0, 0}, {op::kLd0, 0}, {op::kLd0, 0}});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(ext_.load_fifo_a_size(), 8);
  EXPECT_EQ(ext_.counters().load_beats, 3u);
  EXPECT_EQ(stats->lsu_beats[0], 3u);
}

TEST_F(EisExtensionTest, LdPPartialToppingUp) {
  // Partial loading keeps the Word states full (Table 1: "it is ensured
  // that after each operation all Word states are fully filled").
  auto stats = RunOps({1, 2, 3, 4, 5, 6, 7, 8}, {}, SopMode::kIntersect,
                      /*partial=*/true,
                      {{op::kLd0, 0}, {op::kLdP0, 0}, {op::kLd0, 0},
                       {op::kLdP0, 0}});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(ext_.word_a().count, 4);
  EXPECT_EQ(ext_.word_a().lanes[0], 1u);
  EXPECT_EQ(ext_.load_fifo_a_size(), 4);
}

TEST_F(EisExtensionTest, LdPNonPartialWaitsForEmptyWindow) {
  // Fill the window, consume one element via SOP against a drained B,
  // then try to reload: without partial loading the ragged window is
  // not refilled.
  auto stats = RunOps({1, 2, 3, 4, 5, 6, 7, 8}, {1}, SopMode::kIntersect,
                      /*partial=*/false,
                      {{op::kLd0, 0},
                       {op::kLd1, 0},
                       {op::kLdP0, 0},
                       {op::kLdP1, 0},
                       {op::kSop, 0},
                       {op::kLd0, 0},
                       {op::kLdP0, 0}});
  ASSERT_TRUE(stats.ok());
  // SOP consumed a=1 (match) and left 2,3,4: window stays ragged.
  EXPECT_EQ(ext_.word_a().count, 3);
  EXPECT_EQ(ext_.word_a().lanes[0], 2u);
}

TEST_F(EisExtensionTest, SopPushesResultFifoAndUpdatesFlag) {
  auto stats = RunOps({1, 2, 3, 4}, {2, 4, 6, 8}, SopMode::kIntersect, true,
                      {{op::kLd0, 0},
                       {op::kLd1, 0},
                       {op::kLdP0, 0},
                       {op::kLdP1, 0},
                       {op::kSop, 0}});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(ext_.result_fifo_size(), 2);  // 2 and 4
  EXPECT_EQ(ext_.counters().sop_executions, 1u);
  EXPECT_EQ(ext_.counters().matches, 2u);
  // A fully consumed and stream empty -> intersection can stop.
  EXPECT_FALSE(ext_.active_flag());
}

TEST_F(EisExtensionTest, StSNeedsFourResults) {
  // Only 2 results in the FIFO: the shuffle does not move them yet.
  auto stats = RunOps({1, 2, 3, 4}, {2, 4, 6, 8}, SopMode::kIntersect, true,
                      {{op::kLd0, 0},
                       {op::kLd1, 0},
                       {op::kLdP0, 0},
                       {op::kLdP1, 0},
                       {op::kSop, 0},
                       {op::kStS, 0}});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(ext_.store_buffer_size(), 0);
  EXPECT_EQ(ext_.result_fifo_size(), 2);
}

TEST_F(EisExtensionTest, StDelayedUntilFourElements) {
  // Table 1: "The store instruction is delayed in the case of three or
  // less available elements."
  auto stats = RunOps({1, 2, 3, 4}, {2, 4, 6, 8}, SopMode::kIntersect, true,
                      {{op::kLd0, 0},
                       {op::kLd1, 0},
                       {op::kLdP0, 0},
                       {op::kLdP1, 0},
                       {op::kSop, 0},
                       {op::kStS, 0},
                       {op::kSt, 0}});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(ext_.result_count(), 0u);
  EXPECT_EQ(ext_.counters().store_beats, 0u);
}

TEST_F(EisExtensionTest, StWritesFullPackThroughLsu1) {
  auto stats = RunOps({1, 2, 3, 4}, {1, 2, 3, 4}, SopMode::kIntersect, true,
                      {{op::kLd0, 0},
                       {op::kLd1, 0},
                       {op::kLdP0, 0},
                       {op::kLdP1, 0},
                       {op::kSop, 0},
                       {op::kStS, 0},
                       {op::kSt, 0}});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(ext_.result_count(), 4u);
  EXPECT_EQ(*mem_c_.ReadBlock(kMemCBase, 4),
            (std::vector<uint32_t>{1, 2, 3, 4}));
  EXPECT_EQ(ext_.counters().store_beats, 1u);
}

TEST_F(EisExtensionTest, FlushDrainsPartialPackAndWritesCount) {
  auto stats = RunOps({1, 2, 3, 4}, {2, 4, 6, 8}, SopMode::kIntersect, true,
                      {{op::kLd0, 0},
                       {op::kLd1, 0},
                       {op::kLdP0, 0},
                       {op::kLdP1, 0},
                       {op::kSop, 0},
                       {op::kFlush, 0}});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(ext_.result_count(), 2u);
  EXPECT_EQ(cpu_.reg(isa::abi::kLenC), 2u);
  EXPECT_EQ(*mem_c_.ReadBlock(kMemCBase, 2), (std::vector<uint32_t>{2, 4}));
}

TEST_F(EisExtensionTest, FusedStoreSopWritesFlagRegister) {
  auto stats = RunOps({1, 2, 3, 4}, {9, 10, 11, 12}, SopMode::kIntersect,
                      true,
                      {{op::kLdLdpShuffle, 0}, {op::kStoreSop, 6}});
  ASSERT_TRUE(stats.ok());
  // A's window was consumed but its stream is done; B still has data:
  // intersection requires both -> flag 0.
  EXPECT_EQ(cpu_.reg(Reg::a6), 0u);
}

TEST_F(EisExtensionTest, FusedLdLdpShuffleLoadsBothSidesInOneCycle) {
  auto stats = RunOps({1, 2, 3, 4}, {5, 6, 7, 8}, SopMode::kIntersect, true,
                      {{op::kLdLdpShuffle, 0}});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(ext_.word_a().count, 4);
  EXPECT_EQ(ext_.word_b().count, 4);
  // Two beats on different LSUs: no port stall.
  EXPECT_EQ(stats->port_stall_cycles, 0u);
  EXPECT_EQ(stats->lsu_beats[0], 1u);
  EXPECT_EQ(stats->lsu_beats[1], 1u);
}

TEST_F(EisExtensionTest, SortBeatSortsAndStores) {
  auto stats = RunOps({4, 1, 3, 2, 8, 7, 6, 5}, {}, SopMode::kMerge, true,
                      {{op::kSortBeat, 6}, {op::kSortBeat, 6}});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(*mem_c_.ReadBlock(kMemCBase, 8),
            (std::vector<uint32_t>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(cpu_.reg(Reg::a6), 0u);  // stream exhausted
  // In merge mode both beats go through LSU0: load + store serialize.
  EXPECT_GT(stats->port_stall_cycles, 0u);
}

TEST_F(EisExtensionTest, SortBeatPadsTailWithMax) {
  auto stats = RunOps({30, 10}, {}, SopMode::kMerge, true,
                      {{op::kSortBeat, 6}});
  ASSERT_TRUE(stats.ok());
  auto out = *mem_c_.ReadBlock(kMemCBase, 4);
  EXPECT_EQ(out[0], 10u);
  EXPECT_EQ(out[1], 30u);
  EXPECT_EQ(out[2], 0xFFFFFFFFu);  // padding sinks to the run tail
  EXPECT_EQ(ext_.result_count(), 2u);
}

TEST_F(EisExtensionTest, InitResetsDatapathButKeepsCounters) {
  auto stats = RunOps({1, 2, 3, 4}, {1, 2, 3, 4}, SopMode::kIntersect, true,
                      {{op::kLdLdpShuffle, 0},
                       {op::kStoreSop, 6},
                       {op::kInit, MakeInitOperand(SopMode::kUnion, false)}});
  ASSERT_TRUE(stats.ok());
  // Counters aggregate across INITs within one run (the sort kernel
  // INITs once per merge pair)...
  EXPECT_EQ(ext_.counters().sop_executions, 1u);
  // ...while the datapath and configuration states are re-initialized.
  EXPECT_EQ(ext_.result_fifo_size(), 0);
  EXPECT_EQ(ext_.word_a().count, 0);
  EXPECT_EQ(ext_.mode(), SopMode::kUnion);
  EXPECT_FALSE(ext_.partial_loading());
}

TEST_F(EisExtensionTest, ResetStateClearsCounters) {
  auto stats = RunOps({1, 2, 3, 4}, {1, 2, 3, 4}, SopMode::kIntersect, true,
                      {{op::kLdLdpShuffle, 0}, {op::kStoreSop, 6}});
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(ext_.counters().sop_executions, 0u);
  ext_.ResetState();
  EXPECT_EQ(ext_.counters().sop_executions, 0u);
}

TEST_F(EisExtensionTest, FlushWithFullStoreStatesAndPendingResults) {
  // Regression (found by the datapath fuzzer): FLUSH with the Store
  // states already holding a full pack AND more results waiting in the
  // FIFO must drain both, in order. Union of disjoint windows produces
  // 4 results per SOP; two SOPs + one ST_S leave Store full and the
  // FIFO nonempty.
  auto stats = RunOps({1, 2, 3, 4, 9, 10, 11, 12}, {5, 6, 7, 8},
                      SopMode::kUnion, true,
                      {{op::kLd0, 0},
                       {op::kLd1, 0},
                       {op::kLdP0, 0},
                       {op::kLdP1, 0},
                       {op::kSop, 0},
                       {op::kLd0, 0},
                       {op::kLdP0, 0},
                       {op::kSop, 0},
                       {op::kStS, 0},
                       {op::kSop, 0},
                       {op::kFlush, 0}});
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(ext_.result_count(), 12u);
  EXPECT_EQ(*mem_c_.ReadBlock(kMemCBase, 12),
            (std::vector<uint32_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}));
}

using test::TieLoops;

struct EngineCounts {
  uint64_t setop = TieLoops("setop_stepper");
  uint64_t merge = TieLoops("merge_stepper");
  uint64_t per_word = TieLoops("per_word");
};

// --- Stepper hand-backs ---
//
// The exact stepper hands a loop back to the per-word path at the word
// boundary before a fault or the watchdog. Driving the Figure 11 and
// Figure 12 loops into both must leave the interpreter's status, faulting
// pc, datapath counters and result region in every execution mode. A loop
// the stepper declines runs on the per-word path from its first word, and
// must leave the same.

struct LoopRun {
  std::string status;
  uint32_t pc = 0;
  EisCounters counters;
  std::vector<uint32_t> result;
};

std::vector<uint32_t> Ascending(uint32_t n, uint32_t start, uint32_t step) {
  std::vector<uint32_t> values(n);
  for (uint32_t i = 0; i < n; ++i) values[i] = start + i * step;
  return values;
}

class EisStepperHandBackTest : public EisExtensionTest {
 protected:
  /// Runs `program` over `a` and `b` (with stream A declared `len_a`
  /// elements long) in `exec` mode, with the loop accelerator attached.
  LoopRun Run(const isa::Program& program, const std::vector<uint32_t>& a,
              const std::vector<uint32_t>& b, uint32_t len_a,
              sim::ExecMode exec, uint64_t max_cycles) {
    cpu_.SetLoopAccelerator(&ext_);
    std::fill(mem_c_.mutable_raw().begin(), mem_c_.mutable_raw().end(), 0);
    EXPECT_TRUE(mem_a_.WriteBlock(kMemABase, a).ok());
    EXPECT_TRUE(mem_b_.WriteBlock(kMemBBase, b).ok());
    cpu_.ResetArchState();
    ext_.ResetState();
    cpu_.set_reg(isa::abi::kPtrA, kMemABase);
    cpu_.set_reg(isa::abi::kPtrB, kMemBBase);
    cpu_.set_reg(isa::abi::kLenA, len_a);
    cpu_.set_reg(isa::abi::kLenB, static_cast<uint32_t>(b.size()));
    cpu_.set_reg(isa::abi::kPtrC, kMemCBase);
    EXPECT_TRUE(cpu_.LoadProgram(program).ok());
    sim::RunOptions options;
    options.mode = exec;
    options.max_cycles = max_cycles;
    LoopRun run;
    run.status = cpu_.Run(options).status().ToString();
    run.pc = cpu_.pc();
    run.counters = ext_.counters();
    run.result = *mem_c_.ReadBlock(kMemCBase, 256);
    return run;
  }

  void ExpectSameAsInterpret(const isa::Program& program,
                             const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b, uint32_t len_a,
                             uint64_t max_cycles = 1ull << 36) {
    const LoopRun want =
        Run(program, a, b, len_a, sim::ExecMode::kInterpret, max_cycles);
    EXPECT_NE(want.status, Status::Ok().ToString());
    for (const sim::ExecMode exec :
         {sim::ExecMode::kFastForward, sim::ExecMode::kTurbo}) {
      SCOPED_TRACE(std::string(sim::ExecModeName(exec)));
      const uint64_t stepped = TieLoops("setop_stepper") +
                               TieLoops("merge_stepper");
      const LoopRun got = Run(program, a, b, len_a, exec, max_cycles);
      // The stepper took the loop before handing it back.
      EXPECT_GT(TieLoops("setop_stepper") + TieLoops("merge_stepper"),
                stepped);
      EXPECT_EQ(got.status, want.status);
      EXPECT_EQ(got.pc, want.pc);
      test::ExpectCountersIdentical(got.counters, want.counters);
      EXPECT_EQ(got.result, want.result);
    }
  }
};

TEST_F(EisStepperHandBackTest, MergePackPastResultRegionEnd) {
  // 400 merged elements into a 256-word result region.
  auto program = dbkern::BuildEisMergePair();
  ASSERT_TRUE(program.ok());
  ExpectSameAsInterpret(*program, Ascending(200, 1, 3), Ascending(200, 2, 3),
                        200);
}

TEST_F(EisStepperHandBackTest, MergeBeatPastInputRegionEnd) {
  // Stream A claims 300 elements; its 256-word region ends before the
  // results fill theirs.
  auto program = dbkern::BuildEisMergePair();
  ASSERT_TRUE(program.ok());
  ExpectSameAsInterpret(*program, Ascending(256, 1, 2), Ascending(4, 2, 2),
                        300);
}

TEST_F(EisStepperHandBackTest, UnionPackPastResultRegionEnd) {
  auto program = dbkern::BuildEisSetOp(SopMode::kUnion, true, 4);
  ASSERT_TRUE(program.ok());
  ExpectSameAsInterpret(*program, Ascending(200, 1, 2), Ascending(200, 2, 2),
                        200);
}

TEST_F(EisStepperHandBackTest, MergeWatchdogMidLoop) {
  auto program = dbkern::BuildEisMergePair();
  ASSERT_TRUE(program.ok());
  // The deadline falls past the stepper's whole-iteration margin, so
  // the stepper runs first and hands the last iterations back.
  ExpectSameAsInterpret(*program, Ascending(150, 1, 3), Ascending(100, 2, 3),
                        150, /*max_cycles=*/180);
}

TEST_F(EisStepperHandBackTest, SortWatchdogInPresortLoop) {
  // The stepper declines the presort SORT_BEAT loop, so the per-word
  // path runs it from its first word and must report a deadline inside
  // it exactly as the interpreter does. Each iteration costs a few
  // cycles, so the sweep puts the deadline on both of its words, from
  // the first iteration to about a dozen in.
  auto program = dbkern::BuildEisMergeSort();
  ASSERT_TRUE(program.ok());
  uint32_t presort = 0;
  for (const auto& [name, pc] : program->labels()) {
    if (name == "presort_loop") presort = pc;
  }
  ASSERT_NE(presort, 0u);
  const std::vector<uint32_t> values = GenerateSortInput(200, 7);
  for (uint64_t max_cycles = 6; max_cycles <= 40; ++max_cycles) {
    SCOPED_TRACE("max_cycles " + std::to_string(max_cycles));
    const LoopRun want = Run(*program, values, {}, 200,
                             sim::ExecMode::kInterpret, max_cycles);
    EXPECT_NE(want.status.find("watchdog"), std::string::npos) << want.status;
    EXPECT_TRUE(want.pc == presort || want.pc == presort + 1) << want.pc;
    for (const sim::ExecMode exec :
         {sim::ExecMode::kFastForward, sim::ExecMode::kTurbo}) {
      SCOPED_TRACE(std::string(sim::ExecModeName(exec)));
      const EngineCounts before;
      const LoopRun got = Run(*program, values, {}, 200, exec, max_cycles);
      const EngineCounts after;
      EXPECT_EQ(after.per_word - before.per_word, 1u);
      EXPECT_EQ(after.setop - before.setop, 0u);
      EXPECT_EQ(after.merge - before.merge, 0u);
      EXPECT_EQ(got.status, want.status);
      EXPECT_EQ(got.pc, want.pc);
      test::ExpectCountersIdentical(got.counters, want.counters);
      EXPECT_EQ(got.result, want.result);
    }
  }
}

TEST_F(EisExtensionTest, EisRequiresWideBus) {
  // On a 32-bit data bus (108Mini-like) the extension's beats fail.
  sim::CoreConfig narrow;
  narrow.instruction_bus_bits = 64;
  narrow.data_bus_bits = 32;
  sim::Cpu cpu(narrow);
  ASSERT_TRUE(cpu.AttachMemory(&mem_a_).ok());
  EisExtension ext;
  ASSERT_TRUE(ext.Attach(&cpu).ok());
  Assembler masm;
  masm.Tie(op::kInit, 0);
  masm.Tie(op::kLd0, 0);
  masm.Halt();
  auto program = masm.Finish();
  ASSERT_TRUE(program.ok());
  program_ = *std::move(program);
  cpu.set_reg(isa::abi::kPtrA, kMemABase);
  cpu.set_reg(isa::abi::kLenA, 4);
  ASSERT_TRUE(cpu.LoadProgram(program_).ok());
  EXPECT_EQ(cpu.Run().status().code(), StatusCode::kFailedPrecondition);
}

// --- Which engine runs each TIE loop ---
//
// Every modeled number is the same whichever engine runs a loop, so the
// dba_eis_tie_loops_total{engine} counter is the only place a stepper
// that quietly declined would show.

/// Merge pairs of an n-element sort: runs of 4 from the presort loop,
/// then one pass per doubling of the run length while a run is shorter
/// than the input.
uint64_t SortMergePairs(uint64_t n) {
  uint64_t pairs = 0;
  for (uint64_t run = 4; run < n; run *= 2) {
    pairs += (n + 2 * run - 1) / (2 * run);
  }
  return pairs;
}

TEST(EisLoopEngineTest, MergeAndSortCoreLoopsRunOnTheStepper) {
  for (const ProcessorKind kind :
       {ProcessorKind::kDba1LsuEis, ProcessorKind::kDba2LsuEis}) {
    auto processor = Processor::Create(kind);
    ASSERT_TRUE(processor.ok());
    for (const sim::ExecMode mode :
         {sim::ExecMode::kFastForward, sim::ExecMode::kTurbo}) {
      SCOPED_TRACE(std::string(hwmodel::ConfigKindName(kind)) + "/" +
                   std::string(sim::ExecModeName(mode)));
      RunSettings settings;
      settings.sim_mode = mode;

      // Sides that end in a short tail beat, down to one that is a
      // single tail beat when the loop starts.
      for (const auto& [na, nb] :
           {std::pair{3001u, 2000u}, std::pair{3u, 2000u},
            std::pair{2000u, 1u}}) {
        auto pair = GenerateSetPair(na, nb, 0.5, 5);
        ASSERT_TRUE(pair.ok());
        EngineCounts before;
        ASSERT_TRUE((*processor)->RunMerge(pair->a, pair->b, settings).ok());
        ASSERT_TRUE((*processor)
                        ->RunSetOperation(SetOp::kUnion, pair->a, pair->b,
                                          settings)
                        .ok());
        EngineCounts after;
        EXPECT_EQ(after.merge - before.merge, 1u) << na << "x" << nb;
        EXPECT_EQ(after.setop - before.setop, 1u) << na << "x" << nb;
        EXPECT_EQ(after.per_word - before.per_word, 0u) << na << "x" << nb;
      }

      // A sort's presort SORT_BEAT loop is its only per-word loop; every
      // pair of every merge pass runs on the stepper, tail runs included,
      // up to capacity.
      for (const uint32_t n :
           {3000u, 3001u, 4003u, (*processor)->max_sort_elements()}) {
        const std::vector<uint32_t> values = GenerateSortInput(n, n);
        const EngineCounts before;
        ASSERT_TRUE((*processor)->RunSort(values, settings).ok());
        const EngineCounts after;
        EXPECT_EQ(after.merge - before.merge, SortMergePairs(n)) << n;
        EXPECT_EQ(after.setop - before.setop, 0u) << n;
        EXPECT_EQ(after.per_word - before.per_word, 1u) << n;
      }
    }
  }
}

}  // namespace
}  // namespace dba::eis
