#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "isa/assembler.h"
#include "mem/memory.h"
#include "obs/metrics/metrics.h"
#include "sim/cpu.h"

namespace dba::sim {
namespace {

using isa::Assembler;
using isa::Label;
using isa::Reg;

constexpr uint64_t kMemBase = 0x1000;

struct Harness {
  explicit Harness(CoreConfig config = {}, uint32_t mem_latency = 1)
      : memory(*mem::Memory::Create({.name = "m",
                                     .base = kMemBase,
                                     .size = 4096,
                                     .access_latency = mem_latency})),
        cpu(std::move(config)) {
    EXPECT_TRUE(cpu.AttachMemory(&memory).ok());
  }

  Result<ExecStats> Run(Assembler& masm, const RunOptions& options = {}) {
    auto program = masm.Finish();
    if (!program.ok()) return program.status();
    program_storage = *std::move(program);
    DBA_RETURN_IF_ERROR(cpu.LoadProgram(program_storage));
    return cpu.Run(options);
  }

  mem::Memory memory;
  Cpu cpu;
  isa::Program program_storage;
};

TEST(CpuTest, AluSemantics) {
  Harness h;
  Assembler masm;
  masm.Movi(Reg::a1, 100);
  masm.Movi(Reg::a2, -7);
  masm.Add(Reg::a3, Reg::a1, Reg::a2);    // 93
  masm.Sub(Reg::a4, Reg::a1, Reg::a2);    // 107
  masm.And(Reg::a5, Reg::a1, Reg::a2);    // 100 & 0xFFFFFFF9
  masm.Or(Reg::a6, Reg::a1, Reg::a2);
  masm.Xor(Reg::a7, Reg::a1, Reg::a2);
  masm.Mul(Reg::a8, Reg::a1, Reg::a1);    // 10000
  masm.Min(Reg::a9, Reg::a1, Reg::a2);    // unsigned: 100
  masm.Max(Reg::a10, Reg::a1, Reg::a2);   // unsigned: 0xFFFFFFF9
  masm.Slt(Reg::a11, Reg::a2, Reg::a1);   // signed: -7 < 100 -> 1
  masm.Sltu(Reg::a12, Reg::a2, Reg::a1);  // unsigned: big < 100 -> 0
  masm.Halt();
  ASSERT_TRUE(h.Run(masm).ok());
  EXPECT_EQ(h.cpu.reg(Reg::a3), 93u);
  EXPECT_EQ(h.cpu.reg(Reg::a4), 107u);
  EXPECT_EQ(h.cpu.reg(Reg::a5), 100u & 0xFFFFFFF9u);
  EXPECT_EQ(h.cpu.reg(Reg::a6), 100u | 0xFFFFFFF9u);
  EXPECT_EQ(h.cpu.reg(Reg::a7), 100u ^ 0xFFFFFFF9u);
  EXPECT_EQ(h.cpu.reg(Reg::a8), 10000u);
  EXPECT_EQ(h.cpu.reg(Reg::a9), 100u);
  EXPECT_EQ(h.cpu.reg(Reg::a10), 0xFFFFFFF9u);
  EXPECT_EQ(h.cpu.reg(Reg::a11), 1u);
  EXPECT_EQ(h.cpu.reg(Reg::a12), 0u);
}

TEST(CpuTest, ShiftSemantics) {
  Harness h;
  Assembler masm;
  masm.Movi(Reg::a1, -16);  // 0xFFFFFFF0
  masm.Movi(Reg::a2, 2);
  masm.Sll(Reg::a3, Reg::a1, Reg::a2);   // 0xFFFFFFC0
  masm.Srl(Reg::a4, Reg::a1, Reg::a2);   // 0x3FFFFFFC
  masm.Sra(Reg::a5, Reg::a1, Reg::a2);   // 0xFFFFFFFC
  masm.Slli(Reg::a6, Reg::a1, 4);
  masm.Srli(Reg::a7, Reg::a1, 28);
  masm.Srai(Reg::a8, Reg::a1, 31);
  masm.Halt();
  ASSERT_TRUE(h.Run(masm).ok());
  EXPECT_EQ(h.cpu.reg(Reg::a3), 0xFFFFFFC0u);
  EXPECT_EQ(h.cpu.reg(Reg::a4), 0x3FFFFFFCu);
  EXPECT_EQ(h.cpu.reg(Reg::a5), 0xFFFFFFFCu);
  EXPECT_EQ(h.cpu.reg(Reg::a6), 0xFFFFFF00u);
  EXPECT_EQ(h.cpu.reg(Reg::a7), 0xFu);
  EXPECT_EQ(h.cpu.reg(Reg::a8), 0xFFFFFFFFu);
}

TEST(CpuTest, LoadImm32Pseudo) {
  Harness h;
  Assembler masm;
  masm.LoadImm32(Reg::a1, 0xDEADBEEF);
  masm.LoadImm32(Reg::a2, 0x00000800);  // exercises the +0x800 carry
  masm.LoadImm32(Reg::a3, 5);
  masm.LoadImm32(Reg::a4, 0xFFFFF800);
  masm.Halt();
  ASSERT_TRUE(h.Run(masm).ok());
  EXPECT_EQ(h.cpu.reg(Reg::a1), 0xDEADBEEFu);
  EXPECT_EQ(h.cpu.reg(Reg::a2), 0x800u);
  EXPECT_EQ(h.cpu.reg(Reg::a3), 5u);
  EXPECT_EQ(h.cpu.reg(Reg::a4), 0xFFFFF800u);
}

TEST(CpuTest, LoadStore) {
  Harness h;
  Assembler masm;
  masm.LoadImm32(Reg::a1, kMemBase);
  masm.Movi(Reg::a2, 1234);
  masm.Sw(Reg::a2, Reg::a1, 16);
  masm.Lw(Reg::a3, Reg::a1, 16);
  masm.Halt();
  ASSERT_TRUE(h.Run(masm).ok());
  EXPECT_EQ(h.cpu.reg(Reg::a3), 1234u);
  EXPECT_EQ(*h.memory.LoadU32(kMemBase + 16), 1234u);
}

TEST(CpuTest, MemoryLatencyStalls) {
  CoreConfig config;
  Harness slow(config, /*mem_latency=*/4);
  Harness fast(config, /*mem_latency=*/1);
  auto build = [](Assembler& masm) {
    masm.LoadImm32(Reg::a1, kMemBase);
    masm.Lw(Reg::a2, Reg::a1, 0);
    masm.Lw(Reg::a3, Reg::a1, 4);
    masm.Halt();
  };
  Assembler slow_prog;
  Assembler fast_prog;
  build(slow_prog);
  build(fast_prog);
  auto slow_stats = slow.Run(slow_prog);
  auto fast_stats = fast.Run(fast_prog);
  ASSERT_TRUE(slow_stats.ok());
  ASSERT_TRUE(fast_stats.ok());
  EXPECT_EQ(slow_stats->cycles, fast_stats->cycles + 2 * 3);
  EXPECT_EQ(slow_stats->load_stall_cycles, 6u);
  EXPECT_EQ(fast_stats->load_stall_cycles, 0u);
}

TEST(CpuTest, BranchTakenAndNotTaken) {
  Harness h;
  Assembler masm;
  Label skip;
  masm.Movi(Reg::a1, 1);
  masm.Movi(Reg::a2, 2);
  masm.Blt(Reg::a1, Reg::a2, &skip);  // taken
  masm.Movi(Reg::a3, 111);            // skipped
  masm.Bind(&skip);
  masm.Beq(Reg::a1, Reg::a2, &skip);  // not taken
  masm.Movi(Reg::a4, 222);
  masm.Halt();
  auto stats = h.Run(masm);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(h.cpu.reg(Reg::a3), 0u);
  EXPECT_EQ(h.cpu.reg(Reg::a4), 222u);
  EXPECT_EQ(stats->taken_branches, 1u);
}

TEST(CpuTest, BtfnPredictorPenalties) {
  // A backward loop branch is predicted taken: penalty only on exit.
  CoreConfig config;
  config.branch_mispredict_penalty = 5;
  Harness h(config);
  Assembler masm;
  Label loop;
  masm.Movi(Reg::a1, 0);
  masm.Movi(Reg::a2, 10);
  masm.Bind(&loop);
  masm.Addi(Reg::a1, Reg::a1, 1);
  masm.Blt(Reg::a1, Reg::a2, &loop);
  masm.Halt();
  auto stats = h.Run(masm);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->taken_branches, 9u);
  EXPECT_EQ(stats->mispredicted_branches, 1u);  // final not-taken
  EXPECT_EQ(stats->branch_penalty_cycles, 5u);
  // 2 setup + 10 iterations x 2 + penalty.
  EXPECT_EQ(stats->cycles, 2u + 20u + 5u + 1u);
}

TEST(CpuTest, ForwardTakenBranchMispredicts) {
  CoreConfig config;
  config.branch_mispredict_penalty = 3;
  Harness h(config);
  Assembler masm;
  Label fwd;
  masm.Movi(Reg::a1, 1);
  masm.Beq(Reg::a1, Reg::a1, &fwd);  // forward taken: mispredict
  masm.Nop();
  masm.Bind(&fwd);
  masm.Halt();
  auto stats = h.Run(masm);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->mispredicted_branches, 1u);
  EXPECT_EQ(stats->branch_penalty_cycles, 3u);
}

TEST(CpuTest, JumpIsFree) {
  Harness h;
  Assembler masm;
  Label over;
  masm.J(&over);
  masm.Nop();
  masm.Bind(&over);
  masm.Halt();
  auto stats = h.Run(masm);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->cycles, 2u);
  EXPECT_EQ(stats->mispredicted_branches, 0u);
}

TEST(CpuTest, WatchdogFires) {
  Harness h;
  Assembler masm;
  Label forever;
  masm.Bind(&forever);
  masm.J(&forever);
  auto stats = h.Run(masm, {.max_cycles = 100});
  EXPECT_EQ(stats.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(CpuTest, FallingOffProgramIsError) {
  Harness h;
  Assembler masm;
  masm.Nop();  // no halt
  auto stats = h.Run(masm);
  EXPECT_EQ(stats.status().code(), StatusCode::kInternal);
}

TEST(CpuTest, RunWithoutProgramFails) {
  Harness h;
  EXPECT_EQ(h.cpu.Run().status().code(), StatusCode::kFailedPrecondition);
}

TEST(CpuTest, UnmappedAddressFails) {
  Harness h;
  Assembler masm;
  masm.Movi(Reg::a1, 0);
  masm.Lw(Reg::a2, Reg::a1, 0);
  masm.Halt();
  auto stats = h.Run(masm);
  EXPECT_EQ(stats.status().code(), StatusCode::kNotFound);
}

TEST(CpuTest, ProfileCollectsCounts) {
  Harness h;
  Assembler masm;
  Label loop;
  masm.Movi(Reg::a1, 0);
  masm.Movi(Reg::a2, 5);
  masm.Bind(&loop);
  masm.Addi(Reg::a1, Reg::a1, 1);
  masm.Blt(Reg::a1, Reg::a2, &loop);
  masm.Halt();
  auto stats = h.Run(masm, {.profile = true});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->pc_counts[2], 5u);
  EXPECT_EQ(stats->mnemonic_counts.at("addi"), 5u);
  EXPECT_EQ(stats->mnemonic_counts.at("blt"), 5u);
}

TEST(CpuTest, ExtOpRegistrationValidation) {
  Harness h;
  auto ok_fn = [](ExtContext&) { return Status::Ok(); };
  EXPECT_TRUE(h.cpu.RegisterExtOp(0x300, "demo", ok_fn).ok());
  EXPECT_EQ(h.cpu.RegisterExtOp(0x300, "again", ok_fn).code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(h.cpu.RegisterExtOp(0, "zero", ok_fn).ok());
  EXPECT_FALSE(h.cpu.RegisterExtOp(0x301, "null", nullptr).ok());
  EXPECT_TRUE(h.cpu.HasExtOp(0x300));
  EXPECT_FALSE(h.cpu.HasExtOp(0x301));
}

TEST(CpuTest, UnregisteredExtOpRejectedAtLoad) {
  Harness h;
  Assembler masm;
  masm.Tie(0x999);
  masm.Halt();
  auto program = masm.Finish();
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(h.cpu.LoadProgram(*program).code(), StatusCode::kNotFound);
}

TEST(CpuTest, FlixNeedsWideInstructionBus) {
  CoreConfig narrow;
  narrow.instruction_bus_bits = 32;
  Harness h(narrow);
  ASSERT_TRUE(h.cpu
                  .RegisterExtOp(0x300, "demo",
                                 [](ExtContext&) { return Status::Ok(); })
                  .ok());
  Assembler masm;
  masm.Flix({isa::TieSlot{0x300, 0}});
  masm.Halt();
  auto program = masm.Finish();
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(h.cpu.LoadProgram(*program).code(),
            StatusCode::kFailedPrecondition);
}

TEST(CpuTest, InstructionMemoryCapacityEnforced) {
  CoreConfig tiny;
  tiny.instruction_memory_bytes = 16;  // four base instructions
  Harness h(tiny);
  Assembler masm;
  for (int i = 0; i < 5; ++i) masm.Nop();
  masm.Halt();
  auto program = masm.Finish();
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(h.cpu.LoadProgram(*program).code(),
            StatusCode::kResourceExhausted);
}

TEST(CpuTest, ExtOpPortContentionCharged) {
  // One op issuing two beats on the same LSU costs an extra cycle; on
  // two LSUs the beats run in parallel.
  for (const int lsus : {1, 2}) {
    CoreConfig config;
    config.num_lsus = lsus;
    config.data_bus_bits = 128;
    config.instruction_bus_bits = 64;
    Harness h(config);
    ASSERT_TRUE(h.cpu
                    .RegisterExtOp(0x300, "two_beats",
                                   [](ExtContext& ctx) {
                                     auto beat0 = ctx.LoadBeat(0, kMemBase);
                                     DBA_RETURN_IF_ERROR(beat0.status());
                                     auto beat1 =
                                         ctx.LoadBeat(1, kMemBase + 16);
                                     return beat1.status();
                                   })
                    .ok());
    Assembler masm;
    masm.Tie(0x300);
    masm.Halt();
    auto stats = h.Run(masm);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->cycles, lsus == 1 ? 3u : 2u) << lsus << " LSUs";
    EXPECT_EQ(stats->port_stall_cycles, lsus == 1 ? 1u : 0u);
    EXPECT_EQ(stats->lsu_beats[0] + stats->lsu_beats[1], 2u);
  }
}

TEST(CpuTest, BeatRequiresWideDataBus) {
  CoreConfig narrow;  // 32-bit data bus
  Harness h(narrow);
  ASSERT_TRUE(h.cpu
                  .RegisterExtOp(0x300, "beat",
                                 [](ExtContext& ctx) {
                                   return ctx.LoadBeat(0, kMemBase).status();
                                 })
                  .ok());
  Assembler masm;
  masm.Tie(0x300);
  masm.Halt();
  EXPECT_EQ(h.Run(masm).status().code(), StatusCode::kFailedPrecondition);
}

TEST(CpuTest, ExtOpExtraCyclesCharged) {
  Harness h;
  ASSERT_TRUE(h.cpu
                  .RegisterExtOp(0x300, "slow",
                                 [](ExtContext& ctx) {
                                   ctx.AddCycles(7);
                                   return Status::Ok();
                                 })
                  .ok());
  Assembler masm;
  masm.Tie(0x300);
  masm.Halt();
  auto stats = h.Run(masm);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->cycles, 9u);
  EXPECT_EQ(stats->ext_extra_cycles, 7u);
}

TEST(CpuTest, ExtOpReadsOperandAndRegs) {
  Harness h;
  ASSERT_TRUE(h.cpu
                  .RegisterExtOp(0x300, "addi_ext",
                                 [](ExtContext& ctx) {
                                   ctx.set_reg(Reg::a5,
                                               ctx.reg(Reg::a1) + ctx.operand());
                                   return Status::Ok();
                                 })
                  .ok());
  Assembler masm;
  masm.Movi(Reg::a1, 40);
  masm.Tie(0x300, 2);
  masm.Halt();
  ASSERT_TRUE(h.Run(masm).ok());
  EXPECT_EQ(h.cpu.reg(Reg::a5), 42u);
}

TEST(CpuTest, FlixBundleIssuesAllSlotsInOneCycle) {
  CoreConfig config;
  config.instruction_bus_bits = 64;
  Harness h(config);
  int calls = 0;
  ASSERT_TRUE(h.cpu
                  .RegisterExtOp(0x300, "count",
                                 [&calls](ExtContext&) {
                                   ++calls;
                                   return Status::Ok();
                                 })
                  .ok());
  Assembler masm;
  masm.Flix({isa::TieSlot{0x300, 0}, isa::TieSlot{0x300, 1},
             isa::TieSlot{0x300, 2}});
  masm.Halt();
  auto stats = h.Run(masm);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats->cycles, 2u);  // bundle + halt
  EXPECT_EQ(stats->instructions, 4u);
}

TEST(CpuTest, ResetArchState) {
  Harness h;
  h.cpu.set_reg(Reg::a1, 99);
  h.cpu.set_pc(5);
  h.cpu.ResetArchState();
  EXPECT_EQ(h.cpu.reg(Reg::a1), 0u);
  EXPECT_EQ(h.cpu.pc(), 0u);
}

// --- Superblock cache invalidation (the decode-once execution plan) ---

void ExpectSameStats(const ExecStats& a, const ExecStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.bundles, b.bundles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.taken_branches, b.taken_branches);
  EXPECT_EQ(a.mispredicted_branches, b.mispredicted_branches);
  EXPECT_EQ(a.branch_penalty_cycles, b.branch_penalty_cycles);
  EXPECT_EQ(a.load_stall_cycles, b.load_stall_cycles);
  EXPECT_EQ(a.store_stall_cycles, b.store_stall_cycles);
  EXPECT_EQ(a.port_stall_cycles, b.port_stall_cycles);
  EXPECT_EQ(a.ext_extra_cycles, b.ext_extra_cycles);
  EXPECT_EQ(a.lsu_beats[0], b.lsu_beats[0]);
  EXPECT_EQ(a.lsu_beats[1], b.lsu_beats[1]);
  EXPECT_EQ(a.pc_counts, b.pc_counts);
}

TEST(CpuSuperblockTest, ReloadingChangedProgramDropsStaleBlocks) {
  Harness h;
  // Program A: a 10-iteration counting loop.
  Assembler a;
  Label loop_a;
  a.Movi(Reg::a1, 0);
  a.Movi(Reg::a2, 10);
  a.Bind(&loop_a);
  a.Addi(Reg::a1, Reg::a1, 1);
  a.Bltu(Reg::a1, Reg::a2, &loop_a);
  a.Halt();
  ASSERT_TRUE(h.Run(a).ok());
  EXPECT_EQ(h.cpu.reg(Reg::a1), 10u);
  const size_t blocks_a = h.cpu.num_superblocks();
  const uint32_t len_a = h.cpu.superblock_at(0).len;

  // Program B: straight-line with more leading words -- a different
  // block structure. A stale plan would misattribute the loop head.
  Assembler b;
  Label loop_b;
  b.Movi(Reg::a1, 0);
  b.Movi(Reg::a2, 3);
  b.Movi(Reg::a3, 7);
  b.Movi(Reg::a4, 0);
  b.Bind(&loop_b);
  b.Add(Reg::a4, Reg::a4, Reg::a3);
  b.Addi(Reg::a1, Reg::a1, 1);
  b.Bltu(Reg::a1, Reg::a2, &loop_b);
  b.Halt();
  h.cpu.ResetArchState();
  ASSERT_TRUE(h.Run(b).ok());
  EXPECT_EQ(h.cpu.reg(Reg::a4), 21u);
  // The plan reflects program B, not the cached A decomposition.
  EXPECT_TRUE(h.cpu.num_superblocks() != blocks_a ||
              h.cpu.superblock_at(0).len != len_a);
}

TEST(CpuSuperblockTest, ReloadingIdenticalProgramKeepsWorking) {
  Harness h;
  Assembler masm;
  Label loop;
  masm.Movi(Reg::a1, 0);
  masm.Movi(Reg::a2, 5);
  masm.Bind(&loop);
  masm.Addi(Reg::a1, Reg::a1, 1);
  masm.Bltu(Reg::a1, Reg::a2, &loop);
  masm.Halt();
  auto program = masm.Finish();
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(h.cpu.LoadProgram(*program).ok());
  ASSERT_TRUE(h.cpu.Run().ok());
  const size_t blocks = h.cpu.num_superblocks();
  // Reloading identical content skips the decode but must leave a
  // valid, equivalent plan.
  ASSERT_TRUE(h.cpu.LoadProgram(*program).ok());
  EXPECT_EQ(h.cpu.num_superblocks(), blocks);
  h.cpu.ResetArchState();
  ASSERT_TRUE(h.cpu.Run().ok());
  EXPECT_EQ(h.cpu.reg(Reg::a1), 5u);
}

TEST(CpuSuperblockTest, BranchIntoMiddleOfCachedSuperblock) {
  // The first pass enters the region at its head and caches the block;
  // the backward branch then re-enters it mid-block. Fast-forward must
  // resume at the branch target, not replay from the cached head.
  auto build = [](Assembler& masm) {
    Label mid;
    masm.Movi(Reg::a1, 0);  // incremented only on the head entry
    masm.Movi(Reg::a2, 0);  // incremented every pass
    masm.Movi(Reg::a4, 5);
    masm.Addi(Reg::a1, Reg::a1, 1);  // region head
    masm.Bind(&mid);
    masm.Addi(Reg::a2, Reg::a2, 1);  // mid-block branch target
    masm.Bltu(Reg::a2, Reg::a4, &mid);
    masm.Halt();
  };
  Harness ff;
  Harness ref;
  Assembler masm_ff;
  build(masm_ff);
  Assembler masm_ref;
  build(masm_ref);
  // Lean runs: a profiled one would take the reference loop.
  RunOptions lean;
  lean.mode = ExecMode::kFastForward;
  auto stats_ff = ff.Run(masm_ff, lean);
  lean.mode = ExecMode::kInterpret;
  auto stats_ref = ref.Run(masm_ref, lean);
  ASSERT_TRUE(stats_ff.ok());
  ASSERT_TRUE(stats_ref.ok());
  EXPECT_EQ(ff.cpu.reg(Reg::a1), 1u);
  EXPECT_EQ(ff.cpu.reg(Reg::a2), 5u);
  EXPECT_EQ(ref.cpu.reg(Reg::a1), 1u);
  EXPECT_EQ(ref.cpu.reg(Reg::a2), 5u);
  ExpectSameStats(*stats_ff, *stats_ref);
}

// Program k of a family of distinct programs: k + 1 leading words, then
// a counting loop of k + 2 iterations, so the words and the superblock
// structure differ from one program to the next.
isa::Program CountingProgram(int k) {
  Assembler masm;
  Label loop;
  for (int i = 0; i <= k; ++i) masm.Movi(Reg::a3, i);
  masm.Movi(Reg::a1, 0);
  masm.Movi(Reg::a2, k + 2);
  masm.Bind(&loop);
  masm.Addi(Reg::a1, Reg::a1, 1);
  masm.Bltu(Reg::a1, Reg::a2, &loop);
  masm.Halt();
  auto program = masm.Finish();
  EXPECT_TRUE(program.ok());
  return *std::move(program);
}

uint64_t ProgramDecodes() {
  return obs::MetricsRegistry::Global()
      .GetCounter("dba_sim_program_decodes_total")
      ->Value();
}

TEST(CpuSuperblockTest, AlternatingProgramsDecodeEachOnce) {
  Harness h;
  const isa::Program a = CountingProgram(1);
  const isa::Program b = CountingProgram(4);
  const uint64_t decodes_before = ProgramDecodes();
  std::vector<ExecStats> first(2);
  for (int i = 0; i < 8; ++i) {
    // A fresh copy each time: plans are found by content, not address.
    const isa::Program program = i % 2 == 0 ? a : b;
    ASSERT_TRUE(h.cpu.LoadProgram(program).ok());
    auto stats = h.cpu.Run();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(h.cpu.reg(Reg::a1), i % 2 == 0 ? 3u : 6u);
    if (i < 2) {
      first[static_cast<size_t>(i)] = *stats;
    } else {
      ExpectSameStats(*stats, first[static_cast<size_t>(i % 2)]);
    }
  }
  EXPECT_EQ(ProgramDecodes() - decodes_before, 2u);
}

TEST(CpuSuperblockTest, CyclingPastThePlanCapacityRunsLikeAFreshCpu) {
  constexpr int kPrograms = static_cast<int>(Cpu::kExecPlanCapacity) + 2;
  std::vector<isa::Program> programs;
  for (int k = 0; k < kPrograms; ++k) programs.push_back(CountingProgram(k));
  RunOptions profiled;
  profiled.mode = ExecMode::kInterpret;
  profiled.profile = true;
  // Each program on a core of its own: lean (superblock loop) and
  // profiled (reference loop) runs.
  std::vector<ExecStats> fresh_lean;
  std::vector<ExecStats> fresh_profiled;
  std::vector<size_t> fresh_blocks;
  for (const isa::Program& program : programs) {
    Harness fresh;
    ASSERT_TRUE(fresh.cpu.LoadProgram(program).ok());
    auto lean = fresh.cpu.Run();
    ASSERT_TRUE(fresh.cpu.LoadProgram(program).ok());
    auto profile = fresh.cpu.Run(profiled);
    ASSERT_TRUE(lean.ok());
    ASSERT_TRUE(profile.ok());
    fresh_lean.push_back(*lean);
    fresh_profiled.push_back(*profile);
    fresh_blocks.push_back(fresh.cpu.num_superblocks());
  }

  Harness h;
  // Exactly kExecPlanCapacity programs fit: a second round over them
  // decodes none again.
  for (int round = 0; round < 2; ++round) {
    const uint64_t decodes_before = ProgramDecodes();
    for (size_t k = 0; k < Cpu::kExecPlanCapacity; ++k) {
      ASSERT_TRUE(h.cpu.LoadProgram(programs[k]).ok());
      ASSERT_TRUE(h.cpu.Run().ok());
    }
    EXPECT_EQ(ProgramDecodes() - decodes_before,
              round == 0 ? Cpu::kExecPlanCapacity : 0u);
  }
  // Two more than fit, in rotation, so plans are evicted and rebuilt:
  // every run matches the program's run on a fresh core.
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < kPrograms; ++k) {
      const size_t i = static_cast<size_t>(k);
      SCOPED_TRACE("round " + std::to_string(round) + ", program " +
                   std::to_string(k));
      ASSERT_TRUE(h.cpu.LoadProgram(programs[i]).ok());
      auto lean = h.cpu.Run();
      ASSERT_TRUE(lean.ok());
      ExpectSameStats(*lean, fresh_lean[i]);
      EXPECT_EQ(h.cpu.reg(Reg::a1), static_cast<uint32_t>(k + 2));
      EXPECT_EQ(h.cpu.num_superblocks(), fresh_blocks[i]);
      ASSERT_TRUE(h.cpu.LoadProgram(programs[i]).ok());
      auto profile = h.cpu.Run(profiled);
      ASSERT_TRUE(profile.ok());
      ExpectSameStats(*profile, fresh_profiled[i]);
      EXPECT_EQ(profile->mnemonic_counts, fresh_profiled[i].mnemonic_counts);
    }
  }
}

// A loop accelerator that counts its calls and declines every loop, so
// the core runs the loop word by word.
class CountingAccelerator : public LoopAccelerator {
 public:
  explicit CountingAccelerator(bool matches) : matches_(matches) {}
  bool MatchesTieLoop(const TieLoop&) const override {
    ++match_calls;
    return matches_;
  }
  bool RunTieLoop(const TieLoop&, Cpu&, bool, uint64_t,
                  ExecStats*) override {
    ++run_calls;
    return false;
  }
  mutable int match_calls = 0;
  int run_calls = 0;

 private:
  bool matches_;
};

TEST(CpuSuperblockTest, NewLoopAcceleratorDropsCachedVerdicts) {
  Harness h;
  ASSERT_TRUE(h.cpu
                  .RegisterExtOp(0x300, "bump",
                                 [](ExtContext& ctx) {
                                   ctx.set_reg(Reg::a1, ctx.reg(Reg::a1) + 1);
                                   return Status::Ok();
                                 })
                  .ok());
  // A TIE loop: one kTie word closed by a backward branch to it.
  Assembler masm;
  Label loop;
  masm.Movi(Reg::a1, 0);
  masm.Movi(Reg::a2, 5);
  masm.Bind(&loop);
  masm.Tie(0x300);
  masm.Bltu(Reg::a1, Reg::a2, &loop);
  masm.Halt();
  auto tie_loop = masm.Finish();
  ASSERT_TRUE(tie_loop.ok());
  const isa::Program other = CountingProgram(2);

  CountingAccelerator declines(false);
  h.cpu.SetLoopAccelerator(&declines);
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(h.cpu.LoadProgram(*tie_loop).ok());
    ASSERT_TRUE(h.cpu.Run().ok());
    EXPECT_EQ(h.cpu.reg(Reg::a1), 5u);
    ASSERT_TRUE(h.cpu.LoadProgram(other).ok());
    ASSERT_TRUE(h.cpu.Run().ok());
  }
  // The verdict survives the switches: asked once, never run.
  EXPECT_EQ(declines.match_calls, 1);
  EXPECT_EQ(declines.run_calls, 0);

  // A new accelerator is asked again, whether the loop's plan is the
  // resident one or a cached one when it arrives.
  CountingAccelerator first(true);
  CountingAccelerator second(true);
  ASSERT_TRUE(h.cpu.LoadProgram(*tie_loop).ok());
  h.cpu.SetLoopAccelerator(&first);
  ASSERT_TRUE(h.cpu.LoadProgram(*tie_loop).ok());
  ASSERT_TRUE(h.cpu.Run().ok());
  EXPECT_EQ(h.cpu.reg(Reg::a1), 5u);
  ASSERT_TRUE(h.cpu.LoadProgram(other).ok());
  ASSERT_TRUE(h.cpu.Run().ok());
  h.cpu.SetLoopAccelerator(&second);
  ASSERT_TRUE(h.cpu.LoadProgram(*tie_loop).ok());
  ASSERT_TRUE(h.cpu.Run().ok());
  EXPECT_EQ(h.cpu.reg(Reg::a1), 5u);
  EXPECT_EQ(first.match_calls, 1);
  EXPECT_GT(first.run_calls, 0);
  EXPECT_EQ(second.match_calls, 1);
  EXPECT_GT(second.run_calls, 0);
}

}  // namespace
}  // namespace dba::sim
