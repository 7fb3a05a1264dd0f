// Differential suite (ctest label "differential"): the fast-forward and
// turbo execution modes against the interpreter reference.
//
//  - profiled, any mode: the run takes the reference loop, so results
//    AND ExecStats are bit-identical to profiled kInterpret, including
//    the per-pc profile vectors, for all ten kernel programs (four set
//    ops and sort, EIS and scalar form) on both LSU configs; no loop
//    reaches the loop accelerator, and the scalar fields equal the lean
//    fast-forward run's.
//  - golden stats: both loops issue every word through one executor, so
//    the reference loop's own output is pinned exactly on those kernels,
//    both partial-loading settings included.
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
#include <array>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>
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

/// TIE-loop entries the loop accelerator has seen so far, by any engine.
uint64_t TieLoopEntries() {
  return test::TieLoops("setop_stepper") + test::TieLoops("merge_stepper") +
         test::TieLoops("per_word");
}

TEST_P(ModeDifferentialTest, ProfiledRunsTakeTheReferenceLoop) {
  auto processor = Processor::Create(GetParam());
  ASSERT_TRUE(processor.ok());
  for (const Kernel& kernel : kKernels) {
    // A profiled run takes the reference loop in every mode: bit-identical
    // to profiled kInterpret, per-pc vectors included, and never offering
    // a loop to the accelerator.
    const uint64_t entries = TieLoopEntries();
    auto reference =
        RunKernel(**processor, kernel, sim::ExecMode::kInterpret, true);
    ASSERT_TRUE(reference.ok()) << kernel.name;
    for (const sim::ExecMode mode :
         {sim::ExecMode::kFastForward, sim::ExecMode::kTurbo}) {
      const std::string context =
          std::string(kernel.name) + "/" + std::string(sim::ExecModeName(mode));
      auto profiled = RunKernel(**processor, kernel, mode, true);
      ASSERT_TRUE(profiled.ok()) << context;
      EXPECT_EQ(profiled->result, reference->result) << context;
      ExpectStatsBitIdentical(profiled->stats, reference->stats, context);
    }
    EXPECT_EQ(TieLoopEntries(), entries) << kernel.name;

    // Profiling does not change what a run measures: the scalar fields
    // equal those of the lean fast-forward run (superblock loop, loop
    // accelerator).
    auto lean =
        RunKernel(**processor, kernel, sim::ExecMode::kFastForward, false);
    ASSERT_TRUE(lean.ok()) << kernel.name;
    if (!kernel.scalar) {
      EXPECT_GT(TieLoopEntries(), entries) << kernel.name;
    }
    EXPECT_EQ(lean->result, reference->result) << kernel.name;
    sim::ExecStats scalars = reference->stats;
    scalars.pc_counts.clear();
    scalars.pc_cycles.clear();
    scalars.mnemonic_counts.clear();
    ExpectStatsBitIdentical(lean->stats, scalars,
                            std::string(kernel.name) + "/lean");
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

// --- Golden stats of the per-word executor ---

/// 64-bit FNV-1a over the values added: integers as 8 little-endian
/// bytes, strings as their bytes plus a terminating zero.
class Fnv1a {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) AddByte(static_cast<uint8_t>(value >> (8 * i)));
  }
  void Add(std::string_view text) {
    for (const char c : text) AddByte(static_cast<uint8_t>(c));
    AddByte(0);
  }
  uint64_t digest() const { return hash_; }

 private:
  void AddByte(uint8_t byte) { hash_ = (hash_ ^ byte) * 0x100000001b3ull; }

  uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// The pinned values of a golden row, in table order. A lean run fills
/// all but the last three (the profile digests).
constexpr const char* kGoldenFields[] = {
    "result_size", "result_fnv", "cycles", "bundles", "instructions",
    "taken_branches", "mispredicted_branches", "branch_penalty_cycles",
    "load_stall_cycles", "store_stall_cycles", "port_stall_cycles",
    "ext_extra_cycles", "lsu_beats[0]", "lsu_beats[1]", "sop_executions",
    "elements_consumed", "elements_emitted", "matches", "load_beats",
    "store_beats", "pc_counts_fnv", "pc_cycles_fnv", "mnemonic_counts_fnv"};
constexpr size_t kNumGoldenFields = std::size(kGoldenFields);
constexpr size_t kNumLeanFields = kNumGoldenFields - 3;
using GoldenValues = std::array<uint64_t, kNumGoldenFields>;

struct GoldenRow {
  const char* kernel;  // a kKernels name
  int lsus;            // 1: DBA_1LSU_EIS, 2: DBA_2LSU_EIS
  bool partial;        // ProcessorOptions::partial_loading
  GoldenValues values;
};

GoldenValues Summarize(const KernelRun& run) {
  const sim::ExecStats& s = run.stats;
  const eis::EisCounters& c = run.counters;
  Fnv1a result;
  for (const uint32_t value : run.result) result.Add(value);
  Fnv1a pc_counts;
  for (const uint64_t count : s.pc_counts) pc_counts.Add(count);
  Fnv1a pc_cycles;
  for (const sim::PcCycleBreakdown& b : s.pc_cycles) {
    for (const uint64_t value :
         {b.issue_cycles, b.branch_penalty_cycles, b.load_stall_cycles,
          b.store_stall_cycles, b.port_stall_cycles, b.ext_extra_cycles,
          b.lsu_beats[0], b.lsu_beats[1]}) {
      pc_cycles.Add(value);
    }
  }
  Fnv1a mnemonics;
  for (const auto& [name, count] : s.mnemonic_counts) {
    mnemonics.Add(name);
    mnemonics.Add(count);
  }
  return {run.result.size(),
          result.digest(),
          s.cycles,
          s.bundles,
          s.instructions,
          s.taken_branches,
          s.mispredicted_branches,
          s.branch_penalty_cycles,
          s.load_stall_cycles,
          s.store_stall_cycles,
          s.port_stall_cycles,
          s.ext_extra_cycles,
          s.lsu_beats[0],
          s.lsu_beats[1],
          c.sop_executions,
          c.elements_consumed,
          c.elements_emitted,
          c.matches,
          c.load_beats,
          c.store_beats,
          pc_counts.digest(),
          pc_cycles.digest(),
          mnemonics.digest()};
}

/// `row` in the syntax of kGoldenRows.
std::string FormatRow(const GoldenRow& row) {
  std::string out = std::string("    {\"") + row.kernel + "\", " +
                    std::to_string(row.lsus) + ", " +
                    (row.partial ? "true" : "false") + ",\n     {";
  size_t column = 6;
  for (size_t i = 0; i < kNumGoldenFields; ++i) {
    char text[24];
    const bool digest = std::string_view(kGoldenFields[i]).ends_with("_fnv");
    std::snprintf(text, sizeof text, digest ? "0x%016llx" : "%llu",
                  static_cast<unsigned long long>(row.values[i]));
    const std::string token =
        text + std::string(i + 1 < kNumGoldenFields ? "," : "}},");
    if (i > 0 && column + 1 + token.size() > 80) {
      out += "\n      ";
      column = 6;
    } else if (i > 0) {
      out += ' ';
      ++column;
    }
    out += token;
    column += token.size();
  }
  return out + "\n";
}

/// Profiled kInterpret runs of every kKernels program on the EIS
/// configurations, with and without partial loading, on the inputs of
/// ModeDifferentialTest. Generated from the reference loop.
constexpr GoldenRow kGoldenRows[] = {
    {"intersect-eis", 1, true,
     {1000, 0x624ad2b9232e06d2, 1921, 1305, 1305, 19, 1, 3, 0, 0, 613, 0, 1477,
      0, 640, 4000, 1000, 1000, 1227, 250, 0xe3e3121c8f15d2f0,
      0x088347b285dc871b, 0xb5c660864f655e30}},
    {"intersect-scalar", 1, true,
     {1000, 0x624ad2b9232e06d2, 32006, 26003, 26003, 2001, 2001, 6003, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0x299c0b7d6460d243, 0x0306f0b1d7312d2c,
      0xcfcb25238667092c}},
    {"union-eis", 1, true,
     {3000, 0x914ce49653152518, 2315, 1565, 1565, 23, 1, 3, 0, 0, 747, 0, 2245,
      0, 768, 4000, 3000, 1000, 1495, 750, 0xc69943aa312dff7c,
      0xd0588e011ac3be9d, 0xe33cad25c4e3616a}},
    {"union-scalar", 1, true,
     {3000, 0x914ce49653152518, 36014, 30008, 30008, 2002, 2002, 6006, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff66ea1db7bac2e4, 0x8390b07ffc787680,
      0x1b8ea167b2d52a3d}},
    {"difference-eis", 1, true,
     {1000, 0xb57d407e8f11b8b9, 1921, 1305, 1305, 19, 1, 3, 0, 0, 613, 0, 1477,
      0, 640, 4000, 1000, 1000, 1227, 250, 0xe3e3121c8f15d2f0,
      0x92baedbcf1f23697, 0xb5c660864f655e30}},
    {"difference-scalar", 1, true,
     {1000, 0xb57d407e8f11b8b9, 32006, 26003, 26003, 2001, 2001, 6003, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0x5e1abe64918843c3, 0x221e05a7fa21bb2c,
      0xcfcb25238667092c}},
    {"merge-eis", 1, true,
     {4000, 0x31765fa7a37a077b, 3218, 3215, 3215, 1069, 1, 3, 0, 0, 0, 0, 2066,
      0, 1070, 4000, 4000, 1000, 1066, 1000, 0x69b65d41c03ee446,
      0x5a0ff703f9d4ed1e, 0x4fd177e49bac05f4}},
    {"merge-scalar", 1, true,
     {4000, 0x31765fa7a37a077b, 44006, 38006, 38006, 2000, 2000, 6000, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0xe9c448337d5d9033, 0x7f3f9a6c975e6990,
      0x50e534642c8b6d32}},
    {"sort-eis", 1, true,
     {3000, 0x086c2705490df26e, 47531, 42242, 42242, 9795, 1513, 4539, 0, 0,
      750, 0, 16500, 0, 9038, 30000, 30000, 0, 8250, 8250, 0x48000add0304a492,
      0xbf55e9c96f1edae4, 0x06847195423a0c2f}},
    {"sort-scalar", 1, true,
     {3000, 0x086c2705490df26e, 459141, 387279, 387279, 23954, 23954, 71862, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x455fd1d89d0b773a, 0xd5a714b362595f72,
      0x3a986518aab89ee8}},
    {"intersect-eis", 1, false,
     {1000, 0x624ad2b9232e06d2, 2895, 1955, 1955, 29, 1, 3, 0, 0, 937, 0, 2125,
      0, 960, 4000, 1000, 1000, 1875, 250, 0x762590bd40d4a2ba,
      0x0dc33b5e5d7e6897, 0x40f8d84f908bf400}},
    {"intersect-scalar", 1, false,
     {1000, 0x624ad2b9232e06d2, 32006, 26003, 26003, 2001, 2001, 6003, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0x299c0b7d6460d243, 0x0306f0b1d7312d2c,
      0xcfcb25238667092c}},
    {"union-eis", 1, false,
     {3000, 0x914ce49653152518, 3482, 2345, 2345, 35, 1, 3, 0, 0, 1134, 0, 3019,
      0, 1152, 4000, 3000, 1000, 2269, 750, 0x6780a98411e0b900,
      0x4e84cf82e64bfc24, 0x3ddef10127d141a0}},
    {"union-scalar", 1, false,
     {3000, 0x914ce49653152518, 36014, 30008, 30008, 2002, 2002, 6006, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff66ea1db7bac2e4, 0x8390b07ffc787680,
      0x1b8ea167b2d52a3d}},
    {"difference-eis", 1, false,
     {1000, 0xb57d407e8f11b8b9, 2895, 1955, 1955, 29, 1, 3, 0, 0, 937, 0, 2125,
      0, 960, 4000, 1000, 1000, 1875, 250, 0x762590bd40d4a2ba,
      0xd001e527d5773d9d, 0x40f8d84f908bf400}},
    {"difference-scalar", 1, false,
     {1000, 0xb57d407e8f11b8b9, 32006, 26003, 26003, 2001, 2001, 6003, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0x5e1abe64918843c3, 0x221e05a7fa21bb2c,
      0xcfcb25238667092c}},
    {"merge-eis", 1, false,
     {4000, 0x31765fa7a37a077b, 3218, 3215, 3215, 1069, 1, 3, 0, 0, 0, 0, 2066,
      0, 1070, 4000, 4000, 1000, 1066, 1000, 0x69b65d41c03ee446,
      0x5a0ff703f9d4ed1e, 0x4fd177e49bac05f4}},
    {"merge-scalar", 1, false,
     {4000, 0x31765fa7a37a077b, 44006, 38006, 38006, 2000, 2000, 6000, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0xe9c448337d5d9033, 0x7f3f9a6c975e6990,
      0x50e534642c8b6d32}},
    {"sort-eis", 1, false,
     {3000, 0x086c2705490df26e, 47531, 42242, 42242, 9795, 1513, 4539, 0, 0,
      750, 0, 16500, 0, 9038, 30000, 30000, 0, 8250, 8250, 0x48000add0304a492,
      0xbf55e9c96f1edae4, 0x06847195423a0c2f}},
    {"sort-scalar", 1, false,
     {3000, 0x086c2705490df26e, 459141, 387279, 387279, 23954, 23954, 71862, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x455fd1d89d0b773a, 0xd5a714b362595f72,
      0x3a986518aab89ee8}},
    {"intersect-eis", 2, true,
     {1000, 0x624ad2b9232e06d2, 1308, 1305, 1305, 19, 1, 3, 0, 0, 0, 0, 613,
      864, 640, 4000, 1000, 1000, 1227, 250, 0xe3e3121c8f15d2f0,
      0x940d8148e619e25e, 0xb5c660864f655e30}},
    {"intersect-scalar", 2, true,
     {1000, 0x624ad2b9232e06d2, 32006, 26003, 26003, 2001, 2001, 6003, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0x299c0b7d6460d243, 0x0306f0b1d7312d2c,
      0xcfcb25238667092c}},
    {"union-eis", 2, true,
     {3000, 0x914ce49653152518, 1568, 1565, 1565, 23, 1, 3, 0, 0, 0, 0, 747,
      1498, 768, 4000, 3000, 1000, 1495, 750, 0xc69943aa312dff7c,
      0x30776693ec9e8090, 0xe33cad25c4e3616a}},
    {"union-scalar", 2, true,
     {3000, 0x914ce49653152518, 36014, 30008, 30008, 2002, 2002, 6006, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff66ea1db7bac2e4, 0x8390b07ffc787680,
      0x1b8ea167b2d52a3d}},
    {"difference-eis", 2, true,
     {1000, 0xb57d407e8f11b8b9, 1308, 1305, 1305, 19, 1, 3, 0, 0, 0, 0, 613,
      864, 640, 4000, 1000, 1000, 1227, 250, 0xe3e3121c8f15d2f0,
      0x011c96f23eb1fd92, 0xb5c660864f655e30}},
    {"difference-scalar", 2, true,
     {1000, 0xb57d407e8f11b8b9, 32006, 26003, 26003, 2001, 2001, 6003, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0x5e1abe64918843c3, 0x221e05a7fa21bb2c,
      0xcfcb25238667092c}},
    {"merge-eis", 2, true,
     {4000, 0x31765fa7a37a077b, 3218, 3215, 3215, 1069, 1, 3, 0, 0, 0, 0, 2066,
      0, 1070, 4000, 4000, 1000, 1066, 1000, 0x69b65d41c03ee446,
      0x5a0ff703f9d4ed1e, 0x4fd177e49bac05f4}},
    {"merge-scalar", 2, true,
     {4000, 0x31765fa7a37a077b, 44006, 38006, 38006, 2000, 2000, 6000, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0xe9c448337d5d9033, 0x7f3f9a6c975e6990,
      0x50e534642c8b6d32}},
    {"sort-eis", 2, true,
     {3000, 0x086c2705490df26e, 47531, 42242, 42242, 9795, 1513, 4539, 0, 0,
      750, 0, 16500, 0, 9038, 30000, 30000, 0, 8250, 8250, 0x48000add0304a492,
      0xbf55e9c96f1edae4, 0x06847195423a0c2f}},
    {"sort-scalar", 2, true,
     {3000, 0x086c2705490df26e, 459141, 387279, 387279, 23954, 23954, 71862, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x455fd1d89d0b773a, 0xd5a714b362595f72,
      0x3a986518aab89ee8}},
    {"intersect-eis", 2, false,
     {1000, 0x624ad2b9232e06d2, 1958, 1955, 1955, 29, 1, 3, 0, 0, 0, 0, 937,
      1188, 960, 4000, 1000, 1000, 1875, 250, 0x762590bd40d4a2ba,
      0x684f889ed1baa996, 0x40f8d84f908bf400}},
    {"intersect-scalar", 2, false,
     {1000, 0x624ad2b9232e06d2, 32006, 26003, 26003, 2001, 2001, 6003, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0x299c0b7d6460d243, 0x0306f0b1d7312d2c,
      0xcfcb25238667092c}},
    {"union-eis", 2, false,
     {3000, 0x914ce49653152518, 2348, 2345, 2345, 35, 1, 3, 0, 0, 0, 0, 1134,
      1885, 1152, 4000, 3000, 1000, 2269, 750, 0x6780a98411e0b900,
      0x19682b4826e24a08, 0x3ddef10127d141a0}},
    {"union-scalar", 2, false,
     {3000, 0x914ce49653152518, 36014, 30008, 30008, 2002, 2002, 6006, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff66ea1db7bac2e4, 0x8390b07ffc787680,
      0x1b8ea167b2d52a3d}},
    {"difference-eis", 2, false,
     {1000, 0xb57d407e8f11b8b9, 1958, 1955, 1955, 29, 1, 3, 0, 0, 0, 0, 937,
      1188, 960, 4000, 1000, 1000, 1875, 250, 0x762590bd40d4a2ba,
      0xf4cecc6dfa0840dc, 0x40f8d84f908bf400}},
    {"difference-scalar", 2, false,
     {1000, 0xb57d407e8f11b8b9, 32006, 26003, 26003, 2001, 2001, 6003, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0x5e1abe64918843c3, 0x221e05a7fa21bb2c,
      0xcfcb25238667092c}},
    {"merge-eis", 2, false,
     {4000, 0x31765fa7a37a077b, 3218, 3215, 3215, 1069, 1, 3, 0, 0, 0, 0, 2066,
      0, 1070, 4000, 4000, 1000, 1066, 1000, 0x69b65d41c03ee446,
      0x5a0ff703f9d4ed1e, 0x4fd177e49bac05f4}},
    {"merge-scalar", 2, false,
     {4000, 0x31765fa7a37a077b, 44006, 38006, 38006, 2000, 2000, 6000, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0xe9c448337d5d9033, 0x7f3f9a6c975e6990,
      0x50e534642c8b6d32}},
    {"sort-eis", 2, false,
     {3000, 0x086c2705490df26e, 47531, 42242, 42242, 9795, 1513, 4539, 0, 0,
      750, 0, 16500, 0, 9038, 30000, 30000, 0, 8250, 8250, 0x48000add0304a492,
      0xbf55e9c96f1edae4, 0x06847195423a0c2f}},
    {"sort-scalar", 2, false,
     {3000, 0x086c2705490df26e, 459141, 387279, 387279, 23954, 23954, 71862, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x455fd1d89d0b773a, 0xd5a714b362595f72,
      0x3a986518aab89ee8}},
};

// Both run loops issue every word through the same per-word executor,
// so the mode differentials cannot see a change inside it; this table
// pins its absolute output. A mismatching row prints the actual row.
TEST(GoldenStatsTest, ReferenceRunsMatchPinnedStats) {
  size_t checked = 0;
  for (const int lsus : {1, 2}) {
    for (const bool partial : {true, false}) {
      ProcessorOptions options;
      options.partial_loading = partial;
      auto processor = Processor::Create(
          lsus == 1 ? ProcessorKind::kDba1LsuEis : ProcessorKind::kDba2LsuEis,
          options);
      ASSERT_TRUE(processor.ok());
      for (const Kernel& kernel : kKernels) {
        SCOPED_TRACE(std::string(kernel.name) + "/" + std::to_string(lsus) +
                     "lsu" + (partial ? "/partial" : "/full"));
        auto reference =
            RunKernel(**processor, kernel, sim::ExecMode::kInterpret, true);
        ASSERT_TRUE(reference.ok()) << reference.status().ToString();
        const GoldenRow actual{kernel.name, lsus, partial,
                               Summarize(*reference)};
        const GoldenRow* want = std::find_if(
            std::begin(kGoldenRows), std::end(kGoldenRows),
            [&](const GoldenRow& row) {
              return std::string_view(row.kernel) == kernel.name &&
                     row.lsus == lsus && row.partial == partial;
            });
        if (want == std::end(kGoldenRows)) {
          ADD_FAILURE() << "no golden row; actual:\n" << FormatRow(actual);
          continue;
        }
        if (actual.values != want->values) {
          for (size_t i = 0; i < kNumGoldenFields; ++i) {
            EXPECT_EQ(actual.values[i], want->values[i]) << kGoldenFields[i];
          }
          ADD_FAILURE() << "actual row:\n" << FormatRow(actual);
        }
        // A lean fast-forward run (superblock loop and loop accelerator)
        // fills every field but the profile digests identically.
        auto lean =
            RunKernel(**processor, kernel, sim::ExecMode::kFastForward, false);
        ASSERT_TRUE(lean.ok()) << lean.status().ToString();
        const GoldenValues lean_values = Summarize(*lean);
        for (size_t i = 0; i < kNumLeanFields; ++i) {
          EXPECT_EQ(lean_values[i], want->values[i])
              << "lean fast-forward " << kGoldenFields[i];
        }
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kGoldenRows));
}

// --- Lean fast-forward path (profile off) ---

/// Sorted values in [0, universe) with duplicates.
std::vector<uint32_t> SortedWithDuplicates(uint32_t n, uint32_t universe,
                                           uint64_t seed) {
  Random rng(seed);
  std::vector<uint32_t> values(n);
  for (uint32_t& v : values) v = static_cast<uint32_t>(rng.Uniform(universe));
  std::sort(values.begin(), values.end());
  return values;
}

/// Strictly increasing values below 2n, dense enough to meet the values
/// of a duplicate-bearing other side.
std::vector<uint32_t> SortedDistinct(uint32_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<uint32_t> values(n);
  uint32_t value = 0;
  for (uint32_t& v : values) {
    v = value;
    value += 1 + static_cast<uint32_t>(rng.Uniform(2));
  }
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
      // boundaries, and matched pairs across the sides. The cases rotate
      // through duplicates on both sides, on A only and on B only, so a
      // SIMD form that needs one side strictly increasing also meets a
      // duplicate-bearing other side.
      c.name += "-dup";
      const uint64_t shape = seed % 3;
      c.a = shape == 2 ? SortedDistinct(na, seed)
                       : SortedWithDuplicates(
                             na, std::max<uint32_t>(na / 3, 2), seed);
      c.b = shape == 1 ? SortedDistinct(nb, seed + 1)
                       : SortedWithDuplicates(
                             nb, std::max<uint32_t>(nb / 2, 2), seed + 1);
      seed += 2;
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
          // Duplicate-bearing windows make the SIMD SOP forms decline to
          // SteadySop (set ops run them without input validation).
          if (!kernel.sort && (!kernel.scalar || kernel.op == SetOp::kMerge)) {
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
