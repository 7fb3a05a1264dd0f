// Tests of the string-scan extension and its kernels: dictionary
// equality and prefix (LIKE 'abc%') predicates over fixed-width
// 16-byte string columns.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/random.h"
#include "dbkern/string_kernels.h"
#include "isa/assembler.h"
#include "isa/registers.h"
#include "mem/memory.h"
#include "sim/cpu.h"
#include "tie/string_extension.h"

namespace dba {
namespace {

using isa::Reg;
using tie::StringExtension;

constexpr uint64_t kColumnBase = 0x1000;
constexpr uint64_t kPatternBase = 0x80000;
constexpr uint64_t kMaskBase = 0x80010;
constexpr uint64_t kResultBase = 0x90000;

/// Pads a string to a 16-byte row (zero-filled).
std::array<uint8_t, 16> Row(const std::string& text) {
  std::array<uint8_t, 16> row{};
  std::memcpy(row.data(), text.data(), std::min<size_t>(16, text.size()));
  return row;
}

std::vector<uint32_t> AsWords(const std::vector<std::array<uint8_t, 16>>& rows) {
  std::vector<uint32_t> words(rows.size() * 4);
  // memcpy's pointers must not be null, which an empty vector's may be.
  if (!rows.empty()) std::memcpy(words.data(), rows.data(), rows.size() * 16);
  return words;
}

class StringScanTest : public ::testing::Test {
 protected:
  StringScanTest()
      : memory_(*mem::Memory::Create({.name = "m",
                                      .base = kColumnBase,
                                      .size = 1 << 20,
                                      .access_latency = 1})),
        cpu_(MakeConfig()) {
    EXPECT_TRUE(cpu_.AttachMemory(&memory_).ok());
    EXPECT_TRUE(ext_.Attach(&cpu_).ok());
  }

  static sim::CoreConfig MakeConfig() {
    sim::CoreConfig config;
    config.num_lsus = 2;
    config.data_bus_bits = 128;
    config.instruction_bus_bits = 64;
    return config;
  }

  /// Scans `rows` for `pattern` with `prefix_len` significant bytes
  /// (0 = full 16-byte equality). Returns (matching rids, cycles).
  Result<std::pair<std::vector<uint32_t>, uint64_t>> RunScan(
      const std::vector<std::array<uint8_t, 16>>& rows,
      const std::string& pattern, size_t significant_bytes,
      bool use_extension) {
    DBA_RETURN_IF_ERROR(memory_.WriteBlock(kColumnBase, AsWords(rows)));
    std::array<uint8_t, 16> pattern_row = Row(pattern);
    std::array<uint8_t, 16> mask_row{};
    for (size_t i = 0; i < significant_bytes && i < 16; ++i) {
      mask_row[i] = 0xFF;
    }
    DBA_RETURN_IF_ERROR(
        memory_.WriteBlock(kPatternBase, AsWords({pattern_row})));
    DBA_RETURN_IF_ERROR(memory_.WriteBlock(kMaskBase, AsWords({mask_row})));

    DBA_ASSIGN_OR_RETURN(isa::Program program,
                         dbkern::BuildStringScanKernel(use_extension));
    program_ = std::move(program);
    cpu_.ResetArchState();
    ext_.ResetState();
    cpu_.set_reg(Reg::a0, kColumnBase);
    cpu_.set_reg(Reg::a1, kPatternBase);
    cpu_.set_reg(Reg::a2, static_cast<uint32_t>(rows.size()));
    cpu_.set_reg(Reg::a3, kMaskBase);
    cpu_.set_reg(Reg::a4, kResultBase);
    DBA_RETURN_IF_ERROR(cpu_.LoadProgram(program_));
    DBA_ASSIGN_OR_RETURN(sim::ExecStats stats, cpu_.Run());
    const uint32_t count = cpu_.reg(Reg::a5);
    DBA_ASSIGN_OR_RETURN(std::vector<uint32_t> rids,
                         memory_.ReadBlock(kResultBase, count));
    return std::make_pair(std::move(rids), stats.cycles);
  }

  mem::Memory memory_;
  sim::Cpu cpu_;
  StringExtension ext_;
  isa::Program program_;
};

TEST_F(StringScanTest, EqualityPredicateBothPaths) {
  const std::vector<std::array<uint8_t, 16>> rows = {
      Row("OPEN"), Row("CLOSED"), Row("OPEN"), Row("PENDING"),
      Row("OPEN"), Row("OPENX")};
  for (bool use_extension : {true, false}) {
    auto run = RunScan(rows, "OPEN", 16, use_extension);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->first, (std::vector<uint32_t>{0, 2, 4}))
        << "ext=" << use_extension;
  }
}

TEST_F(StringScanTest, PrefixPredicateLike) {
  // status LIKE 'OPEN%': mask covers the first four bytes only.
  const std::vector<std::array<uint8_t, 16>> rows = {
      Row("OPEN"), Row("OPENX"), Row("OPEN-2024"), Row("CLOSED"),
      Row("OP")};
  for (bool use_extension : {true, false}) {
    auto run = RunScan(rows, "OPEN", 4, use_extension);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->first, (std::vector<uint32_t>{0, 1, 2}))
        << "ext=" << use_extension;
  }
}

TEST_F(StringScanTest, AllWildcardsMatchesEverything) {
  const std::vector<std::array<uint8_t, 16>> rows = {Row("A"), Row("B"),
                                                     Row("C")};
  auto run = RunScan(rows, "ZZZ", 0, true);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->first, (std::vector<uint32_t>{0, 1, 2}));
}

TEST_F(StringScanTest, EmptyColumn) {
  for (bool use_extension : {true, false}) {
    auto run = RunScan({}, "X", 16, use_extension);
    ASSERT_TRUE(run.ok());
    EXPECT_TRUE(run->first.empty());
  }
}

TEST_F(StringScanTest, RandomizedAgainstOracle) {
  Random rng(7);
  const char alphabet[] = "ABC";
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::array<uint8_t, 16>> rows;
    const auto n = rng.Uniform(120);
    for (uint64_t i = 0; i < n; ++i) {
      std::string text;
      const auto len = rng.Uniform(6);
      for (uint64_t c = 0; c < len; ++c) {
        text += alphabet[rng.Uniform(3)];
      }
      rows.push_back(Row(text));
    }
    std::string pattern;
    const auto plen = 1 + rng.Uniform(3);
    for (uint64_t c = 0; c < plen; ++c) pattern += alphabet[rng.Uniform(3)];
    const size_t significant = pattern.size();

    auto hw = RunScan(rows, pattern, significant, true);
    auto sw = RunScan(rows, pattern, significant, false);
    ASSERT_TRUE(hw.ok());
    ASSERT_TRUE(sw.ok());
    EXPECT_EQ(hw->first, sw->first) << "trial " << trial;

    // Host oracle.
    std::array<uint8_t, 16> pattern_row = Row(pattern);
    std::array<uint8_t, 16> mask_row{};
    for (size_t i = 0; i < significant; ++i) mask_row[i] = 0xFF;
    std::vector<uint32_t> expected;
    for (uint32_t rid = 0; rid < rows.size(); ++rid) {
      if (StringExtension::Matches(rows[rid].data(), pattern_row.data(),
                                   mask_row.data())) {
        expected.push_back(rid);
      }
    }
    ASSERT_EQ(hw->first, expected) << "trial " << trial;
  }
}

TEST_F(StringScanTest, MergedInstructionIsFaster) {
  std::vector<std::array<uint8_t, 16>> rows(500, Row("NOPE"));
  rows[123] = Row("YES");
  auto hw = RunScan(rows, "YES", 16, true);
  auto sw = RunScan(rows, "YES", 16, false);
  ASSERT_TRUE(hw.ok());
  ASSERT_TRUE(sw.ok());
  EXPECT_EQ(hw->first, sw->first);
  EXPECT_LT(hw->second * 2, sw->second);
}

TEST_F(StringScanTest, ScanBeforeInitFails) {
  isa::Assembler masm;
  masm.Tie(StringExtension::kScan, 6);
  masm.Halt();
  auto program = masm.Finish();
  ASSERT_TRUE(program.ok());
  program_ = *std::move(program);
  ASSERT_TRUE(cpu_.LoadProgram(program_).ok());
  cpu_.ResetArchState();
  ext_.ResetState();
  EXPECT_EQ(cpu_.Run().status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace dba
