// Small-scope exhaustive check (ctest label "differential"): every
// relative order of two short sorted inputs, and every short sort input
// over a small alphabet, through the EIS kernels on both EIS
// configurations in every execution mode.
//
// A set pattern is a word over {A, B, E}: the next value is in A only,
// in B only, or in both. All words with |A|, |B| <= 6 (24319 patterns)
// cover the 0-, 1- and 2-window cases, partial windows on both sides, a
// matched pair truncating a merge at the fourth Result slot, and every
// tie a four-lane window can hold. The values straddle 2^31, so a signed
// compare where an unsigned one belongs shows up too. Each pattern runs
// intersect, union, difference and merge on DBA_1LSU_EIS and DBA_2LSU_EIS
// with partial loading on and off, and three things must hold:
//  - interpret, fast-forward and turbo results equal the scalar baseline;
//  - fast-forward ExecStats and EisCounters equal interpret's;
//  - turbo results equal the others (its cycles may differ by design).
// Merge inputs may repeat a value inside one side, which a strictly
// increasing pattern never does: every pair of non-decreasing inputs of
// length <= 6 over three values (7056 pairs) runs the merge kernel under
// the same checks. So does every sort input of length <= 7 over those
// three values (3280 inputs), against baseline::ScalarMergeSort. The
// three values are 1, 2^31 and the presort's padding value 0xFFFFFFFF.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/scalar_baseline.h"
#include "core/processor.h"
#include "shared/kernel_grid.h"
#include "sim/exec_mode.h"

namespace dba {
namespace {

using test::ExpectCountersIdentical;
using test::ExpectStatsBitIdentical;
using test::Kernel;

constexpr int kMaxSide = 6;
constexpr uint32_t kFirstValue = 0x7FFFFFFCu;  // the sixth value is 2^31 + 1

struct SetPattern {
  std::vector<uint32_t> a;
  std::vector<uint32_t> b;
  std::string word;
};

/// Every word over {A, B, E} whose sides stay within kMaxSide; the k-th
/// letter places value kFirstValue + k.
void AppendPatterns(SetPattern* prefix, std::vector<SetPattern>* out) {
  out->push_back(*prefix);
  const uint32_t value =
      kFirstValue + static_cast<uint32_t>(prefix->word.size());
  for (const char letter : {'A', 'B', 'E'}) {
    const bool to_a = letter != 'B';
    const bool to_b = letter != 'A';
    if ((to_a && prefix->a.size() == kMaxSide) ||
        (to_b && prefix->b.size() == kMaxSide)) {
      continue;
    }
    if (to_a) prefix->a.push_back(value);
    if (to_b) prefix->b.push_back(value);
    prefix->word.push_back(letter);
    AppendPatterns(prefix, out);
    prefix->word.pop_back();
    if (to_b) prefix->b.pop_back();
    if (to_a) prefix->a.pop_back();
  }
}

std::vector<SetPattern> AllSetPatterns() {
  std::vector<SetPattern> patterns;
  SetPattern empty;
  AppendPatterns(&empty, &patterns);
  return patterns;
}

std::vector<uint32_t> ScalarReference(SetOp op, const std::vector<uint32_t>& a,
                                      const std::vector<uint32_t>& b) {
  switch (op) {
    case SetOp::kIntersect:
      return baseline::ScalarIntersect(a, b);
    case SetOp::kUnion:
      return baseline::ScalarUnion(a, b);
    case SetOp::kDifference:
      return baseline::ScalarDifference(a, b);
    case SetOp::kMerge:
      break;
  }
  std::vector<uint32_t> merged;
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(merged));
  return merged;
}

/// Runs `kernel` over (a, b) in all three modes and applies the checks
/// above; false once a check failed.
bool CheckAllModes(Processor& processor, const Kernel& kernel,
                   const std::vector<uint32_t>& a,
                   const std::vector<uint32_t>& b,
                   const std::vector<uint32_t>& expected) {
  RunSettings settings;
  settings.sim_mode = sim::ExecMode::kInterpret;
  auto reference = test::RunKernel(processor, kernel, a, b, settings);
  EXPECT_TRUE(reference.ok()) << reference.status();
  if (!reference.ok()) return false;
  EXPECT_EQ(reference->result, expected);
  settings.sim_mode = sim::ExecMode::kFastForward;
  auto fast = test::RunKernel(processor, kernel, a, b, settings);
  EXPECT_TRUE(fast.ok()) << fast.status();
  if (!fast.ok()) return false;
  EXPECT_EQ(fast->result, expected);
  ExpectStatsBitIdentical(fast->stats, reference->stats, "fast-forward");
  ExpectCountersIdentical(fast->counters, reference->counters);
  settings.sim_mode = sim::ExecMode::kTurbo;
  auto turbo = test::RunKernel(processor, kernel, a, b, settings);
  EXPECT_TRUE(turbo.ok()) << turbo.status();
  if (!turbo.ok()) return false;
  EXPECT_EQ(turbo->result, expected);
  return !::testing::Test::HasFailure();
}

class SmallScopeSetOpTest
    : public ::testing::TestWithParam<std::tuple<ProcessorKind, bool>> {};

TEST_P(SmallScopeSetOpTest, EveryOrderPatternMatchesBaselineInEveryMode) {
  const auto [kind, partial] = GetParam();
  ProcessorOptions options;
  options.partial_loading = partial;
  auto processor = Processor::Create(kind, options);
  ASSERT_TRUE(processor.ok());
  const std::vector<SetPattern> patterns = AllSetPatterns();
  ASSERT_EQ(patterns.size(), 24319u);
  for (const Kernel& kernel : test::kKernels) {
    if (kernel.scalar || kernel.sort) continue;
    for (const SetPattern& pattern : patterns) {
      SCOPED_TRACE(std::string(kernel.name) + " pattern '" + pattern.word +
                   "'");
      if (!CheckAllModes(**processor, kernel, pattern.a, pattern.b,
                         ScalarReference(kernel.op, pattern.a, pattern.b))) {
        return;  // one failing pattern tells the story
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EisConfigsAndPartialLoading, SmallScopeSetOpTest,
    ::testing::Combine(::testing::Values(ProcessorKind::kDba1LsuEis,
                                         ProcessorKind::kDba2LsuEis),
                       ::testing::Bool()));

constexpr uint32_t kAlphabet[] = {1, 0x80000000u, 0xFFFFFFFFu};

const Kernel& EisKernel(bool sort, SetOp op) {
  return *std::find_if(std::begin(test::kKernels), std::end(test::kKernels),
                       [&](const Kernel& k) {
                         return !k.scalar && k.sort == sort && k.op == op;
                       });
}

/// Every non-decreasing sequence of length <= `max_length` over kAlphabet.
std::vector<std::vector<uint32_t>> NonDecreasingSequences(size_t max_length) {
  std::vector<std::vector<uint32_t>> out = {{}};
  for (size_t i = 0; i < out.size(); ++i) {
    if (out[i].size() == max_length) continue;
    for (const uint32_t value : kAlphabet) {
      if (!out[i].empty() && value < out[i].back()) continue;
      std::vector<uint32_t> longer = out[i];
      longer.push_back(value);
      out.push_back(std::move(longer));
    }
  }
  return out;
}

class SmallScopeMergeTest : public ::testing::TestWithParam<ProcessorKind> {};

TEST_P(SmallScopeMergeTest, EveryDuplicatePatternMatchesBaselineInEveryMode) {
  auto processor = Processor::Create(GetParam());
  ASSERT_TRUE(processor.ok());
  const std::vector<std::vector<uint32_t>> sides = NonDecreasingSequences(6);
  ASSERT_EQ(sides.size(), 84u);
  const Kernel& merge = EisKernel(/*sort=*/false, SetOp::kMerge);
  for (const std::vector<uint32_t>& a : sides) {
    for (const std::vector<uint32_t>& b : sides) {
      SCOPED_TRACE("merge of " + testing::PrintToString(a) + " and " +
                   testing::PrintToString(b));
      if (!CheckAllModes(**processor, merge, a, b,
                         ScalarReference(SetOp::kMerge, a, b))) {
        return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EisConfigs, SmallScopeMergeTest,
                         ::testing::Values(ProcessorKind::kDba1LsuEis,
                                           ProcessorKind::kDba2LsuEis));

class SmallScopeSortTest : public ::testing::TestWithParam<ProcessorKind> {};

TEST_P(SmallScopeSortTest, EveryShortInputMatchesBaselineInEveryMode) {
  auto processor = Processor::Create(GetParam());
  ASSERT_TRUE(processor.ok());
  const Kernel& sort = EisKernel(/*sort=*/true, SetOp::kMerge);
  int checked = 0;
  for (size_t n = 0; n <= 7; ++n) {
    std::vector<size_t> digits(n, 0);  // base-3 counter over the alphabet
    for (;;) {
      std::vector<uint32_t> values(n);
      for (size_t i = 0; i < n; ++i) values[i] = kAlphabet[digits[i]];
      SCOPED_TRACE("sort of " + testing::PrintToString(values));
      if (!CheckAllModes(**processor, sort, values, {},
                         baseline::ScalarMergeSort(values))) {
        return;
      }
      ++checked;
      size_t i = 0;
      while (i < n && ++digits[i] == 3) digits[i++] = 0;
      if (i == n) break;
    }
  }
  EXPECT_EQ(checked, 3280);
}

INSTANTIATE_TEST_SUITE_P(EisConfigs, SmallScopeSortTest,
                         ::testing::Values(ProcessorKind::kDba1LsuEis,
                                           ProcessorKind::kDba2LsuEis));

}  // namespace
}  // namespace dba
