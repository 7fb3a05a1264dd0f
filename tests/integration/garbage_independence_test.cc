// Garbage independence (ctest label "differential"): no result and no
// ExecStats field may depend on memory a kernel neither was given nor
// wrote itself. Before each run every memory region of the core is
// filled with one of two seeded garbage patterns; the two runs must
// agree exactly.
//
// This closes a whole bug class rather than one instance: an engine that
// lets a lane beyond the stream (the rest of a tail beat, the unused part
// of a partial window) into a comparison, or that reads a buffered
// element back from memory the kernel has since overwritten, sees
// different garbage under the two fills. The garbage values are drawn
// from the inputs' own value range, so a stray lane can match a real
// element. Every kernel runs in every execution mode on both LSU
// configurations, at sizes that leave partial windows and tail beats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/processor.h"
#include "mem/memory.h"
#include "shared/kernel_grid.h"
#include "sim/exec_mode.h"

namespace dba {
namespace {

using test::ExpectCountersIdentical;
using test::ExpectStatsBitIdentical;
using test::Kernel;
using test::kKernels;

/// Fills every region of the core's memory map with values drawn from
/// [0, universe) by a generator seeded with `seed`.
void FillGarbage(Processor& processor, uint64_t seed, uint32_t universe) {
  Random rng(seed);
  for (mem::Memory* region : processor.cpu().memory_system().regions()) {
    std::span<uint8_t> raw = region->mutable_raw();
    for (size_t offset = 0; offset + 4 <= raw.size(); offset += 4) {
      const auto value = static_cast<uint32_t>(rng.Uniform(universe));
      std::memcpy(raw.data() + offset, &value, sizeof value);
    }
  }
}

/// `n` distinct values from [0, universe), ascending.
std::vector<uint32_t> SortedDistinct(uint32_t n, uint32_t universe,
                                     Random& rng) {
  std::vector<uint32_t> values(universe);
  std::iota(values.begin(), values.end(), 0u);
  for (uint32_t i = 0; i < n; ++i) {
    std::swap(values[i], values[i + rng.Uniform(universe - i)]);
  }
  values.resize(n);
  std::sort(values.begin(), values.end());
  return values;
}

/// `n` values from [0, universe), ascending, duplicates allowed.
std::vector<uint32_t> SortedWithDuplicates(uint32_t n, uint32_t universe,
                                           Random& rng) {
  std::vector<uint32_t> values(n);
  for (uint32_t& v : values) v = static_cast<uint32_t>(rng.Uniform(universe));
  std::sort(values.begin(), values.end());
  return values;
}

/// Sizes off the 4-element beat and window grid (plus a few on it), up
/// to a steady state long enough for the turbo bulk segment.
constexpr uint32_t kSizes[] = {1,  2,  3,   5,   6,   7,    9,   10,
                               13, 30, 67, 130, 257, 1001, 2049};

TEST(GarbageIndependenceTest, ResultsAndStatsIgnoreUnwrittenMemory) {
  int compared = 0;
  for (const ProcessorKind kind :
       {ProcessorKind::kDba1LsuEis, ProcessorKind::kDba2LsuEis}) {
    auto processor = Processor::Create(kind);
    ASSERT_TRUE(processor.ok());
    for (const Kernel& kernel : kKernels) {
      for (const sim::ExecMode mode :
           {sim::ExecMode::kInterpret, sim::ExecMode::kFastForward,
            sim::ExecMode::kTurbo}) {
        for (size_t i = 0; i < std::size(kSizes); ++i) {
          const uint32_t na = kSizes[i];
          const uint32_t nb = kSizes[(i + 5) % std::size(kSizes)];
          const uint32_t universe = 3 * std::max(na, nb) + 8;
          Random rng(1000 * i + 17);
          std::vector<uint32_t> a;
          std::vector<uint32_t> b;
          if (kernel.sort) {
            a = SortedWithDuplicates(na, universe, rng);
            for (uint32_t k = na; k > 1; --k) {
              std::swap(a[k - 1], a[rng.Uniform(k)]);
            }
          } else if (kernel.op == SetOp::kMerge) {
            a = SortedWithDuplicates(na, universe, rng);
            b = SortedWithDuplicates(nb, universe, rng);
          } else {
            a = SortedDistinct(na, universe, rng);
            b = SortedDistinct(nb, universe, rng);
          }
          const std::string context =
              std::string(kind == ProcessorKind::kDba1LsuEis ? "1lsu/"
                                                             : "2lsu/") +
              kernel.name + "/" + std::string(sim::ExecModeName(mode)) + "/" +
              std::to_string(na) + "x" + std::to_string(nb);
          SCOPED_TRACE(context);
          RunSettings settings;
          settings.sim_mode = mode;
          FillGarbage(**processor, 1, universe);
          auto first = test::RunKernel(**processor, kernel, a, b, settings);
          ASSERT_TRUE(first.ok()) << first.status().ToString();
          FillGarbage(**processor, 2, universe);
          auto second = test::RunKernel(**processor, kernel, a, b, settings);
          ASSERT_TRUE(second.ok()) << second.status().ToString();
          EXPECT_EQ(second->result, first->result);
          ExpectStatsBitIdentical(second->stats, first->stats, context);
          ExpectCountersIdentical(second->counters, first->counters);
          ++compared;
          if (HasFailure()) return;
        }
      }
    }
  }
  EXPECT_EQ(compared, 900);
}

}  // namespace
}  // namespace dba
