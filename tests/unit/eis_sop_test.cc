// Unit tests of the SOP comparator semantics, the compare-exchange
// networks, and the datapath FIFO -- the "dedicated unit test for each
// newly introduced instruction ... especially considering corner cases"
// of the paper's verification flow (Section 3.1).

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "eis/fifo.h"
#include "eis/networks.h"
#include "eis/sop.h"

namespace dba::eis {
namespace {

Window MakeWindow(std::initializer_list<uint32_t> values) {
  Window window;
  for (uint32_t value : values) window.Push(value);
  return window;
}

std::vector<uint32_t> Emitted(const SopOutcome& outcome) {
  return {outcome.emit.begin(),
          outcome.emit.begin() + outcome.emit_count};
}

// --- Window ---

TEST(WindowTest, PushAndConsume) {
  Window window = MakeWindow({1, 3, 5});
  EXPECT_EQ(window.count, 3);
  EXPECT_EQ(window.max(), 5u);
  window.Consume(2);
  EXPECT_EQ(window.count, 1);
  EXPECT_EQ(window.lanes[0], 5u);
  window.Consume(0);
  EXPECT_EQ(window.count, 1);
  window.Consume(1);
  EXPECT_TRUE(window.empty());
}

TEST(WindowTest, FullAndEmpty) {
  Window window;
  EXPECT_TRUE(window.empty());
  for (uint32_t v : {1u, 2u, 3u, 4u}) window.Push(v);
  EXPECT_TRUE(window.full());
}

// --- ComputeSop: intersection ---

TEST(SopIntersectTest, DisjointConsumesSmallerSide) {
  const Window a = MakeWindow({1, 2, 3, 4});
  const Window b = MakeWindow({10, 20, 30, 40});
  const SopOutcome outcome = ComputeSop(SopMode::kIntersect, a, false, b, false);
  EXPECT_EQ(outcome.consume_a, 4);
  EXPECT_EQ(outcome.consume_b, 0);
  EXPECT_EQ(outcome.emit_count, 0);
  EXPECT_EQ(outcome.matches, 0);
}

TEST(SopIntersectTest, IdenticalWindowsConsumeBothEmitFour) {
  const Window a = MakeWindow({5, 6, 7, 8});
  const Window b = MakeWindow({5, 6, 7, 8});
  const SopOutcome outcome = ComputeSop(SopMode::kIntersect, a, false, b, false);
  EXPECT_EQ(outcome.consume_a, 4);
  EXPECT_EQ(outcome.consume_b, 4);
  EXPECT_EQ(Emitted(outcome), (std::vector<uint32_t>{5, 6, 7, 8}));
  EXPECT_EQ(outcome.matches, 4);
}

TEST(SopIntersectTest, InterleavedPartialMatch) {
  const Window a = MakeWindow({1, 4, 6, 9});
  const Window b = MakeWindow({2, 4, 9, 12});
  const SopOutcome outcome = ComputeSop(SopMode::kIntersect, a, false, b, false);
  // A consumes everything <= 12; B consumes everything <= 9.
  EXPECT_EQ(outcome.consume_a, 4);
  EXPECT_EQ(outcome.consume_b, 3);
  EXPECT_EQ(Emitted(outcome), (std::vector<uint32_t>{4, 9}));
}

TEST(SopIntersectTest, EmptyOtherWindowAwaitingRefillConsumesNothing) {
  const Window a = MakeWindow({1, 2, 3, 4});
  const Window b;  // empty, stream NOT drained
  const SopOutcome outcome = ComputeSop(SopMode::kIntersect, a, false, b, false);
  EXPECT_EQ(outcome.consume_a, 0);
  EXPECT_EQ(outcome.consume_b, 0);
  EXPECT_EQ(outcome.emit_count, 0);
}

TEST(SopIntersectTest, DrainedOtherSideReleasesEverything) {
  const Window a = MakeWindow({1, 2, 3, 4});
  const Window b;  // empty, stream drained
  const SopOutcome outcome = ComputeSop(SopMode::kIntersect, a, false, b, true);
  EXPECT_EQ(outcome.consume_a, 4);
  EXPECT_EQ(outcome.emit_count, 0);
}

TEST(SopIntersectTest, BothEmpty) {
  const Window a;
  const Window b;
  const SopOutcome outcome = ComputeSop(SopMode::kIntersect, a, true, b, true);
  EXPECT_EQ(outcome.consume_a, 0);
  EXPECT_EQ(outcome.consume_b, 0);
  EXPECT_EQ(outcome.emit_count, 0);
}

// --- ComputeSop: union ---

TEST(SopUnionTest, MergesAndDeduplicates) {
  const Window a = MakeWindow({1, 3, 5, 7});
  const Window b = MakeWindow({3, 4, 5, 6});
  const SopOutcome outcome = ComputeSop(SopMode::kUnion, a, false, b, false);
  // Result states cap emission at 4: 1,3,4,5 -- consumption truncates.
  EXPECT_EQ(Emitted(outcome), (std::vector<uint32_t>{1, 3, 4, 5}));
  EXPECT_EQ(outcome.consume_a, 3);  // 1, 3, 5
  EXPECT_EQ(outcome.consume_b, 3);  // 3, 4, 5
  EXPECT_EQ(outcome.matches, 2);
}

TEST(SopUnionTest, EmissionCapStopsBeforeFifthValue) {
  const Window a = MakeWindow({1, 2, 3, 4});
  const Window b = MakeWindow({5, 6, 7, 8});
  const SopOutcome outcome = ComputeSop(SopMode::kUnion, a, false, b, false);
  EXPECT_EQ(Emitted(outcome), (std::vector<uint32_t>{1, 2, 3, 4}));
  EXPECT_EQ(outcome.consume_a, 4);
  EXPECT_EQ(outcome.consume_b, 0);  // 5..8 wait for the next SOP
}

TEST(SopUnionTest, TailOfDrainedSide) {
  const Window a = MakeWindow({7, 9});
  const Window b;  // drained
  const SopOutcome outcome = ComputeSop(SopMode::kUnion, a, false, b, true);
  EXPECT_EQ(Emitted(outcome), (std::vector<uint32_t>{7, 9}));
  EXPECT_EQ(outcome.consume_a, 2);
}

// --- ComputeSop: difference ---

TEST(SopDifferenceTest, SuppressesMatches) {
  const Window a = MakeWindow({1, 4, 6, 9});
  const Window b = MakeWindow({4, 6, 10, 12});
  const SopOutcome outcome =
      ComputeSop(SopMode::kDifference, a, false, b, false);
  EXPECT_EQ(Emitted(outcome), (std::vector<uint32_t>{1, 9}));
  EXPECT_EQ(outcome.consume_a, 4);
  EXPECT_EQ(outcome.consume_b, 2);  // 4, 6 (<= amax 9)
  EXPECT_EQ(outcome.matches, 2);
}

TEST(SopDifferenceTest, BSmallerElementsConsumedSilently) {
  const Window a = MakeWindow({10, 11});
  const Window b = MakeWindow({1, 2, 3, 4});
  const SopOutcome outcome =
      ComputeSop(SopMode::kDifference, a, false, b, false);
  EXPECT_EQ(outcome.consume_a, 0);  // amax 11 > bmax 4
  EXPECT_EQ(outcome.consume_b, 4);
  EXPECT_EQ(outcome.emit_count, 0);
}

// --- ComputeSop: merge ---

TEST(SopMergeTest, KeepsDuplicates) {
  const Window a = MakeWindow({2, 2});
  const Window b = MakeWindow({2, 3});
  const SopOutcome outcome = ComputeSop(SopMode::kMerge, a, false, b, false);
  // B's 3 exceeds amax = 2 and must stay: a future A element could
  // still be a duplicate 2 that sorts before it.
  EXPECT_EQ(Emitted(outcome), (std::vector<uint32_t>{2, 2, 2}));
  EXPECT_EQ(outcome.consume_a, 2);
  EXPECT_EQ(outcome.consume_b, 1);
}

TEST(SopMergeTest, MatchedPairNeedsTwoResultSlots) {
  const Window a = MakeWindow({1, 2, 5, 5});
  const Window b = MakeWindow({5, 6, 7, 8});
  const SopOutcome outcome = ComputeSop(SopMode::kMerge, a, false, b, false);
  // 1, 2 emitted; then the 5==5 pair would need slots 3 and 4: emits
  // both; the second 5 of A would overflow -> truncation.
  EXPECT_EQ(Emitted(outcome), (std::vector<uint32_t>{1, 2, 5, 5}));
  EXPECT_EQ(outcome.consume_a + outcome.consume_b, 4);
}

TEST(SopMergeTest, EmitsLowerFourOfFullWindows) {
  const Window a = MakeWindow({1, 3, 5, 7});
  const Window b = MakeWindow({2, 4, 6, 8});
  const SopOutcome outcome = ComputeSop(SopMode::kMerge, a, false, b, false);
  EXPECT_EQ(Emitted(outcome), (std::vector<uint32_t>{1, 2, 3, 4}));
  EXPECT_EQ(outcome.consume_a, 2);
  EXPECT_EQ(outcome.consume_b, 2);
}

// --- Result-size rule ---

TEST(SopResultSizeTest, MaxResultSizePerMode) {
  struct Case {
    SopMode mode;
    size_t na;
    size_t nb;
    size_t max;
  };
  const Case cases[] = {
      {SopMode::kIntersect, 5, 3, 3},  {SopMode::kIntersect, 2, 7, 2},
      {SopMode::kIntersect, 0, 4, 0},  {SopMode::kDifference, 5, 3, 5},
      {SopMode::kDifference, 2, 7, 2}, {SopMode::kDifference, 0, 4, 0},
      {SopMode::kUnion, 5, 3, 8},      {SopMode::kUnion, 0, 4, 4},
      {SopMode::kMerge, 5, 3, 8},      {SopMode::kMerge, 4, 0, 4},
      {static_cast<SopMode>(4), 5, 3, 8},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(MaxResultSize(c.mode, c.na, c.nb), c.max)
        << static_cast<int>(c.mode) << ": " << c.na << " x " << c.nb;
  }
}

// --- ComputeSop invariants (randomized) ---

TEST(SopInvariantsTest, RandomizedWindows) {
  Random rng(77);
  for (int trial = 0; trial < 5000; ++trial) {
    auto make = [&rng](bool allow_dups) {
      Window window;
      const int n = static_cast<int>(rng.Uniform(5));
      uint32_t value = static_cast<uint32_t>(rng.Uniform(20));
      for (int i = 0; i < n; ++i) {
        window.Push(value);
        value += allow_dups ? static_cast<uint32_t>(rng.Uniform(3))
                            : 1 + static_cast<uint32_t>(rng.Uniform(3));
      }
      return window;
    };
    const auto mode = static_cast<SopMode>(rng.Uniform(4));
    const bool dups = mode == SopMode::kMerge;
    const Window a = make(dups);
    const Window b = make(dups);
    const bool a_drained = a.empty() && rng.Bernoulli(0.5);
    const bool b_drained = b.empty() && rng.Bernoulli(0.5);
    const SopOutcome outcome = ComputeSop(mode, a, a_drained, b, b_drained);

    // Consumption is a prefix within bounds.
    ASSERT_GE(outcome.consume_a, 0);
    ASSERT_LE(outcome.consume_a, a.count);
    ASSERT_GE(outcome.consume_b, 0);
    ASSERT_LE(outcome.consume_b, b.count);
    // Result states never overflow.
    ASSERT_LE(outcome.emit_count, 4);
    // Emission is sorted.
    for (int i = 1; i < outcome.emit_count; ++i) {
      ASSERT_LE(outcome.emit[static_cast<size_t>(i - 1)],
                outcome.emit[static_cast<size_t>(i)]);
    }
    // Progress: if both windows hold data, something is consumed.
    if (!a.empty() && !b.empty()) {
      ASSERT_GT(outcome.consume_a + outcome.consume_b, 0);
    }
    // Remaining elements are strictly greater than anything emitted.
    if (outcome.emit_count > 0) {
      const uint32_t last = outcome.emit[static_cast<size_t>(
          outcome.emit_count - 1)];
      if (outcome.consume_a < a.count) {
        ASSERT_GE(a.lanes[static_cast<size_t>(outcome.consume_a)], last);
      }
      if (outcome.consume_b < b.count) {
        ASSERT_GE(b.lanes[static_cast<size_t>(outcome.consume_b)], last);
      }
    }
  }
}

// --- Networks ---

TEST(NetworksTest, SortNetwork4AllPermutations) {
  std::array<uint32_t, 4> base = {1, 2, 3, 4};
  std::sort(base.begin(), base.end());
  std::array<uint32_t, 4> perm = base;
  do {
    std::array<uint32_t, 4> values = perm;
    SortNetwork4(values);
    EXPECT_EQ(values, base);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(NetworksTest, SortNetwork4Duplicates) {
  std::array<uint32_t, 4> values = {7, 7, 1, 7};
  SortNetwork4(values);
  EXPECT_EQ(values, (std::array<uint32_t, 4>{1, 7, 7, 7}));
}

TEST(NetworksTest, MergeNetworkRandomized) {
  Random rng(4);
  for (int trial = 0; trial < 2000; ++trial) {
    std::array<uint32_t, 4> lo;
    std::array<uint32_t, 4> hi;
    for (auto& v : lo) v = static_cast<uint32_t>(rng.Uniform(100));
    for (auto& v : hi) v = static_cast<uint32_t>(rng.Uniform(100));
    std::sort(lo.begin(), lo.end());
    std::sort(hi.begin(), hi.end());
    std::array<uint32_t, 8> expected;
    std::merge(lo.begin(), lo.end(), hi.begin(), hi.end(), expected.begin());
    MergeNetwork4x4(lo, hi);
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(lo[static_cast<size_t>(i)], expected[static_cast<size_t>(i)]);
      ASSERT_EQ(hi[static_cast<size_t>(i)],
                expected[static_cast<size_t>(i + 4)]);
    }
  }
}

// --- SmallFifo ---

TEST(FifoTest, PushPopOrder) {
  SmallFifo<uint32_t, 4> fifo;
  EXPECT_TRUE(fifo.empty());
  fifo.Push(1);
  fifo.Push(2);
  fifo.Push(3);
  EXPECT_EQ(fifo.size(), 3);
  EXPECT_EQ(fifo.Peek(), 1u);
  EXPECT_EQ(fifo.Peek(2), 3u);
  EXPECT_EQ(fifo.Pop(), 1u);
  EXPECT_EQ(fifo.Pop(), 2u);
  fifo.Push(4);
  fifo.Push(5);
  fifo.Push(6);
  EXPECT_TRUE(fifo.full());
  EXPECT_EQ(fifo.Pop(), 3u);
  EXPECT_EQ(fifo.Pop(), 4u);
  EXPECT_EQ(fifo.Pop(), 5u);
  EXPECT_EQ(fifo.Pop(), 6u);
  EXPECT_TRUE(fifo.empty());
}

TEST(FifoTest, WrapAroundManyTimes) {
  SmallFifo<uint32_t, 3> fifo;
  for (uint32_t i = 0; i < 100; ++i) {
    fifo.Push(i);
    EXPECT_EQ(fifo.Pop(), i);
  }
}

TEST(FifoTest, ClearResets) {
  SmallFifo<uint32_t, 2> fifo;
  fifo.Push(1);
  fifo.Clear();
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.space(), 2);
}

}  // namespace
}  // namespace dba::eis
