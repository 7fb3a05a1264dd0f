// Host-parallel board simulation: the number of host threads simulating
// the board's cores must never change what the board computes. These
// tests pin the bit-identity contract (result, per-core cycles,
// makespan) across host_threads settings, for all parallel operations,
// including partitions that overflow the local store and stream in
// chunks, and the degenerate empty-side ranges.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "baseline/scalar_baseline.h"
#include "common/thread_pool.h"
#include "core/processor.h"
#include "core/program_cache.h"
#include "core/workload.h"
#include "system/board.h"

namespace dba::system {
namespace {

std::unique_ptr<Board> MakeBoard(int num_cores, int host_threads) {
  BoardConfig config;
  config.num_cores = num_cores;
  config.host_threads = host_threads;
  auto board = Board::Create(config);
  EXPECT_TRUE(board.ok()) << board.status();
  return *std::move(board);
}

void ExpectIdenticalRuns(const ParallelRun& reference,
                         const ParallelRun& run, const char* what) {
  EXPECT_EQ(run.result, reference.result) << what;
  EXPECT_EQ(run.per_core_cycles, reference.per_core_cycles) << what;
  EXPECT_EQ(run.makespan_cycles, reference.makespan_cycles) << what;
  EXPECT_EQ(run.total_core_cycles, reference.total_core_cycles) << what;
  EXPECT_EQ(run.noc_bound, reference.noc_bound) << what;
  EXPECT_DOUBLE_EQ(run.energy_uj, reference.energy_uj) << what;
}

class BoardDeterminismTest : public ::testing::TestWithParam<SetOp> {};

TEST_P(BoardDeterminismTest, SetOpBitIdenticalAcrossHostThreads) {
  // 80000 elements over 8 cores: ~10000 per partition, beyond the
  // ~8188-element local-store capacity, so every core takes the
  // streamed chunked path.
  auto pair = GenerateSetPair(80000, 70000, 0.4, 7);
  ASSERT_TRUE(pair.ok());

  auto serial = MakeBoard(8, 1);
  auto reference = serial->RunSetOperation(GetParam(), pair->a, pair->b);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(reference->host_threads_used, 1);

  for (int host_threads : {2, 8}) {
    auto board = MakeBoard(8, host_threads);
    EXPECT_EQ(board->host_threads(), host_threads);
    auto run = board->RunSetOperation(GetParam(), pair->a, pair->b);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->host_threads_used, host_threads);
    ExpectIdenticalRuns(*reference, *run, "chunked set operation");
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, BoardDeterminismTest,
                         ::testing::Values(SetOp::kIntersect, SetOp::kUnion,
                                           SetOp::kDifference));

TEST(BoardParallelTest, SortBitIdenticalAcrossHostThreads) {
  // ~10000 values per bucket exceeds the ~8184-value sort capacity, so
  // cores external-sort their buckets in chunks.
  const auto values = GenerateSortInput(80000, 11);

  auto serial = MakeBoard(8, 1);
  auto reference = serial->RunSort(values);
  ASSERT_TRUE(reference.ok()) << reference.status();

  std::vector<uint32_t> expected = values;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(reference->result, expected);

  for (int host_threads : {2, 8}) {
    auto board = MakeBoard(8, host_threads);
    auto run = board->RunSort(values);
    ASSERT_TRUE(run.ok()) << run.status();
    ExpectIdenticalRuns(*reference, *run, "chunked sample-sort");
  }
}

// A sort's schedule follows from its buckets: the splitters decide how
// many values each core gets and the order of the values inside a bucket
// decides the cycles its core's sort takes. The figures were recorded
// with the bucketing done on one thread; the pool-parallel bucketing
// must leave every bucket with the same values in the same order, so a
// reordered bucket shows here even when the sorted result does not.
struct PinnedSort {
  const char* name;
  std::vector<uint32_t> values;
  std::vector<uint64_t> per_core_cycles;
  uint64_t makespan_cycles;
};

std::vector<uint32_t> FewDistinctValues(uint32_t n, uint64_t seed) {
  // Five distinct values, 0 and 0xFFFFFFFF among them: the sample
  // yields fewer splitters than cores, the last of them 0xFFFFFFFF.
  constexpr uint32_t kValues[] = {0, 7, 0x80000000u, 0xFFFFFFFEu,
                                  0xFFFFFFFFu};
  std::vector<uint32_t> values = GenerateSortInput(n, seed);
  for (uint32_t& value : values) value = kValues[value % 5];
  return values;
}

TEST(BoardParallelTest, SortSchedulePinnedAcrossHostThreads) {
  const PinnedSort cases[] = {
      {"random",
       GenerateSortInput(192000, 21),
       {176962, 232198, 208085, 204741, 164657, 206764, 237593, 219490,
        214972, 202741, 159082, 224040, 204034, 208556, 236785, 202315},
       237593},
      {"five distinct values",
       FewDistinctValues(48000, 22),
       {154681, 154819, 157874, 159315, 156397, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0},
       159315},
  };
  for (const PinnedSort& pinned : cases) {
    std::vector<uint32_t> expected = pinned.values;
    std::sort(expected.begin(), expected.end());
    for (int host_threads : {1, 2, 3}) {
      auto board = MakeBoard(16, host_threads);
      auto run = board->RunSort(pinned.values);
      ASSERT_TRUE(run.ok()) << run.status();
      EXPECT_EQ(run->result, expected) << pinned.name;
      EXPECT_EQ(run->per_core_cycles, pinned.per_core_cycles)
          << pinned.name << " at host_threads " << host_threads;
      EXPECT_EQ(run->makespan_cycles, pinned.makespan_cycles)
          << pinned.name << " at host_threads " << host_threads;
    }
  }
}

TEST(BoardParallelTest, SmallInputsBitIdenticalAcrossHostThreads) {
  // In-store path: partitions fit the local memories.
  auto pair = GenerateSetPair(6000, 5000, 0.5, 3);
  ASSERT_TRUE(pair.ok());
  auto serial = MakeBoard(4, 1);
  for (const SetOp op :
       {SetOp::kIntersect, SetOp::kUnion, SetOp::kDifference}) {
    auto reference = serial->RunSetOperation(op, pair->a, pair->b);
    ASSERT_TRUE(reference.ok()) << reference.status();
    auto board = MakeBoard(4, 4);
    auto run = board->RunSetOperation(op, pair->a, pair->b);
    ASSERT_TRUE(run.ok()) << run.status();
    ExpectIdenticalRuns(*reference, *run, "in-store set operation");
  }
}

TEST(BoardParallelTest, DegenerateRangesMatchReferenceAndAreDeterministic) {
  // All of B falls below every value of A: partitioning by A's range
  // leaves B-only and A-only ranges, so cores hit the degenerate
  // empty-side path.
  std::vector<uint32_t> a;
  std::vector<uint32_t> b;
  for (uint32_t i = 0; i < 20000; ++i) a.push_back(1000000 + 3 * i);
  for (uint32_t i = 0; i < 15000; ++i) b.push_back(2 * i);
  for (const SetOp op :
       {SetOp::kIntersect, SetOp::kUnion, SetOp::kDifference}) {
    auto serial = MakeBoard(8, 1);
    auto reference = serial->RunSetOperation(op, a, b);
    ASSERT_TRUE(reference.ok()) << reference.status();
    std::vector<uint32_t> expected;
    switch (op) {
      case SetOp::kIntersect:
        expected = baseline::ScalarIntersect(a, b);
        break;
      case SetOp::kUnion:
        expected = baseline::ScalarUnion(a, b);
        break;
      case SetOp::kDifference:
        expected = baseline::ScalarDifference(a, b);
        break;
      default:
        break;
    }
    EXPECT_EQ(reference->result, expected);
    auto board = MakeBoard(8, 8);
    auto run = board->RunSetOperation(op, a, b);
    ASSERT_TRUE(run.ok()) << run.status();
    ExpectIdenticalRuns(*reference, *run, "degenerate ranges");
  }
}

TEST(BoardParallelTest, HostTelemetryPopulated) {
  auto pair = GenerateSetPair(5000, 5000, 0.5, 5);
  ASSERT_TRUE(pair.ok());
  auto board = MakeBoard(2, 2);
  auto run = board->RunSetOperation(SetOp::kIntersect, pair->a, pair->b);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_GT(run->host_wall_seconds, 0.0);
  EXPECT_EQ(run->host_threads_used, 2);
}

TEST(BoardParallelTest, HostThreadsClampedToCores) {
  auto board = MakeBoard(2, 16);
  EXPECT_EQ(board->host_threads(), 2);
}

TEST(ProgramCacheTest, SharedCacheMatchesPerProcessorPrograms) {
  ProcessorOptions options;
  auto cache = ProgramCache::Build(options);
  ASSERT_TRUE(cache.ok()) << cache.status();
  auto shared = Processor::Create(ProcessorKind::kDba2LsuEis, options,
                                  *cache);
  ASSERT_TRUE(shared.ok()) << shared.status();
  auto own = Processor::Create(ProcessorKind::kDba2LsuEis, options);
  ASSERT_TRUE(own.ok()) << own.status();

  auto pair = GenerateSetPair(4000, 4000, 0.5, 9);
  ASSERT_TRUE(pair.ok());
  for (const SetOp op :
       {SetOp::kIntersect, SetOp::kUnion, SetOp::kDifference}) {
    auto a = (*shared)->RunSetOperation(op, pair->a, pair->b);
    auto c = (*own)->RunSetOperation(op, pair->a, pair->b);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(c.ok()) << c.status();
    EXPECT_EQ(a->result, c->result);
    EXPECT_EQ(a->metrics.cycles, c->metrics.cycles);
  }
  const auto values = GenerateSortInput(5000, 13);
  auto a = (*shared)->RunSort(values);
  auto c = (*own)->RunSort(values);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_EQ(a->sorted, c->sorted);
  EXPECT_EQ(a->metrics.cycles, c->metrics.cycles);
}

TEST(ProgramCacheTest, RejectsOptionsMismatch) {
  ProcessorOptions cache_options;
  cache_options.unroll = 8;
  auto cache = ProgramCache::Build(cache_options);
  ASSERT_TRUE(cache.ok());
  ProcessorOptions other;
  other.unroll = 16;
  auto processor =
      Processor::Create(ProcessorKind::kDba2LsuEis, other, *cache);
  EXPECT_EQ(processor.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dba::system
