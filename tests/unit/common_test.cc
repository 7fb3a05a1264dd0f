#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "common/bits.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace dba {
namespace {

// --- Status ---

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  const Status status = Status::InvalidArgument("bad input");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad input");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int code = 0; code <= 9; ++code) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(code)), "Unknown");
  }
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::Ok(), Status());
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_FALSE(Status::Internal("x") == Status::Internal("y"));
  EXPECT_FALSE(Status::Internal("x") == Status::NotFound("x"));
}

TEST(StatusTest, TransientCodesAreTheRetryableOnes) {
  // The engine's attempt ladder and the service's board re-submit ladder
  // both retry exactly these codes.
  for (const StatusCode code :
       {StatusCode::kDeadlineExceeded, StatusCode::kUnavailable,
        StatusCode::kDataLoss}) {
    EXPECT_TRUE(IsTransient(code)) << StatusCodeToString(code);
  }
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kFailedPrecondition, StatusCode::kResourceExhausted,
        StatusCode::kInternal, StatusCode::kNotFound,
        StatusCode::kRateLimited}) {
    EXPECT_FALSE(IsTransient(code)) << StatusCodeToString(code);
  }
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::Ok();
}

Status Propagates(int x) {
  DBA_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::AlreadyExists("reached end");
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_EQ(Propagates(-1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Propagates(1).code(), StatusCode::kAlreadyExists);
}

// --- Result ---

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = ParsePositive(21);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result = ParsePositive(-1);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

Result<int> UsesAssignOrReturn(int x) {
  DBA_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  return doubled + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*UsesAssignOrReturn(5), 11);
  EXPECT_EQ(UsesAssignOrReturn(0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> result = std::make_unique<int>(7);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = *std::move(result);
  EXPECT_EQ(*owned, 7);
}

// --- Random ---

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(123);
  Random b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Random a(1);
  Random b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.Next64() == b.Next64();
  EXPECT_LT(equal, 2);
}

TEST(RandomTest, UniformStaysInBound) {
  Random rng(99);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.Uniform(bound), bound);
  }
}

TEST(RandomTest, UniformCoversSmallRange) {
  Random rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

// --- Bits ---

TEST(BitsTest, ExtractInsertRoundTrip) {
  const uint64_t word = 0xDEADBEEFCAFEF00Dull;
  for (int pos : {0, 5, 20, 40}) {
    for (int width : {1, 4, 12, 24}) {
      const uint64_t field = ExtractBits(word, pos, width);
      EXPECT_EQ(ExtractBits(InsertBits(0, pos, width, field), pos, width),
                field);
    }
  }
}

TEST(BitsTest, InsertMasksField) {
  EXPECT_EQ(InsertBits(0, 4, 4, 0xFF), 0xF0u);
}

TEST(BitsTest, SignExtend) {
  EXPECT_EQ(SignExtend(0x7FF, 12), 2047);
  EXPECT_EQ(SignExtend(0x800, 12), -2048);
  EXPECT_EQ(SignExtend(0xFFF, 12), -1);
  EXPECT_EQ(SignExtend(0, 12), 0);
  EXPECT_EQ(SignExtend(0x80, 8), -128);
}

TEST(BitsTest, Alignment) {
  EXPECT_TRUE(IsAligned(32, 16));
  EXPECT_FALSE(IsAligned(33, 16));
  EXPECT_EQ(AlignDown(33, 16), 32u);
  EXPECT_EQ(AlignUp(33, 16), 48u);
  EXPECT_EQ(AlignUp(32, 16), 32u);
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(65));
  EXPECT_FALSE(IsPowerOfTwo(0));
}

// --- ThreadPool ---

TEST(ThreadPoolTest, ClampsToOneWorker) {
  common::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  EXPECT_GE(common::ThreadPool::HardwareConcurrency(), 1);
}

TEST(ThreadPoolTest, RunExecutesTasksBeforeDestruction) {
  std::atomic<int> counter{0};
  {
    // The destructor drains the queue before joining the workers.
    common::ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Run([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  common::ThreadPool pool(4);
  for (const size_t n : {0u, 1u, 3u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, [&hits](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST(ThreadPoolTest, ParallelForResultsAreOrderedBySlot) {
  common::ThreadPool pool(3);
  std::vector<size_t> out(257, 0);
  pool.ParallelFor(out.size(), [&out](size_t i) { out[i] = i * i; });
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, ParallelForMoreTasksThanWorkers) {
  common::ThreadPool pool(2);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(500, [&sum](size_t i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), 500u * 501u / 2);
}

}  // namespace
}  // namespace dba
