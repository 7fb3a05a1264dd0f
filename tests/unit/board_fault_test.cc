// Fault-tolerant board execution: recovery correctness (bit-exact
// results under injected failures), retry/quarantine/degradation
// telemetry, determinism at any host_threads setting, and the
// BoardConfig validation added with the fault framework.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/workload.h"
#include "system/board.h"

namespace dba::system {
namespace {

std::unique_ptr<Board> MakeBoard(const BoardConfig& config) {
  auto board = Board::Create(config);
  EXPECT_TRUE(board.ok()) << board.status();
  return board.ok() ? *std::move(board) : nullptr;
}

BoardConfig BaseConfig(int cores = 4, int host_threads = 1) {
  BoardConfig config;
  config.num_cores = cores;
  config.host_threads = host_threads;
  return config;
}

/// A fast hang detection budget so tests do not simulate 50k-cycle
/// spins per injected hang.
void UseFastWatchdog(BoardConfig* config) {
  config->fault_plan.hang_watchdog_cycles = 2000;
}

struct SetPair {
  std::vector<uint32_t> a;
  std::vector<uint32_t> b;
};

SetPair MakePair(uint32_t n = 20000) {
  auto pair = GenerateSetPair(n, n, 0.5, 42);
  EXPECT_TRUE(pair.ok()) << pair.status();
  return {pair->a, pair->b};
}

void ExpectZeroRecovery(const RecoveryTelemetry& recovery) {
  EXPECT_EQ(recovery.faults_injected, 0u);
  EXPECT_EQ(recovery.failed_attempts, 0u);
  EXPECT_EQ(recovery.retries, 0u);
  EXPECT_EQ(recovery.requeues, 0u);
  EXPECT_EQ(recovery.verification_failures, 0u);
  EXPECT_EQ(recovery.recovery_cycles, 0u);
  EXPECT_TRUE(recovery.quarantined_cores.empty());
  EXPECT_FALSE(recovery.degraded);
}

TEST(BoardFaultTest, FaultFreeRunReportsZeroRecovery) {
  auto board = MakeBoard(BaseConfig());
  ASSERT_NE(board, nullptr);
  const SetPair pair = MakePair();
  auto run = board->RunSetOperation(SetOp::kIntersect, pair.a, pair.b);
  ASSERT_TRUE(run.ok()) << run.status();
  ExpectZeroRecovery(run->recovery);
  EXPECT_EQ(run->recovery.rounds, 1u);
}

TEST(BoardFaultTest, BrokenCoreRecoversBitExactAllOps) {
  const SetPair pair = MakePair();
  auto clean_board = MakeBoard(BaseConfig());
  ASSERT_NE(clean_board, nullptr);

  BoardConfig faulty = BaseConfig();
  faulty.fault_plan.broken_cores = {1};
  // Quarantine exactly after the four failures the four operations
  // below produce: the set ops all see the part fail, the sort benches
  // it.
  faulty.recovery.quarantine_after = 4;
  UseFastWatchdog(&faulty);
  auto board = MakeBoard(faulty);
  ASSERT_NE(board, nullptr);

  for (const SetOp op :
       {SetOp::kIntersect, SetOp::kUnion, SetOp::kDifference}) {
    auto clean = clean_board->RunSetOperation(op, pair.a, pair.b);
    ASSERT_TRUE(clean.ok()) << clean.status();
    auto run = board->RunSetOperation(op, pair.a, pair.b);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->result, clean->result);
    EXPECT_GT(run->recovery.failed_attempts, 0u);
    EXPECT_GT(run->recovery.retries, 0u);
    EXPECT_GT(run->recovery.recovery_cycles, 0u);
  }

  const auto values = GenerateSortInput(30000, 7);
  auto clean_sort = clean_board->RunSort(values);
  ASSERT_TRUE(clean_sort.ok()) << clean_sort.status();
  auto faulty_sort = board->RunSort(values);
  ASSERT_TRUE(faulty_sort.ok()) << faulty_sort.status();
  EXPECT_EQ(faulty_sort->result, clean_sort->result);

  // The board saw the broken part fail repeatedly: by now it must be
  // quarantined and the board degraded (finishing on 3 of 4 cores).
  EXPECT_EQ(board->quarantined_cores(), std::vector<int>{1});
  EXPECT_TRUE(faulty_sort->recovery.degraded);
}

TEST(BoardFaultTest, QuarantinePersistsAndClearsOnReset) {
  const SetPair pair = MakePair(8000);
  BoardConfig config = BaseConfig();
  config.fault_plan.broken_cores = {2};
  config.recovery.quarantine_after = 2;
  UseFastWatchdog(&config);
  auto board = MakeBoard(config);
  ASSERT_NE(board, nullptr);

  // Two operations, two failures on core 2 -> quarantined.
  for (int i = 0; i < 2; ++i) {
    auto run = board->RunSetOperation(SetOp::kUnion, pair.a, pair.b);
    ASSERT_TRUE(run.ok()) << run.status();
  }
  ASSERT_EQ(board->quarantined_cores(), std::vector<int>{2});

  // A quarantined part gets no further work: the next run is clean
  // (single round, zero failed attempts) but reported as degraded.
  auto degraded = board->RunSetOperation(SetOp::kUnion, pair.a, pair.b);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_EQ(degraded->recovery.failed_attempts, 0u);
  EXPECT_EQ(degraded->recovery.rounds, 1u);
  EXPECT_GT(degraded->recovery.requeues, 0u);  // spilled off core 2
  EXPECT_TRUE(degraded->recovery.degraded);

  board->ResetQuarantine();
  EXPECT_TRUE(board->quarantined_cores().empty());
}

TEST(BoardFaultTest, DeterministicAtAnyHostThreads) {
  const SetPair pair = MakePair();
  Result<ParallelRun> reference = Status::Internal("unset");
  for (const int host_threads : {1, 2, 8}) {
    BoardConfig config = BaseConfig(8, host_threads);
    config.fault_plan.seed = 99;
    config.fault_plan.hang_rate = 0.1;
    config.fault_plan.input_flip_rate = 0.1;
    config.fault_plan.result_flip_rate = 0.1;
    config.fault_plan.transfer_fail_rate = 0.1;
    config.fault_plan.transfer_timeout_rate = 0.1;
    config.recovery.max_attempts = 8;
    config.recovery.quarantine_after = 4;
    UseFastWatchdog(&config);
    auto board = MakeBoard(config);
    ASSERT_NE(board, nullptr);
    auto run = board->RunSetOperation(SetOp::kIntersect, pair.a, pair.b);
    ASSERT_TRUE(run.ok()) << run.status();
    if (!reference.ok()) {
      reference = std::move(run);
      continue;
    }
    // Identical (seed, plan, config) must reproduce the identical fault
    // schedule, recovered result, cycle accounting, and telemetry --
    // host_threads only changes how fast the host simulates.
    EXPECT_EQ(run->result, reference->result);
    EXPECT_EQ(run->makespan_cycles, reference->makespan_cycles);
    EXPECT_EQ(run->total_core_cycles, reference->total_core_cycles);
    EXPECT_EQ(run->per_core_cycles, reference->per_core_cycles);
    EXPECT_EQ(run->recovery.faults_injected,
              reference->recovery.faults_injected);
    EXPECT_EQ(run->recovery.failed_attempts,
              reference->recovery.failed_attempts);
    EXPECT_EQ(run->recovery.retries, reference->recovery.retries);
    EXPECT_EQ(run->recovery.requeues, reference->recovery.requeues);
    EXPECT_EQ(run->recovery.verification_failures,
              reference->recovery.verification_failures);
    EXPECT_EQ(run->recovery.rounds, reference->recovery.rounds);
    EXPECT_EQ(run->recovery.recovery_cycles,
              reference->recovery.recovery_cycles);
    EXPECT_EQ(run->recovery.quarantined_cores,
              reference->recovery.quarantined_cores);
    EXPECT_EQ(run->recovery.degraded, reference->recovery.degraded);
  }
}

TEST(BoardFaultTest, TransientFaultsRecoverBitExact) {
  const SetPair pair = MakePair();
  auto clean_board = MakeBoard(BaseConfig(8));
  ASSERT_NE(clean_board, nullptr);
  auto clean = clean_board->RunSetOperation(SetOp::kDifference, pair.a,
                                            pair.b);
  ASSERT_TRUE(clean.ok()) << clean.status();

  BoardConfig config = BaseConfig(8);
  config.fault_plan.seed = 5;
  config.fault_plan.input_flip_rate = 0.2;
  config.fault_plan.result_flip_rate = 0.2;
  config.fault_plan.transfer_fail_rate = 0.1;
  config.recovery.max_attempts = 8;
  config.recovery.quarantine_after = 4;
  UseFastWatchdog(&config);
  auto board = MakeBoard(config);
  ASSERT_NE(board, nullptr);
  auto run = board->RunSetOperation(SetOp::kDifference, pair.a, pair.b);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->result, clean->result);
  EXPECT_GT(run->recovery.faults_injected, 0u);
}

TEST(BoardFaultTest, VerifiedSortKeepsDuplicates) {
  // With a fault plan active every partition result is verified. A sort
  // bucket needs only to be non-decreasing, so duplicate values pass.
  BoardConfig config = BaseConfig();
  config.fault_plan.broken_cores = {3};
  UseFastWatchdog(&config);
  auto board = MakeBoard(config);
  ASSERT_NE(board, nullptr);
  std::vector<uint32_t> values = GenerateSortInput(20000, 5);
  for (uint32_t& value : values) value %= 64;
  std::vector<uint32_t> expected = values;
  std::sort(expected.begin(), expected.end());
  auto run = board->RunSort(values);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->result, expected);
  EXPECT_EQ(run->recovery.verification_failures, 0u);
  EXPECT_GT(run->recovery.failed_attempts, 0u);
}

TEST(BoardFaultTest, AllCoresBrokenFailsWithDeadlineExceeded) {
  // A board where every core loops forever must return the watchdog's
  // DeadlineExceeded -- never hang the host.
  const SetPair pair = MakePair(2000);
  BoardConfig config = BaseConfig(2);
  config.fault_plan.broken_cores = {0, 1};
  UseFastWatchdog(&config);
  auto board = MakeBoard(config);
  ASSERT_NE(board, nullptr);
  auto run = board->RunSetOperation(SetOp::kIntersect, pair.a, pair.b);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(BoardFaultTest, FaultFreePathMatchesFaultAwareBoardWithPlanDisabled) {
  // Zero-cost-when-off: a board whose FaultPlan injects nothing must be
  // bit-identical (results and cycle accounting) to a board that never
  // saw the fault framework's knobs.
  const SetPair pair = MakePair();
  auto plain = MakeBoard(BaseConfig());
  BoardConfig tweaked = BaseConfig();
  tweaked.recovery.max_attempts = 9;
  tweaked.recovery.backoff_base_cycles = 4096;
  auto configured = MakeBoard(tweaked);
  ASSERT_NE(plain, nullptr);
  ASSERT_NE(configured, nullptr);
  auto run_a = plain->RunSetOperation(SetOp::kUnion, pair.a, pair.b);
  auto run_b = configured->RunSetOperation(SetOp::kUnion, pair.a, pair.b);
  ASSERT_TRUE(run_a.ok()) << run_a.status();
  ASSERT_TRUE(run_b.ok()) << run_b.status();
  EXPECT_EQ(run_a->result, run_b->result);
  EXPECT_EQ(run_a->makespan_cycles, run_b->makespan_cycles);
  EXPECT_EQ(run_a->total_core_cycles, run_b->total_core_cycles);
  EXPECT_EQ(run_a->per_core_cycles, run_b->per_core_cycles);
  EXPECT_EQ(run_a->energy_uj, run_b->energy_uj);
}

TEST(BoardConfigValidationTest, RejectsBadConfigs) {
  BoardConfig config = BaseConfig();
  config.num_cores = 0;
  EXPECT_EQ(Board::Create(config).status().code(),
            StatusCode::kInvalidArgument);

  config = BaseConfig();
  config.host_threads = -1;
  EXPECT_EQ(Board::Create(config).status().code(),
            StatusCode::kInvalidArgument);

  config = BaseConfig();
  config.noc.link_bytes_per_cycle = 0;
  EXPECT_EQ(Board::Create(config).status().code(),
            StatusCode::kInvalidArgument);

  config = BaseConfig();
  config.noc.bisection_bytes_per_cycle = -1;
  EXPECT_EQ(Board::Create(config).status().code(),
            StatusCode::kInvalidArgument);

  config = BaseConfig();
  config.fault_plan.hang_rate = 2.0;
  EXPECT_EQ(Board::Create(config).status().code(),
            StatusCode::kInvalidArgument);

  config = BaseConfig(4);
  config.fault_plan.broken_cores = {4};  // out of range for 4 cores
  EXPECT_EQ(Board::Create(config).status().code(),
            StatusCode::kInvalidArgument);

  config = BaseConfig();
  config.recovery.max_attempts = 0;
  EXPECT_EQ(Board::Create(config).status().code(),
            StatusCode::kInvalidArgument);

  config = BaseConfig();
  config.recovery.quarantine_after = 0;
  EXPECT_EQ(Board::Create(config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BoardConfigValidationTest, NocValidateIsDirectlyCallable) {
  NocConfig noc;
  EXPECT_TRUE(noc.Validate().ok());
  noc.link_bytes_per_cycle = -3;
  EXPECT_EQ(noc.Validate().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dba::system
