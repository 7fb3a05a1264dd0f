#ifndef DBA_SYSTEM_BOARD_H_
#define DBA_SYSTEM_BOARD_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/processor.h"
#include "fault/fault.h"
#include "system/noc.h"

namespace dba::system {

/// How the board reacts to failed partition attempts. The defaults
/// tolerate transient faults at the rates the fault plan models while
/// keeping the worst-case cost of a permanently broken core bounded.
struct RecoveryPolicy {
  /// Total attempts per partition (>= 1) before the operation fails
  /// with the partition's last error.
  int max_attempts = 4;
  /// Cumulative failed attempts after which a core is quarantined and
  /// receives no further work from this board (>= 1).
  int quarantine_after = 2;
  /// Retry attempt k (k >= 1) is charged backoff_base_cycles << (k-1)
  /// extra cycles -- the re-arbitration and re-transfer cost grows
  /// exponentially, discouraging hot retry loops.
  uint64_t backoff_base_cycles = 256;

  Status Validate() const;
};

/// Configuration of a multi-core accelerator board.
struct BoardConfig {
  ProcessorKind core_kind = ProcessorKind::kDba2LsuEis;
  ProcessorOptions core_options;
  int num_cores = 16;
  NocConfig noc;
  /// Host threads simulating the board's cores concurrently. 0 picks the
  /// host's hardware concurrency; 1 preserves the serial loop. The value
  /// only changes how fast the host simulates -- results, per-core
  /// cycles, makespan, and energy are bit-identical at any setting.
  int host_threads = 0;
  /// Execution mode of every core's run loop (sim/exec_mode.h). The
  /// default fast-forward keeps schedule, results, and all cycle
  /// accounting byte-identical to the interpreter; turbo keeps results
  /// exact and derives cycles from the loop model.
  sim::ExecMode sim_mode = sim::ExecMode::kFastForward;
  /// Deterministic fault schedule; a default plan injects nothing and
  /// keeps every run bit-identical to a fault-unaware board.
  fault::FaultPlan fault_plan;
  RecoveryPolicy recovery;
};

/// Retry/quarantine/degradation telemetry of one parallel operation.
/// All counters are zero (and `quarantined_cores` empty) when no fault
/// plan is configured.
struct RecoveryTelemetry {
  uint32_t faults_injected = 0;        // attempts that drew >= 1 fault
  uint32_t failed_attempts = 0;        // attempts that returned non-OK
  uint32_t retries = 0;                // re-executions scheduled
  uint32_t requeues = 0;               // retries moved to another core
  uint32_t verification_failures = 0;  // output checks that tripped
  uint32_t rounds = 0;                 // scheduling rounds (1 = clean)
  uint64_t recovery_cycles = 0;        // cycles spent on failed attempts
  std::vector<int> quarantined_cores;  // cores benched by this board
  bool degraded = false;               // finished on fewer cores
};

/// Result of one parallel operation.
struct ParallelRun {
  std::vector<uint32_t> result;
  uint64_t makespan_cycles = 0;      // slowest core incl. its feed
  uint64_t total_core_cycles = 0;    // sum over cores (for energy)
  std::vector<uint64_t> per_core_cycles;
  double throughput_meps = 0;        // at f_max, over the makespan
  double board_power_mw = 0;         // num_cores x core power
  double energy_uj = 0;              // total core cycles x power
  bool noc_bound = false;
  /// Host-side telemetry: how long the simulator itself took (wall
  /// clock), how many host threads simulated the cores, and which
  /// execution mode the core run loops used.
  double host_wall_seconds = 0;
  int host_threads_used = 1;
  sim::ExecMode sim_mode = sim::ExecMode::kFastForward;
  RecoveryTelemetry recovery;
};

/// A board of identical DBA cores with value-range-partitioned parallel
/// set operations and sample-sort. Every core is a full cycle-accurate
/// Processor; the board schedules partitions, models the shared
/// interconnect feed, and reports makespan and energy. This substantiates
/// the paper's scale-out argument (Section 5.4: "the number of cores of
/// DBA_2LSU_EIS could be largely increased until it occupies the same
/// area as the Intel Q9550 processor").
///
/// Host execution: the per-core simulations are independent (each core
/// owns its Cpu, memories, and extension state, and all cores read one
/// immutable ProgramCache), so the board fans them out across a host
/// thread pool and then reduces the cross-core telemetry -- the NoC feed
/// model, per-core cycles, makespan, energy, and the concatenated result
/// -- in partition order after the join. See docs/ARCHITECTURE.md.
///
/// Fault tolerance: when the config carries a FaultPlan, attempts run
/// in barrier-synchronized rounds. Failed partitions (hang, transfer
/// fault, or a result that fails verification) are retried with
/// exponential cycle backoff, requeued onto the healthiest cores, and
/// repeatedly-failing cores are quarantined -- the board finishes on
/// fewer cores and reports it in RecoveryTelemetry rather than erroring
/// out. See docs/FAULTS.md for the fault model and detection layers.
class Board {
 public:
  static Result<std::unique_ptr<Board>> Create(const BoardConfig& config);

  Board(const Board&) = delete;
  Board& operator=(const Board&) = delete;

  const BoardConfig& config() const { return config_; }
  int num_cores() const { return static_cast<int>(cores_.size()); }
  double core_frequency_hz() const { return cores_[0]->frequency_hz(); }
  double board_power_mw() const {
    return cores_[0]->synthesis().power_mw * num_cores();
  }
  double board_area_mm2() const {
    return cores_[0]->synthesis().total_area_mm2() * num_cores();
  }

  /// Resolved host parallelism (>= 1); 1 means the serial loop.
  int host_threads() const { return host_threads_; }
  /// The board's host worker pool (null when host_threads() == 1).
  /// Callers may borrow it for their own independent work while no board
  /// operation runs, e.g. the query service's per-core Select groups.
  common::ThreadPool* host_pool() const { return pool_.get(); }
  /// Direct access to core `i` (for borrowing an idle core as a sibling
  /// executor; the board and the caller must not run it concurrently).
  Processor* core(int i) { return cores_[static_cast<size_t>(i)].get(); }

  /// Cores currently quarantined by the recovery policy (persists
  /// across operations: a benched part stays benched).
  const std::vector<int>& quarantined_cores() const {
    return quarantined_list_;
  }
  /// Returns all quarantined cores to service and clears the failure
  /// history (an operator replacing the bad parts).
  void ResetQuarantine();

  /// Parallel sorted-set operation: inputs are partitioned into
  /// disjoint value ranges (one per core), each core processes its
  /// range (streaming through its prefetcher if needed), and the
  /// concatenated per-range results form the output.
  Result<ParallelRun> RunSetOperation(SetOp op, std::span<const uint32_t> a,
                                      std::span<const uint32_t> b);

  /// Parallel sample-sort: values are bucketed by sampled splitters,
  /// each core sorts its bucket, buckets concatenate in splitter order.
  Result<ParallelRun> RunSort(std::span<const uint32_t> values);

  /// One request of a multi-request batch (RunSetOperationBatch). The
  /// spans must stay valid for the duration of the call; inputs must be
  /// sorted (and duplicate-free for intersect/union/difference).
  struct BatchItem {
    SetOp op = SetOp::kIntersect;
    std::span<const uint32_t> a;
    std::span<const uint32_t> b;
  };

  /// Result of one batched multi-request operation: per-item outputs in
  /// submission order plus the usual board telemetry (the ParallelRun's
  /// own `result` stays empty -- outputs live in `results`).
  struct BatchRun {
    std::vector<std::vector<uint32_t>> results;
    ParallelRun run;
  };

  /// Per-call limits on one batched operation.
  struct BatchOptions {
    /// Simulated-cycle budget for the recovery ladder: once the batch's
    /// accumulated makespan reaches this, no further retry round is
    /// scheduled and the operation fails with kDeadlineExceeded instead
    /// of completing the full ladder. Derived from the caller's
    /// remaining wall deadline (cycles = remaining_ns * f_max / 1e9);
    /// 0 = unbounded. A fault-free first round is never cut short.
    uint64_t deadline_cycles = 0;
  };

  /// Multi-request scheduling: executes `items` -- independent whole set
  /// operations, possibly of mixed ops -- across the board's cores in
  /// waves (item i starts on core i mod num_cores; a core runs its
  /// items back to back), sharing one program load per core via the
  /// board's ProgramCache. Items do not value-partition: each is one
  /// request from the service batcher, small enough for one core. The
  /// round-based recovery machinery (retry, requeue, quarantine) applies
  /// per item exactly as it does per partition, and results reduce in
  /// item order -- bit-identical at any host_threads.
  Result<BatchRun> RunSetOperationBatch(std::span<const BatchItem> items,
                                        const BatchOptions& options);
  Result<BatchRun> RunSetOperationBatch(std::span<const BatchItem> items) {
    return RunSetOperationBatch(items, BatchOptions{});
  }

  /// Replaces the board's fault schedule in place (the chaos harness's
  /// entry point: a ChaosSchedule phase is one FaultPlan; Create installs
  /// BoardConfig::fault_plan through it). An empty plan restores the
  /// fault-free fast path. Call only while no board operation is running
  /// -- the service guarantees this between dispatch batches.
  Status SetFaultPlan(const fault::FaultPlan& plan);

 private:
  /// One partition of a board operation: what its core runs (a sort of
  /// one bucket, or a set operation), the value range it owns (for
  /// output verification), and its NoC feed bytes excluding the result
  /// (which is only known after the attempt).
  struct PartitionWork {
    std::span<const uint32_t> a;  // set ops: left input; sort: bucket
    std::span<const uint32_t> b;  // set ops only
    bool sort = false;            // sort `a` instead of running `op`
    SetOp op = SetOp::kIntersect; // set ops: per-partition op (batches mix)
    uint32_t lo = 0;              // inclusive value-range lower bound
    uint32_t hi = 0xFFFFFFFFu;    // inclusive value-range upper bound
    uint64_t feed_bytes = 0;
    bool active = false;          // inactive partitions are empty
  };

  /// What one attempt produced, before the cross-core reduce.
  struct AttemptOutcome {
    Status status;
    uint64_t compute_cycles = 0;
    std::vector<uint32_t> result;
    bool fault_injected = false;
    bool verification_failed = false;
  };

  Board(BoardConfig config, std::vector<std::unique_ptr<Processor>> cores,
        int host_threads);

  /// Runs fn(0..n-1): inline when serial, over the pool otherwise.
  void ForEachCore(size_t n, const std::function<void(size_t)>& fn);

  void FinishRun(ParallelRun* run, uint64_t elements) const;

  /// The shared round-based scheduler behind RunSetOperation/RunSort/
  /// RunSetOperationBatch: fan out pending partitions, reduce
  /// deterministically in partition order, retry/requeue/quarantine,
  /// repeat until done or exhausted, then book the op's recovery
  /// telemetry and the core-health gauges into the registry once, at
  /// every exit (every core quarantined before the first round
  /// included).
  /// When `item_results` is non-null, per-partition outputs are moved
  /// there (in partition order) instead of concatenating into
  /// ParallelRun::result.
  Result<ParallelRun> ExecutePartitioned(
      std::vector<PartitionWork> parts, uint64_t elements,
      std::vector<std::vector<uint32_t>>* item_results = nullptr,
      uint64_t deadline_cycles = 0);

  /// Executes one partition attempt on one core: the result and pure
  /// compute cycles. NoC feed cycles are applied in the reduce step
  /// (they depend on the number of concurrently streaming cores).
  AttemptOutcome RunAttempt(int core_index, const PartitionWork& part,
                            const fault::AttemptSite& site);

  /// Output verification of one partition attempt (detection layer 2 of
  /// docs/FAULTS.md): `result` must be monotone (strictly increasing for
  /// set operations, non-decreasing for a sort or a merge), stay inside
  /// the partition's value range, and respect the size bounds its
  /// operation implies. What it cannot see is caught by the parity
  /// backstop in RunAttempt.
  static Status VerifyPartitionResult(const PartitionWork& part,
                                      std::span<const uint32_t> result);

  void Quarantine(int core);
  bool IsQuarantined(int core) const {
    return quarantined_[static_cast<size_t>(core)];
  }

  BoardConfig config_;
  Noc noc_;
  std::vector<std::unique_ptr<Processor>> cores_;
  int host_threads_ = 1;
  std::unique_ptr<common::ThreadPool> pool_;

  /// Fault machinery; injector_ is null when the plan injects nothing,
  /// and the fault-free path skips every recovery branch.
  std::unique_ptr<fault::FaultInjector> injector_;
  std::shared_ptr<const isa::Program> hang_program_;
  uint64_t op_ordinal_ = 0;

  /// Persistent core health: cumulative failed attempts and the
  /// quarantine set (a part that keeps failing stays benched across
  /// operations until ResetQuarantine).
  std::vector<int> core_failures_;
  std::vector<bool> quarantined_;
  std::vector<int> quarantined_list_;
};

}  // namespace dba::system

#endif  // DBA_SYSTEM_BOARD_H_
