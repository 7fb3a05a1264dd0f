#include "system/board.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "obs/metrics/event_log.h"
#include "obs/metrics/metrics.h"
#include "prefetch/streaming.h"

namespace dba::system {

namespace {

// The recovery counters are booked once per op from its RecoveryTelemetry
// (BookRecovery), so the registry totals equal the sum of the ops'
// telemetry, failed ops included, at any host_threads; the same booking
// writes the core-health gauges at every exit.  The NoC feed
// bytes, the partition-cycles histogram and quarantines are recorded
// where they happen in the single-threaded deterministic reduce; only
// the NoC fault counters are bumped from worker threads (RunAttempt), and
// their totals are still deterministic because fault decisions are pure
// functions of the work item.
struct BoardInstruments {
  obs::Counter* ops;
  obs::Counter* op_failures;
  obs::Counter* rounds;
  obs::Counter* faults_injected;
  obs::Counter* verification_failures;
  obs::Counter* failed_attempts;
  obs::Counter* retries;
  obs::Counter* requeues;
  obs::Counter* recovery_cycles;
  obs::Counter* quarantines;
  obs::Counter* noc_feed_bytes;
  obs::Counter* noc_transfer_failures;
  obs::Counter* noc_transfer_timeouts;
  obs::Histogram* partition_cycles;
  obs::Histogram* op_makespan_cycles;
  obs::Gauge* healthy_cores;
  obs::Gauge* quarantined_cores;
};

const BoardInstruments& Instruments() {
  static const BoardInstruments instruments = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    BoardInstruments out;
    out.ops = registry.GetCounter("dba_system_board_ops_total",
                                  "Board-level operations started.");
    out.op_failures =
        registry.GetCounter("dba_system_board_op_failures_total",
                            "Board-level operations that returned an error.");
    out.rounds = registry.GetCounter(
        "dba_system_recovery_rounds_total",
        "Scheduling rounds (1 per op when fault-free).");
    out.faults_injected = registry.GetCounter(
        "dba_system_faults_injected_total",
        "Attempts that had a fault injected (mirrors RecoveryTelemetry).");
    out.verification_failures = registry.GetCounter(
        "dba_system_verification_failures_total",
        "Partition results rejected by output verification.");
    out.failed_attempts =
        registry.GetCounter("dba_system_failed_attempts_total",
                            "Partition attempts that returned an error.");
    out.retries = registry.GetCounter("dba_system_retries_total",
                                      "Partition retry attempts scheduled.");
    out.requeues = registry.GetCounter(
        "dba_system_requeues_total",
        "Partitions moved to a different core (spill or retry).");
    out.recovery_cycles = registry.GetCounter(
        "dba_system_recovery_cycles_total",
        "Simulated cycles spent on failed attempts and backoff.");
    out.quarantines = registry.GetCounter(
        "dba_system_quarantines_total", "Cores quarantined by the board.");
    out.noc_feed_bytes = registry.GetCounter(
        "dba_system_noc_feed_bytes_total",
        "Bytes transferred over the NoC for successful attempts.");
    out.noc_transfer_failures = registry.GetCounter(
        "dba_system_noc_transfer_failures_total",
        "Injected NoC transfer failures observed by attempts.");
    out.noc_transfer_timeouts = registry.GetCounter(
        "dba_system_noc_transfer_timeouts_total",
        "Injected NoC transfer timeouts observed by attempts.");
    out.partition_cycles = registry.GetHistogram(
        "dba_system_partition_cycles",
        "Simulated compute cycles per successful partition attempt.");
    out.op_makespan_cycles = registry.GetHistogram(
        "dba_system_op_makespan_cycles",
        "Simulated makespan cycles per completed board operation.");
    out.healthy_cores = registry.GetGauge(
        "dba_system_healthy_cores", "Cores not currently quarantined.");
    out.quarantined_cores = registry.GetGauge(
        "dba_system_quarantined_cores", "Cores currently quarantined.");
    return out;
  }();
  return instruments;
}

/// Adds one op's recovery telemetry to the dba_system_* counters, plus
/// one op failure when the op failed, and writes the core-health gauges
/// from the board's `cores` and `quarantined` count: the one place they
/// are booked.
void BookRecovery(const RecoveryTelemetry& recovery, bool failed,
                  size_t cores, size_t quarantined) {
  const BoardInstruments& instruments = Instruments();
  instruments.rounds->Increment(recovery.rounds);
  instruments.faults_injected->Increment(recovery.faults_injected);
  instruments.verification_failures->Increment(
      recovery.verification_failures);
  instruments.failed_attempts->Increment(recovery.failed_attempts);
  instruments.retries->Increment(recovery.retries);
  instruments.requeues->Increment(recovery.requeues);
  instruments.recovery_cycles->Increment(recovery.recovery_cycles);
  if (failed) instruments.op_failures->Increment();
  instruments.healthy_cores->Set(static_cast<double>(cores - quarantined));
  instruments.quarantined_cores->Set(static_cast<double>(quarantined));
}

/// Value splitters that cut `reference` into `parts` roughly equal
/// ranges. Returned splitters are strictly increasing upper bounds; the
/// last range is unbounded.
std::vector<uint32_t> PickSplitters(std::span<const uint32_t> reference,
                                    int parts) {
  std::vector<uint32_t> splitters;
  if (reference.empty() || parts <= 1) return splitters;
  for (int i = 1; i < parts; ++i) {
    const size_t position = reference.size() * static_cast<size_t>(i) /
                            static_cast<size_t>(parts);
    const uint32_t candidate = reference[position];
    if (splitters.empty() || candidate > splitters.back()) {
      splitters.push_back(candidate);
    }
  }
  return splitters;
}

/// Splits a sorted array into the ranges defined by `splitters`:
/// range i = values in (splitters[i-1], splitters[i]].
std::vector<std::span<const uint32_t>> PartitionSorted(
    std::span<const uint32_t> values, const std::vector<uint32_t>& splitters) {
  std::vector<std::span<const uint32_t>> ranges;
  size_t begin = 0;
  for (const uint32_t splitter : splitters) {
    const size_t end = static_cast<size_t>(
        std::upper_bound(values.begin() + static_cast<ptrdiff_t>(begin),
                         values.end(), splitter) -
        values.begin());
    ranges.push_back(values.subspan(begin, end - begin));
    begin = end;
  }
  ranges.push_back(values.subspan(begin));
  return ranges;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Adds context to a status without changing its code (the code is what
/// retry policies and tests dispatch on).
Status Annotate(const Status& status, const std::string& context) {
  return Status(status.code(), context + ": " + status.message());
}

}  // namespace

Status RecoveryPolicy::Validate() const {
  if (max_attempts < 1 || max_attempts > 32) {
    return Status::InvalidArgument(
        "RecoveryPolicy::max_attempts must be in 1..32");
  }
  if (quarantine_after < 1) {
    return Status::InvalidArgument(
        "RecoveryPolicy::quarantine_after must be >= 1");
  }
  return Status::Ok();
}

Result<std::unique_ptr<Board>> Board::Create(const BoardConfig& config) {
  if (config.num_cores < 1 || config.num_cores > 1024) {
    return Status::InvalidArgument("board supports 1..1024 cores");
  }
  if (config.host_threads < 0 || config.host_threads > 1024) {
    return Status::InvalidArgument("host_threads must be in 0..1024");
  }
  DBA_RETURN_IF_ERROR(config.noc.Validate());
  DBA_RETURN_IF_ERROR(config.recovery.Validate());
  // The kernel programs are identical across cores: build them once and
  // let every Processor reference the shared immutable cache.
  DBA_ASSIGN_OR_RETURN(std::shared_ptr<const ProgramCache> programs,
                       ProgramCache::Build(config.core_options));
  std::vector<std::unique_ptr<Processor>> cores;
  cores.reserve(static_cast<size_t>(config.num_cores));
  for (int i = 0; i < config.num_cores; ++i) {
    DBA_ASSIGN_OR_RETURN(
        std::unique_ptr<Processor> core,
        Processor::Create(config.core_kind, config.core_options, programs));
    cores.push_back(std::move(core));
  }
  int host_threads = config.host_threads == 0
                         ? common::ThreadPool::HardwareConcurrency()
                         : config.host_threads;
  // More host threads than cores cannot help: one task per core.
  host_threads = std::min(host_threads, config.num_cores);
  std::unique_ptr<Board> board(
      new Board(config, std::move(cores), host_threads));
  DBA_RETURN_IF_ERROR(board->SetFaultPlan(config.fault_plan));
  return board;
}

Board::Board(BoardConfig config,
             std::vector<std::unique_ptr<Processor>> cores, int host_threads)
    : config_(std::move(config)),
      noc_(config_.noc),
      cores_(std::move(cores)),
      host_threads_(host_threads),
      core_failures_(cores_.size(), 0),
      quarantined_(cores_.size(), false) {
  if (host_threads_ > 1) {
    // Workers + the calling thread (which ParallelFor enlists).
    pool_ = std::make_unique<common::ThreadPool>(host_threads_ - 1);
  }
}

void Board::ForEachCore(size_t n, const std::function<void(size_t)>& fn) {
  if (pool_ == nullptr) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool_->ParallelFor(n, fn);
}

void Board::FinishRun(ParallelRun* run, uint64_t elements) const {
  const double frequency = core_frequency_hz();
  if (run->makespan_cycles > 0) {
    run->throughput_meps = static_cast<double>(elements) /
                           (static_cast<double>(run->makespan_cycles) /
                            frequency) /
                           1e6;
  }
  run->board_power_mw = board_power_mw();
  run->energy_uj = static_cast<double>(run->total_core_cycles) / frequency *
                   cores_[0]->synthesis().power_mw * 1e3;
  run->host_threads_used = host_threads_;
  run->sim_mode = config_.sim_mode;
}

void Board::Quarantine(int core) {
  quarantined_[static_cast<size_t>(core)] = true;
  quarantined_list_.insert(
      std::upper_bound(quarantined_list_.begin(), quarantined_list_.end(),
                       core),
      core);
  Instruments().quarantines->Increment();
  obs::EventLog::Global().Log(
      obs::EventLevel::kWarn, "board", "core quarantined",
      {{"core", std::to_string(core)},
       {"failures",
        std::to_string(core_failures_[static_cast<size_t>(core)])}});
}

void Board::ResetQuarantine() {
  std::fill(quarantined_.begin(), quarantined_.end(), false);
  std::fill(core_failures_.begin(), core_failures_.end(), 0);
  quarantined_list_.clear();
}

Status Board::VerifyPartitionResult(const PartitionWork& part,
                                    std::span<const uint32_t> result) {
  if (part.sort) {
    if (result.size() != part.a.size()) {
      return Status::DataLoss(
          "partition verification: sort result has " +
          std::to_string(result.size()) + " values, bucket had " +
          std::to_string(part.a.size()));
    }
  } else {
    const size_t max_size =
        eis::MaxResultSize(part.op, part.a.size(), part.b.size());
    if (result.size() > max_size) {
      return Status::DataLoss(
          "partition verification: result size " +
          std::to_string(result.size()) + " exceeds the bound " +
          std::to_string(max_size));
    }
    // A merge keeps every element of both inputs (duplicates included):
    // the size is exact, and only non-decreasing order can be required.
    if (part.op == SetOp::kMerge &&
        result.size() != part.a.size() + part.b.size()) {
      return Status::DataLoss(
          "partition verification: merge result has " +
          std::to_string(result.size()) + " values, inputs had " +
          std::to_string(part.a.size() + part.b.size()));
    }
  }
  const bool non_decreasing = part.sort || part.op == SetOp::kMerge;
  for (size_t i = 0; i < result.size(); ++i) {
    const uint32_t value = result[i];
    if (value < part.lo || value > part.hi) {
      return Status::DataLoss(
          "partition verification: value " + std::to_string(value) +
          " at index " + std::to_string(i) +
          " is outside the partition range [" + std::to_string(part.lo) +
          ", " + std::to_string(part.hi) + "]");
    }
    if (i > 0) {
      const bool bad = non_decreasing ? value < result[i - 1]
                                      : value <= result[i - 1];
      if (bad) {
        return Status::DataLoss(
            "partition verification: result is not " +
            std::string(non_decreasing ? "sorted" : "strictly increasing") +
            " at index " + std::to_string(i));
      }
    }
  }
  return Status::Ok();
}

Board::AttemptOutcome Board::RunAttempt(int core_index,
                                        const PartitionWork& part,
                                        const fault::AttemptSite& site) {
  AttemptOutcome out;
  Processor& core = *cores_[static_cast<size_t>(core_index)];
  fault::FaultDecision decision;
  if (injector_ != nullptr) decision = injector_->Decide(site);
  out.fault_injected = decision.any();

  if (decision.hang) {
    // A hung core makes no forward progress: run a branch-to-self
    // program on the real Cpu so the cycle watchdog -- not a simulated
    // status -- raises the error after the granted budget.
    const uint64_t budget = config_.fault_plan.hang_watchdog_cycles;
    out.compute_cycles = budget;
    core.cpu().ResetArchState();
    const Status load = core.cpu().LoadProgram(*hang_program_);
    if (!load.ok()) {
      out.status = load;
      return out;
    }
    auto stats =
        core.cpu().Run({.mode = config_.sim_mode, .max_cycles = budget});
    out.status = stats.ok()
                     ? Status::Internal("injected hang halted unexpectedly")
                     : Annotate(stats.status(), "injected core hang");
    return out;
  }
  if (decision.transfer_fail) {
    Instruments().noc_transfer_failures->Increment();
    out.compute_cycles = noc_.config().transfer_latency_cycles;
    out.status = Status::Unavailable("injected NoC transfer failure");
    return out;
  }
  if (decision.transfer_timeout) {
    Instruments().noc_transfer_timeouts->Increment();
    out.compute_cycles = noc_.TimeoutCycles();
    out.status = Status::DeadlineExceeded("injected NoC transfer timeout");
    return out;
  }

  // Defensive mode whenever faults can occur: the core checks its
  // inputs (detection layer 1) instead of trusting the scheduler.
  RunSettings settings;
  settings.sim_mode = config_.sim_mode;
  settings.validate_inputs = injector_ != nullptr;

  // Input flip: corrupt the staged copy of one input word, leaving the
  // host's original intact (the flip is local to this attempt's
  // local-store image).
  std::span<const uint32_t> a = part.a;
  std::span<const uint32_t> b = part.b;
  std::vector<uint32_t> corrupt_copy;
  bool corrupted = false;
  if (decision.flip_input) {
    const size_t total = part.a.size() + part.b.size();
    if (total > 0) {
      const size_t target =
          static_cast<size_t>(decision.flip_offset % total);
      if (target < part.a.size()) {
        corrupt_copy.assign(part.a.begin(), part.a.end());
        corrupt_copy[target] ^= 1u << decision.flip_bit;
        a = corrupt_copy;
      } else {
        corrupt_copy.assign(part.b.begin(), part.b.end());
        corrupt_copy[target - part.a.size()] ^= 1u << decision.flip_bit;
        b = corrupt_copy;
      }
      corrupted = true;
    }
  }

  // The partition's own work on the attempt's (possibly flipped) inputs:
  // a bucket through the one external sort, a set-operation share
  // through the one fit-or-stream path.
  Status run_status;
  if (part.sort) {
    Result<prefetch::AnySizeSortRun> run =
        prefetch::SortAnySize(&core, a, settings);
    if (run.ok()) {
      out.compute_cycles = run->cycles;
      out.result = std::move(run->sorted);
    } else {
      run_status = run.status();
    }
  } else {
    Result<prefetch::AnySizeRun> run =
        prefetch::RunSetOperationAnySize(&core, part.op, a, b, settings);
    if (run.ok()) {
      out.compute_cycles = run->cycles;
      out.result = std::move(run->result);
    } else {
      run_status = run.status();
    }
  }
  if (!run_status.ok()) {
    // Detection layer 1 rejecting a fault-flipped input image is data
    // corruption, not a caller error: type it kDataLoss so the
    // recovery ladder (and the service above it) treats it as the
    // transient fault it is.
    out.status =
        corrupted && run_status.code() == StatusCode::kInvalidArgument
            ? Status::DataLoss(std::string(run_status.message()) +
                               " (injected input bit flip)")
            : run_status;
    return out;
  }

  if (decision.flip_result && !out.result.empty()) {
    const size_t target =
        static_cast<size_t>(decision.flip_offset % out.result.size());
    out.result[target] ^= 1u << decision.flip_bit;
    corrupted = true;
  }

  if (injector_ != nullptr) {
    const Status verify = VerifyPartitionResult(part, out.result);
    if (!verify.ok()) {
      out.verification_failed = true;
      out.status = verify;
      return out;
    }
  }

  if (corrupted) {
    // Detection layer 3: a flip that slipped past input validation and
    // output verification is still caught by the word parity the result
    // transport carries (detected-uncorrectable ECC). An injected flip
    // therefore never produces a silently wrong board result.
    out.status = Status::DataLoss(
        "parity check failed on the partition result (injected bit flip)");
    return out;
  }

  out.status = Status::Ok();
  return out;
}

Result<ParallelRun> Board::ExecutePartitioned(
    std::vector<PartitionWork> parts, uint64_t elements,
    std::vector<std::vector<uint32_t>>* item_results,
    uint64_t deadline_cycles) {
  const auto host_start = std::chrono::steady_clock::now();
  const uint64_t op_ordinal = op_ordinal_++;
  const BoardInstruments& instruments = Instruments();
  instruments.ops->Increment();
  ParallelRun run;
  run.per_core_cycles.assign(cores_.size(), 0);

  const int cores_n = num_cores();
  struct Slot {
    bool done = false;
    uint32_t attempts = 0;
    Status last_status;
    std::vector<uint32_t> result;
  };
  std::vector<Slot> slots(parts.size());

  // Healthy cores ordered by (cumulative failures, index): retries and
  // spilled partitions land on the most reliable cores first. The order
  // depends only on board state, never on host-thread scheduling.
  std::vector<int> healthy;
  const auto refresh_healthy = [&] {
    healthy.clear();
    for (int c = 0; c < cores_n; ++c) {
      if (!IsQuarantined(c)) healthy.push_back(c);
    }
    std::stable_sort(healthy.begin(), healthy.end(), [&](int x, int y) {
      return core_failures_[static_cast<size_t>(x)] <
             core_failures_[static_cast<size_t>(y)];
    });
  };
  Status failure;  // the op's error once it cannot finish
  std::vector<std::pair<size_t, int>> pending;  // (partition, core)
  refresh_healthy();
  if (healthy.empty()) {
    failure = Status::Unavailable(
        "all " + std::to_string(cores_n) +
        " cores are quarantined; call ResetQuarantine() after servicing");
  } else {
    // Round 0: partition i's home core is i mod num_cores (the identity
    // for the value-partitioned paths, waves for batches with more items
    // than cores). A benched home core spills the partition onto the
    // healthy cores right away (graceful degradation: the board
    // finishes on fewer cores).
    size_t spill = 0;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (!parts[i].active) {
        slots[i].done = true;
        continue;
      }
      const int home = static_cast<int>(i % static_cast<size_t>(cores_n));
      if (!IsQuarantined(home)) {
        pending.emplace_back(i, home);
      } else {
        pending.emplace_back(i, healthy[spill++ % healthy.size()]);
        ++run.recovery.requeues;
      }
    }
  }

  while (!pending.empty()) {
    ++run.recovery.rounds;
    const int streams = static_cast<int>(pending.size());

    // Fan this round out with one host task per core (a core is never
    // driven from two threads; a core with several requeued partitions
    // runs them back to back).
    std::vector<AttemptOutcome> outcomes(parts.size());
    std::vector<std::vector<size_t>> by_core(static_cast<size_t>(cores_n));
    for (const auto& [p, c] : pending) {
      by_core[static_cast<size_t>(c)].push_back(p);
    }
    std::vector<int> active_cores;
    for (int c = 0; c < cores_n; ++c) {
      if (!by_core[static_cast<size_t>(c)].empty()) active_cores.push_back(c);
    }
    ForEachCore(active_cores.size(), [&](size_t gi) {
      const int c = active_cores[gi];
      for (const size_t p : by_core[static_cast<size_t>(c)]) {
        fault::AttemptSite site;
        site.op_ordinal = op_ordinal;
        site.partition = static_cast<uint32_t>(p);
        site.core = static_cast<uint32_t>(c);
        site.attempt = slots[p].attempts;
        outcomes[p] = RunAttempt(c, parts[p], site);
      }
    });

    // Deterministic reduce in partition order: telemetry, cycle
    // accounting, and the retry set must not depend on which host
    // thread finished first.
    std::vector<uint64_t> added(static_cast<size_t>(cores_n), 0);
    std::vector<std::pair<size_t, int>> failed;
    for (const auto& [p, c] : pending) {
      AttemptOutcome& out = outcomes[p];
      const uint32_t attempt = slots[p].attempts;
      ++slots[p].attempts;
      if (out.fault_injected) ++run.recovery.faults_injected;
      if (out.verification_failed) ++run.recovery.verification_failures;
      uint64_t cost = 0;
      if (out.status.ok()) {
        const uint64_t feed_cycles = noc_.TransferCycles(
            parts[p].feed_bytes + 4 * out.result.size(), streams);
        run.noc_bound |= feed_cycles > out.compute_cycles;
        cost = std::max(out.compute_cycles, feed_cycles);
        instruments.noc_feed_bytes->Increment(parts[p].feed_bytes +
                                              4 * out.result.size());
        instruments.partition_cycles->Observe(out.compute_cycles);
      } else {
        cost = out.compute_cycles;
      }
      if (attempt > 0) {
        // Exponential backoff: re-arbitration and re-transfer cost of
        // attempt k is backoff_base_cycles * 2^(k-1).
        cost += config_.recovery.backoff_base_cycles << (attempt - 1);
      }
      run.total_core_cycles += out.compute_cycles;
      added[static_cast<size_t>(c)] += cost;
      if (out.status.ok()) {
        slots[p].done = true;
        slots[p].result = std::move(out.result);
      } else {
        ++run.recovery.failed_attempts;
        run.recovery.recovery_cycles += cost;
        ++core_failures_[static_cast<size_t>(c)];
        slots[p].last_status = out.status;
        failed.emplace_back(p, c);
      }
    }
    uint64_t round_max = 0;
    for (int c = 0; c < cores_n; ++c) {
      run.per_core_cycles[static_cast<size_t>(c)] +=
          added[static_cast<size_t>(c)];
      round_max = std::max(round_max, added[static_cast<size_t>(c)]);
    }
    run.makespan_cycles += round_max;

    // Quarantine repeat offenders. The bench persists across
    // operations: a part that keeps failing stays benched until
    // ResetQuarantine().
    for (int c = 0; c < cores_n; ++c) {
      if (!IsQuarantined(c) &&
          core_failures_[static_cast<size_t>(c)] >=
              config_.recovery.quarantine_after) {
        Quarantine(c);
      }
    }

    pending.clear();
    if (failed.empty()) continue;

    // The caller's deadline budget bounds the retry ladder: once the
    // accumulated makespan has consumed it, scheduling another round
    // could not produce a result the caller would still accept, so the
    // operation sheds kDeadlineExceeded instead of burning the rest of
    // the ladder. (A clean first round never gets here: the check only
    // runs when retries are pending.)
    if (deadline_cycles > 0 && run.makespan_cycles >= deadline_cycles) {
      const size_t p = failed.front().first;
      obs::EventLog::Global().Log(
          obs::EventLevel::kWarn, "board",
          "recovery deadline budget exhausted",
          {{"rounds", std::to_string(run.recovery.rounds)},
           {"budget_cycles", std::to_string(deadline_cycles)},
           {"partition", std::to_string(p)}});
      failure = Status::DeadlineExceeded(
          "recovery deadline budget (" + std::to_string(deadline_cycles) +
          " cycles) exhausted after " +
          std::to_string(run.recovery.rounds) + " rounds; partition " +
          std::to_string(p) +
          " last error: " + slots[p].last_status.message());
      break;
    }

    // A partition out of attempts fails the operation with its last
    // error (first such partition in partition order -- deterministic).
    const auto exhausted =
        std::find_if(failed.begin(), failed.end(), [&](const auto& entry) {
          return slots[entry.first].attempts >=
                 static_cast<uint32_t>(config_.recovery.max_attempts);
        });
    if (exhausted != failed.end()) {
      const size_t p = exhausted->first;
      obs::EventLog::Global().Log(
          obs::EventLevel::kError, "board", "operation failed",
          {{"partition", std::to_string(p)},
           {"attempts", std::to_string(slots[p].attempts)},
           {"status", std::string(StatusCodeToString(
                          slots[p].last_status.code()))}});
      failure = Annotate(slots[p].last_status,
                         "partition " + std::to_string(p) + " failed after " +
                             std::to_string(slots[p].attempts) + " attempts");
      break;
    }
    refresh_healthy();
    if (healthy.empty()) {
      const size_t p = failed.front().first;
      obs::EventLog::Global().Log(
          obs::EventLevel::kError, "board",
          "all cores quarantined mid-operation",
          {{"partition", std::to_string(p)}});
      failure = Annotate(
          slots[p].last_status,
          "all cores quarantined while retrying partition " +
              std::to_string(p));
      break;
    }
    // Requeue failed partitions round-robin over the healthy cores,
    // most reliable first.
    size_t next = 0;
    for (const auto& [p, prev_core] : failed) {
      const int c = healthy[next++ % healthy.size()];
      ++run.recovery.retries;
      if (c != prev_core) ++run.recovery.requeues;
      pending.emplace_back(p, c);
    }
  }

  BookRecovery(run.recovery, /*failed=*/!failure.ok(), cores_.size(),
               quarantined_list_.size());
  if (!failure.ok()) return failure;

  run.recovery.degraded = !quarantined_list_.empty();
  run.recovery.quarantined_cores = quarantined_list_;
  instruments.op_makespan_cycles->Observe(run.makespan_cycles);
  if (item_results != nullptr) {
    // Batch mode: each partition is an independent request whose result
    // must come back separately, in submission order.
    item_results->clear();
    item_results->reserve(slots.size());
    for (Slot& slot : slots) {
      item_results->push_back(std::move(slot.result));
    }
  } else {
    size_t total = 0;
    for (const Slot& slot : slots) total += slot.result.size();
    run.result.reserve(total);
    for (Slot& slot : slots) {
      run.result.insert(run.result.end(), slot.result.begin(),
                        slot.result.end());
    }
  }
  FinishRun(&run, elements);
  run.host_wall_seconds = SecondsSince(host_start);
  return run;
}

Result<ParallelRun> Board::RunSetOperation(SetOp op,
                                           std::span<const uint32_t> a,
                                           std::span<const uint32_t> b) {
  const std::vector<uint32_t> splitters =
      PickSplitters(a.size() >= b.size() ? a : b, num_cores());
  const auto a_ranges = PartitionSorted(a, splitters);
  const auto b_ranges = PartitionSorted(b, splitters);

  std::vector<PartitionWork> parts(a_ranges.size());
  for (size_t i = 0; i < a_ranges.size(); ++i) {
    PartitionWork& part = parts[i];
    part.a = a_ranges[i];
    part.b = b_ranges[i];
    part.lo = i == 0 ? 0 : splitters[i - 1] + 1;
    part.hi = i < splitters.size() ? splitters[i] : 0xFFFFFFFFu;
    part.feed_bytes = 4 * (a_ranges[i].size() + b_ranges[i].size());
    part.active = !a_ranges[i].empty() || !b_ranges[i].empty();
    part.op = op;
  }

  return ExecutePartitioned(std::move(parts), a.size() + b.size());
}

Result<ParallelRun> Board::RunSort(std::span<const uint32_t> values) {
  // Sample splitters (planner-side; in hardware this partitioning pass
  // would itself be a streaming primitive, cf. the HARP partitioner the
  // paper cites [37]).
  std::vector<uint32_t> sample;
  const size_t sample_size =
      std::min<size_t>(values.size(), static_cast<size_t>(num_cores()) * 64);
  for (size_t i = 0; i < sample_size; ++i) {
    sample.push_back(values[i * values.size() / sample_size]);
  }
  std::sort(sample.begin(), sample.end());
  const std::vector<uint32_t> splitters = PickSplitters(sample, num_cores());

  // A value's bucket is the number of splitters below it (the index
  // std::lower_bound returns), found by a branch-free binary search over
  // the splitters padded with 0xFFFFFFFF, which is below no value, to a
  // power of two; at least one pad keeps the count under the padded
  // width.
  size_t width = 1;
  while (width <= splitters.size()) width <<= 1;
  std::vector<uint32_t> bounds(width, 0xFFFFFFFFu);
  std::copy(splitters.begin(), splitters.end(), bounds.begin());
  const auto bucket_of_value = [&bounds, width](uint32_t value) {
    size_t bucket = 0;
    for (size_t step = width >> 1; step > 0; step >>= 1) {
      bucket += bounds[bucket + step - 1] < value ? step : 0;
    }
    return static_cast<uint16_t>(bucket);  // num_cores <= 1024
  };

  // Bucket the input into one buffer: a counting pass, then a scatter,
  // each over the host pool with one contiguous input chunk per host
  // thread. Bucket b is the span [start[b], start[b + 1]) of the buffer,
  // and inside it chunk c's values follow those of chunks 0..c-1, so
  // every bucket keeps its values in input order at any host_threads.
  const size_t num_buckets = static_cast<size_t>(num_cores());
  const size_t chunks = static_cast<size_t>(host_threads_);
  const size_t chunk_size = (values.size() + chunks - 1) / chunks;
  const auto chunk_begin = [&](size_t c) {
    return std::min(values.size(), c * chunk_size);
  };
  std::vector<uint16_t> bucket_of(values.size());
  std::vector<size_t> offset(chunks * num_buckets);  // [chunk][bucket]
  ForEachCore(chunks, [&](size_t c) {
    std::vector<size_t> count(num_buckets, 0);
    for (size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
      const uint16_t bucket = bucket_of_value(values[i]);
      bucket_of[i] = bucket;
      ++count[bucket];
    }
    std::copy(count.begin(), count.end(), offset.data() + c * num_buckets);
  });
  std::vector<size_t> start(num_buckets + 1, 0);
  size_t filled = 0;
  for (size_t b = 0; b < num_buckets; ++b) {
    start[b] = filled;
    for (size_t c = 0; c < chunks; ++c) {
      const size_t count = offset[c * num_buckets + b];
      offset[c * num_buckets + b] = filled;
      filled += count;
    }
  }
  start[num_buckets] = filled;
  std::vector<uint32_t> bucketed(values.size());
  ForEachCore(chunks, [&](size_t c) {
    std::vector<size_t> next(offset.data() + c * num_buckets,
                             offset.data() + (c + 1) * num_buckets);
    for (size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
      bucketed[next[bucket_of[i]]++] = values[i];
    }
  });

  // Duplicate-heavy or tiny inputs can yield fewer than num_cores-1
  // splitters; buckets past splitters.size() are then always empty (the
  // bucket search never exceeds splitters.size()) but still need
  // in-bounds placeholder ranges.
  std::vector<PartitionWork> parts(num_buckets);
  for (size_t i = 0; i < num_buckets; ++i) {
    PartitionWork& part = parts[i];
    part.a = std::span<const uint32_t>(bucketed).subspan(
        start[i], start[i + 1] - start[i]);
    part.lo = i == 0 ? 0
              : i <= splitters.size() ? splitters[i - 1] + 1
                                      : 0xFFFFFFFFu;
    part.hi = i < splitters.size() ? splitters[i] : 0xFFFFFFFFu;
    part.feed_bytes = 4 * part.a.size();  // result out adds the rest
    part.active = !part.a.empty();
    part.sort = true;
  }
  return ExecutePartitioned(std::move(parts), values.size());
}

Status Board::SetFaultPlan(const fault::FaultPlan& plan) {
  DBA_RETURN_IF_ERROR(plan.Validate());
  for (const int core : plan.broken_cores) {
    if (core >= num_cores()) {
      return Status::InvalidArgument(
          "FaultPlan::broken_cores lists core " + std::to_string(core) +
          " but the board has " + std::to_string(num_cores()) + " cores");
    }
  }
  config_.fault_plan = plan;
  if (plan.enabled()) {
    injector_ = std::make_unique<fault::FaultInjector>(plan);
    if (hang_program_ == nullptr) {
      DBA_ASSIGN_OR_RETURN(isa::Program hang_loop,
                           fault::BuildHangLoopProgram());
      hang_program_ =
          std::make_shared<const isa::Program>(std::move(hang_loop));
    }
  } else {
    injector_.reset();
  }
  return Status::Ok();
}

Result<Board::BatchRun> Board::RunSetOperationBatch(
    std::span<const BatchItem> items, const BatchOptions& options) {
  BatchRun batch;
  if (items.empty()) {
    batch.run.per_core_cycles.assign(cores_.size(), 0);
    batch.run.host_threads_used = host_threads_;
    batch.run.sim_mode = config_.sim_mode;
    return batch;
  }
  uint64_t elements = 0;
  for (const BatchItem& item : items) {
    switch (item.op) {
      case SetOp::kIntersect:
      case SetOp::kUnion:
      case SetOp::kDifference:
      case SetOp::kMerge:
        break;
      default:
        return Status::InvalidArgument(
            "RunSetOperationBatch supports intersect/union/difference/merge");
    }
    elements += item.a.size() + item.b.size();
  }

  // Unlike the value-partitioned paths, a batch item is one whole
  // request executed on one core: partition i's home core is
  // i mod num_cores, so a batch larger than the board runs in waves.
  // The full recovery machinery (retries, requeues, quarantine,
  // verification) applies per item.
  std::vector<PartitionWork> parts(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    PartitionWork& part = parts[i];
    part.a = items[i].a;
    part.b = items[i].b;
    part.lo = 0;
    part.hi = 0xFFFFFFFFu;
    part.feed_bytes = 4 * (items[i].a.size() + items[i].b.size());
    part.active = !items[i].a.empty() || !items[i].b.empty();
    part.op = items[i].op;
  }

  DBA_ASSIGN_OR_RETURN(
      batch.run, ExecutePartitioned(std::move(parts), elements,
                                    &batch.results, options.deadline_cycles));
  return batch;
}

}  // namespace dba::system
