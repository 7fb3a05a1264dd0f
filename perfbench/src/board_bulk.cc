// board_bulk: one closed-loop caller driving a 16-core board in
// fast-forward mode. A round is a fixed list of operations in three
// size classes -- `fits` (every per-core partition within the local
// store), `streams` (partitions beyond it, fed by the prefetcher) and
// `batch` (RunSetOperationBatch waves of small mixed items) -- and the
// caller repeats the round until the time is up. Every result is
// checked against baseline::Scalar*.
//
// Rounds are identical, so modeled figures taken over complete rounds
// are a pure function of the seed, at any host_threads.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baseline/scalar_baseline.h"
#include "common.h"
#include "common/random.h"
#include "core/workload.h"
#include "query/planner.h"
#include "system/board.h"

namespace dba::perfbench {
namespace {

constexpr int kCores = 16;
// The caller plus 2 pool workers: one core stays free for the rest of
// the machine, so a busy neighbour delays no partition straggler.
constexpr int kHostThreads = 3;
constexpr uint32_t kFitsPerCore = 3000;       // per side; local store 8188
constexpr uint32_t kStreamsPerCore = 16384;   // per side; streamed
constexpr uint32_t kFitsSortPerCore = 4000;   // sort local store 6500
constexpr uint32_t kStreamsSortPerCore = 12000;
// Each fits/streams op appears in kVariants seeded variants per round:
// a makespan follows its inputs' partition imbalance, and with one
// variant the mean modeled cycles per op spread 11% across seeds.
constexpr int kVariants = 3;
constexpr int kBatchesPerRound = 16;
constexpr int kBatchItems = 48;  // three waves over 16 cores
constexpr uint32_t kBatchMinElements = 32;
constexpr uint32_t kBatchMaxElements = 512;
constexpr double kSelectivity = 0.5;  // the paper's Figure 13 midpoint
constexpr int kSetupReps = 7;

const char* const kClassNames[] = {"fits", "streams", "batch"};

enum SizeClass { kFits = 0, kStreams = 1, kBatch = 2 };

struct OpSpec {
  SizeClass size_class = kFits;
  bool sort = false;
  SetOp op = SetOp::kIntersect;
  std::vector<uint32_t> a;  // sort: the values
  std::vector<uint32_t> b;
  std::vector<SetOp> item_ops;  // batch
  std::vector<std::vector<uint32_t>> item_a;
  std::vector<std::vector<uint32_t>> item_b;
  uint64_t elements = 0;
  uint64_t expected = 0;  // digest of the scalar reference output(s)
};

uint64_t Combine(uint64_t digest, uint64_t next) {
  return (digest ^ next) * 0x100000001b3ULL;
}

SetPair Pair(uint32_t size, uint64_t seed) {
  auto pair = GenerateSetPair(size, size, kSelectivity, seed);
  if (!pair.ok()) Die("GenerateSetPair", pair.status());
  return *std::move(pair);
}

/// The round's operations; inputs are a pure function of `seed`.
std::vector<OpSpec> MakeRound(uint64_t seed) {
  Random rng(seed);
  std::vector<OpSpec> round;
  const SetOp ops[] = {SetOp::kIntersect, SetOp::kUnion, SetOp::kDifference,
                       SetOp::kMerge};
  for (const SizeClass size_class : {kFits, kStreams}) {
    const uint32_t per_core =
        size_class == kFits ? kFitsPerCore : kStreamsPerCore;
    for (int variant = 0; variant < kVariants; ++variant) {
      for (const SetOp op : ops) {
        OpSpec spec;
        spec.size_class = size_class;
        spec.op = op;
        SetPair pair = Pair(per_core * kCores, rng.Next64());
        spec.a = std::move(pair.a);
        spec.b = std::move(pair.b);
        spec.elements = spec.a.size() + spec.b.size();
        round.push_back(std::move(spec));
      }
      OpSpec sort;
      sort.size_class = size_class;
      sort.sort = true;
      sort.a = GenerateSortInput(
          (size_class == kFits ? kFitsSortPerCore : kStreamsSortPerCore) *
              kCores,
          rng.Next64());
      sort.elements = sort.a.size();
      round.push_back(std::move(sort));
    }
  }
  for (int batch = 0; batch < kBatchesPerRound; ++batch) {
    OpSpec spec;
    spec.size_class = kBatch;
    for (int item = 0; item < kBatchItems; ++item) {
      const auto size = static_cast<uint32_t>(
          kBatchMinElements +
          rng.Uniform(kBatchMaxElements - kBatchMinElements + 1));
      SetPair pair = Pair(size, rng.Next64());
      spec.item_ops.push_back(ops[rng.Uniform(4)]);
      spec.elements += pair.a.size() + pair.b.size();
      spec.item_a.push_back(std::move(pair.a));
      spec.item_b.push_back(std::move(pair.b));
    }
    round.push_back(std::move(spec));
  }
  return round;
}

/// The scalar oracle's digest of each op's output.
void ComputeExpected(std::vector<OpSpec>* round) {
  for (OpSpec& spec : *round) {
    if (spec.size_class == kBatch) {
      uint64_t digest = 0;
      for (size_t i = 0; i < spec.item_ops.size(); ++i) {
        digest = Combine(digest, Digest(ReferenceSetOp(spec.item_ops[i],
                                                  spec.item_a[i],
                                                  spec.item_b[i])));
      }
      spec.expected = digest;
    } else if (spec.sort) {
      spec.expected = Digest(baseline::ScalarMergeSort(spec.a));
    } else {
      spec.expected = Digest(ReferenceSetOp(spec.op, spec.a, spec.b));
    }
  }
}

// The board's value-range partitioning (Board::RunSetOperation and
// Board::RunSort), replayed here to count the partitions that exceed a
// core's local store and therefore stream through the prefetcher.
std::vector<uint32_t> Splitters(std::span<const uint32_t> reference,
                                int parts) {
  std::vector<uint32_t> splitters;
  for (int i = 1; i < parts && !reference.empty(); ++i) {
    const uint32_t candidate =
        reference[reference.size() * static_cast<size_t>(i) /
                  static_cast<size_t>(parts)];
    if (splitters.empty() || candidate > splitters.back()) {
      splitters.push_back(candidate);
    }
  }
  return splitters;
}

std::vector<size_t> PartitionSizes(std::span<const uint32_t> values,
                                   const std::vector<uint32_t>& splitters) {
  std::vector<size_t> sizes(splitters.size() + 1, 0);
  for (const uint32_t value : values) {
    sizes[static_cast<size_t>(
        std::lower_bound(splitters.begin(), splitters.end(), value) -
        splitters.begin())]++;
  }
  return sizes;
}

/// (streamed partitions, partitions) of the value-partitioned ops.
std::pair<double, double> StreamedPartitions(const std::vector<OpSpec>& round,
                                             Processor& core) {
  double streamed = 0;
  double total = 0;
  for (const OpSpec& spec : round) {
    if (spec.size_class == kBatch) continue;
    if (spec.sort) {
      std::vector<uint32_t> sample;
      const size_t n = std::min<size_t>(spec.a.size(), kCores * 64);
      for (size_t i = 0; i < n; ++i) {
        sample.push_back(spec.a[i * spec.a.size() / n]);
      }
      std::sort(sample.begin(), sample.end());
      for (const size_t size : PartitionSizes(spec.a, Splitters(sample, kCores))) {
        total += 1;
        streamed += size > core.max_sort_elements() ? 1 : 0;
      }
      continue;
    }
    const auto splitters =
        Splitters(spec.a.size() >= spec.b.size() ? spec.a : spec.b, kCores);
    const auto a_sizes = PartitionSizes(spec.a, splitters);
    const auto b_sizes = PartitionSizes(spec.b, splitters);
    for (size_t i = 0; i < a_sizes.size(); ++i) {
      total += 1;
      const bool fits =
          a_sizes[i] <= core.max_set_elements(static_cast<uint32_t>(b_sizes[i])) &&
          b_sizes[i] <= core.max_set_elements(static_cast<uint32_t>(a_sizes[i]));
      streamed += fits ? 0 : 1;
    }
  }
  return {streamed, total};
}

struct OpOutcome {
  uint64_t digest = 0;
  uint64_t makespan_cycles = 0;
  double imbalance = 1;
};

OpOutcome RunOp(system::Board& board, const OpSpec& spec, Tracer& tracer) {
  OpOutcome outcome;
  system::ParallelRun run;
  if (spec.size_class == kBatch) {
    std::vector<system::Board::BatchItem> items(spec.item_ops.size());
    for (size_t i = 0; i < items.size(); ++i) {
      items[i] = {spec.item_ops[i], spec.item_a[i], spec.item_b[i]};
    }
    auto batch = [&] {
      ScopedSpan span(tracer, "system.run_set_operation_batch");
      return board.RunSetOperationBatch(items);
    }();
    if (!batch.ok()) Die("RunSetOperationBatch", batch.status());
    ScopedSpan verify(tracer, "bench.verify");
    for (const std::vector<uint32_t>& result : batch->results) {
      outcome.digest = Combine(outcome.digest, Digest(result));
    }
    run = std::move(batch->run);
  } else {
    auto result = [&] {
      ScopedSpan span(tracer, spec.sort ? "system.run_sort"
                                        : "system.run_set_operation");
      return spec.sort ? board.RunSort(spec.a)
                       : board.RunSetOperation(spec.op, spec.a, spec.b);
    }();
    if (!result.ok()) {
      Die(spec.sort ? "RunSort" : "RunSetOperation", result.status());
    }
    ScopedSpan verify(tracer, "bench.verify");
    outcome.digest = Digest(result->result);
    run = *std::move(result);
  }
  outcome.makespan_cycles = run.makespan_cycles;
  uint64_t max_cycles = 0;
  uint64_t sum_cycles = 0;
  for (const uint64_t cycles : run.per_core_cycles) {
    max_cycles = std::max(max_cycles, cycles);
    sum_cycles += cycles;
  }
  if (sum_cycles > 0) {
    outcome.imbalance = static_cast<double>(max_cycles) *
                        static_cast<double>(run.per_core_cycles.size()) /
                        static_cast<double>(sum_cycles);
  }
  return outcome;
}

std::unique_ptr<system::Board> MakeBoard(int host_threads) {
  system::BoardConfig config;
  config.num_cores = kCores;
  config.host_threads = host_threads;
  config.sim_mode = sim::ExecMode::kFastForward;
  auto board = system::Board::Create(config);
  if (!board.ok()) Die("Board::Create", board.status());
  return *std::move(board);
}

/// Modeled sums over complete rounds (integers, so the ratios are exact
/// and identical for any number of rounds).
struct ModeledSums {
  uint64_t ops = 0;
  uint64_t makespan_cycles = 0;
  uint64_t elements = 0;
  double imbalance_sum = 0;
  uint64_t class_cycles[3] = {};
  uint64_t class_elements[3] = {};
};

std::map<std::string, double> ModeledMetrics(const ModeledSums& sums,
                                             double frequency_hz) {
  std::map<std::string, double> out;
  const double ops = static_cast<double>(sums.ops);
  out["modeled_cycles_per_op"] =
      static_cast<double>(sums.makespan_cycles) / ops;
  out["system.makespan_cycles"] = out["modeled_cycles_per_op"];
  out["system.modeled_meps"] = static_cast<double>(sums.elements) *
                               frequency_hz /
                               (static_cast<double>(sums.makespan_cycles) * 1e6);
  out["system.core_imbalance"] = sums.imbalance_sum / ops;
  out["system.cycles_per_element.fits"] =
      static_cast<double>(sums.class_cycles[kFits]) /
      static_cast<double>(sums.class_elements[kFits]);
  out["system.cycles_per_element.streams"] =
      static_cast<double>(sums.class_cycles[kStreams]) /
      static_cast<double>(sums.class_elements[kStreams]);
  return out;
}

/// One round's modeled sums, from the outcomes of its ops in order.
void AddRound(const std::vector<OpSpec>& round,
              const std::vector<OpOutcome>& outcomes, ModeledSums* sums) {
  for (size_t i = 0; i < round.size(); ++i) {
    ++sums->ops;
    sums->makespan_cycles += outcomes[i].makespan_cycles;
    sums->elements += round[i].elements;
    sums->imbalance_sum += outcomes[i].imbalance;
    sums->class_cycles[round[i].size_class] += outcomes[i].makespan_cycles;
    sums->class_elements[round[i].size_class] += round[i].elements;
  }
}

}  // namespace

Report RunBoardBulk(const Options& options) {
  Report report;

  // --- Set-up: the median of kSetupReps board builds with input
  // generation and a warm-up pass over one op of each kind. ---
  uint64_t begin = NowNs();
  (void)query::Planner::Calibrated();
  const double calibrate_s = static_cast<double>(NowNs() - begin) / 1e9;
  std::unique_ptr<system::Board> board;
  std::vector<OpSpec> round;
  std::vector<double> setup_s;
  Tracer tracer;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    board.reset();
    begin = NowNs();
    board = MakeBoard(kHostThreads);
    round = MakeRound(options.seed);
    for (const size_t warm : {size_t{0}, size_t{4}, round.size() - 1}) {
      (void)RunOp(*board, round[warm], tracer);
    }
    setup_s.push_back(static_cast<double>(NowNs() - begin) / 1e9);
  }
  report.Set("setup_s", calibrate_s + Median(setup_s));
  report.info["calibrate_s"] = std::to_string(calibrate_s);
  ComputeExpected(&round);
  const auto [streamed_parts, all_parts] =
      StreamedPartitions(round, *board->core(0));

  // --- Measured loop: repeat the round until the time is up (at least
  // one complete round). A traced run alternates untraced and traced
  // rounds (TraceBlocks). ---
  ModeledSums sums;
  uint64_t ops = 0;
  uint64_t elements = 0;
  std::vector<double> latency_ms;
  std::vector<double> class_ms[3];
  std::vector<OpOutcome> outcomes(round.size());
  uint64_t mismatches = 0;
  RegistryDelta delta;
  TraceBlocks blocks(tracer, options.trace);
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(options.seconds * 1e9);
  std::vector<double> round_qps;  // per complete round
  HostSpeedProbe probe;
  bool done = false;
  while (!done) {
    const uint64_t round_begin = NowNs();
    size_t ran = 0;
    while (ran < round.size()) {
      const uint64_t op_begin = NowNs();
      outcomes[ran] = RunOp(*board, round[ran], tracer);
      const double ms = static_cast<double>(NowNs() - op_begin) / 1e6;
      ++ops;
      elements += round[ran].elements;
      if (outcomes[ran].digest != round[ran].expected) ++mismatches;
      latency_ms.push_back(ms);
      class_ms[round[ran].size_class].push_back(ms);
      ++ran;
      if (NowNs() >= end && sums.ops > 0) break;
    }
    if (ran == round.size()) {
      AddRound(round, outcomes, &sums);
      round_qps.push_back(static_cast<double>(ran) * 1e9 /
                          static_cast<double>(NowNs() - round_begin));
    }
    done = NowNs() >= end;
    if (done) {
      blocks.Finish(ran);
    } else {
      blocks.Next(ran);
      if (!options.trace) probe.Run();
    }
  }
  delta.Stop();
  const double seconds = static_cast<double>(NowNs() - start) / 1e9;
  report.attempted = ops;
  report.failed = mismatches;
  if (mismatches > 0) report.correct = false;

  const double frequency = board->core_frequency_hz();
  const std::map<std::string, double> modeled = ModeledMetrics(sums, frequency);
  // The median round's rate: a round is identical every time, so a
  // host stall moves a few rounds, not the figure. qps reports it scaled
  // by the median rate of the HostSpeedProbe run between untraced
  // rounds: over eight runs the scaled rate spread 6.4%, unscaled 10.2%,
  // and scaled by the probe's 90th percentile 9.3%.
  const double qps = Median(round_qps);
  const double sim_meps = static_cast<double>(elements) / seconds / 1e6;
  if (!options.trace) {
    report.Set("qps", probe.Scale(qps, 0.5));
    report.Set("latency_p50_ms", WindowedQuantile(latency_ms, 0.5));
    report.Set("latency_p99_ms", WindowedQuantile(latency_ms, 0.99));
    report.Set("modeled_cycles_per_op", modeled.at("modeled_cycles_per_op"));
    report.Set("modeled_meps", modeled.at("system.modeled_meps"));
    report.Set("sim_meps", sim_meps);
    report.Set("error_rate", static_cast<double>(mismatches) /
                                 static_cast<double>(report.attempted));
    report.info["latency_samples"] = std::to_string(latency_ms.size());
    report.info["qps_unscaled"] = std::to_string(qps);
    report.info["host_probe_rate"] = std::to_string(probe.Rate(0.5));
  } else {
    for (const auto& [name, value] : modeled) {
      if (name.find('.') != std::string::npos) report.Set(name, value);
    }
    for (int c = 0; c < 3; ++c) {
      report.Set(std::string("system.op_host_ms_p50.") + kClassNames[c],
                 Median(class_ms[c]));
    }
    report.Set("system.sim_meps", sim_meps);
    report.Set("prefetch.streamed_partition_share",
               all_parts == 0 ? 0 : streamed_parts / all_parts);
    AddSimulatorCounters(delta, &report);
    AddStandaloneCoreMetrics(options.seed, &report);
    report.Set("bench.trace_overhead", blocks.Overhead());
    FinishTrace(tracer, blocks.traced_ns(), options, &report);
  }
  report.info["complete_rounds"] =
      std::to_string(sums.ops / round.size());
  report.info["host_threads"] = std::to_string(board->host_threads());
  report.Set("peak_rss_mb", PeakRssMb());
  return report;
}

std::map<std::string, double> BoardBulkModeled(uint64_t seed, int host_threads,
                                               int rounds) {
  std::unique_ptr<system::Board> board = MakeBoard(host_threads);
  std::vector<OpSpec> round = MakeRound(seed);
  ComputeExpected(&round);
  Tracer off;
  ModeledSums sums;
  std::vector<OpOutcome> outcomes(round.size());
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < round.size(); ++i) {
      outcomes[i] = RunOp(*board, round[i], off);
      if (outcomes[i].digest != round[i].expected) {
        std::fprintf(stderr, "perfbench board_bulk: op %zu mismatch\n", i);
        std::exit(1);
      }
    }
    AddRound(round, outcomes, &sums);
  }
  return ModeledMetrics(sums, board->core_frequency_hz());
}

uint64_t BoardBulkInputDigest(uint64_t seed) {
  uint64_t digest = 0;
  for (const OpSpec& spec : MakeRound(seed)) {
    digest = Combine(digest, Digest(spec.a));
    digest = Combine(digest, Digest(spec.b));
    for (size_t i = 0; i < spec.item_a.size(); ++i) {
      digest = Combine(digest, Digest(spec.item_a[i]));
      digest = Combine(digest, Digest(spec.item_b[i]));
      digest = Combine(digest, static_cast<uint64_t>(spec.item_ops[i]));
    }
  }
  return digest;
}

}  // namespace dba::perfbench
