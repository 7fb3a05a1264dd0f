// dba_cli -- command-line driver for the DBA processor simulator.
//
// Run any kernel on any configuration without writing C++:
//
//   dba_cli --list-configs
//   dba_cli --config=DBA_2LSU_EIS --op=intersect --n=5000 --selectivity=0.5
//   dba_cli --config=DBA_1LSU_EIS --op=sort --n=6500 --no-partial
//   dba_cli --config=DBA_2LSU_EIS --op=union --n=200000 --stream
//   dba_cli --config=DBA_2LSU_EIS --op=intersect --n=64 --profile --disasm
//
// Observability subcommands (docs/OBSERVABILITY.md):
//
//   dba_cli profile --config=DBA_2LSU_EIS --op=intersect --json=out.json
//   dba_cli trace --config=DBA_2LSU_EIS --op=intersect --out=run.trace.json
//   dba_cli validate-bench BENCH_table2_throughput.json
//   dba_cli compare-bench run.json baseline.json --tolerance=0.15
//
// Multi-core board runs (Section 5.4 scale-out; the cores are simulated
// on concurrent host threads, see docs/ARCHITECTURE.md):
//
//   dba_cli board --op=intersect --cores=16 --n=500000 --host-threads=8
//
// Fault injection and recovery (docs/FAULTS.md):
//
//   dba_cli faults --op=sort --cores=8 --n=100000 --fault-rate=0.05
//   dba_cli faults --op=intersect --broken-cores=1,3 --fault-rate=0
//   dba_cli board --op=union --fault-seed=7 --fault-rate=0.02

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "baseline/scalar_baseline.h"
#include "common/random.h"
#include "core/processor.h"
#include "core/workload.h"
#include "hwmodel/synthesis.h"
#include "isa/disassembler.h"
#include "obs/bench_compare.h"
#include "obs/bench_json.h"
#include "obs/metrics_json.h"
#include "obs/metrics/event_log.h"
#include "obs/metrics/metrics.h"
#include "obs/serialize.h"
#include "obs/trace_writer.h"
#include "prefetch/streaming.h"
#include "query/engine.h"
#include "query/partition_index.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "query/table.h"
#include "fault/chaos.h"
#include "service/query_service.h"
#include "sim/exec_mode.h"
#include "system/board.h"
#include "toolchain/profiler.h"

namespace {

using dba::ProcessorKind;
using dba::SetOp;

struct CliOptions {
  std::string command;  // "", "profile", "trace", "board"
  std::string config = "DBA_2LSU_EIS";
  std::string op = "intersect";
  uint32_t n = 5000;
  std::optional<uint32_t> nb;
  double selectivity = 0.5;
  uint64_t seed = 42;
  bool partial = true;
  int unroll = 32;
  bool tech28 = false;
  bool scalar = false;
  bool profile = false;
  bool disasm = false;
  bool stream = false;
  bool list_configs = false;
  dba::sim::ExecMode sim_mode = dba::sim::ExecMode::kFastForward;
  uint32_t trace = 0;
  std::string json_path;   // profile: combined JSON report
  std::string trace_path = "dba.trace.json";  // trace: Perfetto file
  int cores = 16;          // board: number of cores
  int host_threads = 0;    // board: 0 = hardware concurrency
  uint64_t fault_seed = 1;    // board/faults: fault schedule seed
  double fault_rate = -1.0;   // per-class rate; < 0 = command default
  std::string broken_cores;   // comma-separated permanently-dead cores
  int max_attempts = 4;       // recovery: attempts per partition
  std::string metrics_out;    // board/faults/top: dba.metrics.v1 file
  bool once = false;          // top: one refresh, no screen clearing
  int iters = 10;             // top: refreshes before exiting (0 = forever)
  std::string sizes;          // plan: "A,B" set sizes (default --n,--nb)
  std::string force_route;    // plan: fixed route override
  uint64_t chaos_seed = 1;    // serve: chaos schedule seed
  std::string chaos_profile;  // serve: calm|ramp|waves|brownout|meltdown
};

void PrintUsage() {
  std::printf(
      "usage: dba_cli [command] [options]\n"
      "commands:\n"
      "  (none)                   run a kernel and print its metrics\n"
      "  profile                  run profiled; print the hotspot and\n"
      "                           stall-attribution reports\n"
      "                           (--json=PATH writes them as JSON)\n"
      "  trace                    run with the cycle tracer; write a\n"
      "                           Chrome trace-event / Perfetto file\n"
      "                           (--out=PATH, default dba.trace.json)\n"
      "  board                    run a parallel op on a multi-core board\n"
      "                           (--cores=N, --host-threads=N; 0 = all\n"
      "                           host cores, 1 = serial simulation)\n"
      "  faults                   board run under deterministic fault\n"
      "                           injection; prints recovery telemetry\n"
      "                           (default --fault-rate=0.05)\n"
      "  top                      live runtime-metrics view: runs board\n"
      "                           ops in a loop and refreshes a table of\n"
      "                           QPS, latency quantiles, and recovery\n"
      "                           counters (--once for a single refresh,\n"
      "                           --iters=N refreshes, --json=PATH writes\n"
      "                           the final dba.metrics.v1 snapshot)\n"
      "  plan                     adaptive-planner inspector: print the\n"
      "                           route decision for an (|A|, |B|)\n"
      "                           intersection with estimated vs measured\n"
      "                           cost per route, then replay the query\n"
      "                           through a QueryEngine until the lazy\n"
      "                           PartitionIndex pays back\n"
      "                           (--sizes=A,B --selectivity=F\n"
      "                           [--force-route=R], docs/PLANNER.md)\n"
      "  serve                    query-service demo: front a board with\n"
      "                           the multi-tenant QueryService (vip\n"
      "                           tenant boosted, result cache on), push\n"
      "                           --iters waves of mixed queries and\n"
      "                           direct set ops, and print admission/\n"
      "                           batching/cache counters plus latency\n"
      "                           quantiles (--n=ROWS --cores=N\n"
      "                           [--metrics-out=PATH], docs/SERVICE.md);\n"
      "                           --chaos-profile=P runs the waves under\n"
      "                           a seeded chaos schedule (calm | ramp |\n"
      "                           waves | brownout | meltdown,\n"
      "                           --chaos-seed=N) and reports degraded-\n"
      "                           mode and breaker activity\n"
      "  validate-bench FILE...   validate dba.bench.v1 (and\n"
      "                           dba.metrics.v1) JSON documents\n"
      "  compare-bench RUN BASE   compare a bench run against a committed\n"
      "                           baseline; exit 1 when a higher-is-better\n"
      "                           metric drops by more than --tolerance\n"
      "                           (default 0.15) or a baseline row is\n"
      "                           missing from the run; --strict also\n"
      "                           fails metrics the run omitted\n"
      "options:\n"
      "  --list-configs           print the synthesis table and exit\n"
      "  --config=NAME            108Mini | DBA_1LSU | DBA_2LSU |\n"
      "                           DBA_1LSU_EIS | DBA_2LSU_EIS\n"
      "  --op=NAME                intersect | union | difference | merge |"
      " sort\n"
      "  --n=N                    elements per input (default 5000)\n"
      "  --nb=N                   elements in set B (default = --n)\n"
      "  --selectivity=F          0.0 .. 1.0 (default 0.5)\n"
      "  --seed=N                 workload seed (default 42)\n"
      "  --no-partial             disable partial loading\n"
      "  --unroll=N               EIS core-loop unroll factor (default 32)\n"
      "  --sim-mode=MODE          core run loop: interpret | fast-forward"
      " | turbo\n"
      "                           (default fast-forward; interpret is the\n"
      "                           reference loop, which profile, trace,\n"
      "                           --profile and --trace always run; turbo\n"
      "                           cycles are model-derived, see\n"
      "                           docs/ARCHITECTURE.md)\n"
      "  --tech28                 use the 28 nm node for timing/energy\n"
      "  --scalar                 force the scalar kernel\n"
      "  --stream                 stream via the data prefetcher\n"
      "  --profile                print the hotspot report\n"
      "  --trace=N                print the first N executed words\n"
      "  --disasm                 print the kernel program listing\n"
      "fault options (board | faults):\n"
      "  --fault-seed=N           fault schedule seed (default 1)\n"
      "  --fault-rate=F           per-attempt probability of each fault\n"
      "                           class (hang, bit flips, NoC faults)\n"
      "  --broken-cores=A,B,...   cores that permanently hang\n"
      "  --max-attempts=N         attempts per partition (default 4)\n"
      "metrics options (board | faults | top):\n"
      "  --metrics-out=PATH       write a dba.metrics.v1 runtime telemetry\n"
      "                           snapshot (also written when the run\n"
      "                           fails, so partial telemetry survives)\n"
      "  --once                   top: render one table and exit\n"
      "  --iters=N                top: refresh N times (default 10,\n"
      "                           0 = until interrupted)\n"
      "plan options:\n"
      "  --sizes=A,B              intersection input sizes (default\n"
      "                           --n and --nb)\n"
      "  --force-route=R          eis_merge | galloping | simd_merge |\n"
      "                           partition_probe (skip cost-based\n"
      "                           routing; estimates still printed)\n");
}

std::optional<ProcessorKind> ParseKind(const std::string& name) {
  using hwmodel = dba::hwmodel::ConfigKind;
  if (name == "108Mini") return hwmodel::k108Mini;
  if (name == "DBA_1LSU") return hwmodel::kDba1Lsu;
  if (name == "DBA_2LSU") return hwmodel::kDba2Lsu;
  if (name == "DBA_1LSU_EIS") return hwmodel::kDba1LsuEis;
  if (name == "DBA_2LSU_EIS") return hwmodel::kDba2LsuEis;
  return std::nullopt;
}

std::optional<SetOp> ParseOp(const std::string& name) {
  if (name == "intersect") return SetOp::kIntersect;
  if (name == "union") return SetOp::kUnion;
  if (name == "difference") return SetOp::kDifference;
  if (name == "merge") return SetOp::kMerge;
  return std::nullopt;  // "sort" handled separately
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

int ListConfigs() {
  std::printf("%-14s %-6s %14s %12s %12s %10s\n", "config", "tech",
              "logic [mm2]", "mem [mm2]", "fmax [MHz]", "P [mW]");
  using dba::hwmodel::ConfigKind;
  using dba::hwmodel::TechNode;
  for (ConfigKind kind :
       {ConfigKind::k108Mini, ConfigKind::kDba1Lsu, ConfigKind::kDba2Lsu,
        ConfigKind::kDba1LsuEis, ConfigKind::kDba2LsuEis}) {
    for (TechNode node : {TechNode::k65nmTsmcLp, TechNode::k28nmGfSlp}) {
      const auto report = dba::hwmodel::Synthesize(kind, node);
      std::printf("%-14s %-6s %14.4f %12.3f %12.0f %10.1f\n",
                  report.config_name.c_str(),
                  std::string(dba::hwmodel::TechNodeName(node)).c_str(),
                  report.logic_area_mm2, report.mem_area_mm2,
                  report.fmax_mhz, report.power_mw);
    }
  }
  return 0;
}

void PrintMetrics(const dba::RunMetrics& metrics, size_t result_size,
                  const dba::Processor& processor) {
  std::printf("result elements   %zu\n", result_size);
  std::printf("cycles            %llu\n",
              static_cast<unsigned long long>(metrics.cycles));
  std::printf("time              %.3f us @ %.0f MHz\n", metrics.seconds * 1e6,
              processor.synthesis().fmax_mhz);
  std::printf("throughput        %.1f M elements/s\n",
              metrics.throughput_meps);
  std::printf("energy            %.4f nJ/element (%.1f mW)\n",
              metrics.energy_nj_per_element, processor.synthesis().power_mw);
  std::printf("branches          %llu taken, %llu mispredicted\n",
              static_cast<unsigned long long>(metrics.stats.taken_branches),
              static_cast<unsigned long long>(
                  metrics.stats.mispredicted_branches));
  std::printf("memory beats      LSU0 %llu, LSU1 %llu\n",
              static_cast<unsigned long long>(metrics.stats.lsu_beats[0]),
              static_cast<unsigned long long>(metrics.stats.lsu_beats[1]));
}

int Fail(const dba::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int NumLsus(ProcessorKind kind) {
  return (kind == ProcessorKind::kDba2Lsu ||
          kind == ProcessorKind::kDba2LsuEis)
             ? 2
             : 1;
}

/// validate-bench FILE...: parse each document and check it against its
/// schema, dispatched on the schema tag: dba.bench.v1 bench results or
/// dba.metrics.v1 runtime-telemetry snapshots.
int ValidateBenchFiles(int argc, char** argv, int first) {
  if (first >= argc) {
    std::fprintf(stderr, "validate-bench: no files given\n");
    return 2;
  }
  int failures = 0;
  for (int i = first; i < argc; ++i) {
    auto document = dba::obs::ReadJsonFile(argv[i]);
    if (!document.ok()) {
      std::fprintf(stderr, "%s: INVALID: %s\n", argv[i],
                   document.status().ToString().c_str());
      ++failures;
      continue;
    }
    const bool is_metrics =
        document->at("schema").is_string() &&
        document->at("schema").as_string() == dba::obs::kMetricsSchema;
    const dba::Status status =
        is_metrics ? dba::obs::ValidateMetricsJson(*document)
                   : dba::obs::ValidateBenchJson(*document);
    if (!status.ok()) {
      std::fprintf(stderr, "%s: INVALID: %s\n", argv[i],
                   status.ToString().c_str());
      ++failures;
    } else if (is_metrics) {
      std::printf("%s: OK (%s, %zu counters, %zu gauges, %zu histograms)\n",
                  argv[i], std::string(dba::obs::kMetricsSchema).c_str(),
                  document->at("counters").members().size(),
                  document->at("gauges").members().size(),
                  document->at("histograms").members().size());
    } else {
      std::printf("%s: OK (%s, %zu rows)\n", argv[i],
                  document->at("bench").as_string().c_str(),
                  document->at("results").size());
    }
  }
  return failures == 0 ? 0 : 1;
}

/// compare-bench RUN BASELINE [--tolerance=F]: the CI perf gate. Exits
/// 0 when every baseline row is present in the run and no tracked
/// higher-is-better metric regressed beyond the tolerance.
int CompareBenchFiles(int argc, char** argv, int first) {
  std::vector<const char*> files;
  dba::obs::BenchCompareOptions options;
  for (int i = first; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--tolerance", &value)) {
      options.tolerance = std::strtod(value.c_str(), nullptr);
    } else if (std::strcmp(argv[i], "--strict") == 0) {
      options.strict = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "compare-bench: unknown option %s\n", argv[i]);
      return 2;
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: dba_cli compare-bench RUN.json BASELINE.json "
                 "[--tolerance=F] [--strict]\n");
    return 2;
  }
  auto run = dba::obs::ReadJsonFile(files[0]);
  if (!run.ok()) return Fail(run.status());
  auto baseline = dba::obs::ReadJsonFile(files[1]);
  if (!baseline.ok()) return Fail(baseline.status());
  auto comparison =
      dba::obs::CompareBenchDocuments(*run, *baseline, options);
  if (!comparison.ok()) return Fail(comparison.status());

  std::printf("comparing %s against %s (tolerance %.0f%%)\n", files[0],
              files[1], options.tolerance * 100.0);
  std::printf("%-44s %-16s %12s %12s %8s\n", "row", "metric", "run",
              "baseline", "ratio");
  for (const dba::obs::BenchMetricDelta& delta : comparison->deltas) {
    std::printf("%-44s %-16s %12.2f %12.2f %7.2fx%s\n",
                delta.row_key.c_str(), delta.metric.c_str(), delta.run_value,
                delta.baseline_value, delta.ratio,
                delta.regressed ? "  << REGRESSION" : "");
  }
  for (const std::string& tolerated : comparison->tolerated) {
    std::printf("%-44s tolerated: metric absent from the run (use "
                "--strict to fail)\n",
                tolerated.c_str());
  }
  for (const std::string& row : comparison->missing_rows) {
    std::printf("%-44s MISSING from the run document\n", row.c_str());
  }
  if (!comparison->passed()) {
    std::fprintf(stderr,
                 "compare-bench: FAIL (%d regressed metric(s), %zu missing "
                 "row(s))\n",
                 comparison->regressions, comparison->missing_rows.size());
    return 1;
  }
  std::printf("compare-bench: OK (%zu metrics within tolerance)\n",
              comparison->deltas.size());
  return 0;
}

/// "1,3,7" -> {1, 3, 7}; empty string -> {}.
std::vector<int> ParseIntList(const std::string& csv) {
  std::vector<int> values;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    values.push_back(static_cast<int>(
        std::strtol(csv.substr(pos, comma - pos).c_str(), nullptr, 10)));
    pos = comma + 1;
  }
  return values;
}

/// Writes the --metrics-out snapshot if requested. Called on both the
/// success and failure paths of board-style commands so a failed run
/// still emits the telemetry it accumulated.
void FlushMetricsOut(const std::string& path) {
  if (path.empty()) return;
  const dba::Status status = dba::obs::WriteMetricsSnapshotFile(path);
  if (status.ok()) {
    std::printf("wrote metrics snapshot to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "writing metrics snapshot %s failed: %s\n",
                 path.c_str(), status.ToString().c_str());
  }
}

/// The shared board construction of the board/faults/top commands.
dba::system::BoardConfig MakeBoardConfig(
    const CliOptions& options, ProcessorKind kind,
    const dba::ProcessorOptions& processor_options) {
  const bool faults_mode = options.command == "faults";
  dba::system::BoardConfig config;
  config.core_kind = kind;
  config.core_options = processor_options;
  config.num_cores = options.cores;
  config.host_threads = options.host_threads;
  config.sim_mode = options.sim_mode;
  double rate = options.fault_rate;
  if (rate < 0) rate = faults_mode ? 0.05 : 0.0;
  config.fault_plan.seed = options.fault_seed;
  config.fault_plan.hang_rate = rate;
  config.fault_plan.input_flip_rate = rate;
  config.fault_plan.result_flip_rate = rate;
  config.fault_plan.transfer_fail_rate = rate;
  config.fault_plan.transfer_timeout_rate = rate;
  config.fault_plan.broken_cores = ParseIntList(options.broken_cores);
  config.recovery.max_attempts = options.max_attempts;
  return config;
}

/// board / faults --op=... --cores=N --host-threads=N: a parallel set
/// operation or sample-sort on a multi-core board, with the host-side
/// simulation speed reported next to the simulated figures. The faults
/// command (or any --fault-* / --broken-cores flag) runs under the
/// deterministic injector and prints the recovery telemetry.
int RunBoard(const CliOptions& options, ProcessorKind kind,
             const dba::ProcessorOptions& processor_options) {
  const bool faults_mode = options.command == "faults";
  const dba::system::BoardConfig config =
      MakeBoardConfig(options, kind, processor_options);
  auto board = dba::system::Board::Create(config);
  if (!board.ok()) return Fail(board.status());

  dba::Result<dba::system::ParallelRun> run =
      dba::Status::Internal("unset");
  if (options.op == "sort") {
    const auto values = dba::GenerateSortInput(options.n, options.seed);
    run = (*board)->RunSort(values);
  } else {
    const auto op = ParseOp(options.op);
    if (!op.has_value() || *op == SetOp::kMerge) {
      std::fprintf(stderr, "board supports intersect|union|difference|sort\n");
      return 2;
    }
    auto pair = dba::GenerateSetPair(options.n,
                                     options.nb.value_or(options.n),
                                     options.selectivity, options.seed);
    if (!pair.ok()) return Fail(pair.status());
    run = (*board)->RunSetOperation(*op, pair->a, pair->b);
  }
  if (!run.ok()) {
    FlushMetricsOut(options.metrics_out);
    return Fail(run.status());
  }

  std::printf("result elements   %zu\n", run->result.size());
  std::printf("makespan          %llu cycles\n",
              static_cast<unsigned long long>(run->makespan_cycles));
  std::printf("throughput        %.1f M elements/s (%s-bound)\n",
              run->throughput_meps, run->noc_bound ? "noc" : "compute");
  std::printf("board power       %.2f W, energy %.1f uJ\n",
              run->board_power_mw / 1000.0, run->energy_uj);
  std::printf("host wall clock   %.4f s on %d host thread(s)\n",
              run->host_wall_seconds, run->host_threads_used);
  const dba::system::RecoveryTelemetry& recovery = run->recovery;
  if (faults_mode || config.fault_plan.enabled()) {
    std::printf("faults injected   %u (%u failed attempts, "
                "%u verification failures)\n",
                recovery.faults_injected, recovery.failed_attempts,
                recovery.verification_failures);
    std::printf("recovery          %u retries, %u requeues, %u rounds, "
                "%llu cycles\n",
                recovery.retries, recovery.requeues, recovery.rounds,
                static_cast<unsigned long long>(recovery.recovery_cycles));
    std::string quarantined;
    for (const int core : recovery.quarantined_cores) {
      if (!quarantined.empty()) quarantined += ",";
      quarantined += std::to_string(core);
    }
    std::printf("quarantined cores %s%s\n",
                quarantined.empty() ? "(none)" : quarantined.c_str(),
                recovery.degraded ? " [degraded]" : "");
  }
  if (!options.json_path.empty()) {
    auto root = dba::obs::JsonValue::Object();
    root.Set("config", options.config)
        .Set("op", options.op)
        .Set("cores", options.cores);
    dba::obs::MergeParallelRun(root, *run);
    const dba::Status status =
        dba::obs::WriteJsonFile(options.json_path, root);
    if (!status.ok()) return Fail(status);
    std::printf("wrote board JSON to %s\n", options.json_path.c_str());
  }
  FlushMetricsOut(options.metrics_out);
  return 0;
}

/// top: runs board operations in a loop and refreshes a live table fed
/// by the runtime-metrics registry -- QPS, simulated-latency quantiles,
/// and the recovery counters (docs/OBSERVABILITY.md). The registry is
/// reset on entry so the view covers this run only.
// `dba_cli serve`: a self-contained query-service demo. Builds a board,
// fronts it with a QueryService (vip tenant boosted, result cache on),
// registers a demo "orders" table, and pushes --iters waves of mixed
// predicate queries plus direct set ops through Submit/Drain. Prints
// the admission/batching/cache counters and the latency quantiles the
// service mirrors into the global metrics registry (docs/SERVICE.md).
int RunServe(const CliOptions& options, ProcessorKind kind,
             const dba::ProcessorOptions& processor_options) {
  namespace svc = dba::service;
  dba::obs::MetricsRegistry::Global().Reset();
  dba::obs::EventLog::Global().Clear();

  const dba::system::BoardConfig board_config =
      MakeBoardConfig(options, kind, processor_options);
  auto board = dba::system::Board::Create(board_config);
  if (!board.ok()) return Fail(board.status());

  // Optional chaos schedule: the waves below run under a seeded,
  // phased fault plan swapped in at wave boundaries (the board is idle
  // behind Drain), exercising the breaker and host fallback live.
  const int waves = options.iters > 0 ? options.iters : 10;
  std::optional<dba::fault::ChaosSchedule> chaos;
  if (!options.chaos_profile.empty()) {
    auto profile = dba::fault::ChaosProfileFromName(options.chaos_profile);
    if (!profile.ok()) return Fail(profile.status());
    dba::fault::ChaosOptions chaos_options;
    chaos_options.num_cores = options.cores;
    auto probe = dba::fault::ChaosSchedule::Make(*profile, options.chaos_seed,
                                                 chaos_options);
    if (!probe.ok()) return Fail(probe.status());
    // Stretch the schedule's phases evenly over the wave count.
    chaos_options.steps_per_phase = std::max(
        1, waves / static_cast<int>(probe->phases().size()));
    auto schedule = dba::fault::ChaosSchedule::Make(
        *profile, options.chaos_seed, chaos_options);
    if (!schedule.ok()) return Fail(schedule.status());
    chaos = *std::move(schedule);
  }

  svc::ServiceConfig config;
  config.board = board->get();
  config.queue_capacity = 4096;
  config.max_attempts = options.max_attempts;
  config.tenant_priorities["vip"] = 10;
  if (chaos.has_value()) {
    config.breaker.failure_threshold = 2;
    config.breaker.open_duration_ns = 2'000'000;  // 2 ms wall time
  }
  auto service = svc::QueryService::Create(config);
  if (!service.ok()) return Fail(service.status());

  // Demo table: the orders schema the bench and test suites share.
  dba::Random rng(options.seed);
  auto table = std::make_unique<dba::query::Table>("orders");
  {
    const uint32_t rows = options.n;
    std::vector<uint32_t> region(rows);
    std::vector<uint32_t> status(rows);
    std::vector<uint32_t> amount(rows);
    for (uint32_t i = 0; i < rows; ++i) {
      region[i] = static_cast<uint32_t>(rng.Uniform(5));
      status[i] = static_cast<uint32_t>(rng.Uniform(3));
      amount[i] = static_cast<uint32_t>(rng.Uniform(10000));
    }
    if (auto s = table->AddColumn("region", std::move(region)); !s.ok()) {
      return Fail(s);
    }
    if (auto s = table->AddColumn("status", std::move(status)); !s.ok()) {
      return Fail(s);
    }
    if (auto s = table->AddColumn("amount", std::move(amount)); !s.ok()) {
      return Fail(s);
    }
  }
  if (auto s = (*service)->RegisterTable(std::move(table)); !s.ok()) {
    return Fail(s);
  }

  std::vector<std::shared_ptr<const dba::query::Predicate>> pool;
  for (uint32_t i = 0; i < 16; ++i) {
    dba::query::PredicatePtr predicate;
    switch (i % 4) {
      case 0:
        predicate = dba::query::Equals("region", i % 5);
        break;
      case 1:
        predicate = dba::query::And(dba::query::Equals("region", i % 5),
                                    dba::query::Equals("status", i % 3));
        break;
      case 2:
        predicate =
            dba::query::Between("amount", (i * 997) % 8000,
                                (i * 997) % 8000 + 1999);
        break;
      default:
        predicate = dba::query::Or(dba::query::Equals("status", i % 3),
                                   dba::query::GreaterEq("amount", 9000));
        break;
    }
    pool.emplace_back(std::move(predicate));
  }

  constexpr int kPerWave = 64;
  const char* tenants[] = {"vip", "batch0", "batch1", "batch2"};
  const auto start = std::chrono::steady_clock::now();
  uint64_t ok_responses = 0;
  uint64_t degraded_responses = 0;
  uint64_t failed_responses = 0;
  uint64_t rows_out = 0;
  size_t applied_phase = static_cast<size_t>(-1);
  for (int wave = 0; wave < waves; ++wave) {
    if (chaos.has_value()) {
      const size_t phase_index =
          chaos->PhaseIndexForStep(static_cast<uint64_t>(wave));
      if (phase_index != applied_phase) {
        const dba::fault::ChaosPhase& phase = chaos->phases()[phase_index];
        if (phase.heal) (*board)->ResetQuarantine();
        if (auto s = (*board)->SetFaultPlan(phase.plan); !s.ok()) {
          return Fail(s);
        }
        applied_phase = phase_index;
        std::printf("[chaos] wave %d: phase '%s'\n", wave,
                    phase.label.c_str());
      }
    }
    std::vector<std::future<svc::ServiceResponse>> futures;
    futures.reserve(kPerWave);
    for (int i = 0; i < kPerWave; ++i) {
      svc::ServiceRequest request;
      request.tenant = tenants[i % 4];
      request.priority = i % 3;
      if (i % 8 == 7) {
        // A direct set operation rides along with the queries.
        request.op = i % 16 == 15 ? SetOp::kUnion : SetOp::kIntersect;
        auto generated = dba::GenerateSetPair(
            256, 256, options.selectivity,
            options.seed + static_cast<uint64_t>(wave * kPerWave + i));
        if (!generated.ok()) return Fail(generated.status());
        request.a = std::move(generated->a);
        request.b = std::move(generated->b);
      } else {
        request.table = "orders";
        request.predicate = pool[static_cast<size_t>(
            (wave * kPerWave + i) % static_cast<int>(pool.size()))];
      }
      futures.push_back((*service)->Submit(std::move(request)));
    }
    (*service)->Drain();
    for (auto& future : futures) {
      const svc::ServiceResponse response = future.get();
      if (!response.status.ok()) {
        // Under chaos, typed failures are part of the exercise;
        // without it any failure aborts the demo.
        if (!chaos.has_value()) {
          std::fprintf(stderr, "serve: request failed: %s\n",
                       response.status.ToString().c_str());
          return 1;
        }
        ++failed_responses;
        continue;
      }
      ++ok_responses;
      if (response.degraded) ++degraded_responses;
      rows_out += response.values.size();
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const svc::ServiceCounters counters = (*service)->counters();
  std::printf("== dba serve -- %d-core board, %u-row table, %d waves ==\n",
              options.cores, options.n, waves);
  std::printf("requests  submitted %llu   ok %llu   rows_out %llu   "
              "QPS %.0f\n",
              static_cast<unsigned long long>(counters.submitted),
              static_cast<unsigned long long>(ok_responses),
              static_cast<unsigned long long>(rows_out),
              elapsed > 0 ? static_cast<double>(ok_responses) / elapsed : 0.0);
  std::printf("admission rejected %llu   shed %llu   dispatched %llu   "
              "batches %llu\n",
              static_cast<unsigned long long>(counters.rejected),
              static_cast<unsigned long long>(counters.shed),
              static_cast<unsigned long long>(counters.dispatched),
              static_cast<unsigned long long>(counters.batches));
  std::printf("reuse     dedup %llu   cache_hits %llu   cache_misses %llu   "
              "evictions %llu\n",
              static_cast<unsigned long long>(counters.deduplicated),
              static_cast<unsigned long long>(counters.cache_hits),
              static_cast<unsigned long long>(counters.cache_misses),
              static_cast<unsigned long long>(counters.cache_evictions));
  std::printf("sheds     queue_full %llu   deadline %llu   rate_limited %llu"
              "   breaker_open %llu\n",
              static_cast<unsigned long long>(counters.rejected),
              static_cast<unsigned long long>(counters.shed),
              static_cast<unsigned long long>(counters.rate_limited),
              static_cast<unsigned long long>(counters.breaker_sheds));
  std::printf("breaker   state %s   transitions %llu   degraded %llu   "
              "breaker_sheds %llu\n",
              std::string(svc::BreakerStateName((*service)->breaker_state()))
                  .c_str(),
              static_cast<unsigned long long>(counters.breaker_transitions),
              static_cast<unsigned long long>(counters.degraded),
              static_cast<unsigned long long>(counters.breaker_sheds));
  if (chaos.has_value()) {
    const uint64_t answered = ok_responses + failed_responses;
    std::printf("chaos     profile %s   seed %llu   ok %llu   degraded %llu"
                "   failed %llu   availability %.4f\n",
                std::string(dba::fault::ChaosProfileName(chaos->profile()))
                    .c_str(),
                static_cast<unsigned long long>(chaos->seed()),
                static_cast<unsigned long long>(ok_responses),
                static_cast<unsigned long long>(degraded_responses),
                static_cast<unsigned long long>(failed_responses),
                answered > 0 ? static_cast<double>(ok_responses) /
                                   static_cast<double>(answered)
                             : 0.0);
  }
  const dba::obs::MetricsSnapshot snapshot =
      dba::obs::MetricsRegistry::Global().Snapshot();
  for (const auto* name :
       {"dba_service_latency_ns", "dba_service_batch_size"}) {
    const auto it = snapshot.histograms.find(name);
    if (it == snapshot.histograms.end() || it->second.count == 0) continue;
    std::printf("%-9s p50 %.0f   p90 %.0f   p99 %.0f   (n=%llu)\n",
                std::strcmp(name, "dba_service_latency_ns") == 0 ? "lat_ns"
                                                                 : "batch",
                it->second.Quantile(0.5), it->second.Quantile(0.9),
                it->second.Quantile(0.99),
                static_cast<unsigned long long>(it->second.count));
  }

  if (!options.metrics_out.empty()) {
    const dba::Status status =
        dba::obs::WriteMetricsSnapshotFile(options.metrics_out);
    if (!status.ok()) return Fail(status);
    std::printf("wrote metrics snapshot to %s\n",
                options.metrics_out.c_str());
  }
  return 0;
}

int RunTop(const CliOptions& options, ProcessorKind kind,
           const dba::ProcessorOptions& processor_options) {
  dba::obs::MetricsRegistry::Global().Reset();
  dba::obs::EventLog::Global().Clear();

  const dba::system::BoardConfig config =
      MakeBoardConfig(options, kind, processor_options);
  auto board = dba::system::Board::Create(config);
  if (!board.ok()) return Fail(board.status());

  const auto op = ParseOp(options.op);
  const bool is_sort = options.op == "sort";
  if (!is_sort && (!op.has_value() || *op == SetOp::kMerge)) {
    std::fprintf(stderr, "top supports intersect|union|difference|sort\n");
    return 2;
  }
  std::vector<uint32_t> sort_values;
  dba::SetPair pair;
  if (is_sort) {
    sort_values = dba::GenerateSortInput(options.n, options.seed);
  } else {
    auto generated = dba::GenerateSetPair(options.n,
                                          options.nb.value_or(options.n),
                                          options.selectivity, options.seed);
    if (!generated.ok()) return Fail(generated.status());
    pair = *std::move(generated);
  }

  const bool live = !options.once && isatty(fileno(stdout)) != 0;
  const int iters = options.once ? 1 : options.iters;
  const auto start = std::chrono::steady_clock::now();
  uint64_t ops_done = 0;

  const auto render = [&] {
    const dba::obs::MetricsSnapshot snapshot =
        dba::obs::MetricsRegistry::Global().Snapshot();
    const auto counter = [&snapshot](const char* name) -> unsigned long long {
      const auto it = snapshot.counters.find(name);
      return it == snapshot.counters.end() ? 0 : it->second;
    };
    const auto gauge = [&snapshot](const char* name) -> double {
      const auto it = snapshot.gauges.find(name);
      return it == snapshot.gauges.end() ? 0 : it->second;
    };
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (live) std::printf("\x1b[H\x1b[J");  // home + clear to end
    std::printf("dba top -- %s on a %d-core board, n=%u (refresh %llu)\n",
                options.op.c_str(), options.cores, options.n,
                static_cast<unsigned long long>(ops_done));
    std::printf("uptime %.1fs   ops %llu   QPS %.1f\n\n", elapsed,
                static_cast<unsigned long long>(ops_done),
                elapsed > 0 ? static_cast<double>(ops_done) / elapsed : 0.0);
    const auto quantiles = [&snapshot](const char* name, const char* label) {
      const auto it = snapshot.histograms.find(name);
      if (it == snapshot.histograms.end() || it->second.count == 0) return;
      std::printf("%-18s p50 %.0f   p90 %.0f   p99 %.0f   (n=%llu)\n",
                  label, it->second.Quantile(0.5), it->second.Quantile(0.9),
                  it->second.Quantile(0.99),
                  static_cast<unsigned long long>(it->second.count));
    };
    quantiles("dba_system_op_makespan_cycles", "makespan cycles");
    quantiles("dba_system_partition_cycles", "partition cycles");
    std::printf("recovery           faults %llu   retries %llu   requeues "
                "%llu   rounds %llu   verif_fail %llu\n",
                counter("dba_system_faults_injected_total"),
                counter("dba_system_retries_total"),
                counter("dba_system_requeues_total"),
                counter("dba_system_recovery_rounds_total"),
                counter("dba_system_verification_failures_total"));
    std::printf("cores              healthy %.0f   quarantined %.0f\n",
                gauge("dba_system_healthy_cores"),
                gauge("dba_system_quarantined_cores"));
    std::printf("noc                feed_bytes %llu   transfer_fail %llu   "
                "timeouts %llu\n",
                counter("dba_system_noc_feed_bytes_total"),
                counter("dba_system_noc_transfer_failures_total"),
                counter("dba_system_noc_transfer_timeouts_total"));
    // Service-layer admission health, when a QueryService feeds this
    // registry (e.g. a snapshot loaded from `serve --metrics-out`).
    if (counter("dba_service_submitted_total") > 0) {
      std::printf(
          "service sheds      queue_full %llu   deadline %llu   "
          "rate_limited %llu   breaker_open %llu   degraded %llu\n",
          counter("dba_service_shed_total{reason=\"queue_full\"}"),
          counter("dba_service_shed_total{reason=\"deadline\"}"),
          counter("dba_service_shed_total{reason=\"rate_limited\"}"),
          counter("dba_service_shed_total{reason=\"breaker_open\"}"),
          counter("dba_service_degraded_total"));
    }
    const std::vector<dba::obs::Event> events =
        dba::obs::EventLog::Global().Tail(5);
    if (!events.empty()) {
      std::printf("recent events:\n");
      for (const dba::obs::Event& event : events) {
        std::string fields;
        for (const auto& [key, val] : event.fields) {
          fields += " " + key + "=" + val;
        }
        std::printf("  [%s] %s: %s%s\n",
                    std::string(dba::obs::EventLevelName(event.level))
                        .c_str(),
                    event.scope.c_str(), event.message.c_str(),
                    fields.c_str());
      }
    }
    std::fflush(stdout);
  };

  for (int iter = 0; iters == 0 || iter < iters; ++iter) {
    dba::Result<dba::system::ParallelRun> run =
        is_sort ? (*board)->RunSort(sort_values)
                : (*board)->RunSetOperation(*op, pair.a, pair.b);
    if (!run.ok()) {
      FlushMetricsOut(options.metrics_out);
      if (!options.json_path.empty()) FlushMetricsOut(options.json_path);
      return Fail(run.status());
    }
    ++ops_done;
    render();
  }
  if (!options.json_path.empty()) FlushMetricsOut(options.json_path);
  FlushMetricsOut(options.metrics_out);
  return 0;
}

/// `dba_cli plan` -- the adaptive-planner inspector (docs/PLANNER.md).
/// Prints the cost-model routing decision for one (|A|, |B|)
/// intersection with estimated vs measured nanoseconds per route (every
/// route's result verified against the scalar baseline), the lazy
/// PartitionIndex payback projection, and then replays the query
/// through a QueryEngine until the savings meter actually materializes
/// the index -- showing QueryStats route counts along the way.
int RunPlan(const CliOptions& options, ProcessorKind kind,
            const dba::ProcessorOptions& processor_options) {
  namespace query = dba::query;
  using Clock = std::chrono::steady_clock;

  uint32_t size_a = options.n;
  uint32_t size_b = options.nb.value_or(options.n);
  if (!options.sizes.empty()) {
    const size_t comma = options.sizes.find(',');
    if (comma == std::string::npos || comma == 0 ||
        comma + 1 == options.sizes.size()) {
      std::fprintf(stderr, "bad --sizes '%s' (expected A,B)\n",
                   options.sizes.c_str());
      return 2;
    }
    size_a = static_cast<uint32_t>(
        std::strtoul(options.sizes.c_str(), nullptr, 10));
    size_b = static_cast<uint32_t>(
        std::strtoul(options.sizes.c_str() + comma + 1, nullptr, 10));
  }
  if (size_a == 0 || size_b == 0) {
    std::fprintf(stderr, "--sizes wants two nonzero set sizes\n");
    return 2;
  }

  query::PlannerOptions planner_options;
  if (!options.force_route.empty()) {
    auto route = query::ParseRoute(options.force_route);
    if (!route.ok()) return Fail(route.status());
    planner_options.force_route = *route;
  }
  const query::Planner planner{planner_options};
  const query::CostModel& model = planner.cost_model();

  auto processor = dba::Processor::Create(kind, processor_options);
  if (!processor.ok()) return Fail(processor.status());
  dba::RunSettings settings;
  settings.sim_mode = dba::sim::ExecMode::kTurbo;

  auto pair = dba::GenerateSetPair(size_a, size_b, options.selectivity,
                                   options.seed);
  if (!pair.ok()) return Fail(pair.status());
  const std::vector<uint32_t> expected =
      dba::baseline::ScalarIntersect(pair->a, pair->b);

  // The routing decision, timed over a batch so the per-decision
  // latency is resolvable above the clock granularity.
  constexpr int kDecisionReps = 1000;
  query::PlanDecision decision;
  const auto decide_start = Clock::now();
  for (int i = 0; i < kDecisionReps; ++i) {
    decision = planner.Plan(pair->a.size(), pair->b.size(),
                            /*index_available=*/false);
  }
  const double decision_wall_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - decide_start)
          .count() /
      kDecisionReps;

  // The form the partition route's index takes over the larger input.
  const query::PartitionIndex index = query::PartitionIndex::Build(
      pair->a.size() > pair->b.size() ? pair->a : pair->b);
  const std::string index_form =
      index.bitmap_span() != 0
          ? "  (bitmap over span " + std::to_string(index.bitmap_span()) + ")"
          : "  (directory of " + std::to_string(index.num_partitions()) +
                " partitions)";

  std::printf("== plan: |A|=%u, |B|=%u, selectivity=%.2f, |A*B|=%zu ==\n",
              size_a, size_b, options.selectivity, expected.size());
  std::printf("%-16s %14s %14s\n", "route", "estimated_ns", "measured_ns");
  for (size_t r = 0; r < query::kNumRoutes; ++r) {
    const auto route = static_cast<query::Route>(r);
    double measured_ns = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      auto run = query::RunIntersectRoute(route, pair->a, pair->b,
                                          processor->get(), settings);
      if (!run.ok()) return Fail(run.status());
      if (run->result != expected) {
        std::fprintf(stderr, "route %s disagrees with the scalar baseline\n",
                     std::string(query::RouteName(route)).c_str());
        return 1;
      }
      measured_ns = std::min(measured_ns, run->route_seconds * 1e9);
      // The EIS number is simulated time: deterministic, one rep does.
      if (route == query::Route::kEisMerge) break;
    }
    const bool chosen = route == decision.route;
    std::printf("%-16s %14.0f %14.0f%s%s%s%s\n",
                std::string(query::RouteName(route)).c_str(),
                decision.estimated_ns[r], measured_ns,
                route == query::Route::kEisMerge ? " (simulated)" : "",
                route == query::Route::kPartitionProbe ? index_form.c_str()
                                                       : "",
                chosen ? "  <- chosen" : "",
                chosen && decision.forced ? " (forced)" : "");
  }
  std::printf("decision latency  %.0f ns/decision (est %.0f, batched x%d)\n",
              decision_wall_ns, model.decision_ns, kDecisionReps);

  // Lazy-index payback projection: what the engine's savings meter will
  // see on every planned miss of this shape.
  const double build_ns =
      model.PartitionBuildNs(std::max(pair->a.size(), pair->b.size()));
  const double savings_ns =
      decision.chosen_ns -
      model.PartitionProbeNs(pair->a.size(), pair->b.size()) -
      model.decision_ns;
  std::printf("\nlazy index projection (payback_factor %.1f):\n",
              planner_options.payback_factor);
  std::printf("  build cost        %14.0f ns (%zu entries)\n", build_ns,
              std::max(pair->a.size(), pair->b.size()));
  if (savings_ns > 0) {
    std::printf("  per-query savings %14.0f ns (chosen - probe - decision)\n",
                savings_ns);
    std::printf("  pays back after   %14.0f queries\n",
                std::ceil(planner_options.payback_factor * build_ns /
                          savings_ns));
  } else {
    std::printf("  per-query savings %14.0f ns -> the index would never\n"
                "  pay back at this shape (probe no cheaper than the\n"
                "  chosen route)\n",
                savings_ns);
  }

  // Replay through a real QueryEngine: a bucket column where one range
  // probe yields each input set (common rows bucket=3, A-only=2,
  // B-only=4), so AND(bucket in [2,3], bucket in [3,4]) is exactly the
  // (|A|, |B|) intersection -- and the savings meter walks to payback.
  const size_t common = expected.size();
  const size_t a_only = pair->a.size() - common;
  const size_t b_only = pair->b.size() - common;
  std::vector<uint32_t> bucket;
  bucket.reserve(common + a_only + b_only);
  bucket.insert(bucket.end(), common, 3);
  bucket.insert(bucket.end(), a_only, 2);
  bucket.insert(bucket.end(), b_only, 4);
  query::Table table("plan_replay");
  dba::Status added = table.AddColumn("bucket", std::move(bucket));
  if (!added.ok()) return Fail(added);
  query::QueryEngine engine(&table, processor->get());
  dba::Status indexed = engine.BuildIndex("bucket");
  if (!indexed.ok()) return Fail(indexed);
  engine.SetRunSettings(settings);
  engine.EnableAdaptivePlanner(planner_options);
  const auto predicate = query::And(query::Between("bucket", 2, 3),
                                    query::Between("bucket", 3, 4));

  // Run long enough to reach the projected payback (with slack for the
  // engine's measured decision latency differing from the estimate),
  // bounded so a never-paying shape still terminates promptly.
  int max_replay = 200;
  if (!decision.forced && savings_ns > 0) {
    max_replay = static_cast<int>(std::min(
        5000.0, std::ceil(planner_options.payback_factor * build_ns /
                          savings_ns) *
                        2 +
                    16));
  }
  std::array<uint64_t, query::kNumRoutes> totals{};
  int queries = 0;
  int built_after = 0;
  while (queries < max_replay) {
    query::QueryStats stats;
    auto rids = engine.Select(*predicate, &stats);
    if (!rids.ok()) return Fail(rids.status());
    if (rids->size() != common) {
      std::fprintf(stderr, "replay returned %zu RIDs, want %zu\n",
                   rids->size(), common);
      return 1;
    }
    for (size_t r = 0; r < query::kNumRoutes; ++r) {
      totals[r] += stats.route_counts[r];
    }
    ++queries;
    if (built_after == 0 &&
        engine.partition_state("bucket").indexes_built > 0) {
      built_after = queries;
    }
    // A couple of post-build queries show the cached index being probed.
    if (built_after != 0 && queries >= built_after + 2) break;
  }

  const query::ColumnIndexState state = engine.partition_state("bucket");
  std::printf("\nengine replay (%d identical queries, lazy index on "
              "'bucket'):\n",
              queries);
  std::printf("  route counts     ");
  for (size_t r = 0; r < query::kNumRoutes; ++r) {
    std::printf(" %s=%llu",
                std::string(query::RouteName(static_cast<query::Route>(r)))
                    .c_str(),
                static_cast<unsigned long long>(totals[r]));
  }
  std::printf("\n");
  if (built_after != 0) {
    std::printf("  index built after %d queries (%u misses recorded)\n",
                built_after, state.misses_recorded);
  } else {
    std::printf("  index never built (%u misses, savings %.0f of %.0f ns "
                "needed)\n",
                state.misses_recorded, state.missed_savings_ns,
                planner_options.payback_factor * state.build_cost_ns);
  }
  std::printf("  partition state   builds=%u entries=%llu "
              "missed_savings=%.0f ns\n",
              state.indexes_built,
              static_cast<unsigned long long>(state.indexed_entries),
              state.missed_savings_ns);
  return 0;
}

/// Shared tail of the profile/trace subcommands: prints the hotspot and
/// stall reports, writes the combined JSON document (profile --json) and
/// the Perfetto trace file (trace).
int FinishRun(dba::Processor& processor, const CliOptions& options,
              const dba::RunMetrics& metrics,
              const dba::isa::Program* program,
              const dba::obs::ChromeTraceWriter* trace_writer) {
  const bool want_reports = options.command == "profile";
  dba::obs::StallReport stalls;
  if (want_reports || !options.json_path.empty()) {
    stalls = dba::obs::BuildStallReport(*program, metrics.stats,
                                        processor.synthesis().config_name,
                                        NumLsus(processor.kind()));
  }
  if (want_reports) {
    std::printf("\n%s", dba::toolchain::BuildProfile(
                            *program, metrics.stats,
                            processor.cpu().MakeExtNameResolver())
                            .ToString()
                            .c_str());
    std::printf("\n%s", stalls.ToString().c_str());
  }
  if (!options.json_path.empty()) {
    auto root = dba::obs::JsonValue::Object();
    root.Set("config", processor.synthesis().config_name)
        .Set("op", options.op)
        .Set("profile",
             dba::obs::ProfileReportToJson(dba::toolchain::BuildProfile(
                 *program, metrics.stats,
                 processor.cpu().MakeExtNameResolver())))
        .Set("stalls", dba::obs::StallReportToJson(stalls))
        .Set("metrics", dba::obs::RunMetricsToJson(metrics))
        .Set("synthesis",
             dba::obs::SynthesisReportToJson(processor.synthesis()));
    const dba::Status status =
        dba::obs::WriteJsonFile(options.json_path, root);
    if (!status.ok()) return Fail(status);
    std::printf("\nwrote profile JSON to %s\n", options.json_path.c_str());
  }
  if (trace_writer != nullptr) {
    const dba::Status status = trace_writer->WriteTo(options.trace_path);
    if (!status.ok()) return Fail(status);
    std::printf("\nwrote %zu trace events to %s (open in ui.perfetto.dev)\n",
                trace_writer->event_count(), options.trace_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  int first_flag = 1;
  if (argc > 1 && argv[1][0] != '-') {
    options.command = argv[1];
    first_flag = 2;
    if (options.command == "validate-bench") {
      return ValidateBenchFiles(argc, argv, 2);
    }
    if (options.command == "compare-bench") {
      return CompareBenchFiles(argc, argv, 2);
    }
    if (options.command != "profile" && options.command != "trace" &&
        options.command != "board" && options.command != "faults" &&
        options.command != "top" && options.command != "plan" &&
        options.command != "serve") {
      std::fprintf(stderr, "unknown command: %s\n\n", argv[1]);
      PrintUsage();
      return 2;
    }
  }
  for (int i = first_flag; i < argc; ++i) {
    std::string value;
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintUsage();
      return 0;
    } else if (std::strcmp(arg, "--list-configs") == 0) {
      options.list_configs = true;
    } else if (std::strcmp(arg, "--no-partial") == 0) {
      options.partial = false;
    } else if (std::strcmp(arg, "--tech28") == 0) {
      options.tech28 = true;
    } else if (std::strcmp(arg, "--scalar") == 0) {
      options.scalar = true;
    } else if (std::strcmp(arg, "--profile") == 0) {
      options.profile = true;
    } else if (std::strcmp(arg, "--disasm") == 0) {
      options.disasm = true;
    } else if (std::strcmp(arg, "--stream") == 0) {
      options.stream = true;
    } else if (ParseFlag(arg, "--sim-mode", &value)) {
      auto mode = dba::sim::ParseExecMode(value);
      if (!mode.ok()) {
        std::fprintf(stderr, "bad --sim-mode: %s\n", mode.status().ToString().c_str());
        return 2;
      }
      options.sim_mode = *mode;
    } else if (ParseFlag(arg, "--config", &value)) {
      options.config = value;
    } else if (ParseFlag(arg, "--op", &value)) {
      options.op = value;
    } else if (ParseFlag(arg, "--n", &value)) {
      options.n = static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (ParseFlag(arg, "--nb", &value)) {
      options.nb = static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (ParseFlag(arg, "--selectivity", &value)) {
      options.selectivity = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(arg, "--seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "--unroll", &value)) {
      options.unroll = static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
    } else if (ParseFlag(arg, "--trace", &value)) {
      options.trace = static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (ParseFlag(arg, "--json", &value)) {
      options.json_path = value;
    } else if (ParseFlag(arg, "--out", &value)) {
      options.trace_path = value;
    } else if (ParseFlag(arg, "--cores", &value)) {
      options.cores = static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
    } else if (ParseFlag(arg, "--host-threads", &value)) {
      options.host_threads =
          static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
    } else if (ParseFlag(arg, "--fault-seed", &value)) {
      options.fault_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "--fault-rate", &value)) {
      options.fault_rate = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(arg, "--broken-cores", &value)) {
      options.broken_cores = value;
    } else if (ParseFlag(arg, "--max-attempts", &value)) {
      options.max_attempts =
          static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
    } else if (ParseFlag(arg, "--metrics-out", &value)) {
      options.metrics_out = value;
    } else if (std::strcmp(arg, "--once") == 0) {
      options.once = true;
    } else if (ParseFlag(arg, "--iters", &value)) {
      options.iters = static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
    } else if (ParseFlag(arg, "--sizes", &value)) {
      options.sizes = value;
    } else if (ParseFlag(arg, "--force-route", &value)) {
      options.force_route = value;
    } else if (ParseFlag(arg, "--chaos-seed", &value)) {
      options.chaos_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "--chaos-profile", &value)) {
      options.chaos_profile = value;
    } else {
      std::fprintf(stderr, "unknown option: %s\n\n", arg);
      PrintUsage();
      return 2;
    }
  }

  if (options.list_configs) return ListConfigs();

  const bool is_command = !options.command.empty();
  if (is_command && options.stream) {
    std::fprintf(stderr, "%s does not support --stream\n",
                 options.command.c_str());
    return 2;
  }
  if (options.command == "profile") options.profile = true;

  const auto kind = ParseKind(options.config);
  if (!kind.has_value()) {
    std::fprintf(stderr, "unknown config '%s'\n", options.config.c_str());
    return 2;
  }
  dba::ProcessorOptions processor_options;
  processor_options.partial_loading = options.partial;
  processor_options.unroll = options.unroll;
  if (options.tech28) {
    processor_options.tech = dba::hwmodel::TechNode::k28nmGfSlp;
  }
  if (options.command == "board" || options.command == "faults") {
    return RunBoard(options, *kind, processor_options);
  }
  if (options.command == "top") {
    return RunTop(options, *kind, processor_options);
  }
  if (options.command == "plan") {
    return RunPlan(options, *kind, processor_options);
  }
  if (options.command == "serve") {
    return RunServe(options, *kind, processor_options);
  }

  auto processor = dba::Processor::Create(*kind, processor_options);
  if (!processor.ok()) return Fail(processor.status());

  std::printf("== %s%s, %s, op=%s, n=%u ==\n", options.config.c_str(),
              options.tech28 ? " @28nm" : "",
              options.scalar ? "scalar kernel" : "best kernel",
              options.op.c_str(), options.n);

  const bool is_sort = options.op == "sort";
  const bool is_eis_kind = (*processor)->has_eis();
  const bool scalar = options.scalar || !is_eis_kind;

  if (options.disasm) {
    auto program =
        is_sort ? (*processor)->sort_program(scalar)
                : (*processor)->setop_program(
                      ParseOp(options.op).value_or(SetOp::kIntersect),
                      scalar);
    if (!program.ok()) return Fail(program.status());
    std::printf("%s\n",
                dba::isa::DisassembleProgram(
                    **program, (*processor)->cpu().MakeExtNameResolver())
                    .c_str());
  }

  dba::obs::ChromeTraceWriter trace_writer(options.config);
  dba::RunSettings settings;
  settings.force_scalar = options.scalar;
  settings.sim_mode = options.sim_mode;
  settings.profile = options.profile;
  settings.trace_limit = options.trace;
  if (options.command == "trace") settings.trace_sink = &trace_writer;

  if (is_sort) {
    const auto values = dba::GenerateSortInput(options.n, options.seed);
    auto run = (*processor)->RunSort(values, settings);
    if (!run.ok()) return Fail(run.status());
    PrintMetrics(run->metrics, run->sorted.size(), **processor);
    auto program = (*processor)->sort_program(scalar);
    if (!program.ok()) return Fail(program.status());
    if (is_command) {
      return FinishRun(**processor, options, run->metrics, *program,
                       options.command == "trace" ? &trace_writer : nullptr);
    }
    if (options.profile) {
      std::printf("\n%s", dba::toolchain::BuildProfile(
                              **program, run->metrics.stats,
                              (*processor)->cpu().MakeExtNameResolver())
                              .ToString()
                              .c_str());
    }
    return 0;
  }

  const auto op = ParseOp(options.op);
  if (!op.has_value()) {
    std::fprintf(stderr, "unknown op '%s'\n", options.op.c_str());
    return 2;
  }
  auto pair = dba::GenerateSetPair(options.n, options.nb.value_or(options.n),
                                   options.selectivity, options.seed);
  if (!pair.ok()) return Fail(pair.status());

  if (options.stream) {
    dba::RunSettings stream_settings;
    stream_settings.sim_mode = options.sim_mode;
    dba::prefetch::StreamingSetOperation streaming(
        processor->get(), dba::prefetch::DmaConfig{}, 0, stream_settings);
    auto run = streaming.Run(*op, pair->a, pair->b);
    if (!run.ok()) return Fail(run.status());
    std::printf("result elements   %zu\n", run->result.size());
    std::printf("chunks            %u (%s-bound)\n", run->chunks,
                run->dma_bound ? "dma" : "compute");
    std::printf("total cycles      %llu (compute %llu, dma %llu)\n",
                static_cast<unsigned long long>(run->total_cycles),
                static_cast<unsigned long long>(run->compute_cycles),
                static_cast<unsigned long long>(run->dma_cycles));
    std::printf("throughput        %.1f M elements/s\n",
                run->throughput_meps);
    return 0;
  }

  auto run = *op == SetOp::kMerge
                 ? (*processor)->RunMerge(pair->a, pair->b, settings)
                 : (*processor)->RunSetOperation(*op, pair->a, pair->b,
                                                 settings);
  if (!run.ok()) return Fail(run.status());
  PrintMetrics(run->metrics, run->result.size(), **processor);
  if (!run->metrics.stats.trace.empty()) {
    std::printf("\ntrace (first %zu issued words):\n",
                run->metrics.stats.trace.size());
    for (const std::string& line : run->metrics.stats.trace) {
      std::printf("%s\n", line.c_str());
    }
  }
  auto program = (*processor)->setop_program(*op, scalar);
  if (is_command) {
    if (!program.ok()) return Fail(program.status());
    return FinishRun(**processor, options, run->metrics, *program,
                     options.command == "trace" ? &trace_writer : nullptr);
  }
  if (options.profile && program.ok()) {
    std::printf("\n%s", dba::toolchain::BuildProfile(
                            **program, run->metrics.stats,
                            (*processor)->cpu().MakeExtNameResolver())
                            .ToString()
                            .c_str());
  }
  return 0;
}
