// Per-layer metrics shared by every traced run: simulator waste
// counters read from the metrics registry, and the standalone-Processor
// measurements at the paper's 5000-element / 6500-value sizes.

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common.h"
#include "core/processor.h"
#include "core/workload.h"

namespace dba::perfbench {
namespace {

// The paper's Table 2 sizes: 5000-element sets and 6500-value sort
// inputs fit the local data memories.
constexpr uint32_t kPaperSetSize = 5000;
constexpr uint32_t kPaperSortSize = 6500;
constexpr int kRepeats = 15;

}  // namespace

void AddSimulatorCounters(const RegistryDelta& delta, Report* report) {
  const double runs = delta.Counter("dba_sim_runs_total{mode=\"interpret\"}") +
                      delta.Counter("dba_sim_runs_total{mode=\"fast-forward\"}") +
                      delta.Counter("dba_sim_runs_total{mode=\"turbo\"}");
  report->Set("sim.runs", runs);
  const auto per_run = [runs](double count) {
    return runs == 0 ? 0 : count / runs;
  };
  report->Set("sim.decodes_per_run",
              per_run(delta.Counter("dba_sim_program_decodes_total")));
  report->Set("sim.superblock_rebuilds_per_run",
              per_run(delta.Counter("dba_sim_superblock_rebuilds_total")));
  report->Set("sim.program_reloads_per_run",
              per_run(delta.Counter("dba_sim_program_reloads_total")));
  const double hits = delta.Counter("dba_core_program_cache_hits_total");
  const double builds = delta.Counter("dba_core_program_builds_total");
  report->Set("core.program_cache_hit_ratio",
              hits + builds == 0 ? 0 : hits / (hits + builds));
  const obs::HistogramStats latency =
      delta.Histogram("dba_query_latency_cycles");
  if (latency.count > 0) {
    report->Set("query.latency_cycles_p50", latency.Quantile(0.5));
  }
}

void AddStandaloneCoreMetrics(uint64_t seed, Report* report) {
  auto processor = Processor::Create(ProcessorKind::kDba2LsuEis);
  if (!processor.ok()) Die("Processor::Create", processor.status());
  auto pair = GenerateSetPair(kPaperSetSize, kPaperSetSize, 0.5, seed);
  if (!pair.ok()) Die("GenerateSetPair", pair.status());
  const std::vector<uint32_t> sort_input =
      GenerateSortInput(kPaperSortSize, seed);

  struct Kernel {
    const char* metric;
    SetOp op;
    bool sort;
  };
  const Kernel kernels[] = {
      {"eis.cycles_per_element.intersect", SetOp::kIntersect, false},
      {"eis.cycles_per_element.union", SetOp::kUnion, false},
      {"eis.cycles_per_element.difference", SetOp::kDifference, false},
      {"eis.cycles_per_element.merge", SetOp::kMerge, false},
      {"eis.cycles_per_element.sort", SetOp::kIntersect, true},
  };
  std::vector<double> ns_per_cycle;
  for (const Kernel& kernel : kernels) {
    for (int rep = 0; rep < kRepeats; ++rep) {
      const uint64_t start = NowNs();
      uint64_t cycles = 0;
      double elements = 0;
      if (kernel.sort) {
        auto run = (*processor)->RunSort(sort_input);
        if (!run.ok()) Die("Processor::RunSort", run.status());
        cycles = run->metrics.cycles;
        elements = kPaperSortSize;
      } else {
        auto run = kernel.op == SetOp::kMerge
                       ? (*processor)->RunMerge(pair->a, pair->b)
                       : (*processor)->RunSetOperation(kernel.op, pair->a,
                                                       pair->b);
        if (!run.ok()) Die("Processor::RunSetOperation", run.status());
        cycles = run->metrics.cycles;
        elements = 2.0 * kPaperSetSize;
      }
      const uint64_t host_ns = NowNs() - start;
      if (cycles == 0) continue;
      ns_per_cycle.push_back(static_cast<double>(host_ns) /
                             static_cast<double>(cycles));
      report->Set(kernel.metric, static_cast<double>(cycles) / elements);
    }
  }
  report->Set("core.host_ns_per_sim_cycle", Median(ns_per_cycle));
}

}  // namespace dba::perfbench
