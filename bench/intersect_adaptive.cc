// Adaptive-intersection microbenchmark: sweeps set-size skew from 1:1
// to 1:4096 and times every planner route -- the EIS merge datapath
// (simulated time, deterministic), host galloping, host SIMD merge, and
// the partition-probe index -- plus the planner's chosen route at each
// point (docs/PLANNER.md).
//
// Row schema (dba.bench.v1):
//   route rows   config/op/route/skew, elements, wall_ns (min of reps),
//                and for the EIS route cycles + gated throughput_meps
//                (simulated, so deterministic across hosts).
//   planner rows config/op/route=planner/skew, routes.chosen and
//                routes.best_measured (nested, so a route flipped by host
//                timing is a value and not part of the row identity that
//                compare-bench matches on), estimated vs measured ns,
//                regret vs the best measured route, and speedup_vs_eis
//                (host wall numbers: reported, not gated).

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "baseline/scalar_baseline.h"
#include "bench/bench_util.h"
#include "query/planner.h"

namespace dba::bench {
namespace {

constexpr uint32_t kSmallElements = 512;
constexpr uint32_t kSkews[] = {1, 4, 16, 64, 256, 1024, 4096};
constexpr int kReps = 5;

std::string SkewName(uint32_t skew) { return "1:" + std::to_string(skew); }

struct RouteSample {
  double wall_ns = 0;         // best-of-kReps execution time
  double build_ns = 0;        // transient index build (partition route)
  uint64_t cycles = 0;        // simulated cycles (EIS route only)
  double sim_ns = 0;          // simulated time (EIS route only)
};

/// Times one route with best-of-kReps and verifies the result against
/// the scalar reference on every repetition.
RouteSample MeasureRoute(query::Route route, const SetPair& pair,
                         Processor& processor, const RunSettings& settings,
                         const std::vector<uint32_t>& expected) {
  RouteSample sample;
  sample.wall_ns = std::numeric_limits<double>::infinity();
  sample.build_ns = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    auto run = query::RunIntersectRoute(route, pair.a, pair.b, &processor,
                                        settings);
    if (!run.ok()) {
      std::fprintf(stderr, "intersect_adaptive: route %s failed: %s\n",
                   std::string(query::RouteName(route)).c_str(),
                   run.status().ToString().c_str());
      std::exit(1);
    }
    if (run->result != expected) {
      std::fprintf(stderr,
                   "intersect_adaptive: route %s result mismatch "
                   "(%zu vs %zu elements)\n",
                   std::string(query::RouteName(route)).c_str(),
                   run->result.size(), expected.size());
      std::exit(1);
    }
    if (route == query::Route::kEisMerge) {
      // Simulated time is deterministic: one rep defines it.
      sample.cycles = run->accelerator_cycles;
      sample.sim_ns = run->route_seconds * 1e9;
      sample.wall_ns = sample.sim_ns;
      sample.build_ns = 0;
      break;
    }
    sample.wall_ns = std::min(sample.wall_ns, run->route_seconds * 1e9);
    sample.build_ns = std::min(sample.build_ns, run->build_seconds * 1e9);
  }
  return sample;
}

void Run() {
  auto processor = MustCreate(ProcessorKind::kDba2LsuEis);
  RunSettings settings;
  settings.sim_mode = sim::ExecMode::kTurbo;  // exact results, model cycles
  query::Planner planner{query::PlannerOptions{}};  // calibrated cost model

  PrintHeader("adaptive intersection: skew sweep, all routes");
  std::printf("%8s %12s | %12s %12s %12s %12s | %-15s %10s %8s\n", "skew",
              "elements", "eis_ns(sim)", "gallop_ns", "simd_ns",
              "partition_ns", "planner_route", "speedup", "regret");

  for (const uint32_t skew : kSkews) {
    const uint32_t large_elements = kSmallElements * skew;
    auto pair = GenerateSetPair(kSmallElements, large_elements,
                                kDefaultSelectivity, kSeed + skew);
    if (!pair.ok()) {
      std::fprintf(stderr, "intersect_adaptive: workload 1:%u failed: %s\n",
                   skew, pair.status().ToString().c_str());
      std::exit(1);
    }
    const std::vector<uint32_t> expected =
        baseline::ScalarIntersect(pair->a, pair->b);
    const uint64_t total_elements =
        static_cast<uint64_t>(kSmallElements) + large_elements;

    std::array<RouteSample, query::kNumRoutes> samples;
    for (size_t r = 0; r < query::kNumRoutes; ++r) {
      samples[r] = MeasureRoute(static_cast<query::Route>(r), *pair,
                                *processor, settings, expected);
    }

    // Per-route rows. Only the EIS row carries the gated
    // throughput_meps: its time base is simulated, so the value is
    // deterministic across CI hosts; host wall numbers stay ungated.
    for (size_t r = 0; r < query::kNumRoutes; ++r) {
      const auto route = static_cast<query::Route>(r);
      obs::JsonValue& row = AddBenchRow(
          route == query::Route::kEisMerge ? ConfigName(processor->kind())
                                           : "HOST");
      row.Set("op", "intersect")
          .Set("route", std::string(query::RouteName(route)))
          .Set("skew", SkewName(skew))
          .Set("elements", total_elements)
          .Set("wall_ns", samples[r].wall_ns);
      if (route == query::Route::kEisMerge) {
        row.Set("cycles", samples[r].cycles)
            .Set("throughput_meps", static_cast<double>(total_elements) /
                                        samples[r].sim_ns * 1e3);
      }
      if (route == query::Route::kPartitionProbe) {
        row.Set("build_ns", samples[r].build_ns);
      }
    }

    // Planner-chosen row: decision with no prebuilt index (steady-state
    // routing), measured against the best measured route.
    const query::PlanDecision decision =
        planner.Plan(pair->a.size(), pair->b.size(), false);
    const size_t chosen = static_cast<size_t>(decision.route);
    double best_ns = std::numeric_limits<double>::infinity();
    size_t best_route = 0;
    // The partition route's transient build is not a steady-state
    // choice; exclude it from the regret baseline (the planner can only
    // reach it through the savings meter).
    for (size_t r = 0; r < query::kNumRoutes; ++r) {
      if (static_cast<query::Route>(r) == query::Route::kPartitionProbe) {
        continue;
      }
      if (samples[r].wall_ns < best_ns) {
        best_ns = samples[r].wall_ns;
        best_route = r;
      }
    }
    const double chosen_ns = samples[chosen].wall_ns;
    const double regret = best_ns > 0 ? chosen_ns / best_ns - 1.0 : 0.0;
    const double speedup_vs_eis =
        chosen_ns > 0 ? samples[0].sim_ns / chosen_ns : 0.0;
    obs::JsonValue& planner_row = AddBenchRow("PLANNER");
    planner_row.Set("op", "intersect")
        .Set("route", "planner")
        .Set("routes",
             obs::JsonValue::Object()
                 .Set("chosen",
                      std::string(query::RouteName(decision.route)))
                 .Set("best_measured",
                      std::string(query::RouteName(
                          static_cast<query::Route>(best_route)))))
        .Set("skew", SkewName(skew))
        .Set("elements", total_elements)
        .Set("estimated_ns", decision.chosen_ns)
        .Set("wall_ns", chosen_ns)
        .Set("regret", regret)
        .Set("speedup_vs_eis", speedup_vs_eis);

    std::printf(
        "%8s %12llu | %12.0f %12.0f %12.0f %12.0f | %-15s %9.2fx %7.1f%%\n",
        SkewName(skew).c_str(),
        static_cast<unsigned long long>(total_elements), samples[0].sim_ns,
        samples[1].wall_ns, samples[2].wall_ns, samples[3].wall_ns,
        std::string(query::RouteName(decision.route)).c_str(),
        speedup_vs_eis, regret * 100.0);
  }

  std::printf(
      "\nwall_ns: best of %d reps; eis_ns is simulated time (cycles / "
      "f_max, deterministic); partition_ns excludes the transient build\n",
      kReps);
}

}  // namespace
}  // namespace dba::bench

int main(int argc, char** argv) {
  return dba::bench::BenchMain(argc, argv, "intersect_adaptive",
                               dba::bench::Run);
}
