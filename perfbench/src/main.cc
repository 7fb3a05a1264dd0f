// perfbench: the repository benchmark binary. perfbench/run.py builds
// and drives it; it can also be run directly:
//
//   perfbench --workload service_mix|board_bulk|planner_skew
//             --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//   perfbench selftest
//
// The last stdout line is `PERFBENCH_RESULT {json}` with the run's
// correctness, attempt/failure counts, every measured metric by name,
// and report fields. run.py attaches units and clocks from
// perfbench/catalog.json. Exit code 1 on any wrong answer.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "obs/json.h"

namespace dba::perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload service_mix|board_bulk|"
               "planner_skew --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n"
               "       perfbench selftest\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "selftest") return RunSelfTest();
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !(options.seconds > 0)) return Usage();

  Report report;
  if (options.workload == "service_mix") {
    report = RunServiceMix(options);
  } else if (options.workload == "board_bulk") {
    report = RunBoardBulk(options);
  } else if (options.workload == "planner_skew") {
    report = RunPlannerSkew(options);
  } else {
    return Usage();
  }

  obs::JsonValue metrics = obs::JsonValue::Object();
  for (const auto& [name, value] : report.metrics) metrics.Set(name, value);
  obs::JsonValue info = obs::JsonValue::Object();
  for (const auto& [key, value] : report.info) info.Set(key, value);
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("workload", options.workload)
      .Set("seed", options.seed)
      .Set("seconds", options.seconds)
      .Set("trace", options.trace)
      .Set("correct", report.correct)
      .Set("attempted", report.attempted)
      .Set("failed", report.failed)
      .Set("metrics", std::move(metrics))
      .Set("info", std::move(info));
  std::printf("PERFBENCH_RESULT %s\n", out.Dump().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace dba::perfbench

int main(int argc, char** argv) { return dba::perfbench::Main(argc, argv); }
