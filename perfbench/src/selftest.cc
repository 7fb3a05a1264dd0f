// The benchmark's own checks (`perfbench selftest`):
//   1. every workload's generated inputs are a pure function of the
//      seed: the same seed twice gives identical inputs, another seed
//      gives different ones;
//   2. a short board_bulk run gives identical modeled metrics at board
//      host_threads 1 and 2, the standalone eis figures repeat exactly,
//      and so does service_mix's modeled_cycles_per_op.

#include <cstdio>
#include <map>
#include <string>

#include "common.h"

namespace dba::perfbench {

int RunSelfTest() {
  int failures = 0;
  const auto check = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  struct Generator {
    const char* name;
    uint64_t (*digest)(uint64_t);
  };
  const Generator generators[] = {
      {"service_mix", ServiceMixInputDigest},
      {"board_bulk", BoardBulkInputDigest},
      {"planner_skew", PlannerSkewInputDigest},
  };
  for (const Generator& generator : generators) {
    const uint64_t first = generator.digest(7);
    check(first == generator.digest(7),
          std::string(generator.name) + ": same seed, same inputs");
    check(first != generator.digest(8),
          std::string(generator.name) + ": other seed, other inputs");
  }

  const std::map<std::string, double> serial = BoardBulkModeled(7, 1, 1);
  const std::map<std::string, double> parallel = BoardBulkModeled(7, 2, 1);
  for (const auto& [name, value] : serial) {
    const auto it = parallel.find(name);
    check(it != parallel.end() && it->second == value,
          "board_bulk: " + name + " identical at host_threads 1 and 2 (" +
              std::to_string(value) + ")");
  }
  Report eis_a;
  Report eis_b;
  AddStandaloneCoreMetrics(7, &eis_a);
  AddStandaloneCoreMetrics(7, &eis_b);
  for (const auto& [name, value] : eis_a.metrics) {
    if (name.rfind("eis.", 0) != 0) continue;
    check(eis_b.metrics[name] == value,
          name + " repeats exactly (" + std::to_string(value) + ")");
  }

  const double replay = ServiceMixModeledCyclesPerOp(7);
  check(replay > 0 && replay == ServiceMixModeledCyclesPerOp(7),
        "service_mix: modeled_cycles_per_op repeats exactly (" +
            std::to_string(replay) + ")");

  std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace dba::perfbench
