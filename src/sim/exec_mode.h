#ifndef DBA_SIM_EXEC_MODE_H_
#define DBA_SIM_EXEC_MODE_H_

#include <string_view>

#include "common/status.h"

namespace dba::sim {

/// How Cpu::Run advances the machine. All three modes execute the same
/// architectural semantics; they differ in how cycle accounting is
/// produced and how much per-word bookkeeping the hot loop pays.
///
///  - kInterpret: the legacy reference loop. One dispatch per program
///    word through the registered extension-op table. Slowest; kept as
///    the baseline that the fast paths are differential-tested against.
///  - kFastForward: decode-once superblocks with pre-resolved extension
///    handlers. Steady-state loops execute as fast-forward steps that
///    accumulate ExecStats with the same per-word arithmetic as the
///    interpreter -- cycles, stall decomposition, pc_counts/pc_cycles,
///    and trace-sink events are bit-identical to kInterpret.
///  - kTurbo: opt-in. Recognized steady-state kernel loops run on the
///    extension's cursor stepper; cycles are computed from the loop
///    model (issue counts plus beat-derived stalls) rather than
///    simulated word by word. Results are exact; cycle totals match the
///    cycle-accurate path for the shipped kernels (pinned by the
///    differential suite) but are model-derived, and per-pc profiling
///    falls back to the fast-forward path.
enum class ExecMode : uint8_t {
  kInterpret = 0,
  kFastForward = 1,
  kTurbo = 2,
};

std::string_view ExecModeName(ExecMode mode);

/// Parses "interpret" / "fast-forward" / "turbo".
Result<ExecMode> ParseExecMode(std::string_view name);

}  // namespace dba::sim

#endif  // DBA_SIM_EXEC_MODE_H_
