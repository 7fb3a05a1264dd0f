#ifndef DBA_SIM_EXEC_MODE_H_
#define DBA_SIM_EXEC_MODE_H_

#include <string_view>

#include "common/status.h"

namespace dba::sim {

/// How Cpu::Run advances the machine. All three modes execute the same
/// architectural semantics through one per-word executor; they differ in
/// how cycle accounting is produced and how much the run loop does
/// around each word.
///
///  - kInterpret: the reference loop, word by word, with no superblocks
///    and no loop accelerator. It keeps the per-word bookkeeping, so
///    every profiled or traced run (RunOptions::profile, trace_limit,
///    trace_sink) takes it whatever its mode. Slowest; kept as the
///    baseline that the fast paths are differential-tested against.
///  - kFastForward: decode-once superblocks with pre-resolved extension
///    handlers, and steady-state TIE loops on the extension's exact
///    cursor stepper. Cycles and the stall decomposition are
///    bit-identical to kInterpret.
///  - kTurbo: opt-in. Recognized steady-state kernel loops run on the
///    extension's cursor stepper; cycles are computed from the loop
///    model (issue counts plus beat-derived stalls) rather than
///    simulated word by word. Results are exact; cycle totals match the
///    cycle-accurate path for the shipped kernels (pinned by the
///    differential suite) but are model-derived, and a profiled or
///    traced turbo run takes the reference loop.
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
