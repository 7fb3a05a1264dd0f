#ifndef DBA_SIM_LOOP_ACCEL_H_
#define DBA_SIM_LOOP_ACCEL_H_

#include <cstdint>
#include <span>

#include "isa/instruction.h"
#include "sim/stats.h"

namespace dba::sim {

class Cpu;

/// A superblock that is a steady-state extension loop: a straight-line
/// body of base TIE words followed by one backward conditional branch to
/// the head. Only the superblock loop of lean fast-forward and turbo runs
/// offers such blocks to the registered LoopAccelerator, which may run
/// whole iterations inside the extension instead of word by word;
/// profiled and traced runs take the reference loop and never do.
struct TieLoop {
  /// pc of the first body word.
  uint32_t head = 0;
  /// The body's pre-decoded micro-trace: base kTie instructions at
  /// pcs [head, head + body.size()).
  std::span<const isa::Instruction> body;
  /// The terminating conditional branch (at pc head + body.size());
  /// its imm is negative and its target is `head`.
  isa::Instruction branch;
};

/// Batch executor for TieLoop superblocks, implemented by an extension
/// that recognizes its own kernel loops (EisExtension registers one).
///
/// Contract: RunTieLoop either declines (returns false, having touched
/// nothing), and the loop then runs word by word on the superblock loop,
/// or executes one or more words of the loop and stops at a word
/// boundary, leaving architectural state, extension state, memory,
/// `cpu.pc()`, and `*stats` exactly as the per-word path would. When the
/// loop exits (branch not taken) the accelerator sets pc to the
/// fall-through word; when it stops early (a fault ahead, the watchdog
/// margin) it leaves pc at the first word it did not run, and the
/// superblock loop continues there word by word.
class LoopAccelerator {
 public:
  virtual ~LoopAccelerator() = default;

  /// Static shape check; called once per superblock and cached. Must not
  /// depend on run-time state (register values, extension state).
  virtual bool MatchesTieLoop(const TieLoop& loop) const = 0;

  /// Runs loop iterations until the branch falls through, `max_cycles`
  /// is near, or the accelerator decides to yield. `exact` selects
  /// cycle-exact fast-forward accounting; otherwise the turbo loop model
  /// may extrapolate cycles over batched iterations. Returns false when
  /// declining at run time (caller falls back to the per-word path
  /// without any state change).
  virtual bool RunTieLoop(const TieLoop& loop, Cpu& cpu, bool exact,
                          uint64_t max_cycles, ExecStats* stats) = 0;
};

}  // namespace dba::sim

#endif  // DBA_SIM_LOOP_ACCEL_H_
