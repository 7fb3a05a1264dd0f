#ifndef DBA_FAULT_CHAOS_H_
#define DBA_FAULT_CHAOS_H_

// Chaos harness: seeded, phased fault schedules for driving a live
// board (and the query service above it) through realistic outage
// shapes -- fault-rate ramps, core-death waves, NoC brownouts, and a
// full-board meltdown. A ChaosSchedule is pure data: an ordered list of
// phases, each a FaultPlan plus how many workload steps it covers and
// whether the operator "healed" the board (quarantine reset) at phase
// entry. Callers step it against a Board with SetFaultPlan /
// ResetQuarantine at step boundaries, while the board is idle.
//
// Everything is a pure function of (profile, seed, options): the same
// schedule replays bit-identically at any host-thread count, which is
// what lets the chaos property suite compare against a serial
// reference.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "fault/fault.h"

namespace dba::fault {

/// The outage shapes the harness can generate.
enum class ChaosProfile : uint8_t {
  kCalm = 0,      // no faults (control group)
  kRamp = 1,      // transient fault rates ramp up, then recover
  kWaves = 2,     // cores die in waves, operator heals between waves
  kBrownout = 3,  // NoC transfer failures/timeouts spike, then clear
  kMeltdown = 4,  // every core breaks at once, then the board is healed
};
inline constexpr size_t kNumChaosProfiles = 5;

std::string_view ChaosProfileName(ChaosProfile profile);

/// Parses a profile name ("calm", "ramp", "waves", "brownout",
/// "meltdown"); kInvalidArgument on anything else.
Result<ChaosProfile> ChaosProfileFromName(std::string_view name);

/// One phase of a chaos schedule.
struct ChaosPhase {
  std::string label;
  /// The fault schedule in force for the phase (Board::SetFaultPlan at
  /// phase entry). A default plan restores the fault-free fast path.
  FaultPlan plan;
  /// Workload steps (dispatch batches, actions, ...) the phase covers.
  int steps = 1;
  /// Operator intervention at phase entry: return quarantined cores to
  /// service (Board::ResetQuarantine) before applying `plan`.
  bool heal = false;
};

/// Knobs for schedule generation.
struct ChaosOptions {
  /// Cores of the target board (bounds broken-core draws).
  int num_cores = 4;
  /// Steps each generated phase covers (>= 1).
  int steps_per_phase = 4;
  /// Watchdog budget stamped into every phase plan. The chaos suites
  /// use a small budget so hung-core trials stay fast; the default
  /// FaultPlan value (50000) models production patience.
  uint64_t hang_watchdog_cycles = 2000;

  Status Validate() const;
};

/// A seeded, phased fault schedule (see file comment).
class ChaosSchedule {
 public:
  /// Builds the schedule for `profile`: phase shapes are fixed by the
  /// profile, rates / core choices / per-phase injector seeds derive
  /// deterministically from `seed`.
  static Result<ChaosSchedule> Make(ChaosProfile profile, uint64_t seed,
                                    const ChaosOptions& options);
  static Result<ChaosSchedule> Make(ChaosProfile profile, uint64_t seed) {
    return Make(profile, seed, ChaosOptions{});
  }

  ChaosProfile profile() const { return profile_; }
  uint64_t seed() const { return seed_; }
  const std::vector<ChaosPhase>& phases() const { return phases_; }

  /// Sum of phase step counts.
  uint64_t total_steps() const;

  /// Index of the phase covering step `step` (0-based); steps past the
  /// end clamp to the last phase (its plan simply stays in force).
  size_t PhaseIndexForStep(uint64_t step) const;

 private:
  ChaosSchedule() = default;

  ChaosProfile profile_ = ChaosProfile::kCalm;
  uint64_t seed_ = 0;
  std::vector<ChaosPhase> phases_;
};

}  // namespace dba::fault

#endif  // DBA_FAULT_CHAOS_H_
