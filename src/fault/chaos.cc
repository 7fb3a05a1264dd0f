#include "fault/chaos.h"

#include <algorithm>

#include "common/random.h"

namespace dba::fault {

namespace {

/// Uniform double in [0, 1) from one mixed draw.
double MixUnit(uint64_t x) {
  return static_cast<double>(Mix64(x) >> 11) * 0x1.0p-53;
}

/// A fresh plan carrying the schedule-wide watchdog budget and a
/// per-phase injector seed.
FaultPlan BasePlan(uint64_t seed, size_t phase, const ChaosOptions& options) {
  FaultPlan plan;
  plan.seed = Mix64(seed ^ (0xC4A05ull + phase));
  plan.hang_watchdog_cycles = options.hang_watchdog_cycles;
  return plan;
}

/// `count` distinct cores drawn from [0, num_cores), seeded.
std::vector<int> DrawCores(uint64_t seed, int num_cores, int count) {
  std::vector<int> all(static_cast<size_t>(num_cores));
  for (int c = 0; c < num_cores; ++c) all[static_cast<size_t>(c)] = c;
  // Fisher-Yates prefix shuffle with mixed draws.
  for (int i = 0; i < count && i < num_cores; ++i) {
    const int j =
        i + static_cast<int>(Mix64(seed ^ static_cast<uint64_t>(i)) %
                             static_cast<uint64_t>(num_cores - i));
    std::swap(all[static_cast<size_t>(i)], all[static_cast<size_t>(j)]);
  }
  all.resize(static_cast<size_t>(std::min(count, num_cores)));
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace

std::string_view ChaosProfileName(ChaosProfile profile) {
  switch (profile) {
    case ChaosProfile::kCalm:
      return "calm";
    case ChaosProfile::kRamp:
      return "ramp";
    case ChaosProfile::kWaves:
      return "waves";
    case ChaosProfile::kBrownout:
      return "brownout";
    case ChaosProfile::kMeltdown:
      return "meltdown";
  }
  return "unknown";
}

Result<ChaosProfile> ChaosProfileFromName(std::string_view name) {
  for (size_t p = 0; p < kNumChaosProfiles; ++p) {
    const ChaosProfile profile = static_cast<ChaosProfile>(p);
    if (name == ChaosProfileName(profile)) return profile;
  }
  return Status::InvalidArgument(
      "unknown chaos profile '" + std::string(name) +
      "' (expected calm|ramp|waves|brownout|meltdown)");
}

Status ChaosOptions::Validate() const {
  if (num_cores < 1) {
    return Status::InvalidArgument("ChaosOptions::num_cores must be >= 1");
  }
  if (steps_per_phase < 1) {
    return Status::InvalidArgument(
        "ChaosOptions::steps_per_phase must be >= 1");
  }
  if (hang_watchdog_cycles < 1) {
    return Status::InvalidArgument(
        "ChaosOptions::hang_watchdog_cycles must be >= 1");
  }
  return Status::Ok();
}

Result<ChaosSchedule> ChaosSchedule::Make(ChaosProfile profile, uint64_t seed,
                                          const ChaosOptions& options) {
  DBA_RETURN_IF_ERROR(options.Validate());
  ChaosSchedule schedule;
  schedule.profile_ = profile;
  schedule.seed_ = seed;
  std::vector<ChaosPhase>& phases = schedule.phases_;

  const auto push = [&](std::string label, FaultPlan plan,
                        bool heal = false) {
    ChaosPhase phase;
    phase.label = std::move(label);
    phase.plan = std::move(plan);
    phase.steps = options.steps_per_phase;
    phase.heal = heal;
    phases.push_back(std::move(phase));
  };

  switch (profile) {
    case ChaosProfile::kCalm: {
      push("calm", BasePlan(seed, 0, options));
      push("still calm", BasePlan(seed, 1, options));
      break;
    }

    case ChaosProfile::kRamp: {
      // Transient rates climb over three phases, then the board
      // recovers: rate_k = base * (k + 1), base in [0.02, 0.08).
      const double base = 0.02 + 0.06 * MixUnit(seed ^ 0x4A3Full);
      for (size_t k = 0; k < 3; ++k) {
        FaultPlan plan = BasePlan(seed, k, options);
        const double rate = base * static_cast<double>(k + 1);
        plan.input_flip_rate = rate;
        plan.result_flip_rate = rate * 0.5;
        plan.transfer_fail_rate = rate * 0.5;
        plan.hang_rate = rate * 0.25;
        push("ramp " + std::to_string(k + 1), std::move(plan));
      }
      push("recovered", BasePlan(seed, 3, options), /*heal=*/true);
      break;
    }

    case ChaosProfile::kWaves: {
      // Cores die in waves; the operator swaps the dead parts (heal)
      // before each calm interlude.
      const int max_wave = std::max(1, options.num_cores / 2);
      for (size_t wave = 0; wave < 3; ++wave) {
        FaultPlan plan = BasePlan(seed, 2 * wave, options);
        const int dead =
            1 + static_cast<int>(Mix64(seed ^ (0xDEADull + wave)) %
                                 static_cast<uint64_t>(max_wave));
        plan.broken_cores = DrawCores(Mix64(seed ^ (0xC0DEull + wave)),
                                      options.num_cores, dead);
        push("wave " + std::to_string(wave + 1) + " (" +
                 std::to_string(dead) + " dead)",
             std::move(plan));
        push("healed " + std::to_string(wave + 1),
             BasePlan(seed, 2 * wave + 1, options), /*heal=*/true);
      }
      break;
    }

    case ChaosProfile::kBrownout: {
      // The NoC browns out in the middle of the run: transfer failures
      // and timeouts spike, compute stays healthy.
      push("pre-brownout", BasePlan(seed, 0, options));
      for (size_t k = 0; k < 2; ++k) {
        FaultPlan plan = BasePlan(seed, k + 1, options);
        plan.transfer_fail_rate = 0.3 + 0.3 * MixUnit(seed ^ (0xB0ull + k));
        plan.transfer_timeout_rate =
            0.1 + 0.2 * MixUnit(seed ^ (0xB1ull + k));
        push("brownout " + std::to_string(k + 1), std::move(plan));
      }
      push("cleared", BasePlan(seed, 3, options), /*heal=*/true);
      break;
    }

    case ChaosProfile::kMeltdown: {
      // Every core breaks at once -- the breaker must trip and the
      // service must ride it out on host fallback -- then the operator
      // replaces the board and traffic returns.
      push("pre-meltdown", BasePlan(seed, 0, options));
      FaultPlan melted = BasePlan(seed, 1, options);
      melted.broken_cores.resize(static_cast<size_t>(options.num_cores));
      for (int c = 0; c < options.num_cores; ++c) {
        melted.broken_cores[static_cast<size_t>(c)] = c;
      }
      push("meltdown (all cores dead)", std::move(melted));
      push("board replaced", BasePlan(seed, 2, options), /*heal=*/true);
      break;
    }
  }

  for (const ChaosPhase& phase : phases) {
    DBA_RETURN_IF_ERROR(phase.plan.Validate());
  }
  return schedule;
}

uint64_t ChaosSchedule::total_steps() const {
  uint64_t total = 0;
  for (const ChaosPhase& phase : phases_) {
    total += static_cast<uint64_t>(phase.steps);
  }
  return total;
}

size_t ChaosSchedule::PhaseIndexForStep(uint64_t step) const {
  uint64_t consumed = 0;
  for (size_t p = 0; p < phases_.size(); ++p) {
    consumed += static_cast<uint64_t>(phases_[p].steps);
    if (step < consumed) return p;
  }
  return phases_.empty() ? 0 : phases_.size() - 1;
}

}  // namespace dba::fault
