#ifndef DBA_QUERY_PLANNER_H_
#define DBA_QUERY_PLANNER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/processor.h"
#include "query/partition_index.h"

namespace dba::query {

/// The routes a set operation can run on (docs/PLANNER.md). The planner
/// picks among them for intersections, where set-size skew opens the gap
/// (Ding & Koenig; Lemire/Boytsov/Kurz); the three host routes run
/// union, difference and merge alike on the host's scalar kernels.
enum class Route : uint8_t {
  kEisMerge = 0,        // board/processor EIS merge datapath
  kGalloping = 1,       // host galloping search (small : large skew)
  kSimdMerge = 2,       // host SIMD merge (baseline::SimdIntersect)
  kPartitionProbe = 3,  // probe a (lazy) PartitionIndex
};
inline constexpr size_t kNumRoutes = 4;

std::string_view RouteName(Route route);
Result<Route> ParseRoute(std::string_view name);

/// Per-route cost curves in estimated nanoseconds -- the planner's
/// common currency: simulated wall time (cycles / f_max) for the
/// accelerator route, host wall time for the host routes. Filled either
/// by Planner::Calibrated() (one-time microcalibration, cached per
/// process) or injected for deterministic tests.
struct CostModel {
  // EIS merge: setup (program dispatch + local-store fill) plus a
  // per-element stream cost over |A| + |B|.
  double eis_setup_ns = 2000.0;
  double eis_ns_per_element = 1.0;
  // Galloping: per probe of the smaller set, scaled by
  // log2(|large| / |small| + 2).
  double gallop_ns_per_probe = 8.0;
  // Host SIMD merge: per element over |A| + |B|.
  double simd_ns_per_element = 0.8;
  // Partition-probe: per probe of the smaller set into a built index,
  // priced for the bitmap form that dense RID sets take
  // (bench/baseline_micro BM_PartitionProbe; docs/PLANNER.md).
  double partition_probe_ns = 1.5;
  // PartitionIndex build: per element of the indexed set (the savings
  // meter's payback denominator).
  double partition_build_ns_per_element = 2.0;
  // Cost of taking the decision itself (subtracted from no savings --
  // a route must win by more than the planning overhead to matter).
  double decision_ns = 50.0;

  double EisMergeNs(size_t a, size_t b) const;
  double GallopingNs(size_t a, size_t b) const;
  double SimdMergeNs(size_t a, size_t b) const;
  double PartitionProbeNs(size_t a, size_t b) const;
  double PartitionBuildNs(size_t indexed_size) const;

  /// Estimated cost of `route` on an (|A|, |B|) intersection.
  double RouteNs(Route route, size_t a, size_t b) const;
};

/// Analytic defaults (no calibration run): ballpark constants for a
/// ~1 GHz EIS datapath and a contemporary x86 host.
CostModel DefaultCostModel();

struct PlannerOptions {
  /// Fixed route override: the planner reports its estimates but always
  /// returns this route (ablation / debugging; `dba_cli plan
  /// --force-route`).
  std::optional<Route> force_route;
  /// A lazy PartitionIndex is built once the missed savings recorded
  /// against a column reach payback_factor * build_cost.
  double payback_factor = 2.0;
  /// Disables the partition-probe route and its savings accounting.
  bool allow_partition_index = true;
  /// Cost model override; nullopt uses the process-wide calibrated
  /// model (Planner::Calibrated). Tests inject one for determinism.
  std::optional<CostModel> cost_model;
};

/// One routing decision.
struct PlanDecision {
  Route route = Route::kEisMerge;
  bool forced = false;
  bool index_available = false;
  /// Estimated ns per route, indexed by Route. The partition-probe
  /// entry is the probe-only cost; it is only selectable when an index
  /// is available (the build decision is the savings meter's).
  std::array<double, kNumRoutes> estimated_ns{};
  double chosen_ns = 0;
};

/// Routes each sorted-set intersection to its estimated-fastest kernel.
/// Stateless given its cost model; the lazy-index bookkeeping lives in
/// the QueryEngine (it owns the column provenance).
class Planner {
 public:
  explicit Planner(const PlannerOptions& options);

  const PlannerOptions& options() const { return options_; }
  const CostModel& cost_model() const { return model_; }

  /// Picks the cheapest route for an (|A|, |B|) intersection.
  /// `index_available` gates the partition-probe route.
  PlanDecision Plan(size_t a_size, size_t b_size, bool index_available) const;

  /// The process-wide calibrated cost model: per-route constants fitted
  /// from a one-time microcalibration (host routes timed on synthetic
  /// sets; the EIS curve fitted from two turbo-mode simulator runs),
  /// computed on first use and cached for the process lifetime.
  static const CostModel& Calibrated();

 private:
  PlannerOptions options_;
  CostModel model_;
};

/// Result of executing one routed set operation.
struct RouteRun {
  std::vector<uint32_t> result;
  Route route = Route::kEisMerge;
  /// Simulated accelerator cycles (EIS route; 0 for host routes).
  uint64_t accelerator_cycles = 0;
  /// Execution time in the planner's common currency: cycles / f_max
  /// for the EIS route, measured host wall time for host routes.
  double route_seconds = 0;
  /// Transient PartitionIndex build time when the partition route ran
  /// without a prebuilt index (forced-route case).
  double build_seconds = 0;
  bool streamed = false;  // EIS route exceeded the local store
};

/// Executes one set operation over the given route, byte-identical to
/// the scalar baselines on every route; inputs must satisfy
/// eis::ValidateOperands. An empty operand gets eis::EmptyOperandResult.
/// The EIS route runs prefetch::RunSetOperationAnySize on `processor`. A
/// host route runs an intersection on its own kernel (the partition
/// route probes `index`, which indexes `b`, or a transient index over
/// the larger input) and union, difference and merge on scalar kernels.
Result<RouteRun> RunRoute(SetOp op, Route route, std::span<const uint32_t> a,
                          std::span<const uint32_t> b, Processor* processor,
                          const RunSettings& settings = {},
                          const PartitionIndex* index = nullptr);

/// RunRoute for an intersection.
Result<RouteRun> RunIntersectRoute(Route route, std::span<const uint32_t> a,
                                   std::span<const uint32_t> b,
                                   Processor* processor,
                                   const RunSettings& settings = {},
                                   const PartitionIndex* index = nullptr);

}  // namespace dba::query

#endif  // DBA_QUERY_PLANNER_H_
