#ifndef DBA_QUERY_ENGINE_H_
#define DBA_QUERY_ENGINE_H_

#include <array>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/processor.h"
#include "fault/fault.h"
#include "prefetch/streaming.h"
#include "query/index.h"
#include "query/partition_index.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "query/table.h"

namespace dba::query {

/// Execution statistics of one query. The engine books every completed
/// step once: its delta lands here and, field for field, in the
/// dba_query_{setops,sorts,retries}_total, dba_query_plan_total{route}
/// and dba_query_partition_index_builds_total registry counters.
struct QueryStats {
  uint32_t index_probes = 0;
  uint32_t set_operations = 0;
  uint32_t sorts = 0;
  uint32_t retries = 0;              // transient-failure re-executions
  uint64_t accelerator_cycles = 0;   // total cycles on the DBA core
  uint64_t elements_processed = 0;   // set-op + sort input elements
  double accelerator_seconds = 0;    // at the synthesized f_max
  std::vector<std::string> plan;     // rendered execution steps
  // --- Adaptive-planner telemetry (EnableAdaptivePlanner) ---
  uint32_t planned_ops = 0;          // intersections routed by the planner
  /// Executions per route, indexed by Route; always sums to planned_ops.
  std::array<uint32_t, kNumRoutes> route_counts{};
  uint32_t partition_index_builds = 0;  // lazy indexes materialized
  double host_route_seconds = 0;     // wall time spent in host routes
};

/// Savings/materialization state of one column's lazy PartitionIndex
/// (inspection surface for tests and `dba_cli plan`).
struct ColumnIndexState {
  double missed_savings_ns = 0;  // accumulated unclaimed savings
  double build_cost_ns = 0;      // estimate for the last candidate set
  uint32_t misses_recorded = 0;
  uint32_t indexes_built = 0;
  uint64_t indexed_entries = 0;  // total elements across built indexes
};

/// A miniature selection/ordering engine on top of the accelerator: the
/// integration layer a database system would put between its planner and
/// the DBA processor. WHERE-clause predicate trees compile to secondary-
/// index probes combined with the EIS set operations (AND -> intersect,
/// OR -> union, AND NOT -> difference, Section 2.3), and ORDER BY runs
/// on the merge-sort kernel. RID lists larger than the local store are
/// streamed through the data prefetcher automatically.
class QueryEngine {
 public:
  /// `table` and `processor` must outlive the engine.
  QueryEngine(const Table* table, Processor* processor)
      : table_(table), processor_(processor) {}

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Builds (or rebuilds) the secondary index for `column`. A rebuild
  /// replaces the column's whole record: its lazy partition indexes and
  /// savings state go with the old index, since they cover old data.
  Status BuildIndex(const std::string& column);

  /// Evaluates the WHERE clause: the sorted RID set of qualifying rows.
  /// Every column referenced by `predicate` must have an index. An index
  /// built over a column version that the table has since mutated past
  /// (Table::UpdateColumn) is rebuilt through BuildIndex before the
  /// probe, so the column's lazy partition-index state is dropped too.
  Result<std::vector<Rid>> Select(const Predicate& predicate,
                                  QueryStats* stats = nullptr);

  /// SELECT <order_by> FROM t WHERE <predicate> ORDER BY <order_by>:
  /// gathers the qualifying rows' values of `order_by` and sorts them on
  /// the accelerator. Inputs beyond the local store sort in chunks whose
  /// runs are joined by streamed merges (prefetch::SortAnySize).
  Result<std::vector<uint32_t>> SelectValuesOrdered(
      const Predicate& predicate, const std::string& order_by,
      QueryStats* stats = nullptr);

  /// Match-finding phase of a sort-merge join on unique keys (paper
  /// Section 2.3: "Sorting ... is used before sort-merge joins"): sorts
  /// both key columns on the accelerator and intersects them, returning
  /// the sorted join keys. Fails if either column has duplicate keys.
  Result<std::vector<uint32_t>> JoinKeys(const std::string& column,
                                         const Table& other,
                                         const std::string& other_column,
                                         QueryStats* stats = nullptr);

  /// Enables the adaptive intersection planner (docs/PLANNER.md): every
  /// RID-set intersection is routed to its estimated-fastest kernel --
  /// EIS merge, host galloping, host SIMD merge, or a probe of a lazy
  /// per-column PartitionIndex that materializes only once its
  /// savings-accounting meter pays back the build cost. Results stay
  /// byte-identical to the always-EIS engine on every route; only the
  /// execution vehicle (and so QueryStats::accelerator_cycles vs.
  /// host_route_seconds) changes. Off by default: the seed behavior is
  /// always-EIS.
  void EnableAdaptivePlanner(const PlannerOptions& options = {});
  void DisableAdaptivePlanner();
  bool planner_enabled() const { return planner_ != nullptr; }
  const Planner* planner() const { return planner_.get(); }

  /// Lazy-index state of `column` ({} when never considered).
  ColumnIndexState partition_state(const std::string& column) const;

  /// Base kernel-run settings applied to every accelerator call -- e.g. a
  /// watchdog budget (RunSettings::max_cycles) when the core may hang, or
  /// input validation when RID lists may arrive corrupted.
  void SetRunSettings(const RunSettings& settings) {
    run_settings_ = settings;
  }
  /// Attempts per engine step (>= 1; default 1 = fail fast, the
  /// historical behavior): every set operation on any planner route, the
  /// ORDER BY sort and both JoinKeys sorts. Transient failures
  /// (IsTransient: DeadlineExceeded, Unavailable, DataLoss) are
  /// re-executed with the watchdog budget doubled each attempt;
  /// QueryStats::retries counts re-executions, and each failed sort
  /// attempt adds a "retry sort of <table>.<column> after <code>" step.
  void SetMaxAttempts(int attempts) {
    max_attempts_ = attempts < 1 ? 1 : attempts;
  }

  /// Deterministic per-attempt fault hook (fault::MakeTransientFaultHook)
  /// consulted before every set-operation attempt under the key
  /// "eis:<op>" (EIS datapath, planned or not) or "route:<name>" (host
  /// routes); sorts do not consult it. A non-OK return fails the attempt
  /// and the SetMaxAttempts retry policy takes over. Null (the default)
  /// disables injection.
  void SetAttemptFaultHook(fault::AttemptFaultHook hook) {
    attempt_fault_hook_ = std::move(hook);
  }

 private:
  /// The [lo, hi] value range of one leaf probe.
  using ProbedRange = std::pair<uint32_t, uint32_t>;

  /// Everything the engine derives from one indexed column. BuildIndex
  /// replaces the whole record, so nothing derived from a column
  /// outlives its index.
  struct IndexedColumn {
    SecondaryIndex index;
    uint64_t version = 0;  // the column version `index` was built from
    /// The planner's lazy-index state (reset by Enable/
    /// DisableAdaptivePlanner): the savings meter, what partition_state
    /// reports beside the meter's own figures, and the PartitionIndexes
    /// built over probe results of this column, keyed by the probed
    /// range.
    struct LazyIndexes {
      PartitionSavingsMeter meter;
      double build_cost_ns = 0;      // estimate for the last candidate set
      uint32_t indexes_built = 0;
      uint64_t indexed_entries = 0;  // total elements across built indexes
      std::map<ProbedRange, PartitionIndex> by_range;
    } lazy;
  };

  /// A sorted RID set plus its provenance: a leaf probe carries its
  /// column's record and the probed [lo, hi] so the planner's savings
  /// accounting and index cache can recognize repeated work (a probe of
  /// a changed column replaces its record first, so equal ranges on one
  /// record yield equal RID sets); derived sets (set-op results,
  /// complements) are anonymous. The record pointer stays valid for the
  /// query: records live in std::map nodes, and BuildIndex assigns into
  /// an existing node.
  ///
  /// `rids()` views either the operand's own vector (derived sets and
  /// ranges spanning several values) or, for a leaf whose probed range
  /// holds at most one value, the index's own entries: that slice already
  /// is the sorted RID set, so it is borrowed, not copied. No borrowed
  /// view outlives its index, because within one Select only the first
  /// probe of a column can rebuild that column's index: the table cannot
  /// change during a Select, so once a probe has brought the index up to
  /// the column's version every later probe of the column finds it
  /// current. Operands move but never copy; a moved vector hands its
  /// buffer over, so a view of an owned vector moves with it.
  class Operand {
   public:
    /// An anonymous set that owns its RIDs.
    explicit Operand(std::vector<Rid> rids = {})
        : owned_(std::move(rids)), rids_(owned_) {}
    /// A leaf probe of `range` on `column`'s index.
    Operand(IndexedColumn* column, ProbedRange range);

    Operand(Operand&&) = default;
    Operand& operator=(Operand&&) = default;

    std::span<const Rid> rids() const { return rids_; }
    IndexedColumn* column() const { return column_; }  // null: not a leaf
    ProbedRange range() const { return range_; }

    /// The RIDs as a vector the caller owns: moved out when the operand
    /// owns them, copied when it borrows them from an index.
    std::vector<Rid> Release() &&;

   private:
    std::vector<Rid> owned_;
    std::span<const Rid> rids_;
    IndexedColumn* column_ = nullptr;
    ProbedRange range_{};
  };

  /// Non-owning view of an operand; implicitly built from an Operand or
  /// a bare RID span (anonymous provenance).
  struct OperandView {
    std::span<const Rid> rids;
    IndexedColumn* column = nullptr;
    ProbedRange range{};
    OperandView(const Operand& operand)  // NOLINT
        : rids(operand.rids()),
          column(operand.column()),
          range(operand.range()) {}
    OperandView(std::span<const Rid> plain) : rids(plain) {}  // NOLINT
  };

  Result<Operand> Evaluate(const Predicate& predicate, QueryStats* stats);
  Result<Operand> Probe(const Predicate& leaf, QueryStats* stats);

  /// The one attempt ladder (SetMaxAttempts) every step runs through:
  /// attempt k consults the fault hook under `fault_key` ("" = none),
  /// then calls `attempt` with the watchdog budget max_cycles << k. It
  /// stops on success or on a non-transient failure. A success adds its
  /// re-executions to `step->retries`; each failed attempt before the
  /// last adds "retry <retry_note> after <code>" to `step->plan` when
  /// `retry_note` is non-empty.
  template <typename Attempt>
  std::invoke_result_t<const Attempt&, const RunSettings&> RunAttempts(
      std::string_view fault_key, std::string_view retry_note,
      QueryStats* step, const Attempt& attempt);

  /// The one set-operation step: RunRoute through the attempt ladder, on
  /// the planner's route for an intersection, else on the EIS route.
  Result<std::vector<Rid>> RunSetOp(SetOp op, const OperandView& a,
                                    const OperandView& b, QueryStats* stats);
  Result<std::vector<Rid>> Complement(std::span<const Rid> rids,
                                      QueryStats* stats);

  /// The planner's route for one intersection and the cached
  /// PartitionIndex over its larger operand (null when none is cached).
  struct PlannedIntersect {
    PlanDecision decision;
    const PartitionIndex* index = nullptr;
  };

  /// Plans an intersection of two non-empty operands: takes the
  /// decision and runs the lazy-index savings accounting, booking an
  /// index it materializes into `stats`.
  PlannedIntersect PlanIntersect(const OperandView& a, const OperandView& b,
                                 QueryStats* stats);

  /// Sorts `values` on the accelerator through the attempt ladder
  /// (prefetch::SortAnySize) and adds its sorts, streamed merges, cycles
  /// and input elements to `step`.
  Result<prefetch::AnySizeSortRun> RunSort(std::span<const uint32_t> values,
                                           std::string_view retry_note,
                                           QueryStats* step);

  const Table* table_;
  Processor* processor_;
  RunSettings run_settings_;
  int max_attempts_ = 1;
  fault::AttemptFaultHook attempt_fault_hook_;
  std::map<std::string, IndexedColumn> columns_;  // by column name
  std::unique_ptr<Planner> planner_;  // null while the planner is off
};

}  // namespace dba::query

#endif  // DBA_QUERY_ENGINE_H_
