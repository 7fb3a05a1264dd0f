#include "query/engine.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "obs/metrics/metrics.h"
#include "prefetch/streaming.h"

namespace dba::query {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedNs(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::nano>(end - begin).count();
}

// Registered once; hot-path cost is one relaxed fetch_add per set op /
// sort / query.  Latency histograms observe *simulated* accelerator
// cycles, so registry snapshots stay deterministic across host threads.
struct QueryInstrumentSet {
  obs::Counter* setops;
  obs::Counter* sorts;
  obs::Counter* retries;
  obs::Counter* concurrent_sort_pairs;
  obs::Gauge* sort_concurrency;
  obs::Histogram* latency;
};

const QueryInstrumentSet& QueryInstruments() {
  static const QueryInstrumentSet instruments = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    QueryInstrumentSet out;
    out.setops = registry.GetCounter("dba_query_setops_total",
                                     "Set operations run by query plans.");
    out.sorts = registry.GetCounter("dba_query_sorts_total",
                                    "Accelerator sorts run by query plans.");
    out.retries = registry.GetCounter(
        "dba_query_retries_total",
        "Transient-failure retries across set ops and sorts.");
    out.concurrent_sort_pairs = registry.GetCounter(
        "dba_query_concurrent_sort_pairs_total",
        "JoinKeys column-sort pairs run on concurrent host threads.");
    out.sort_concurrency = registry.GetGauge(
        "dba_query_sort_concurrency",
        "Host threads used by the last JoinKeys column sort (1 or 2).");
    out.latency = registry.GetHistogram(
        "dba_query_latency_cycles",
        "Simulated accelerator cycles per public query.");
    return out;
  }();
  return instruments;
}

// Adaptive-planner instruments (EnableAdaptivePlanner). Route counters
// record counts only, so they keep the registry's determinism contract
// and match QueryStats::route_counts exactly at any host_threads; the
// decision/wall histograms observe host nanoseconds and are explicitly
// outside that contract (documented in docs/PLANNER.md).
struct PlanInstrumentSet {
  std::array<obs::Counter*, kNumRoutes> route_total;
  std::array<obs::Histogram*, kNumRoutes> route_wall_ns;
  obs::Histogram* decision_ns;
  obs::Histogram* eis_cycles;
  obs::Counter* index_builds;
};

const PlanInstrumentSet& PlanInstruments() {
  static const PlanInstrumentSet instruments = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    PlanInstrumentSet out;
    for (size_t r = 0; r < kNumRoutes; ++r) {
      const std::string_view route = RouteName(static_cast<Route>(r));
      out.route_total[r] = registry.GetCounter(
          "dba_query_plan_total", "route", route,
          "Planner-routed intersections by chosen route.");
      out.route_wall_ns[r] = registry.GetHistogram(
          "dba_query_plan_route_wall_ns", "route", route,
          "Execution time per routed intersection in ns: simulated time "
          "(cycles / f_max) for eis_merge, host wall time otherwise "
          "(host-route series are not deterministic).");
    }
    out.decision_ns = registry.GetHistogram(
        "dba_query_plan_decision_ns",
        "Planner decision latency in host ns (not deterministic).");
    out.eis_cycles = registry.GetHistogram(
        "dba_query_plan_eis_cycles",
        "Simulated cycles of planner-routed EIS intersections.");
    out.index_builds = registry.GetCounter(
        "dba_query_partition_index_builds_total",
        "Lazy PartitionIndex materializations (savings meter paybacks).");
    return out;
  }();
  return instruments;
}

obs::Counter* QueryCounter(std::string_view op) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static constexpr std::string_view kHelp = "Public queries served by op.";
  static obs::Counter* const select =
      registry.GetCounter("dba_query_queries_total", "op", "select", kHelp);
  static obs::Counter* const join_keys =
      registry.GetCounter("dba_query_queries_total", "op", "join_keys", kHelp);
  static obs::Counter* const select_ordered = registry.GetCounter(
      "dba_query_queries_total", "op", "select_values_ordered", kHelp);
  if (op == "select") return select;
  if (op == "join_keys") return join_keys;
  return select_ordered;
}

void AddPlanStep(QueryStats* stats, std::string step) {
  if (stats != nullptr) stats->plan.push_back(std::move(step));
}

/// Failure codes worth re-executing: the attempt may succeed on a retry
/// (a tripped watchdog, a dropped transfer, detected data corruption).
/// Anything else -- bad inputs, missing indexes -- fails immediately.
bool IsTransient(StatusCode code) {
  return code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kUnavailable || code == StatusCode::kDataLoss;
}

/// The attempt's settings: the base watchdog budget doubles with every
/// retry (a genuine slow run eventually fits; a real hang keeps failing).
RunSettings AttemptSettings(const RunSettings& base, int attempt) {
  RunSettings settings = base;
  settings.max_cycles = base.max_cycles << attempt;
  return settings;
}

}  // namespace

Status QueryEngine::BuildIndex(const std::string& column) {
  DBA_ASSIGN_OR_RETURN(SecondaryIndex index,
                       SecondaryIndex::Build(*table_, column));
  DBA_ASSIGN_OR_RETURN(const uint64_t version, table_->ColumnVersion(column));
  indexes_.erase(column);
  indexes_.emplace(column, std::move(index));
  index_versions_[column] = version;
  return Status::Ok();
}

Status QueryEngine::RefreshIndexIfStale(const std::string& column) {
  if (indexes_.find(column) == indexes_.end()) return Status::Ok();
  DBA_ASSIGN_OR_RETURN(const uint64_t current, table_->ColumnVersion(column));
  const auto built = index_versions_.find(column);
  if (built != index_versions_.end() && built->second == current) {
    return Status::Ok();
  }
  DBA_RETURN_IF_ERROR(BuildIndex(column));
  // Partition indexes are keyed by probe signature ("column:lo:hi"):
  // every cached index over the stale column covers old data, as does
  // its savings meter -- drop them and let the lazy machinery restart.
  const std::string prefix = column + ":";
  for (auto it = partition_indexes_.begin();
       it != partition_indexes_.end();) {
    if (it->first.rfind(prefix, 0) == 0) {
      it = partition_indexes_.erase(it);
    } else {
      ++it;
    }
  }
  savings_.erase(column);
  index_state_.erase(column);
  return Status::Ok();
}

Status QueryEngine::ConsultFaultHook(std::string_view key,
                                     int attempt) const {
  if (!attempt_fault_hook_) return Status::Ok();
  return attempt_fault_hook_(key, attempt);
}

Result<QueryEngine::Operand> QueryEngine::Probe(const Predicate& leaf,
                                                QueryStats* stats) {
  DBA_RETURN_IF_ERROR(RefreshIndexIfStale(leaf.column));
  auto it = indexes_.find(leaf.column);
  if (it == indexes_.end()) {
    return Status::FailedPrecondition(
        "no secondary index on column '" + leaf.column +
        "'; call BuildIndex first");
  }
  Operand out;
  uint32_t lo = leaf.lo;
  uint32_t hi = leaf.hi;
  switch (leaf.kind) {
    case Predicate::Kind::kEquals:
      out.rids = it->second.ProbeEquals(leaf.lo);
      hi = leaf.lo;
      break;
    case Predicate::Kind::kBetween:
    case Predicate::Kind::kLessEq:
    case Predicate::Kind::kGreaterEq:
      out.rids = it->second.ProbeRange(leaf.lo, leaf.hi);
      break;
    default:
      return Status::Internal("Probe called on a non-leaf predicate");
  }
  // Provenance for the planner: the source column (savings accounting)
  // and a probe signature (the index cache key -- the table is
  // immutable, so identical signatures yield identical RID sets).
  out.column = leaf.column;
  out.probe_key =
      leaf.column + ":" + std::to_string(lo) + ":" + std::to_string(hi);
  if (stats != nullptr) {
    ++stats->index_probes;
    AddPlanStep(stats, "probe " + leaf.ToString() + " -> " +
                           std::to_string(out.rids.size()) + " RIDs");
  }
  return out;
}

Result<QueryEngine::EisExecution> QueryEngine::ExecuteEis(
    SetOp op, std::span<const Rid> a, std::span<const Rid> b) {
  Status last_error = Status::Internal("no attempt executed");
  for (int attempt = 0; attempt < max_attempts_; ++attempt) {
    const Status injected = ConsultFaultHook(
        std::string("eis:") + std::string(eis::SopModeName(op)), attempt);
    Result<prefetch::AnySizeRun> run =
        !injected.ok() ? Result<prefetch::AnySizeRun>(injected)
                       : prefetch::RunSetOperationAnySize(
                             processor_, op, a, b,
                             AttemptSettings(run_settings_, attempt));
    if (run.ok()) {
      EisExecution out;
      out.result = std::move(run->result);
      out.cycles = run->cycles;
      out.streamed = run->streamed;
      out.attempts_used = attempt + 1;
      return out;
    }
    last_error = run.status();
    if (!IsTransient(last_error.code())) return last_error;
  }
  return last_error;
}

Result<std::vector<Rid>> QueryEngine::RunSetOp(SetOp op, const OperandView& a,
                                               const OperandView& b,
                                               QueryStats* stats) {
  // Degenerate inputs need no accelerator round trip.
  if (a.rids.empty() || b.rids.empty()) {
    DBA_ASSIGN_OR_RETURN(std::span<const Rid> kept,
                         eis::EmptyOperandResult(op, a.rids, b.rids));
    AddPlanStep(stats, std::string(eis::SopModeName(op)) +
                           " (degenerate) -> " +
                           std::to_string(kept.size()) + " RIDs");
    return std::vector<Rid>(kept.begin(), kept.end());
  }

  // Adaptive routing applies to intersections only (union/difference/
  // merge always take the EIS datapath); off by default.
  if (op == SetOp::kIntersect && planner_ != nullptr) {
    return RunPlannedIntersect(a, b, stats);
  }

  DBA_ASSIGN_OR_RETURN(EisExecution run, ExecuteEis(op, a.rids, b.rids));
  QueryInstruments().setops->Increment();
  QueryInstruments().retries->Increment(
      static_cast<uint64_t>(run.attempts_used - 1));
  if (stats != nullptr) {
    stats->retries += static_cast<uint32_t>(run.attempts_used - 1);
    ++stats->set_operations;
    stats->accelerator_cycles += run.cycles;
    stats->elements_processed += a.rids.size() + b.rids.size();
    AddPlanStep(stats, std::string(eis::SopModeName(op)) + " " +
                           std::to_string(a.rids.size()) + " x " +
                           std::to_string(b.rids.size()) + " -> " +
                           std::to_string(run.result.size()) + " RIDs" +
                           (run.streamed ? " [streamed]" : ""));
  }
  return std::move(run.result);
}

Result<std::vector<Rid>> QueryEngine::RunPlannedIntersect(
    const OperandView& a, const OperandView& b, QueryStats* stats) {
  const PlanInstrumentSet& plan_metrics = PlanInstruments();
  const CostModel& model = planner_->cost_model();
  const bool a_is_small = a.rids.size() <= b.rids.size();
  const OperandView& small = a_is_small ? a : b;
  const OperandView& large = a_is_small ? b : a;

  // A cached index over the larger operand's exact RID set?
  const PartitionIndex* index = nullptr;
  if (!large.probe_key.empty()) {
    auto it = partition_indexes_.find(std::string(large.probe_key));
    if (it != partition_indexes_.end()) index = &it->second;
  }

  const Clock::time_point decide_begin = Clock::now();
  PlanDecision decision =
      planner_->Plan(a.rids.size(), b.rids.size(), index != nullptr);
  plan_metrics.decision_ns->Observe(static_cast<uint64_t>(
      ElapsedNs(decide_begin, Clock::now())));

  // Savings accounting (self-building index): without an index for this
  // operand, record what the partition-probe route would have saved over
  // the chosen route; once a column's accumulated missed savings reach
  // payback_factor * build_cost, materialize the index and charge it.
  if (index == nullptr && !decision.forced && !large.column.empty() &&
      !large.probe_key.empty() && planner_->options().allow_partition_index) {
    const double build_cost_ns = model.PartitionBuildNs(large.rids.size());
    const double savings_ns =
        decision.chosen_ns -
        model.PartitionProbeNs(a.rids.size(), b.rids.size()) -
        model.decision_ns;
    const std::string column(large.column);
    PartitionSavingsMeter& meter = savings_[column];
    const bool payback = meter.RecordMiss(savings_ns, build_cost_ns,
                                          planner_->options().payback_factor);
    ColumnIndexState& state = index_state_[column];
    state.build_cost_ns = build_cost_ns;
    state.misses_recorded = meter.misses_recorded();
    if (payback) {
      PartitionIndex built = PartitionIndex::Build(large.rids);
      meter.ChargeBuild(build_cost_ns);
      ++state.indexes_built;
      state.indexed_entries += built.size();
      auto [it, inserted] =
          partition_indexes_.emplace(std::string(large.probe_key),
                                     std::move(built));
      index = &it->second;
      decision.route = Route::kPartitionProbe;
      decision.index_available = true;
      decision.chosen_ns =
          decision.estimated_ns[static_cast<size_t>(Route::kPartitionProbe)];
      plan_metrics.index_builds->Increment();
      if (stats != nullptr) ++stats->partition_index_builds;
      AddPlanStep(stats, "build partition index on " + column + " (" +
                             std::to_string(large.rids.size()) + " entries)");
    }
    state.missed_savings_ns = meter.missed_savings_ns();
  }

  // Execute the chosen route. Every route runs under the engine's
  // transient-failure retry budget (SetMaxAttempts): the EIS route
  // retries inside ExecuteEis, and host routes retry here under the
  // same policy -- retry accounting must not depend on where the
  // planner happened to send the work.
  const uint64_t cycles_base =
      stats != nullptr ? stats->accelerator_cycles : 0;
  std::vector<Rid> result;
  uint64_t cycles = 0;
  double route_seconds = 0;
  bool streamed = false;
  int attempts_used = 1;
  if (decision.route == Route::kEisMerge) {
    DBA_ASSIGN_OR_RETURN(EisExecution run,
                         ExecuteEis(SetOp::kIntersect, a.rids, b.rids));
    result = std::move(run.result);
    cycles = run.cycles;
    streamed = run.streamed;
    attempts_used = run.attempts_used;
    route_seconds = static_cast<double>(cycles) / processor_->frequency_hz();
    plan_metrics.eis_cycles->Observe(cycles);
  } else {
    // The partition route probes the (cached or transient) index over
    // the larger operand with the smaller; the merge-family host routes
    // are symmetric and take the operands as-is.
    const std::string hook_key =
        "route:" + std::string(RouteName(decision.route));
    Status last_error = Status::Internal("no attempt executed");
    bool done = false;
    for (int attempt = 0; attempt < max_attempts_ && !done; ++attempt) {
      attempts_used = attempt + 1;
      const Status injected = ConsultFaultHook(hook_key, attempt);
      Result<RouteRun> run =
          !injected.ok() ? Result<RouteRun>(injected)
          : decision.route == Route::kPartitionProbe
              ? RunIntersectRoute(decision.route, small.rids, large.rids,
                                  processor_, run_settings_, index)
              : RunIntersectRoute(decision.route, a.rids, b.rids, processor_,
                                  run_settings_);
      if (run.ok()) {
        result = std::move(run->result);
        route_seconds = run->route_seconds + run->build_seconds;
        done = true;
      } else {
        last_error = run.status();
        if (!IsTransient(last_error.code())) return last_error;
      }
    }
    if (!done) return last_error;
  }

  const size_t route_idx = static_cast<size_t>(decision.route);
  plan_metrics.route_total[route_idx]->Increment();
  plan_metrics.route_wall_ns[route_idx]->Observe(
      static_cast<uint64_t>(route_seconds * 1e9));
  QueryInstruments().setops->Increment();
  QueryInstruments().retries->Increment(
      static_cast<uint64_t>(attempts_used - 1));
  if (stats != nullptr) {
    stats->retries += static_cast<uint32_t>(attempts_used - 1);
    ++stats->set_operations;
    ++stats->planned_ops;
    ++stats->route_counts[route_idx];
    stats->accelerator_cycles += cycles;
    stats->elements_processed += a.rids.size() + b.rids.size();
    if (decision.route != Route::kEisMerge) {
      stats->host_route_seconds += route_seconds;
    }
    AddPlanStep(stats, "intersect[" + std::string(RouteName(decision.route)) +
                           (decision.forced ? ", forced" : "") + "] " +
                           std::to_string(a.rids.size()) + " x " +
                           std::to_string(b.rids.size()) + " -> " +
                           std::to_string(result.size()) + " RIDs" +
                           (streamed ? " [streamed]" : ""));
  }
  if (run_settings_.trace_sink != nullptr) {
    // Planner span on the simulated timeline: EIS spans are exact; host
    // routes are rendered at their wall-equivalent width in cycles.
    const uint64_t width =
        decision.route == Route::kEisMerge
            ? cycles
            : static_cast<uint64_t>(route_seconds *
                                    processor_->frequency_hz());
    run_settings_.trace_sink->BeginRegion(
        cycles_base, "plan[" + std::string(RouteName(decision.route)) + "]");
    run_settings_.trace_sink->EndRegion(cycles_base + width);
  }
  return result;
}

Result<std::vector<Rid>> QueryEngine::Complement(const std::vector<Rid>& rids,
                                                 QueryStats* stats) {
  std::vector<Rid> all(table_->num_rows());
  std::iota(all.begin(), all.end(), 0u);
  return RunSetOp(SetOp::kDifference, all, rids, stats);
}

Result<QueryEngine::Operand> QueryEngine::Evaluate(const Predicate& predicate,
                                                   QueryStats* stats) {
  if (predicate.is_leaf()) return Probe(predicate, stats);

  switch (predicate.kind) {
    case Predicate::Kind::kNot: {
      DBA_ASSIGN_OR_RETURN(Operand child,
                           Evaluate(*predicate.children[0], stats));
      DBA_ASSIGN_OR_RETURN(std::vector<Rid> rids,
                           Complement(child.rids, stats));
      return Operand{std::move(rids), {}, {}};
    }
    case Predicate::Kind::kAnd: {
      // Index ANDing (Raman et al. [31]): evaluate positive conjuncts,
      // intersect smallest-first, and apply negated conjuncts as
      // difference operands (A AND NOT B = A \ B) -- never
      // materializing a complement. Leaf operands keep their column
      // provenance, so the planner's savings accounting sees which
      // column each intersection probed.
      std::vector<Operand> positives;
      std::vector<const Predicate*> negatives;
      for (const PredicatePtr& child : predicate.children) {
        if (child->kind == Predicate::Kind::kNot) {
          negatives.push_back(child->children[0].get());
        } else {
          DBA_ASSIGN_OR_RETURN(Operand operand, Evaluate(*child, stats));
          positives.push_back(std::move(operand));
        }
      }
      Operand accumulator;
      if (positives.empty()) {
        accumulator.rids.resize(table_->num_rows());
        std::iota(accumulator.rids.begin(), accumulator.rids.end(), 0u);
      } else {
        std::sort(positives.begin(), positives.end(),
                  [](const Operand& x, const Operand& y) {
                    return x.rids.size() < y.rids.size();
                  });
        accumulator = std::move(positives.front());
        for (size_t i = 1; i < positives.size(); ++i) {
          DBA_ASSIGN_OR_RETURN(
              std::vector<Rid> rids,
              RunSetOp(SetOp::kIntersect, accumulator, positives[i], stats));
          accumulator = Operand{std::move(rids), {}, {}};
        }
      }
      for (const Predicate* negative : negatives) {
        DBA_ASSIGN_OR_RETURN(Operand excluded, Evaluate(*negative, stats));
        DBA_ASSIGN_OR_RETURN(
            std::vector<Rid> rids,
            RunSetOp(SetOp::kDifference, accumulator, excluded, stats));
        accumulator = Operand{std::move(rids), {}, {}};
      }
      return accumulator;
    }
    case Predicate::Kind::kOr: {
      Operand accumulator;
      bool first = true;
      for (const PredicatePtr& child : predicate.children) {
        DBA_ASSIGN_OR_RETURN(Operand operand, Evaluate(*child, stats));
        if (first) {
          accumulator = std::move(operand);
          first = false;
        } else {
          DBA_ASSIGN_OR_RETURN(
              std::vector<Rid> rids,
              RunSetOp(SetOp::kUnion, accumulator, operand, stats));
          accumulator = Operand{std::move(rids), {}, {}};
        }
      }
      return accumulator;
    }
    default:
      return Status::Internal("unhandled predicate kind");
  }
}

void QueryEngine::EnableAdaptivePlanner(const PlannerOptions& options) {
  planner_ = std::make_unique<Planner>(options);
  savings_.clear();
  partition_indexes_.clear();
  index_state_.clear();
}

void QueryEngine::DisableAdaptivePlanner() {
  planner_.reset();
  savings_.clear();
  partition_indexes_.clear();
  index_state_.clear();
}

ColumnIndexState QueryEngine::partition_state(
    const std::string& column) const {
  auto it = index_state_.find(column);
  return it == index_state_.end() ? ColumnIndexState{} : it->second;
}

Result<std::vector<Rid>> QueryEngine::Select(const Predicate& predicate,
                                             QueryStats* stats) {
  // Telemetry always flows through a stats object (a local one when the
  // caller passed none) so the per-query latency delta is well defined
  // even for callers that accumulate stats across queries.
  QueryStats local_stats;
  QueryStats* s = stats != nullptr ? stats : &local_stats;
  const uint64_t cycles_before = s->accelerator_cycles;
  DBA_ASSIGN_OR_RETURN(Operand matched, Evaluate(predicate, s));
  s->accelerator_seconds = static_cast<double>(s->accelerator_cycles) /
                           processor_->frequency_hz();
  QueryCounter("select")->Increment();
  QueryInstruments().latency->Observe(s->accelerator_cycles - cycles_before);
  return std::move(matched.rids);
}

std::future<Result<std::vector<Rid>>> QueryEngine::Submit(
    std::shared_ptr<const Predicate> predicate) {
  auto promise =
      std::make_shared<std::promise<Result<std::vector<Rid>>>>();
  std::future<Result<std::vector<Rid>>> future = promise->get_future();
  auto task = [this, predicate = std::move(predicate), promise] {
    if (predicate == nullptr) {
      promise->set_value(
          Status::InvalidArgument("Submit requires a predicate"));
      return;
    }
    std::lock_guard<std::mutex> lock(submit_mutex_);
    promise->set_value(Select(*predicate));
  };
  if (pool_ != nullptr) {
    pool_->Run(std::move(task));
  } else {
    task();
  }
  return future;
}

namespace {

/// Adds every counter of `from` to `into` and appends its plan steps.
/// accelerator_seconds is derived from the cycles by the caller.
void AccumulateStats(QueryStats* into, const QueryStats& from) {
  into->index_probes += from.index_probes;
  into->set_operations += from.set_operations;
  into->sorts += from.sorts;
  into->retries += from.retries;
  into->accelerator_cycles += from.accelerator_cycles;
  into->elements_processed += from.elements_processed;
  into->plan.insert(into->plan.end(), from.plan.begin(), from.plan.end());
  into->planned_ops += from.planned_ops;
  for (size_t r = 0; r < kNumRoutes; ++r) {
    into->route_counts[r] += from.route_counts[r];
  }
  into->partition_index_builds += from.partition_index_builds;
  into->host_route_seconds += from.host_route_seconds;
}

/// Sorts `values` with the accelerator (chunked beyond the local store,
/// runs joined by streamed merges) and books the sort into `stats`
/// (may be null) and the registry: one sort per chunk, one set
/// operation per merge, and every sorted or merged input element.
Result<prefetch::AnySizeSortRun> RunCountedSort(
    Processor* processor, std::span<const uint32_t> values,
    const RunSettings& settings, QueryStats* stats) {
  DBA_ASSIGN_OR_RETURN(prefetch::AnySizeSortRun run,
                       prefetch::SortAnySize(processor, values, settings));
  const uint32_t merges = run.chunks - 1;
  QueryInstruments().sorts->Increment(run.chunks);
  QueryInstruments().setops->Increment(merges);
  if (stats != nullptr) {
    stats->sorts += run.chunks;
    stats->set_operations += merges;
    stats->accelerator_cycles += run.cycles;
    stats->elements_processed += values.size() + run.merged_elements;
  }
  return run;
}

/// Sorts one key column on `processor` and verifies uniqueness.
/// Telemetry lands in the caller-provided `stats` (may be null) so two
/// columns can sort on concurrent host threads into separate stats,
/// merged after the join in left-right order -- keeping plans and
/// counters identical to the serial engine.
Result<std::vector<uint32_t>> SortUniqueKeysOnce(
    Processor* processor, const Table& table, const std::string& key_column,
    const RunSettings& settings, QueryStats* stats) {
  DBA_ASSIGN_OR_RETURN(std::span<const uint32_t> values,
                       table.Column(key_column));
  DBA_ASSIGN_OR_RETURN(prefetch::AnySizeSortRun run,
                       RunCountedSort(processor, values, settings, stats));
  const std::vector<uint32_t>& sorted = run.sorted;
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] == sorted[i - 1]) {
      return Status::InvalidArgument(
          "JoinKeys requires unique keys; column '" + key_column +
          "' of table '" + table.name() + "' has duplicates");
    }
  }
  AddPlanStep(stats, "sort join keys of " + table.name() + "." +
                         key_column + " (" +
                         std::to_string(sorted.size()) + " keys)");
  return std::move(run.sorted);
}

/// SortUniqueKeysOnce with transient-failure retry: each attempt runs
/// with a doubled watchdog budget into fresh per-attempt stats, so a
/// failed attempt leaves the caller's telemetry untouched (only the
/// retry counter and a plan note record that it happened).
Result<std::vector<uint32_t>> SortUniqueKeys(Processor* processor,
                                             const Table& table,
                                             const std::string& key_column,
                                             const RunSettings& base_settings,
                                             int max_attempts,
                                             QueryStats* stats) {
  Status last_error = Status::Internal("no attempt executed");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    QueryStats attempt_stats;
    Result<std::vector<uint32_t>> sorted = SortUniqueKeysOnce(
        processor, table, key_column, AttemptSettings(base_settings, attempt),
        stats != nullptr ? &attempt_stats : nullptr);
    if (sorted.ok()) {
      QueryInstruments().retries->Increment(static_cast<uint64_t>(attempt));
      if (stats != nullptr) {
        stats->retries += static_cast<uint32_t>(attempt);
        AccumulateStats(stats, attempt_stats);
      }
      return sorted;
    }
    last_error = sorted.status();
    if (!IsTransient(last_error.code())) return last_error;
    AddPlanStep(stats, "retry sort of " + table.name() + "." + key_column +
                           " after " +
                           std::string(StatusCodeToString(
                               last_error.code())));
  }
  return last_error;
}

}  // namespace

Result<std::vector<uint32_t>> QueryEngine::JoinKeys(
    const std::string& column, const Table& other,
    const std::string& other_column, QueryStats* stats) {
  QueryStats local_stats;
  QueryStats* s = stats != nullptr ? stats : &local_stats;
  const uint64_t cycles_before = s->accelerator_cycles;
  Result<std::vector<uint32_t>> left = Status::Internal("unset");
  Result<std::vector<uint32_t>> right = Status::Internal("unset");
  QueryStats left_stats;
  QueryStats right_stats;
  const bool concurrent = pool_ != nullptr && sibling_ != nullptr;
  QueryInstruments().sort_concurrency->Set(concurrent ? 2.0 : 1.0);
  if (concurrent) {
    QueryInstruments().concurrent_sort_pairs->Increment();
    // The two column sorts are independent: run them on concurrent host
    // threads, the second on the sibling processor. Each side writes
    // only its own result slot and stats.
    pool_->ParallelFor(2, [&](size_t side) {
      if (side == 0) {
        left = SortUniqueKeys(processor_, *table_, column, run_settings_,
                              max_attempts_, &left_stats);
      } else {
        right = SortUniqueKeys(sibling_, other, other_column, run_settings_,
                               max_attempts_, &right_stats);
      }
    });
  } else {
    left = SortUniqueKeys(processor_, *table_, column, run_settings_,
                          max_attempts_, &left_stats);
    right = SortUniqueKeys(sibling_ != nullptr ? sibling_ : processor_,
                           other, other_column, run_settings_, max_attempts_,
                           &right_stats);
  }
  DBA_RETURN_IF_ERROR(left.status());
  DBA_RETURN_IF_ERROR(right.status());
  AccumulateStats(s, left_stats);
  AccumulateStats(s, right_stats);
  DBA_ASSIGN_OR_RETURN(std::vector<uint32_t> keys,
                       RunSetOp(SetOp::kIntersect, *left, *right, s));
  s->accelerator_seconds = static_cast<double>(s->accelerator_cycles) /
                           processor_->frequency_hz();
  QueryCounter("join_keys")->Increment();
  QueryInstruments().latency->Observe(s->accelerator_cycles - cycles_before);
  return keys;
}

Result<std::vector<uint32_t>> QueryEngine::SelectValuesOrdered(
    const Predicate& predicate, const std::string& order_by,
    QueryStats* stats) {
  QueryStats local_stats;
  QueryStats* s = stats != nullptr ? stats : &local_stats;
  const uint64_t cycles_before = s->accelerator_cycles;
  DBA_ASSIGN_OR_RETURN(Operand matched, Evaluate(predicate, s));
  const std::vector<Rid>& rids = matched.rids;
  DBA_ASSIGN_OR_RETURN(std::span<const uint32_t> column,
                       table_->Column(order_by));

  // Gather the qualifying values (in hardware: a prefetcher gather).
  std::vector<uint32_t> values;
  values.reserve(rids.size());
  for (Rid rid : rids) values.push_back(column[rid]);

  DBA_ASSIGN_OR_RETURN(prefetch::AnySizeSortRun run,
                       RunCountedSort(processor_, values, run_settings_, s));
  AddPlanStep(s, run.chunks == 1
                     ? "sort " + std::to_string(values.size()) +
                           " values on " + order_by
                     : "external sort of " + std::to_string(values.size()) +
                           " values (" + std::to_string(run.chunks) +
                           " chunks, streamed merges)");
  s->accelerator_seconds = static_cast<double>(s->accelerator_cycles) /
                           processor_->frequency_hz();
  QueryCounter("select_values_ordered")->Increment();
  QueryInstruments().latency->Observe(s->accelerator_cycles - cycles_before);
  return std::move(run.sorted);
}

}  // namespace dba::query
