#include "query/engine.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <numeric>
#include <optional>

#include "obs/metrics/metrics.h"
#include "prefetch/streaming.h"

namespace dba::query {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedNs(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::nano>(end - begin).count();
}

// Registered once; hot-path cost is one relaxed fetch_add per booked
// field.  Latency histograms observe *simulated* accelerator cycles, so
// registry snapshots stay deterministic across host threads.
struct QueryInstrumentSet {
  obs::Counter* setops;
  obs::Counter* sorts;
  obs::Counter* retries;
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

/// Books one completed step: adds its delta to the query's `stats` and
/// the same fields to the registry counters, so the two cannot drift.
/// accelerator_seconds is derived from the cycles by RunQuery.
void Book(QueryStats* stats, QueryStats&& step) {
  const QueryInstrumentSet& query = QueryInstruments();
  query.setops->Increment(step.set_operations);
  query.sorts->Increment(step.sorts);
  query.retries->Increment(step.retries);
  // The planner's instruments register on its first booking, so an
  // engine without the planner leaves them out of registry snapshots.
  if (step.planned_ops != 0 || step.partition_index_builds != 0) {
    const PlanInstrumentSet& plan = PlanInstruments();
    for (size_t r = 0; r < kNumRoutes; ++r) {
      plan.route_total[r]->Increment(step.route_counts[r]);
    }
    plan.index_builds->Increment(step.partition_index_builds);
  }

  stats->index_probes += step.index_probes;
  stats->set_operations += step.set_operations;
  stats->sorts += step.sorts;
  stats->retries += step.retries;
  stats->accelerator_cycles += step.accelerator_cycles;
  stats->elements_processed += step.elements_processed;
  stats->plan.insert(stats->plan.end(),
                     std::make_move_iterator(step.plan.begin()),
                     std::make_move_iterator(step.plan.end()));
  stats->planned_ops += step.planned_ops;
  for (size_t r = 0; r < kNumRoutes; ++r) {
    stats->route_counts[r] += step.route_counts[r];
  }
  stats->partition_index_builds += step.partition_index_builds;
  stats->host_route_seconds += step.host_route_seconds;
}

/// Adds one set operation to `step`: `label` ("union", "intersect[...]")
/// over |a| x |b| input elements producing `result` RIDs.
void CountSetOp(QueryStats* step, const std::string& label, size_t a,
                size_t b, size_t result, uint64_t cycles, bool streamed) {
  ++step->set_operations;
  step->accelerator_cycles += cycles;
  step->elements_processed += a + b;
  step->plan.push_back(label + " " + std::to_string(a) + " x " +
                       std::to_string(b) + " -> " + std::to_string(result) +
                       " RIDs" + (streamed ? " [streamed]" : ""));
}

/// The one public-query frame: runs `body` against the caller's stats (a
/// local one when the caller passed none, so the per-query latency delta
/// is well defined even for callers that accumulate stats across
/// queries). On success it derives accelerator_seconds and counts the
/// query in dba_query_queries_total{op} and the latency histogram.
template <typename Body>
Result<std::vector<uint32_t>> RunQuery(std::string_view op,
                                       double frequency_hz,
                                       QueryStats* stats, const Body& body) {
  QueryStats local_stats;
  QueryStats* s = stats != nullptr ? stats : &local_stats;
  const uint64_t cycles_before = s->accelerator_cycles;
  Result<std::vector<uint32_t>> out = body(s);
  if (!out.ok()) return out;
  s->accelerator_seconds =
      static_cast<double>(s->accelerator_cycles) / frequency_hz;
  QueryCounter(op)->Increment();
  QueryInstruments().latency->Observe(s->accelerator_cycles - cycles_before);
  return out;
}

}  // namespace

Status QueryEngine::BuildIndex(const std::string& column) {
  DBA_ASSIGN_OR_RETURN(SecondaryIndex index,
                       SecondaryIndex::Build(*table_, column));
  DBA_ASSIGN_OR_RETURN(const uint64_t version, table_->ColumnVersion(column));
  columns_.insert_or_assign(column,
                            IndexedColumn{std::move(index), version, {}});
  return Status::Ok();
}

template <typename Attempt>
std::invoke_result_t<const Attempt&, const RunSettings&>
QueryEngine::RunAttempts(std::string_view fault_key,
                         std::string_view retry_note, QueryStats* step,
                         const Attempt& attempt) {
  for (int k = 0;; ++k) {
    // The watchdog budget doubles with every retry: a genuinely slow run
    // eventually fits; a real hang keeps failing.
    RunSettings settings = run_settings_;
    settings.max_cycles = run_settings_.max_cycles << k;
    const Status injected = fault_key.empty() || !attempt_fault_hook_
                                ? Status::Ok()
                                : attempt_fault_hook_(fault_key, k);
    std::invoke_result_t<const Attempt&, const RunSettings&> run =
        injected.ok() ? attempt(settings) : injected;
    if (run.ok()) {
      step->retries += static_cast<uint32_t>(k);
      return run;
    }
    const StatusCode code = run.status().code();
    if (!IsTransient(code) || k + 1 >= max_attempts_) return run;
    if (!retry_note.empty()) {
      step->plan.push_back("retry " + std::string(retry_note) + " after " +
                           std::string(StatusCodeToString(code)));
    }
  }
}

QueryEngine::Operand::Operand(IndexedColumn* column, ProbedRange range)
    : column_(column), range_(range) {
  const SecondaryIndex::Slice slice =
      column->index.Lookup(range.first, range.second);
  if (slice.single_value) {
    rids_ = slice.rids;
  } else {
    owned_ = slice.SortedCopy();
    rids_ = owned_;
  }
}

std::vector<Rid> QueryEngine::Operand::Release() && {
  if (rids_.data() == owned_.data()) return std::move(owned_);
  return std::vector<Rid>(rids_.begin(), rids_.end());
}

Result<QueryEngine::Operand> QueryEngine::Probe(const Predicate& leaf,
                                                QueryStats* stats) {
  auto it = columns_.find(leaf.column);
  if (it == columns_.end()) {
    return Status::FailedPrecondition(
        "no secondary index on column '" + leaf.column +
        "'; call BuildIndex first");
  }
  // An index over a column version the table has since moved past is
  // rebuilt, and with it goes everything derived from the old data.
  // This is the only rebuild within a Select (see Operand).
  DBA_ASSIGN_OR_RETURN(const uint64_t version,
                       table_->ColumnVersion(leaf.column));
  if (it->second.version != version) {
    DBA_RETURN_IF_ERROR(BuildIndex(leaf.column));
  }
  ProbedRange range;
  switch (leaf.kind) {
    case Predicate::Kind::kEquals:
      range = {leaf.lo, leaf.lo};
      break;
    case Predicate::Kind::kBetween:
    case Predicate::Kind::kLessEq:
    case Predicate::Kind::kGreaterEq:
      range = {leaf.lo, leaf.hi};
      break;
    default:
      return Status::Internal("Probe called on a non-leaf predicate");
  }
  Operand out(&it->second, range);
  QueryStats step;
  step.index_probes = 1;
  step.plan.push_back("probe " + leaf.ToString() + " -> " +
                      std::to_string(out.rids().size()) + " RIDs");
  Book(stats, std::move(step));
  return out;
}

Result<std::vector<Rid>> QueryEngine::RunSetOp(SetOp op, const OperandView& a,
                                               const OperandView& b,
                                               QueryStats* stats) {
  // Degenerate inputs need no accelerator round trip.
  if (a.rids.empty() || b.rids.empty()) {
    DBA_ASSIGN_OR_RETURN(std::span<const Rid> kept,
                         eis::EmptyOperandResult(op, a.rids, b.rids));
    QueryStats step;
    step.plan.push_back(std::string(eis::SopModeName(op)) +
                        " (degenerate) -> " + std::to_string(kept.size()) +
                        " RIDs");
    Book(stats, std::move(step));
    return std::vector<Rid>(kept.begin(), kept.end());
  }

  // The planner (off by default) routes intersections only; every other
  // step takes the EIS datapath.
  std::optional<PlannedIntersect> plan;
  if (op == SetOp::kIntersect && planner_ != nullptr) {
    plan = PlanIntersect(a, b, stats);
  }
  const Route route = plan.has_value() ? plan->decision.route
                                       : Route::kEisMerge;
  const std::string route_name(RouteName(route));
  // The partition route probes the (cached or transient) index over the
  // larger operand with the smaller.
  const bool swap = route == Route::kPartitionProbe &&
                    a.rids.size() > b.rids.size();

  QueryStats step;
  DBA_ASSIGN_OR_RETURN(
      RouteRun run,
      RunAttempts(route == Route::kEisMerge
                      ? "eis:" + std::string(eis::SopModeName(op))
                      : "route:" + route_name,
                  "", &step, [&](const RunSettings& settings) {
                    return RunRoute(op, route, swap ? b.rids : a.rids,
                                    swap ? a.rids : b.rids, processor_,
                                    settings,
                                    plan.has_value() ? plan->index : nullptr);
                  }));
  std::string label(eis::SopModeName(op));
  if (plan.has_value()) {
    const PlanInstrumentSet& plan_metrics = PlanInstruments();
    const double route_seconds = run.route_seconds + run.build_seconds;
    const size_t route_idx = static_cast<size_t>(route);
    plan_metrics.route_wall_ns[route_idx]->Observe(
        static_cast<uint64_t>(route_seconds * 1e9));
    if (route == Route::kEisMerge) {
      plan_metrics.eis_cycles->Observe(run.accelerator_cycles);
    }
    if (run_settings_.trace_sink != nullptr) {
      // Planner span on the simulated timeline: EIS spans are exact; host
      // routes are rendered at their wall-equivalent width in cycles.
      const uint64_t cycles_base = stats->accelerator_cycles;
      const uint64_t width =
          route == Route::kEisMerge
              ? run.accelerator_cycles
              : static_cast<uint64_t>(route_seconds *
                                      processor_->frequency_hz());
      run_settings_.trace_sink->BeginRegion(cycles_base,
                                            "plan[" + route_name + "]");
      run_settings_.trace_sink->EndRegion(cycles_base + width);
    }
    label = "intersect[" + route_name +
            (plan->decision.forced ? ", forced" : "") + "]";
    step.planned_ops = 1;
    step.route_counts[route_idx] = 1;
    if (route != Route::kEisMerge) step.host_route_seconds = route_seconds;
  }
  CountSetOp(&step, label, a.rids.size(), b.rids.size(), run.result.size(),
             run.accelerator_cycles, run.streamed);
  Book(stats, std::move(step));
  return std::move(run.result);
}

QueryEngine::PlannedIntersect QueryEngine::PlanIntersect(const OperandView& a,
                                                         const OperandView& b,
                                                         QueryStats* stats) {
  const PlanInstrumentSet& plan_metrics = PlanInstruments();
  const CostModel& model = planner_->cost_model();
  const OperandView& large = a.rids.size() <= b.rids.size() ? b : a;

  // A cached index over the larger operand's exact RID set?
  const PartitionIndex* index = nullptr;
  if (large.column != nullptr) {
    auto it = large.column->lazy.by_range.find(large.range);
    if (it != large.column->lazy.by_range.end()) index = &it->second;
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
  if (index == nullptr && !decision.forced && large.column != nullptr &&
      planner_->options().allow_partition_index) {
    const double build_cost_ns = model.PartitionBuildNs(large.rids.size());
    const double savings_ns =
        decision.chosen_ns -
        model.PartitionProbeNs(a.rids.size(), b.rids.size()) -
        model.decision_ns;
    IndexedColumn::LazyIndexes& lazy = large.column->lazy;
    const bool payback = lazy.meter.RecordMiss(
        savings_ns, build_cost_ns, planner_->options().payback_factor);
    lazy.build_cost_ns = build_cost_ns;
    if (payback) {
      PartitionIndex built = PartitionIndex::Build(large.rids);
      lazy.meter.ChargeBuild(build_cost_ns);
      ++lazy.indexes_built;
      lazy.indexed_entries += built.size();
      index = &lazy.by_range.emplace(large.range, std::move(built))
                   .first->second;
      decision.route = Route::kPartitionProbe;
      decision.index_available = true;
      decision.chosen_ns =
          decision.estimated_ns[static_cast<size_t>(Route::kPartitionProbe)];
      QueryStats build;
      build.partition_index_builds = 1;
      build.plan.push_back("build partition index on " +
                           large.column->index.column_name() + " (" +
                           std::to_string(large.rids.size()) + " entries)");
      Book(stats, std::move(build));
    }
  }
  return {decision, index};
}

Result<std::vector<Rid>> QueryEngine::Complement(std::span<const Rid> rids,
                                                 QueryStats* stats) {
  std::vector<Rid> all(table_->num_rows());
  std::iota(all.begin(), all.end(), 0u);
  return RunSetOp(SetOp::kDifference, std::span<const Rid>(all), rids, stats);
}

Result<QueryEngine::Operand> QueryEngine::Evaluate(const Predicate& predicate,
                                                   QueryStats* stats) {
  if (predicate.is_leaf()) return Probe(predicate, stats);

  switch (predicate.kind) {
    case Predicate::Kind::kNot: {
      DBA_ASSIGN_OR_RETURN(Operand child,
                           Evaluate(*predicate.children[0], stats));
      DBA_ASSIGN_OR_RETURN(std::vector<Rid> rids,
                           Complement(child.rids(), stats));
      return Operand(std::move(rids));
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
        std::vector<Rid> all(table_->num_rows());
        std::iota(all.begin(), all.end(), 0u);
        accumulator = Operand(std::move(all));
      } else {
        std::sort(positives.begin(), positives.end(),
                  [](const Operand& x, const Operand& y) {
                    return x.rids().size() < y.rids().size();
                  });
        accumulator = std::move(positives.front());
        for (size_t i = 1; i < positives.size(); ++i) {
          DBA_ASSIGN_OR_RETURN(
              std::vector<Rid> rids,
              RunSetOp(SetOp::kIntersect, accumulator, positives[i], stats));
          accumulator = Operand(std::move(rids));
        }
      }
      for (const Predicate* negative : negatives) {
        DBA_ASSIGN_OR_RETURN(Operand excluded, Evaluate(*negative, stats));
        DBA_ASSIGN_OR_RETURN(
            std::vector<Rid> rids,
            RunSetOp(SetOp::kDifference, accumulator, excluded, stats));
        accumulator = Operand(std::move(rids));
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
          accumulator = Operand(std::move(rids));
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
  for (auto& entry : columns_) entry.second.lazy = {};
}

void QueryEngine::DisableAdaptivePlanner() {
  planner_.reset();
  for (auto& entry : columns_) entry.second.lazy = {};
}

ColumnIndexState QueryEngine::partition_state(
    const std::string& column) const {
  auto it = columns_.find(column);
  if (it == columns_.end()) return {};
  const IndexedColumn::LazyIndexes& lazy = it->second.lazy;
  return {.missed_savings_ns = lazy.meter.missed_savings_ns(),
          .build_cost_ns = lazy.build_cost_ns,
          .misses_recorded = lazy.meter.misses_recorded(),
          .indexes_built = lazy.indexes_built,
          .indexed_entries = lazy.indexed_entries};
}

Result<std::vector<Rid>> QueryEngine::Select(const Predicate& predicate,
                                             QueryStats* stats) {
  return RunQuery("select", processor_->frequency_hz(), stats,
                  [&](QueryStats* s) -> Result<std::vector<Rid>> {
                    DBA_ASSIGN_OR_RETURN(Operand matched,
                                         Evaluate(predicate, s));
                    return std::move(matched).Release();
                  });
}

Result<prefetch::AnySizeSortRun> QueryEngine::RunSort(
    std::span<const uint32_t> values, std::string_view retry_note,
    QueryStats* step) {
  DBA_ASSIGN_OR_RETURN(
      prefetch::AnySizeSortRun run,
      RunAttempts("", retry_note, step, [&](const RunSettings& settings) {
        return prefetch::SortAnySize(processor_, values, settings);
      }));
  // One sort per chunk, one set operation per streamed merge, and every
  // sorted or merged input element.
  step->sorts += run.chunks;
  step->set_operations += run.chunks - 1;
  step->accelerator_cycles += run.cycles;
  step->elements_processed += values.size() + run.merged_elements;
  return run;
}

Result<std::vector<uint32_t>> QueryEngine::JoinKeys(
    const std::string& column, const Table& other,
    const std::string& other_column, QueryStats* stats) {
  // Sorts one key column and checks it for duplicates; a sort whose keys
  // are not unique is discarded unbooked.
  const auto sort_unique_keys =
      [this](const Table& table, const std::string& key_column,
             QueryStats* s) -> Result<std::vector<uint32_t>> {
    DBA_ASSIGN_OR_RETURN(std::span<const uint32_t> values,
                         table.Column(key_column));
    const std::string name = table.name() + "." + key_column;
    QueryStats step;
    DBA_ASSIGN_OR_RETURN(prefetch::AnySizeSortRun run,
                         RunSort(values, "sort of " + name, &step));
    if (std::adjacent_find(run.sorted.begin(), run.sorted.end()) !=
        run.sorted.end()) {
      return Status::InvalidArgument(
          "JoinKeys requires unique keys; column '" + key_column +
          "' of table '" + table.name() + "' has duplicates");
    }
    step.plan.push_back("sort join keys of " + name + " (" +
                        std::to_string(run.sorted.size()) + " keys)");
    Book(s, std::move(step));
    return std::move(run.sorted);
  };
  return RunQuery("join_keys", processor_->frequency_hz(), stats,
                  [&](QueryStats* s) -> Result<std::vector<uint32_t>> {
                    DBA_ASSIGN_OR_RETURN(
                        std::vector<uint32_t> left,
                        sort_unique_keys(*table_, column, s));
                    DBA_ASSIGN_OR_RETURN(
                        std::vector<uint32_t> right,
                        sort_unique_keys(other, other_column, s));
                    return RunSetOp(SetOp::kIntersect,
                                    std::span<const uint32_t>(left),
                                    std::span<const uint32_t>(right), s);
                  });
}

Result<std::vector<uint32_t>> QueryEngine::SelectValuesOrdered(
    const Predicate& predicate, const std::string& order_by,
    QueryStats* stats) {
  return RunQuery(
      "select_values_ordered", processor_->frequency_hz(), stats,
      [&](QueryStats* s) -> Result<std::vector<uint32_t>> {
        DBA_ASSIGN_OR_RETURN(Operand matched, Evaluate(predicate, s));
        DBA_ASSIGN_OR_RETURN(std::span<const uint32_t> column,
                             table_->Column(order_by));

        // Gather the qualifying values (in hardware: a prefetcher gather).
        std::vector<uint32_t> values;
        values.reserve(matched.rids().size());
        for (Rid rid : matched.rids()) values.push_back(column[rid]);

        QueryStats step;
        DBA_ASSIGN_OR_RETURN(
            prefetch::AnySizeSortRun run,
            RunSort(values, "sort of " + table_->name() + "." + order_by,
                    &step));
        step.plan.push_back(
            run.chunks == 1
                ? "sort " + std::to_string(values.size()) + " values on " +
                      order_by
                : "external sort of " + std::to_string(values.size()) +
                      " values (" + std::to_string(run.chunks) +
                      " chunks, streamed merges)");
        Book(s, std::move(step));
        return std::move(run.sorted);
      });
}

}  // namespace dba::query
