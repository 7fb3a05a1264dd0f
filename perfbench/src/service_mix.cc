// service_mix: an open-loop multi-tenant stream against a QueryService
// on a 4-core board. Poisson arrivals at a fixed offered rate carry
// predicate queries over four tables (one pinned to each core), ~10%
// direct set operations and ~1% UpdateColumn writes; predicates come
// from a Zipf-popular pool far larger than the result cache. A rate
// ladder then finds the highest offered rate that still meets the
// latency/error/backlog limits.
//
// Threads: the generator (this thread, which also polls futures), the
// service scheduler, and the board's host pool (host_threads - 1
// workers; the scheduler is the pool's calling thread) -- 3 in total at
// host_threads = 2, leaving a core for the rest of the machine so the
// tail measures the service rather than preemption.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "common/random.h"
#include "core/processor.h"
#include "query/engine.h"
#include "query/planner.h"
#include "query/table.h"
#include "service/query_service.h"
#include "system/board.h"
#include "tests/shared/service_test_util.h"

namespace dba::perfbench {
namespace {

namespace harness = service::test;

constexpr int kCores = 4;
constexpr int kTables = 4;
constexpr int kHostThreads = 2;
constexpr uint32_t kRows = 8192;
constexpr size_t kPoolPerTable = 1024;  // 4096 predicates vs 128 cache slots
// YCSB's zipfian request distribution constant (Cooper et al., SoCC
// 2010); like YCSB's scrambled variant, a seeded permutation spreads the
// popular ranks over the pool.
constexpr double kZipfExponent = 0.99;
constexpr double kDirectFraction = 0.10;
constexpr double kUpdateFraction = 0.01;
constexpr size_t kDirectMaxElements = 256;
constexpr uint32_t kDirectValueRange = 1u << 16;
// Even tenants get the interactive SLO class's priority boost, odd ones
// none. No tenant carries a deadline: a host stall of a few ms on a
// shared machine would otherwise shed a varying number of requests, and
// the run must answer every request the same way on every run.
constexpr int kTenants = 8;
// Deep enough that a host stall of about a second cannot fill it.
constexpr size_t kQueueCapacity = 4096;
constexpr double kOfferedQps = 3000;
constexpr int kSetupReps = 7;
constexpr int kWarmupPerTable = 32;
// Modeled cycles per request come from a serial, cache-free pass over
// the whole predicate pool plus this many seconds of the stream's direct
// ops, not from the live responses: cache hits and dedup riders report
// 0 cycles, and which requests hit or ride depends on host timing. The
// pass weighs every predicate once rather than by popularity: weighted
// by the stream, the figure spread 11% across ten seeds, because under
// Zipf 0.99 the one most popular predicate draws ~11% of the requests.
constexpr double kModeledSeconds = 1.0;
// Rate ladder: rungs kOfferedQps * kLadderStep^k (6% apart). The search
// starts kLadderStart rungs up (about 3x the offered rate, below this
// service's knee), jumps kLadderJump rungs until it brackets the limit,
// then bisects. A rung passes when two of up to kLadderTrials short
// trials meet the limits, so one host stall cannot decide it.
constexpr double kLadderStep = 1.06;
constexpr int kLadderStart = 20;
constexpr int kLadderJump = 8;
constexpr int kLadderProbes = 6;
constexpr int kLadderTrials = 3;
constexpr double kLadderP99Ms = 5.0;
constexpr double kLadderMaxErrorRate = 0.01;
// A failed or shed request enters the latency samples as this, so it
// misses every latency limit.
constexpr double kFailedMs = 1e6;
const char* const kColumns[] = {"region", "status", "amount"};
// The generator polls outstanding futures between sends and naps this
// long when the next send is further away, bounding how late a ready
// response is noticed without spinning a core.
constexpr auto kPollSleep = std::chrono::microseconds(20);
constexpr uint64_t kPollSleepNs = 40'000;

std::string TableName(int t) {
  return std::string("t").append(std::to_string(t));
}
std::string TenantName(int tenant) {
  return std::string("tenant").append(std::to_string(tenant));
}

struct PoolEntry {
  int table = 0;
  std::shared_ptr<const query::Predicate> predicate;
};

/// Zipf(s) over ranks 0..n-1 by inverse CDF; rank r maps to pool entry
/// order[r], a seeded permutation, so popularity is not tied to shape.
class ZipfPool {
 public:
  ZipfPool(uint64_t seed, size_t n, double exponent) : order_(n), cdf_(n) {
    double total = 0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    for (size_t i = 0; i < n; ++i) order_[i] = static_cast<uint32_t>(i);
    Random rng(seed);
    for (size_t i = n; i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.Uniform(i)]);
    }
  }
  uint32_t Sample(Random& rng) const {
    const double u = rng.NextDouble();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return order_[std::min(rank, order_.size() - 1)];
  }

 private:
  std::vector<uint32_t> order_;
  std::vector<double> cdf_;
};

/// Seeded predicate pool over the service-suite schema (region [0,5),
/// status [0,3), amount [0,10000)): ranges, ANDs (intersect), ORs
/// (union) and AND NOTs (difference) per table.
std::vector<PoolEntry> MakePool(uint64_t seed) {
  Random rng(Mix(seed, 1));
  std::vector<PoolEntry> pool;
  pool.reserve(kTables * kPoolPerTable);
  for (int t = 0; t < kTables; ++t) {
    for (size_t i = 0; i < kPoolPerTable; ++i) {
      const auto lo = static_cast<uint32_t>(rng.Uniform(9000));
      const auto width = static_cast<uint32_t>(100 + rng.Uniform(1900));
      const auto region = static_cast<uint32_t>(rng.Uniform(5));
      const auto status = static_cast<uint32_t>(rng.Uniform(3));
      query::PredicatePtr p;
      switch (rng.Uniform(6)) {
        case 0:
          p = query::Between("amount", lo, lo + width);
          break;
        case 1:
          p = query::And(query::Equals("region", region),
                         query::Between("amount", lo, lo + width));
          break;
        case 2:
          p = query::And(query::Equals("status", status),
                         query::Between("amount", lo, lo + width));
          break;
        case 3:
          p = query::Or(query::Equals("region", region),
                        query::Between("amount", lo, lo + width));
          break;
        case 4:
          p = query::And(query::Between("amount", lo, lo + width),
                         query::Not(query::Equals("status", status)));
          break;
        default:
          p = query::Or(query::And(query::Equals("region", region),
                                   query::Equals("status", status)),
                        query::Between("amount", lo, lo + width / 4));
          break;
      }
      pool.push_back({t, std::shared_ptr<const query::Predicate>(std::move(p))});
    }
  }
  return pool;
}

struct Action {
  enum class Kind : uint8_t { kQuery, kDirect, kUpdate };
  Kind kind = Kind::kQuery;
  uint64_t due_ns = 0;  // offset from the phase start
  int tenant = 0;
  int table = 0;
  uint32_t predicate = 0;
  SetOp op = SetOp::kIntersect;
  std::vector<uint32_t> a;
  std::vector<uint32_t> b;
  uint64_t expected = 0;  // kDirect: digest of the scalar reference
  int column = 0;
  uint64_t update_seed = 0;
};

/// Poisson arrivals at `rate` for `seconds`; every field is a pure
/// function of (seed, salt).
std::vector<Action> MakeActions(uint64_t seed, uint64_t salt, double rate,
                                double seconds, const std::vector<PoolEntry>& pool,
                                const ZipfPool& zipf) {
  Random rng(Mix(seed, salt));
  std::vector<Action> actions;
  const double horizon_ns = seconds * 1e9;
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / rate * 1e9;
    if (t >= horizon_ns) break;
    Action action;
    action.due_ns = static_cast<uint64_t>(t);
    action.tenant = static_cast<int>(rng.Uniform(kTenants));
    const double draw = rng.NextDouble();
    if (draw < kUpdateFraction) {
      action.kind = Action::Kind::kUpdate;
      action.table = static_cast<int>(rng.Uniform(kTables));
      action.column = static_cast<int>(rng.Uniform(3));
      action.update_seed = rng.Next64();
    } else if (draw < kUpdateFraction + kDirectFraction) {
      action.kind = Action::Kind::kDirect;
      const SetOp ops[] = {SetOp::kIntersect, SetOp::kUnion,
                           SetOp::kDifference, SetOp::kMerge};
      action.op = ops[rng.Uniform(4)];
      action.a = harness::MakeSortedSet(rng, kDirectMaxElements,
                                        kDirectValueRange);
      action.b = harness::MakeSortedSet(rng, kDirectMaxElements,
                                        kDirectValueRange);
      action.expected = Digest(ReferenceSetOp(action.op, action.a, action.b));
    } else {
      action.kind = Action::Kind::kQuery;
      action.predicate = zipf.Sample(rng);
      action.table = pool[action.predicate].table;
    }
    actions.push_back(std::move(action));
  }
  return actions;
}

/// One answered request, kept for the oracle and the latency figures.
struct Completion {
  bool is_query = true;
  int table = 0;
  uint32_t predicate = 0;
  uint32_t k_min = 0;  // updates of its table issued before Submit
  uint64_t ready_ns = 0;
  bool ok = false;
  uint64_t digest = 0;
  uint64_t expected_digest = 0;  // direct ops: the scalar reference
};

struct UpdateRecord {
  int column = 0;
  uint64_t seed = 0;
  uint64_t begin_ns = 0;
};

struct PhaseStats {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  double seconds = 0;
  // Generator busy time per request: from the end of its wait to the
  // return of its Submit.
  std::vector<double> send_us;
  std::vector<double> latency_ms;  // completion order; failures as kFailedMs
  std::vector<double> lag_ms;
  std::vector<double> submit_us;
  std::vector<double> backlog;     // outstanding requests at each send
  std::map<std::string, uint64_t> failure_reasons;

  double P(double q) const { return WindowedQuantile(latency_ms, q); }
  double ErrorRate() const {
    return attempted == 0 ? 0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
  /// The backlog grows when the last quarter's mean outstanding count
  /// clearly exceeds the first quarter's.
  bool BacklogGrows() const {
    const size_t n = backlog.size();
    if (n < 8) return false;
    double first = 0;
    double last = 0;
    for (size_t i = 0; i < n / 4; ++i) {
      first += backlog[i];
      last += backlog[n - 1 - i];
    }
    first /= static_cast<double>(n / 4);
    last /= static_cast<double>(n / 4);
    return last > 2.0 * first + 4.0;
  }
};

struct System {
  std::unique_ptr<system::Board> board;
  std::unique_ptr<service::QueryService> service;

  /// Stops the service before the board it drives goes away.
  void Reset() {
    service.reset();
    board.reset();
  }
};

class ServiceMix {
 public:
  ServiceMix(const Options& options)
      : options_(options),
        pool_(MakePool(options.seed)),
        zipf_(Mix(options.seed, 2), pool_.size(), kZipfExponent) {}

  Report Run();
  double ModeledCyclesPerRequest() const;

 private:
  uint64_t TableSeed(int t) const { return Mix(options_.seed, 10 + t); }
  System Setup() const;
  PhaseStats RunPhase(std::vector<Action> actions, Tracer& tracer);
  bool Probe(int rung, int probe);
  uint64_t VerifyTable(int t) const;

  const Options& options_;
  std::vector<PoolEntry> pool_;
  ZipfPool zipf_;
  System system_;
  std::vector<Completion> completions_;
  std::vector<UpdateRecord> updates_[kTables];
  uint64_t next_request_ = 1;
};

System ServiceMix::Setup() const {
  System sys;
  system::BoardConfig board_config;
  board_config.num_cores = kCores;
  board_config.host_threads = kHostThreads;
  auto board = system::Board::Create(board_config);
  if (!board.ok()) Die("Board::Create", board.status());
  sys.board = *std::move(board);

  service::ServiceConfig config;
  config.board = sys.board.get();
  config.queue_capacity = kQueueCapacity;
  for (int tenant = 0; tenant < kTenants; ++tenant) {
    config.tenant_priorities[TenantName(tenant)] =
        tenant % 2 == 0
            ? service::SloPriorityBoost(service::SloClass::kInteractive)
            : 0;
  }
  auto service = service::QueryService::Create(config);
  if (!service.ok()) Die("QueryService::Create", service.status());
  sys.service = *std::move(service);
  for (int t = 0; t < kTables; ++t) {
    const Status status = sys.service->RegisterTable(
        std::make_unique<query::Table>(
            harness::MakeServiceTable(TableName(t), kRows, TableSeed(t))));
    if (!status.ok()) Die("RegisterTable", status);
  }
  // Warm-up: one pass over a slice of each table's pool and one direct
  // op per kind, so index builds, program loads and the first cache
  // fills happen before timing.
  std::vector<std::future<service::ServiceResponse>> warm;
  for (int t = 0; t < kTables; ++t) {
    for (int i = 0; i < kWarmupPerTable; ++i) {
      service::ServiceRequest request;
      request.tenant = TenantName(1);
      request.table = TableName(t);
      request.predicate =
          pool_[static_cast<size_t>(t) * kPoolPerTable + static_cast<size_t>(i)]
              .predicate;
      warm.push_back(sys.service->Submit(std::move(request)));
    }
  }
  for (const SetOp op : {SetOp::kIntersect, SetOp::kUnion,
                         SetOp::kDifference, SetOp::kMerge}) {
    service::ServiceRequest request;
    request.tenant = TenantName(1);
    request.op = op;
    request.a = {1, 5, 9, 12};
    request.b = {5, 7, 12, 40};
    warm.push_back(sys.service->Submit(std::move(request)));
  }
  for (auto& future : warm) {
    const service::ServiceResponse response = future.get();
    if (!response.status.ok()) Die("warm-up request", response.status);
  }
  return sys;
}

PhaseStats ServiceMix::RunPhase(std::vector<Action> actions, Tracer& tracer) {
  struct Pending {
    size_t completion;
    uint64_t due_ns;
    std::future<service::ServiceResponse> future;
  };
  PhaseStats stats;
  std::vector<Pending> pending;
  service::QueryService& service = *system_.service;

  const auto poll = [&] {
    for (size_t i = 0; i < pending.size();) {
      if (pending[i].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const uint64_t ready = NowNs();
      const service::ServiceResponse response = pending[i].future.get();
      Completion& c = completions_[pending[i].completion];
      c.ready_ns = ready;
      c.ok = response.status.ok();
      c.digest = Digest(response.values);
      if (c.ok) {
        ++stats.ok;
        stats.latency_ms.push_back(
            static_cast<double>(ready - pending[i].due_ns) / 1e6);
      } else {
        ++stats.failed;
        stats.latency_ms.push_back(kFailedMs);
        const std::string reason = response.status.ToString();
        ++stats.failure_reasons[reason.substr(0, reason.find(':'))];
      }
      pending[i] = std::move(pending.back());
      pending.pop_back();
    }
  };

  const uint64_t start = NowNs() + 1'000'000;  // 1 ms lead
  for (Action& action : actions) {
    const uint64_t due = start + action.due_ns;
    uint64_t waited = NowNs();
    {
      ScopedSpan wait(tracer, "bench.wait");
      for (; waited < due; waited = NowNs()) {
        poll();
        if (due - waited > kPollSleepNs) std::this_thread::sleep_for(kPollSleep);
      }
    }
    const uint64_t sent = NowNs();
    stats.lag_ms.push_back(static_cast<double>(sent - due) / 1e6);
    stats.backlog.push_back(static_cast<double>(pending.size()));

    if (action.kind == Action::Kind::kUpdate) {
      std::vector<uint32_t> values;
      {
        ScopedSpan generate(tracer, "bench.generate");
        values = harness::MakeColumnValues(kColumns[action.column], kRows,
                                           action.update_seed);
      }
      ScopedSpan span(tracer, "service.update_column");
      updates_[action.table].push_back(
          {action.column, action.update_seed, NowNs()});
      const Status status = service.UpdateColumn(
          TableName(action.table), kColumns[action.column], std::move(values));
      if (!status.ok()) Die("UpdateColumn", status);
      continue;
    }

    Completion completion;
    service::ServiceRequest request;
    {
      ScopedSpan generate(tracer, "bench.generate");
      request.tenant = TenantName(action.tenant);
      if (action.kind == Action::Kind::kQuery) {
        completion.table = action.table;
        completion.predicate = action.predicate;
        completion.k_min =
            static_cast<uint32_t>(updates_[action.table].size());
        request.table = TableName(action.table);
        request.predicate = pool_[action.predicate].predicate;
      } else {
        completion.is_query = false;
        completion.expected_digest = action.expected;
        request.op = action.op;
        request.a = std::move(action.a);
        request.b = std::move(action.b);
      }
    }
    completions_.push_back(completion);
    ++stats.attempted;
    const uint64_t request_id = next_request_++;
    ScopedSpan span(tracer, "service.submit", request_id);
    const uint64_t submit_begin = NowNs();
    std::future<service::ServiceResponse> future =
        service.Submit(std::move(request));
    const uint64_t submitted = NowNs();
    stats.submit_us.push_back(static_cast<double>(submitted - submit_begin) /
                              1e3);
    stats.send_us.push_back(static_cast<double>(submitted - waited) / 1e3);
    pending.push_back({completions_.size() - 1, due, std::move(future)});
  }
  {
    ScopedSpan wait(tracer, "bench.wait");
    while (!pending.empty()) {
      poll();
      std::this_thread::sleep_for(kPollSleep);
    }
  }
  stats.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return stats;
}

/// One ladder rung: true when the majority of its trials meet the
/// latency, error and backlog limits.
bool ServiceMix::Probe(int rung, int probe) {
  const double rate = kOfferedQps * std::pow(kLadderStep, rung);
  // Most rungs settle after two trials; budget 2.5 per rung.
  const double seconds = 0.5 * options_.seconds / (kLadderProbes * 2.5);
  Tracer off;
  int passed = 0;
  int failed = 0;
  for (int trial = 0; trial < kLadderTrials && passed < 2 && failed < 2;
       ++trial) {
    PhaseStats stats = RunPhase(
        MakeActions(options_.seed,
                    100 + static_cast<uint64_t>(probe * kLadderTrials + trial),
                    rate, seconds, pool_, zipf_),
        off);
    const double p99 = stats.P(0.99);
    const bool pass = p99 <= kLadderP99Ms &&
                      stats.ErrorRate() <= kLadderMaxErrorRate &&
                      !stats.BacklogGrows();
    (pass ? passed : failed) += 1;
    std::fprintf(stderr,
                 "  ladder rung %+3d: offered %8.0f/s  p99 %7.3f ms  errors "
                 "%.4f  backlog %s -> %s\n",
                 rung, rate, p99, stats.ErrorRate(),
                 stats.BacklogGrows() ? "grows" : "flat",
                 pass ? "pass" : "fail");
  }
  return passed >= 2;
}

/// Linearizability oracle for one table: every OK answer must equal the
/// serial replay at some table state between its submission (k_min
/// updates applied) and its completion (updates begun before then).
uint64_t ServiceMix::VerifyTable(int t) const {
  struct Check {
    const Completion* c;
    uint32_t k_max;
  };
  std::vector<Check> checks;
  const std::vector<UpdateRecord>& updates = updates_[t];
  for (const Completion& c : completions_) {
    if (!c.is_query || !c.ok || c.table != t) continue;
    const auto k_max = static_cast<uint32_t>(
        std::lower_bound(updates.begin(), updates.end(), c.ready_ns,
                         [](const UpdateRecord& u, uint64_t ready) {
                           return u.begin_ns < ready;
                         }) -
        updates.begin());
    checks.push_back({&c, std::max(k_max, c.k_min)});
  }
  std::stable_sort(checks.begin(), checks.end(),
                   [](const Check& x, const Check& y) {
                     return x.c->k_min < y.c->k_min;
                   });
  harness::SerialReference reference(TableName(t), kRows, TableSeed(t));
  uint64_t mismatches = 0;
  size_t next = 0;
  std::vector<Check> active;
  for (uint32_t k = 0;; ++k) {
    while (next < checks.size() && checks[next].c->k_min == k) {
      active.push_back(checks[next++]);
    }
    std::unordered_map<uint32_t, uint64_t> memo;
    std::vector<Check> still;
    for (const Check& check : active) {
      auto it = memo.find(check.c->predicate);
      if (it == memo.end()) {
        auto rids = reference.Select(*pool_[check.c->predicate].predicate);
        if (!rids.ok()) Die("reference Select", rids.status());
        it = memo.emplace(check.c->predicate, Digest(*rids)).first;
      }
      if (it->second == check.c->digest) continue;
      if (check.k_max > k) {
        still.push_back(check);
      } else {
        ++mismatches;
      }
    }
    active = std::move(still);
    if (k >= updates.size()) {
      mismatches += active.size();
      break;
    }
    const Status status = reference.Update(
        kColumns[updates[k].column],
        harness::MakeColumnValues(kColumns[updates[k].column], kRows,
                                  updates[k].seed));
    if (!status.ok()) Die("reference Update", status);
  }
  return mismatches;
}

/// Accelerator cycles per request, executed serially on one Processor
/// with no cache and no dedup: every pool predicate once, on its table
/// as generated (always-EIS Selects, as the service's engines run), and
/// the direct ops of the first kModeledSeconds of the offered stream,
/// the two weighted by their shares of the stream's requests. A pure
/// function of the seed.
double ServiceMix::ModeledCyclesPerRequest() const {
  auto processor = Processor::Create(ProcessorKind::kDba2LsuEis);
  if (!processor.ok()) Die("Processor::Create", processor.status());
  std::vector<query::Table> tables;
  tables.reserve(kTables);
  std::vector<std::unique_ptr<query::QueryEngine>> engines;
  for (int t = 0; t < kTables; ++t) {
    tables.push_back(harness::MakeServiceTable(TableName(t), kRows, TableSeed(t)));
    engines.push_back(std::make_unique<query::QueryEngine>(&tables.back(),
                                                           processor->get()));
    for (const char* column : kColumns) {
      const Status status = engines.back()->BuildIndex(column);
      if (!status.ok()) Die("BuildIndex", status);
    }
  }
  double query_cycles = 0;
  for (const PoolEntry& entry : pool_) {
    query::QueryStats stats;
    auto rids = engines[static_cast<size_t>(entry.table)]->Select(
        *entry.predicate, &stats);
    if (!rids.ok()) Die("modeled Select", rids.status());
    query_cycles += static_cast<double>(stats.accelerator_cycles);
  }
  double direct_cycles = 0;
  double directs = 0;
  for (const Action& action : MakeActions(options_.seed, 3, kOfferedQps,
                                          kModeledSeconds, pool_, zipf_)) {
    if (action.kind != Action::Kind::kDirect) continue;
    directs += 1;
    if (action.a.empty() || action.b.empty()) continue;  // no board run
    auto run = action.op == SetOp::kMerge
                   ? (*processor)->RunMerge(action.a, action.b)
                   : (*processor)->RunSetOperation(action.op, action.a,
                                                   action.b);
    if (!run.ok()) Die("modeled set operation", run.status());
    direct_cycles += static_cast<double>(run->metrics.cycles);
  }
  const double direct_share = kDirectFraction / (1.0 - kUpdateFraction);
  return (1.0 - direct_share) * query_cycles /
             static_cast<double>(pool_.size()) +
         direct_share * (directs == 0 ? 0 : direct_cycles / directs);
}

Report ServiceMix::Run() {
  Report report;
  const double phase_seconds = 0.5 * options_.seconds;

  // --- Set-up: calibration once, then the median of kSetupReps full
  // board + service + table builds (the last one is kept). ---
  uint64_t begin = NowNs();
  (void)query::Planner::Calibrated();
  const double calibrate_s = static_cast<double>(NowNs() - begin) / 1e9;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    system_.Reset();
    begin = NowNs();
    system_ = Setup();
    setup_s.push_back(static_cast<double>(NowNs() - begin) / 1e9);
  }
  report.Set("setup_s", calibrate_s + Median(setup_s));
  report.info["calibrate_s"] = std::to_string(calibrate_s);

  std::vector<Action> actions = MakeActions(options_.seed, 3, kOfferedQps,
                                            phase_seconds, pool_, zipf_);
  Tracer tracer;
  if (!options_.trace) {
    PhaseStats stats = RunPhase(std::move(actions), tracer);
    report.attempted = stats.attempted;
    report.failed = stats.failed;
    report.Set("qps", static_cast<double>(stats.ok) / stats.seconds);
    report.Set("latency_p50_ms", stats.P(0.5));
    report.Set("latency_p99_ms", stats.P(0.99));
    report.Set("error_rate", stats.ErrorRate());
    report.info["latency_samples"] = std::to_string(stats.latency_ms.size());
    for (const auto& [reason, count] : stats.failure_reasons) {
      report.info["failures." + reason] = std::to_string(count);
    }
    report.info["generator_lag_ms_p99"] =
        std::to_string(Quantile(stats.lag_ms, 0.99));
    report.Set("peak_rss_mb", PeakRssMb());  // before the ladder's probes

    // --- Capacity ladder. ---
    std::optional<int> lo;
    std::optional<int> hi;
    int rung = kLadderStart;
    for (int probe = 0; probe < kLadderProbes; ++probe) {
      if (Probe(rung, probe)) {
        lo = std::max(lo.value_or(rung), rung);
      } else {
        hi = std::min(hi.value_or(rung), rung);
      }
      if (!hi.has_value()) {
        rung = *lo + kLadderJump;
      } else if (!lo.has_value()) {
        rung = *hi - kLadderJump;
      } else {
        if (*hi - *lo <= 1) break;
        rung = *lo + (*hi - *lo) / 2;
      }
    }
    const int capacity_rung = lo.has_value() ? *lo : *hi - kLadderJump;
    report.Set("capacity_qps",
               kOfferedQps * std::pow(kLadderStep, capacity_rung));
    report.Set("modeled_cycles_per_op", ModeledCyclesPerRequest());
  } else {
    // Traced run: the first half of the phase untraced (the overhead
    // baseline), the second half traced; per-layer figures come from
    // the traced half.
    const size_t half = actions.size() / 2;
    std::vector<Action> second(std::make_move_iterator(actions.begin() +
                                                       static_cast<long>(half)),
                               std::make_move_iterator(actions.end()));
    actions.resize(half);
    const uint64_t second_offset = second.empty() ? 0 : second.front().due_ns;
    for (Action& action : second) action.due_ns -= second_offset;

    PhaseStats untraced = RunPhase(std::move(actions), tracer);
    const service::ServiceCounters before = system_.service->counters();
    RegistryDelta delta;
    tracer.set_enabled(true);
    const uint64_t window_begin = NowNs();
    PhaseStats traced = RunPhase(std::move(second), tracer);
    const uint64_t window_ns = NowNs() - window_begin;
    tracer.set_enabled(false);
    delta.Stop();
    const service::ServiceCounters after = system_.service->counters();
    report.attempted = untraced.attempted + traced.attempted;
    report.failed = untraced.failed + traced.failed;

    report.Set("service.submit_us_p99", Quantile(traced.submit_us, 0.99));
    const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
    const double lookups =
        hits + static_cast<double>(after.cache_misses - before.cache_misses);
    report.Set("service.cache_lookups", lookups);
    report.Set("service.cache_hit_ratio", lookups == 0 ? 0 : hits / lookups);
    const double dispatched =
        static_cast<double>(after.dispatched - before.dispatched);
    report.Set("service.dedup_ratio",
               dispatched == 0
                   ? 0
                   : static_cast<double>(after.deduplicated -
                                         before.deduplicated) /
                         dispatched);
    report.Set("service.cache_evictions",
               static_cast<double>(after.cache_evictions -
                                   before.cache_evictions));
    report.Set("service.cache_invalidations",
               static_cast<double>(after.cache_invalidations -
                                   before.cache_invalidations));
    const obs::HistogramStats batch = delta.Histogram("dba_service_batch_size");
    report.Set("service.batches", static_cast<double>(batch.count));
    report.Set("service.batch_size_mean",
               batch.count == 0 ? 0
                                : static_cast<double>(batch.sum) /
                                      static_cast<double>(batch.count));
    report.Set("service.shed.queue_full",
               static_cast<double>(after.rejected - before.rejected));
    report.Set("service.shed.deadline",
               static_cast<double>(after.shed - before.shed));
    report.Set("service.shed.rate_limited",
               static_cast<double>(after.rate_limited - before.rate_limited));
    report.Set("service.latency_ms_p99",
               delta.Histogram("dba_service_latency_ns").Quantile(0.99) / 1e6);
    report.Set("service.generator_lag_ms_p99", Quantile(traced.lag_ms, 0.99));
    AddSimulatorCounters(delta, &report);
    AddStandaloneCoreMetrics(options_.seed, &report);
    // Both halves deliver the offered rate whatever tracing costs, so the
    // overhead compares the generator's median busy time per request (a
    // median, because a few Submits stall on the scheduler's lock).
    const double traced_send_us = Median(traced.send_us);
    report.Set("bench.trace_overhead",
               traced_send_us == 0
                   ? 0
                   : 1.0 - Median(untraced.send_us) / traced_send_us);
    FinishTrace(tracer, window_ns, options_, &report);
  }

  // --- Oracle: stop the service, then replay every table serially. ---
  system_.Reset();
  uint64_t mismatches = 0;
  for (const Completion& c : completions_) {
    if (!c.is_query && c.ok && c.digest != c.expected_digest) ++mismatches;
  }
  uint64_t table_mismatches[kTables] = {};
  std::vector<std::thread> verifiers;
  for (int t = 0; t < kTables; ++t) {
    verifiers.emplace_back(
        [this, t, &table_mismatches] { table_mismatches[t] = VerifyTable(t); });
  }
  for (std::thread& verifier : verifiers) verifier.join();
  for (const uint64_t m : table_mismatches) mismatches += m;
  report.info["verified_responses"] = std::to_string(completions_.size());
  report.info["mismatches"] = std::to_string(mismatches);
  if (mismatches > 0) {
    report.correct = false;
    report.failed += mismatches;
  }
  return report;
}

}  // namespace

Report RunServiceMix(const Options& options) {
  ServiceMix workload(options);
  return workload.Run();
}

double ServiceMixModeledCyclesPerOp(uint64_t seed) {
  Options options;
  options.seed = seed;
  return ServiceMix(options).ModeledCyclesPerRequest();
}

uint64_t ServiceMixInputDigest(uint64_t seed) {
  const std::vector<PoolEntry> pool = MakePool(seed);
  const ZipfPool zipf(Mix(seed, 2), pool.size(), kZipfExponent);
  uint64_t digest = 0;
  std::vector<uint32_t> words;
  for (const PoolEntry& entry : pool) {
    const std::string text = entry.predicate->ToString();
    for (const char ch : text) words.push_back(static_cast<uint8_t>(ch));
  }
  for (const Action& action : MakeActions(seed, 3, kOfferedQps, 0.2, pool, zipf)) {
    words.push_back(static_cast<uint32_t>(action.due_ns));
    words.push_back(static_cast<uint32_t>(action.kind));
    words.push_back(action.predicate);
    words.insert(words.end(), action.a.begin(), action.a.end());
    words.insert(words.end(), action.b.begin(), action.b.end());
    words.push_back(static_cast<uint32_t>(action.update_seed));
  }
  for (int t = 0; t < kTables; ++t) {
    const query::Table table = harness::MakeServiceTable(
        TableName(t), kRows, Mix(seed, 10 + static_cast<uint64_t>(t)));
    for (const char* column : kColumns) {
      const auto values = table.Column(column);
      if (values.ok()) words.insert(words.end(), values->begin(), values->end());
    }
  }
  digest = Digest(words);
  return digest;
}

}  // namespace dba::perfbench
