#ifndef DBA_SERVICE_QUERY_SERVICE_H_
#define DBA_SERVICE_QUERY_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/processor.h"
#include "fault/fault.h"
#include "query/engine.h"
#include "query/predicate.h"
#include "query/table.h"
#include "service/admission.h"
#include "service/resilience.h"
#include "service/result_cache.h"
#include "service/service_clock.h"
#include "system/board.h"

namespace dba::service {

/// Configuration of a QueryService.
struct ServiceConfig {
  /// The accelerator board executing the service's work (required,
  /// non-owning; the board must outlive the service and must not be
  /// driven by the caller while the service is live).
  system::Board* board = nullptr;
  /// Admission-queue bound: a Submit beyond this depth is shed with
  /// kUnavailable (>= 1).
  size_t queue_capacity = 256;
  /// Requests dispatched together per batch (>= 1).
  int max_batch = 64;
  /// How long the scheduler holds a batch open after the oldest pending
  /// request arrived, coalescing compatible work. 0 dispatches eagerly.
  uint64_t batch_window_ns = 0;
  /// Result-cache entries (0 disables caching).
  size_t cache_capacity = 128;
  /// QueryEngine::SetMaxAttempts applied to every registered table's
  /// engine: per-request transient-failure retries (>= 1).
  int max_attempts = 1;
  /// Additive per-tenant priority boost (tenants absent here get 0).
  /// A request's effective priority is request.priority + boost.
  std::map<std::string, int> tenant_priorities;
  /// Per-tenant admission policies: token-bucket rate limits and SLO
  /// classes (service/resilience.h). A rate-limited tenant whose bucket
  /// runs dry is shed at admission with kRateLimited; an SLO class
  /// stamps its default deadline on requests that carry none and adds
  /// its priority boost on top of tenant_priorities. Tenants absent
  /// here are unlimited kStandard.
  std::map<std::string, TenantPolicy> tenant_policies;
  /// Board-health circuit breaker fed by direct-op outcomes and
  /// RecoveryTelemetry. While open, direct set ops route through host
  /// kernels (host_fallback) or shed with kUnavailable, and predicate
  /// RID-set intersections force the planner's host routes.
  BreakerConfig breaker;
  /// Serve direct set ops from host kernels while the breaker is open
  /// (bit-exact, flagged ServiceResponse::degraded). When false they
  /// shed with kUnavailable instead.
  bool host_fallback = true;
  /// Deadline-aware service-level re-submit policy for transiently
  /// failed direct-op board batches (exponential backoff + jitter,
  /// never past the riders' deadline).
  RetryConfig retry;
  /// Time source for the batch window and deadline shedding. Null uses
  /// a wall SystemClock; tests inject a VirtualClock (non-owning).
  ServiceClock* clock = nullptr;

  Status Validate() const;
};

/// One request: either a predicate query against a registered table
/// (predicate != null) or a direct set operation on caller-supplied
/// sorted inputs (predicate == null).
struct ServiceRequest {
  std::string tenant;
  int priority = 0;
  /// Absolute service-clock deadline; 0 = none. A request still queued
  /// past its deadline is shed with kDeadlineExceeded at dispatch.
  uint64_t deadline_ns = 0;

  // --- Predicate query ---
  std::string table;
  std::shared_ptr<const query::Predicate> predicate;

  // --- Direct set operation (predicate == nullptr) ---
  SetOp op = SetOp::kIntersect;
  std::vector<uint32_t> a;
  std::vector<uint32_t> b;
};

struct ServiceResponse {
  Status status;
  std::vector<uint32_t> values;  // RIDs (predicate) or op output (direct)
  bool cache_hit = false;        // served from the result cache
  bool deduplicated = false;     // rode an identical request in the batch
  uint32_t batch_size = 0;       // requests in this dispatch batch
  uint64_t dispatch_seq = 0;     // global dispatch order (priority proof)
  uint32_t retries = 0;          // transient re-executions
  uint64_t accelerator_cycles = 0;
  /// Served in degraded mode: host kernels stood in for the board while
  /// the circuit breaker was open. Values are bit-identical to the
  /// board path; only the execution venue differs.
  bool degraded = false;
};

/// Monotonic service counters. A QueryService keeps one tally of them
/// and books every change to it together with the matching dba_service_*
/// instruments of the global obs::MetricsRegistry, so the registry holds
/// the sum of the services' tallies.
struct ServiceCounters {
  uint64_t submitted = 0;
  uint64_t rejected = 0;    // admission overflow
  uint64_t shed = 0;        // deadline expired while queued
  uint64_t dispatched = 0;  // requests that reached execution
  uint64_t batches = 0;
  uint64_t deduplicated = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_invalidations = 0;
  uint64_t retries = 0;
  // --- Resilience (the pre-existing fields above keep their exact
  // meaning: `rejected` = queue-full sheds, `shed` = deadline sheds) ---
  uint64_t rate_limited = 0;        // admission sheds: token bucket dry
  uint64_t breaker_sheds = 0;       // sheds while open, fallback disabled
  uint64_t degraded = 0;            // responses served by host fallback
  uint64_t breaker_transitions = 0; // breaker state changes
};

/// Async multi-tenant frontend over a system::Board: requests are
/// admitted into a bounded priority queue (load-shedding, never silent
/// drops), coalesced within a batch window, deduplicated, answered from
/// a column-version-validated LRU result cache when possible, and
/// executed -- direct set ops batched onto the board's cores via
/// Board::RunSetOperationBatch, predicate queries on per-table
/// QueryEngines pinned round-robin to board cores. Results are
/// byte-identical to serial per-call QueryEngine/Processor execution.
/// See docs/SERVICE.md.
class QueryService {
 public:
  static Result<std::unique_ptr<QueryService>> Create(
      const ServiceConfig& config);

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Stops the scheduler; every still-queued request fails with
  /// kUnavailable ("service stopped").
  ~QueryService();

  /// Takes ownership of `table`, builds secondary indexes on all its
  /// columns, and pins its QueryEngine to a board core (round-robin).
  Status RegisterTable(std::unique_ptr<query::Table> table);

  /// Replaces a column's values: bumps the column version (stale
  /// secondary/partition indexes rebuild on next use) and invalidates
  /// every cached result depending on the column. Serialized against
  /// in-flight queries of the same table.
  Status UpdateColumn(const std::string& table, const std::string& column,
                      std::vector<uint32_t> values);

  /// Admits `request` and returns a future for its response. The future
  /// is always fulfilled: with the result, kUnavailable (queue full or
  /// service stopped), kDeadlineExceeded (shed), or the execution error.
  /// A direct op that fails eis::ValidateOperands (an op outside SetOp,
  /// or inputs out of order) is answered at once with kInvalidArgument.
  std::future<ServiceResponse> Submit(ServiceRequest request);

  /// Test hooks: freeze/unfreeze dispatch (queued work keeps admitting
  /// up to capacity while paused) and block until the queue is empty
  /// and no batch is executing.
  void PauseDispatch();
  void ResumeDispatch();
  void Drain();

  size_t queue_depth() const;
  ServiceCounters counters() const;
  std::vector<std::string> CacheKeysMruToLru() const;
  system::Board* board() { return config_.board; }
  /// The circuit breaker's state as of the last dispatch batch (booked
  /// with the batch's counters; the breaker itself is
  /// scheduler-thread-owned).
  BreakerState breaker_state() const;

  /// Forwards a deterministic attempt-fault hook to every registered
  /// table's engine (and tables registered later). Call while idle.
  void SetAttemptFaultHook(fault::AttemptFaultHook hook);

 private:
  struct Job {
    ServiceRequest request;
    std::promise<ServiceResponse> promise;
    uint64_t enqueue_ns = 0;
  };

  struct TableEntry {
    std::unique_ptr<query::Table> table;
    std::unique_ptr<query::QueryEngine> engine;
    int core = 0;
    /// UpdateColumn holds it unique; query execution holds it shared.
    std::unique_ptr<std::shared_mutex> mu;
  };

  explicit QueryService(const ServiceConfig& config);

  void SchedulerLoop();
  /// Runs one dispatch batch; `batch_ordinal` (1-based) keys its retry
  /// jitter.
  void ExecuteBatch(std::vector<Job> batch, uint64_t batch_ordinal);
  uint64_t OldestEnqueueNsLocked() const;
  /// Toggles degraded predicate routing (force the planner's host
  /// intersect route on every registered engine) to match the breaker
  /// state. Scheduler thread (or RegisterTable) only; takes tables_mu_.
  void SetDegradedRouting(bool degraded);
  /// Adds `delta` to the tally and to the dba_service_* instruments, and
  /// records the breaker's `state` when a dispatch batch books: the one
  /// place a counter is booked and a shed field meets its
  /// dba_service_shed_total{reason} label. Caller holds mu_.
  void BookLocked(const ServiceCounters& delta,
                  std::optional<BreakerState> state = std::nullopt);
  /// Moves the cache traffic since the last call into `delta`. Caller
  /// holds cache_mu_.
  void TakeCacheDeltaLocked(ServiceCounters* delta);

  ServiceConfig config_;
  std::unique_ptr<SystemClock> owned_clock_;  // when config_.clock == null
  ServiceClock* clock_ = nullptr;

  mutable std::mutex mu_;           // queue, scheduler state, tally
  std::condition_variable cv_;      // scheduler wakeups
  std::condition_variable drain_cv_;
  AdmissionQueue<Job> queue_;
  bool paused_ = false;
  bool stopping_ = false;
  bool dispatching_ = false;
  /// Per-tenant token buckets (guarded by mu_; built lazily from
  /// tenant_policies on a tenant's first submission).
  std::map<std::string, TokenBucket> buckets_;
  /// The service's one tally, and the breaker's state as of the last
  /// batch (guarded by mu_; written only by BookLocked).
  ServiceCounters tally_;
  BreakerState breaker_state_ = BreakerState::kClosed;

  mutable std::shared_mutex tables_mu_;
  std::map<std::string, TableEntry> tables_;
  int next_core_ = 0;
  fault::AttemptFaultHook fault_hook_;  // guarded by tables_mu_
  bool degraded_routing_ = false;       // guarded by tables_mu_

  /// Board-health breaker (scheduler thread only; breaker_state_ holds
  /// its booked state).
  std::unique_ptr<CircuitBreaker> breaker_;

  mutable std::mutex cache_mu_;  // taken before mu_ when both are held
  ResultCache cache_;
  CacheStats cache_booked_;      // cache_.stats() at the last take

  uint64_t dispatch_seq_ = 0;  // scheduler thread only

  std::thread scheduler_;
};

}  // namespace dba::service

#endif  // DBA_SERVICE_QUERY_SERVICE_H_
