#ifndef DBA_PERFBENCH_COMMON_H_
#define DBA_PERFBENCH_COMMON_H_

// Shared plumbing of the benchmark binary: options, the host clock,
// percentiles, the metric report, the in-memory span tracer, and
// registry-snapshot deltas.

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/processor.h"
#include "obs/metrics/metrics.h"

namespace dba::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the per-run report and the span file.
  std::string out_dir = "perfbench/out";
};

/// Host wall clock in nanoseconds (steady, process-local origin).
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Linear-interpolated quantile of `values` (sorted in place); 0 when
/// empty.
double Quantile(std::vector<double>& values, double q);
double Median(std::vector<double> values);

/// Quantile of samples kept in arrival order, robust to host stalls:
/// the samples split into consecutive windows of at least `per_window`
/// (1000 keeps ten samples beyond a p99) and the result is the median of
/// the windows' quantiles. A stall of a few milliseconds then moves one
/// window's tail, not the reported figure. Fewer than 2 * per_window
/// samples form a single window.
double WindowedQuantile(const std::vector<double>& samples, double q,
                        size_t per_window = 1000);

/// Prints "perfbench: <what>: <status>" and exits 1: a failed call into
/// the program under test ends the run without a result.
[[noreturn]] void Die(const char* what, const Status& status);

/// SplitMix64 of (seed, salt): independent seeded streams per purpose.
uint64_t Mix(uint64_t seed, uint64_t salt);

/// The scalar reference of a set operation (baseline::Scalar*, and
/// std::merge for kMerge, which keeps duplicates).
std::vector<uint32_t> ReferenceSetOp(SetOp op, std::span<const uint32_t> a,
                                     std::span<const uint32_t> b);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// 64-bit FNV-1a over a value vector: the oracles compare result
/// digests instead of keeping every result alive.
uint64_t Digest(std::span<const uint32_t> values);

/// Host-speed probe: a fixed scalar merge-intersect and binary-search
/// pass over arrays built from a constant seed, in the benchmark's own
/// code, so no change to the program under test moves it. A closed loop
/// runs it between its blocks; the rates it records show how fast the
/// host ran a single thread during the run.
///
/// On a shared 4-vCPU VM the host's single-thread speed drifts by up to
/// a third over minutes, and a closed loop's rate with it: planner_skew's
/// block rate spread 10-44% across runs. Scaled by the probe, such
/// runs spread 3-10%, so the closed loops report their rate at the
/// reference speed below.
class HostSpeedProbe {
 public:
  /// Probe passes per second the scaled rates refer to: about what a
  /// quiet 4-vCPU x86-64 VM runs (the busy one above ran 18k-30k).
  static constexpr double kReferenceRate = 30000;

  HostSpeedProbe();
  /// Runs one probe (about a millisecond) and records its rate.
  void Run();
  /// The q-quantile of the recorded rates in passes per second; 0
  /// before any Run.
  double Rate(double q) const;
  /// `rate` scaled from the probe's q-quantile rate during the run to
  /// kReferenceRate; `rate` itself before any Run.
  double Scale(double rate, double q) const;

 private:
  std::vector<uint32_t> large_;
  std::vector<uint32_t> small_;
  std::vector<double> rates_;
  uint64_t sink_ = 0;
};

/// What one workload run produced: the result line's counts, every
/// metric it measured (name -> value; units and clocks live in
/// perfbench/catalog.json), and extra report fields.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> info;

  void Set(const std::string& name, double value) { metrics[name] = value; }
};

/// In-memory span recorder for the traced run. Spans are recorded on the
/// benchmark's calling thread only (every workload drives its layers
/// from one thread), so no locking is needed. Disabled tracers record
/// nothing and cost one branch per span.
class Tracer {
 public:
  struct Span {
    const char* name;  // "<layer>.<call>", a string literal
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int32_t parent = -1;
    uint64_t request = 0;  // request id (0 = none)
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  int32_t Begin(const char* name, uint64_t request = 0);
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus the time its direct children cover) of
  /// every span, summed per layer (the name's prefix before the first
  /// '.'), in nanoseconds.
  std::map<std::string, double> SelfNsByLayer() const;

  /// Streams the spans as Chrome trace-event JSON (the format
  /// obs::ChromeTraceWriter renders; complete "X" events in host
  /// microseconds since the first span, with the request id and the
  /// parent span's index as args), loadable in ui.perfetto.dev.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// RAII span on a Tracer; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request = 0)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_.End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int32_t index_;
};

/// Trace-mode A/B blocks for the closed loops: consecutive blocks of
/// operations alternate untraced and traced, so host drift hits both
/// sides alike and the difference in their rates is the tracing
/// overhead. Without tracing every block is untraced, and tracing stops
/// once kMaxTraceSpans spans are held, which bounds the trace's memory.
inline constexpr size_t kMaxTraceSpans = 200000;

class TraceBlocks {
 public:
  TraceBlocks(Tracer& tracer, bool trace)
      : tracer_(tracer), trace_(trace), start_ns_(NowNs()) {}

  /// Closes the running block after `ops` operations and opens the
  /// next, flipping tracing on or off in trace mode.
  void Next(uint64_t ops) {
    const uint64_t now = NowNs();
    Side& side = sides_[tracer_.enabled() ? 1 : 0];
    side.ns += now - start_ns_;
    side.ops += ops;
    start_ns_ = now;
    if (trace_) {
      tracer_.set_enabled(!tracer_.enabled() &&
                          tracer_.spans().size() < kMaxTraceSpans);
    }
  }
  /// Ends the last block and leaves tracing off.
  void Finish(uint64_t ops) {
    Next(ops);
    tracer_.set_enabled(false);
  }

  uint64_t traced_ns() const { return sides_[1].ns; }
  /// 1 - traced rate / untraced rate.
  double Overhead() const {
    const auto rate = [](const Side& side) {
      return side.ns == 0 ? 0.0
                          : static_cast<double>(side.ops) /
                                static_cast<double>(side.ns);
    };
    return rate(sides_[0]) == 0 ? 0 : 1.0 - rate(sides_[1]) / rate(sides_[0]);
  }

 private:
  struct Side {
    uint64_t ns = 0;
    uint64_t ops = 0;
  };
  Tracer& tracer_;
  bool trace_;
  uint64_t start_ns_;
  Side sides_[2];
};

/// Difference of two snapshots of the global metrics registry.
class RegistryDelta {
 public:
  RegistryDelta() : before_(obs::MetricsRegistry::Global().Snapshot()) {}
  void Stop() { after_ = obs::MetricsRegistry::Global().Snapshot(); }

  /// Counter delta; `identity` is `name` or `name{key="value"}`.
  double Counter(const std::string& identity) const;
  /// Histogram delta (bucket-wise).
  obs::HistogramStats Histogram(const std::string& identity) const;

 private:
  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
};

/// Records the trace-mode bookkeeping every workload shares: the span
/// reconciliation (per-layer self time against the traced window's
/// wall time; outside 0.95..1.05 the run is marked incorrect), the
/// per-layer self-time report fields, and the span file
/// <out_dir>/<workload>.spans.json.
void FinishTrace(const Tracer& tracer, uint64_t window_ns,
                 const Options& options, Report* report);

/// Per-layer metrics common to every traced run: simulator waste
/// counters over the traced window and the standalone-Processor
/// core/eis measurements at the paper's sizes (layers.cc).
void AddSimulatorCounters(const RegistryDelta& delta, Report* report);
void AddStandaloneCoreMetrics(uint64_t seed, Report* report);

// --- Workloads ---
Report RunServiceMix(const Options& options);
Report RunBoardBulk(const Options& options);
Report RunPlannerSkew(const Options& options);

/// Seed-purity fingerprints of each workload's generated inputs (the
/// self-test compares them across seeds).
uint64_t ServiceMixInputDigest(uint64_t seed);
uint64_t BoardBulkInputDigest(uint64_t seed);
uint64_t PlannerSkewInputDigest(uint64_t seed);

/// service_mix's modeled_cycles_per_op (its serial, cache-free pass).
double ServiceMixModeledCyclesPerOp(uint64_t seed);

/// Modeled metrics of a fixed number of board_bulk rounds at the given
/// board host_threads (the self-test's host-thread invariance check).
std::map<std::string, double> BoardBulkModeled(uint64_t seed, int host_threads,
                                               int rounds);

int RunSelfTest();

}  // namespace dba::perfbench

#endif  // DBA_PERFBENCH_COMMON_H_
