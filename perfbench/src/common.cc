#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "baseline/scalar_baseline.h"

namespace dba::perfbench {

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(position));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = position - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double WindowedQuantile(const std::vector<double>& samples, double q,
                        size_t per_window) {
  const size_t windows = std::max<size_t>(1, samples.size() / per_window);
  std::vector<double> quantiles;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> window(
        samples.begin() + static_cast<std::ptrdiff_t>(w * samples.size() / windows),
        samples.begin() +
            static_cast<std::ptrdiff_t>((w + 1) * samples.size() / windows));
    quantiles.push_back(Quantile(window, q));
  }
  return Median(quantiles);
}

void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<uint32_t> ReferenceSetOp(SetOp op, std::span<const uint32_t> a,
                                     std::span<const uint32_t> b) {
  switch (op) {
    case SetOp::kIntersect:
      return baseline::ScalarIntersect(a, b);
    case SetOp::kUnion:
      return baseline::ScalarUnion(a, b);
    case SetOp::kDifference:
      return baseline::ScalarDifference(a, b);
    default: {
      std::vector<uint32_t> merged(a.size() + b.size());
      std::merge(a.begin(), a.end(), b.begin(), b.end(), merged.begin());
      return merged;
    }
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

uint64_t Digest(std::span<const uint32_t> values) {
  uint64_t hash = 0xcbf29ce484222325ULL ^ values.size();
  for (const uint32_t value : values) {
    hash = (hash ^ value) * 0x100000001b3ULL;
  }
  return hash;
}

namespace {
constexpr size_t kProbeLarge = 8192;
constexpr size_t kProbeSmall = 512;
constexpr int kProbePasses = 48;
}  // namespace

HostSpeedProbe::HostSpeedProbe() {
  uint64_t state = Mix(0x9e3779b9, 7);
  const auto next = [&state] {
    state = Mix(state, 1);
    return static_cast<uint32_t>(state % (kProbeLarge * 8));
  };
  for (size_t i = 0; i < kProbeLarge; ++i) large_.push_back(next());
  for (size_t i = 0; i < kProbeSmall; ++i) small_.push_back(next());
  std::sort(large_.begin(), large_.end());
  std::sort(small_.begin(), small_.end());
}

void HostSpeedProbe::Run() {
  // Pass 0 is untimed: it brings the arrays back into cache, so the rate
  // does not depend on what the loop ran before.
  uint64_t begin = NowNs();
  for (int pass = 0; pass <= kProbePasses; ++pass) {
    if (pass == 1) begin = NowNs();
    // Keeps the compiler from folding the identical passes into one.
    std::atomic_signal_fence(std::memory_order_seq_cst);
    uint64_t matches = 0;
    size_t i = 0;
    size_t j = 0;
    while (i < large_.size() && j < small_.size()) {
      if (large_[i] < small_[j]) {
        ++i;
      } else if (small_[j] < large_[i]) {
        ++j;
      } else {
        ++matches;
        ++i;
        ++j;
      }
    }
    for (const uint32_t value : small_) {
      matches += static_cast<uint64_t>(
          std::lower_bound(large_.begin(), large_.end(), value) -
          large_.begin());
    }
    sink_ += matches;
  }
  rates_.push_back(kProbePasses * 1e9 /
                   static_cast<double>(NowNs() - begin));
}

double HostSpeedProbe::Rate(double q) const {
  std::vector<double> rates = rates_;
  return Quantile(rates, q);
}

double HostSpeedProbe::Scale(double rate, double q) const {
  return rates_.empty() ? rate : rate * kReferenceRate / Rate(q);
}

int32_t Tracer::Begin(const char* name, uint64_t request) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::map<std::string, double> Tracer::SelfNsByLayer() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const std::string name = spans_[i].name;
    const std::string layer = name.substr(0, name.find('.'));
    by_layer[layer] +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
        child_ns[i];
  }
  return by_layer;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(file, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", span.name,
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 static_cast<unsigned long long>(span.request), span.parent);
  }
  std::fprintf(file, "],\"displayTimeUnit\":\"ns\"}\n");
  return std::fclose(file) == 0;
}

double RegistryDelta::Counter(const std::string& identity) const {
  const auto after = after_.counters.find(identity);
  if (after == after_.counters.end()) return 0;
  const auto before = before_.counters.find(identity);
  const uint64_t base = before == before_.counters.end() ? 0 : before->second;
  return static_cast<double>(after->second - base);
}

obs::HistogramStats RegistryDelta::Histogram(
    const std::string& identity) const {
  obs::HistogramStats out;
  const auto after = after_.histograms.find(identity);
  if (after == after_.histograms.end()) return out;
  std::map<uint32_t, uint64_t> counts;
  for (const obs::HistogramBucket& bucket : after->second.buckets) {
    counts[bucket.index] += bucket.count;
  }
  out.count = after->second.count;
  out.sum = after->second.sum;
  const auto before = before_.histograms.find(identity);
  if (before != before_.histograms.end()) {
    for (const obs::HistogramBucket& bucket : before->second.buckets) {
      counts[bucket.index] -= bucket.count;
    }
    out.count -= before->second.count;
    out.sum -= before->second.sum;
  }
  for (const auto& [index, count] : counts) {
    if (count > 0) out.buckets.push_back({index, count});
  }
  return out;
}

void FinishTrace(const Tracer& tracer, uint64_t window_ns,
                 const Options& options, Report* report) {
  double self_total = 0;
  for (const auto& [layer, ns] : tracer.SelfNsByLayer()) {
    report->info["self_ms." + layer] = std::to_string(ns / 1e6);
    self_total += ns;
  }
  const double coverage =
      window_ns == 0 ? 0 : self_total / static_cast<double>(window_ns);
  report->Set("bench.trace_coverage", coverage);
  report->info["trace_window_ms"] =
      std::to_string(static_cast<double>(window_ns) / 1e6);
  report->info["trace_spans"] = std::to_string(tracer.spans().size());
  if (coverage < 0.95 || coverage > 1.05) {
    // The spans no longer account for the traced wall time, so the
    // per-layer figures cannot be trusted: fail the run.
    std::fprintf(stderr,
                 "perfbench: span self-times cover %.1f%% of the traced "
                 "window (outside 95..105%%)\n",
                 100.0 * coverage);
    report->correct = false;
    report->info["trace_reconciled"] = "false";
  }
  std::error_code error;
  std::filesystem::create_directories(options.out_dir, error);
  const std::string path =
      options.out_dir + "/" + options.workload + ".spans.json";
  if (tracer.WriteChromeTrace(path)) report->info["trace_file"] = path;
}

}  // namespace dba::perfbench
