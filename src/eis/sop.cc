#include "eis/sop.h"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>

#include "common/check.h"

namespace dba::eis {

std::string_view SopModeName(SopMode mode) {
  switch (mode) {
    case SopMode::kIntersect:
      return "intersect";
    case SopMode::kUnion:
      return "union";
    case SopMode::kDifference:
      return "difference";
    case SopMode::kMerge:
      return "merge";
  }
  return "invalid";
}

Result<std::span<const uint32_t>> EmptyOperandResult(
    SopMode mode, std::span<const uint32_t> a, std::span<const uint32_t> b) {
  switch (mode) {
    case SopMode::kIntersect:
      return std::span<const uint32_t>();
    case SopMode::kUnion:
    case SopMode::kMerge:
      return a.empty() ? b : a;
    case SopMode::kDifference:
      return a;
  }
  return Status::InvalidArgument("unsupported set operation " +
                                 std::to_string(static_cast<int>(mode)));
}

size_t MaxResultSize(SopMode mode, size_t na, size_t nb) {
  switch (mode) {
    case SopMode::kIntersect:
      return std::min(na, nb);
    case SopMode::kDifference:
      return na;
    case SopMode::kUnion:
    case SopMode::kMerge:
      break;
  }
  return na + nb;
}

Status ValidateOperands(SopMode mode, std::span<const uint32_t> a,
                        std::span<const uint32_t> b) {
  if (mode > SopMode::kMerge) return EmptyOperandResult(mode, a, b).status();
  const std::pair<std::span<const uint32_t>, const char*> operands[] = {
      {a, "A"}, {b, "B"}};
  for (const auto& [values, which] : operands) {
    if (mode == SopMode::kMerge) {
      if (!std::is_sorted(values.begin(), values.end())) {
        return Status::InvalidArgument(std::string("merge input ") + which +
                                       " must be sorted");
      }
    } else if (const auto before_violation =
                   std::adjacent_find(values.begin(), values.end(),
                                      std::greater_equal<uint32_t>());
               before_violation != values.end()) {
      return Status::InvalidArgument(
          std::string("input set ") + which +
          " must be sorted and duplicate-free (violation at index " +
          std::to_string(before_violation - values.begin() + 1) + ")");
    }
  }
  return Status::Ok();
}

namespace {

/// Consumption limit contributed by the opposite window: the comparator
/// may release everything up to the other side's maximum; +inf once the
/// other stream is fully drained; nothing while the other window merely
/// awaits a refill. Modelled in an int64 domain around uint32 values.
int64_t ConsumeLimit(const Window& other, bool other_drained) {
  if (!other.empty()) return static_cast<int64_t>(other.max());
  return other_drained ? INT64_MAX : INT64_MIN;
}

int CountLessEq(const Window& window, int64_t limit) {
  int n = 0;
  while (n < window.count &&
         static_cast<int64_t>(window.lanes[static_cast<size_t>(n)]) <= limit) {
    ++n;
  }
  return n;
}

}  // namespace

SopOutcome ComputeSop(SopMode mode, const Window& a, bool a_drained,
                      const Window& b, bool b_drained) {
  SopOutcome outcome;
  const int limit_a = CountLessEq(a, ConsumeLimit(b, b_drained));
  const int limit_b = CountLessEq(b, ConsumeLimit(a, a_drained));

  // All-to-all comparison over the consumed prefixes; in hardware this is
  // the n^2 comparator array (Section 2.2, intra-element-wise SIMD).
  // Functionally a two-pointer merge over the two sorted prefixes.
  //
  // The Result states are four elements wide (Figure 8: Result_0..3), so
  // one SOP emits at most four values; consumption truncates at the
  // element whose emission would overflow them. Modes that emit little
  // (intersection at low selectivity) still consume full prefixes.
  int i = 0;
  int j = 0;
  auto can_emit = [&outcome](int n) { return outcome.emit_count + n <= 4; };
  auto push = [&outcome](uint32_t value) {
    DBA_CHECK(outcome.emit_count < 4);
    outcome.emit[static_cast<size_t>(outcome.emit_count++)] = value;
  };
  while (i < limit_a || j < limit_b) {
    const bool take_a =
        j >= limit_b ||
        (i < limit_a && a.lanes[static_cast<size_t>(i)] <=
                            b.lanes[static_cast<size_t>(j)]);
    if (take_a && i < limit_a && j < limit_b &&
        a.lanes[static_cast<size_t>(i)] == b.lanes[static_cast<size_t>(j)]) {
      // Matched pair.
      const uint32_t value = a.lanes[static_cast<size_t>(i)];
      switch (mode) {
        case SopMode::kIntersect:
        case SopMode::kUnion:
          if (!can_emit(1)) goto result_states_full;
          push(value);
          break;
        case SopMode::kDifference:
          break;  // suppressed
        case SopMode::kMerge:
          if (!can_emit(2)) goto result_states_full;
          push(value);
          push(value);  // duplicates preserved
          break;
      }
      ++outcome.matches;
      ++i;
      ++j;
      continue;
    }
    if (take_a) {
      const uint32_t value = a.lanes[static_cast<size_t>(i)];
      switch (mode) {
        case SopMode::kIntersect:
          break;
        case SopMode::kUnion:
        case SopMode::kDifference:
        case SopMode::kMerge:
          if (!can_emit(1)) goto result_states_full;
          push(value);
          break;
      }
      ++i;
    } else {
      const uint32_t value = b.lanes[static_cast<size_t>(j)];
      switch (mode) {
        case SopMode::kIntersect:
        case SopMode::kDifference:
          break;
        case SopMode::kUnion:
        case SopMode::kMerge:
          if (!can_emit(1)) goto result_states_full;
          push(value);
          break;
      }
      ++j;
    }
  }
result_states_full:
  outcome.consume_a = i;
  outcome.consume_b = j;
  return outcome;
}

}  // namespace dba::eis
