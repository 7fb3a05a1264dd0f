#ifndef DBA_EIS_SOP_H_
#define DBA_EIS_SOP_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "common/check.h"
#include "common/status.h"

namespace dba::eis {

/// The four sorted-set operations implemented by the SOP instruction
/// (paper Table 1 / Section 4). The mode is a TIE state set by INIT.
enum class SopMode : uint8_t {
  kIntersect = 0,
  kUnion = 1,
  kDifference = 2,  // A minus B
  kMerge = 3,       // merge step of merge-sort; duplicates preserved
};

std::string_view SopModeName(SopMode mode);

/// The answer of `mode` when at least one operand is empty, which needs
/// no comparator network: intersect yields nothing, union and merge the
/// non-empty side, difference A. Every layer that short-cuts an empty
/// operand (board partitions, the streamed tail, the query engine,
/// query::RunRoute) asks this function; each charges its own
/// cost for the copy. The returned span views `a` or `b`.
/// InvalidArgument for a value outside SopMode.
Result<std::span<const uint32_t>> EmptyOperandResult(
    SopMode mode, std::span<const uint32_t> a, std::span<const uint32_t> b);

/// The most elements `mode` can return for operands of `na` and `nb`
/// elements: intersect min(na, nb), difference na, union and merge
/// na + nb (a value outside SopMode gets na + nb too). The streamed set
/// operation reserves this many, and board partition verification
/// rejects a larger result.
size_t MaxResultSize(SopMode mode, size_t na, size_t nb);

/// The input contract of `mode`, checked by Processor and by the query
/// service's Submit: strictly increasing operands for intersect, union
/// and difference, non-decreasing ones for merge. InvalidArgument names
/// the first offending operand; so is a value outside SopMode.
Status ValidateOperands(SopMode mode, std::span<const uint32_t> a,
                        std::span<const uint32_t> b);

/// A Word-state window: up to four 32-bit elements, sorted ascending,
/// occupying lanes [0, count). The window always holds a contiguous
/// prefix of the not-yet-consumed stream.
struct Window {
  std::array<uint32_t, 4> lanes{};
  int count = 0;

  bool empty() const { return count == 0; }
  bool full() const { return count == 4; }
  uint32_t max() const { return lanes[static_cast<size_t>(count - 1)]; }

  /// Drops the first `n` lanes (the consumed prefix).
  void Consume(int n) {
    DBA_CHECK(n >= 0 && n <= count);
    for (int i = n; i < count; ++i) {
      lanes[static_cast<size_t>(i - n)] = lanes[static_cast<size_t>(i)];
    }
    count -= n;
  }
  /// Appends one element (must keep the window sorted; checked).
  void Push(uint32_t value) {
    DBA_CHECK_MSG(count < 4, "Window overflow");
    DBA_CHECK_MSG(count == 0 || lanes[static_cast<size_t>(count - 1)] <= value,
                  "Window must stay sorted");
    lanes[static_cast<size_t>(count++)] = value;
  }
};

/// Outcome of one SOP execution: how many elements each window consumed
/// (always a prefix) and the emitted, globally sorted result elements.
///
/// The Result states are four elements wide (Figure 8: Result_0..3), so
/// one SOP emits at most four values; when union or merge would emit
/// more ("the instruction may write values from both input sets in one
/// operation", Section 5.3), consumption truncates and the leftover
/// elements stay in the windows for the next SOP. This output-width
/// limit is why union throughput trails the other operations (Table 2).
struct SopOutcome {
  int consume_a = 0;
  int consume_b = 0;
  std::array<uint32_t, 4> emit{};
  int emit_count = 0;
  int matches = 0;  // equal pairs seen by the comparator network
};

/// Functional model of the 4x4 all-to-all comparator network.
///
/// Consumption rule (identical for every mode): side A consumes every
/// element <= limit(B) and vice versa, where
///   limit(side)  = max of the side's window if it holds elements,
///                = +inf if the side's stream is fully drained,
///                = -inf otherwise (window empty but refill pending).
/// Consumed elements can be emitted safely: every element still in a
/// window or stream is strictly greater than the other side's consumed
/// prefix, so emission order is globally sorted.
///
/// Emission per mode over the consumed prefixes:
///   intersect:  values present in both (each exactly once)
///   union:      all values, duplicates across sides collapsed
///   difference: values of A not present in B
///   merge:      all values, duplicates preserved
///
/// `a_drained` / `b_drained` mean: no elements remain anywhere upstream
/// of the window (stream and Load states empty).
SopOutcome ComputeSop(SopMode mode, const Window& a, bool a_drained,
                      const Window& b, bool b_drained);

}  // namespace dba::eis

#endif  // DBA_EIS_SOP_H_
