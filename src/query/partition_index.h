#ifndef DBA_QUERY_PARTITION_INDEX_H_
#define DBA_QUERY_PARTITION_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

namespace dba::query {

/// A probe index over one sorted duplicate-free uint32 set, in one of
/// two forms chosen by the set's density.
///
/// A dense set -- one whose span (max - min + 1) is at most
/// kBitmapSpanPerValue times its size -- is a bitmap over [min, max]:
/// a probe is one bit test, and the bitmap is no larger than the
/// directory form's padded copy of the values (Lemire et al., PAPERS.md,
/// make the same case for dense sets).
///
/// A sparser set is a hierarchical skip/partition structure following
/// Ding & Koenig's "Fast Set Intersection in Memory": probing a value
/// touches a small directory, one partition summary, and one 16-value
/// block of a fixed-width partition instead of walking the whole set.
/// Three levels:
///
///   level 0  directory: value >> shift -> first candidate partition
///            (radix over the value domain, O(1))
///   level 1  partition summaries: the maximum value of each
///            kPartitionWidth-element slice (linear skip, short)
///   level 2  the slice itself, in kBlockWidth-value blocks: a skip to
///            the block that holds the probe's lower bound, then a
///            count of that block's values below the probe with one
///            compare per value and no branch (Lemire et al.'s
///            branch-free searches, PAPERS.md)
///
/// Intersect() streams a sorted probe set through the index. In either
/// form a probe writes itself to the next output slot and advances the
/// output by its membership bit, with no branch on the outcome. In the
/// directory form monotone partition and block cursors bound a probe to
/// a directory look-up, short skips (at most kPartitionWidth /
/// kBlockWidth blocks per slice, shared by all the slice's probes) and
/// kBlockWidth compares -- the partition-probe route of the query
/// planner (docs/PLANNER.md). Building is one O(n) pass; whether that
/// pass is worth paying is the engine's savings-accounting decision
/// (PartitionSavingsMeter), not the index's.
class PartitionIndex {
 public:
  /// Elements per level-2 slice. 256 keeps a slice within a few cache
  /// lines while the summaries stay 1/256th of the data.
  static constexpr uint32_t kPartitionWidth = 256;

  /// Bits of span per value up to which a set is stored as a bitmap:
  /// at 32 the bitmap holds no more bits than the 32-bit values.
  static constexpr uint64_t kBitmapSpanPerValue = 32;

  /// Builds the index over `sorted_values` (sorted, duplicate-free; the
  /// index keeps its own copy or bitmap, so it outlives the probe result
  /// it came from). An empty input yields an empty index.
  static PartitionIndex Build(std::span<const uint32_t> sorted_values);

  PartitionIndex() = default;

  size_t size() const { return size_; }
  /// Directory-form structure sizes: both 0 in the bitmap form.
  size_t num_partitions() const { return partition_max_.size(); }
  size_t directory_size() const { return directory_.size(); }
  /// Bits of the bitmap form, max - min + 1; 0 in the directory form.
  uint64_t bitmap_span() const {
    return bitmap_.empty() ? 0 : uint64_t{max_} - min_ + 1;
  }

  /// Membership probe for one value.
  bool Contains(uint32_t value) const;

  /// Sorted intersection of the (sorted, duplicate-free) probe set with
  /// the indexed set -- byte-identical to ScalarIntersect(probes, set).
  std::vector<uint32_t> Intersect(std::span<const uint32_t> probes) const;

 private:
  /// Values per level-2 block: one probe compares itself with every
  /// value of one block.
  static constexpr uint32_t kBlockWidth = 16;

  /// Whether value - min_ is a member (bitmap form; the offset must be
  /// below bitmap_span()).
  bool TestBit(uint32_t offset) const {
    return (bitmap_[offset >> 6] >> (offset & 63)) & 1;
  }

  std::vector<uint32_t> IntersectBitmap(
      std::span<const uint32_t> probes) const;
  std::vector<uint32_t> IntersectDirectory(
      std::span<const uint32_t> probes) const;

  /// Index of the first partition whose maximum is >= value, starting
  /// the scan at `from` (monotone cursor for sorted probe streams).
  size_t FindPartition(uint32_t value, size_t from) const;

  size_t size_ = 0;   // indexed values
  uint32_t min_ = 0;  // smallest and largest indexed value
  uint32_t max_ = 0;

  // Bitmap form: bit v - min_ is set for each member v.
  std::vector<uint64_t> bitmap_;

  // Directory form: the indexed sorted set, padded with 0xFFFFFFFF to
  // whole blocks so every block holds kBlockWidth readable values.
  std::vector<uint32_t> values_;
  std::vector<uint32_t> partition_max_;  // level 1: max of each slice
  std::vector<uint32_t> directory_;      // level 0: radix -> partition
  uint32_t shift_ = 32;                  // directory radix shift
};

/// Savings accounting for lazily materializing a PartitionIndex (the
/// self-building-index idiom: an index is built only once the queries
/// that would have used it have "missed" enough savings to amortize the
/// build). The engine records, per column, the cost difference between
/// the route it had to take and the partition-probe route it could have
/// taken; once the accumulated missed savings reach
/// payback_factor * build_cost the meter trips, the index is built, and
/// the build cost is deducted (so a column must keep earning to justify
/// further indexes).
class PartitionSavingsMeter {
 public:
  /// Records one missed opportunity worth `savings_ns` against a build
  /// estimated at `build_cost_ns`. Returns true when the accumulated
  /// savings reach `payback_factor * build_cost_ns` -- the caller should
  /// build the index now and call ChargeBuild().
  bool RecordMiss(double savings_ns, double build_cost_ns,
                  double payback_factor);

  /// Deducts the paid build cost after a build.
  void ChargeBuild(double build_cost_ns);

  double missed_savings_ns() const { return missed_savings_ns_; }
  double last_build_cost_ns() const { return last_build_cost_ns_; }
  uint32_t misses_recorded() const { return misses_recorded_; }

 private:
  double missed_savings_ns_ = 0;
  double last_build_cost_ns_ = 0;
  uint32_t misses_recorded_ = 0;
};

}  // namespace dba::query

#endif  // DBA_QUERY_PARTITION_INDEX_H_
