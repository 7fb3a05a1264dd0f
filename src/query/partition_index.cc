#include "query/partition_index.h"

#include <algorithm>
#include <bit>

namespace dba::query {

PartitionIndex PartitionIndex::Build(std::span<const uint32_t> sorted_values) {
  PartitionIndex index;
  const size_t n = sorted_values.size();
  if (n == 0) return index;
  index.size_ = n;
  index.min_ = sorted_values.front();
  index.max_ = sorted_values.back();
  // In 64 bits: {0, 0xFFFFFFFF} spans 2^32, which wraps to 0 in 32.
  const uint64_t span = uint64_t{index.max_} - index.min_ + 1;
  if (span <= kBitmapSpanPerValue * n) {
    index.bitmap_.assign((span + 63) / 64, 0);
    for (const uint32_t value : sorted_values) {
      const uint32_t offset = value - index.min_;
      index.bitmap_[offset >> 6] |= uint64_t{1} << (offset & 63);
    }
    return index;
  }

  // The padding is never below a probe, so it never adds to a block's
  // count, and Intersect only looks up probes up to the largest indexed
  // value, so a padding slot is never taken for a match.
  const size_t padded = (n + kBlockWidth - 1) / kBlockWidth * kBlockWidth;
  index.values_.reserve(padded);
  index.values_.assign(sorted_values.begin(), sorted_values.end());
  index.values_.resize(padded, 0xFFFFFFFFu);

  const size_t partitions = (n + kPartitionWidth - 1) / kPartitionWidth;
  index.partition_max_.reserve(partitions);
  for (size_t p = 0; p < partitions; ++p) {
    const size_t end = std::min(n, (p + 1) * static_cast<size_t>(
                                                kPartitionWidth));
    index.partition_max_.push_back(index.values_[end - 1]);
  }

  // Directory radix: enough entries that each maps to O(1) partitions on
  // a uniform domain, capped so the directory never dominates the index.
  size_t dir_bits = std::bit_width(partitions) + 1;
  if (dir_bits > 20) dir_bits = 20;
  const uint32_t value_bits = std::bit_width(index.max_);
  index.shift_ =
      value_bits > dir_bits ? value_bits - static_cast<uint32_t>(dir_bits) : 0;
  const size_t dir_size = (static_cast<size_t>(index.max_) >> index.shift_) + 2;
  index.directory_.resize(dir_size);
  // directory_[d] = first partition whose maximum reaches radix bucket d.
  size_t partition = 0;
  for (size_t d = 0; d < dir_size; ++d) {
    while (partition < partitions &&
           (static_cast<size_t>(index.partition_max_[partition]) >>
            index.shift_) < d) {
      ++partition;
    }
    index.directory_[d] = static_cast<uint32_t>(partition);
  }
  return index;
}

size_t PartitionIndex::FindPartition(uint32_t value, size_t from) const {
  const size_t bucket = static_cast<size_t>(value) >> shift_;
  size_t p = bucket < directory_.size() ? directory_[bucket]
                                        : partition_max_.size();
  if (p < from) p = from;  // keep the monotone cursor
  while (p < partition_max_.size() && partition_max_[p] < value) ++p;
  return p;
}

bool PartitionIndex::Contains(uint32_t value) const {
  if (!bitmap_.empty()) {
    return value >= min_ && value <= max_ && TestBit(value - min_);
  }
  return !Intersect(std::span<const uint32_t>(&value, 1)).empty();
}

std::vector<uint32_t> PartitionIndex::Intersect(
    std::span<const uint32_t> probes) const {
  if (size_ == 0 || probes.empty()) return {};
  // In both forms every probe is written at the next output slot, which
  // only a match keeps: the slot never runs ahead of the probe's own
  // position.
  return bitmap_.empty() ? IntersectDirectory(probes)
                         : IntersectBitmap(probes);
}

std::vector<uint32_t> PartitionIndex::IntersectBitmap(
    std::span<const uint32_t> probes) const {
  // Only probes in [min_, max_] can match, and each of them has a bit.
  const auto first = std::lower_bound(probes.begin(), probes.end(), min_);
  const auto last = std::upper_bound(first, probes.end(), max_);
  std::vector<uint32_t> out(static_cast<size_t>(last - first));
  size_t matches = 0;
  for (auto probe = first; probe != last; ++probe) {
    out[matches] = *probe;
    matches += TestBit(*probe - min_) ? 1u : 0u;
  }
  out.resize(matches);
  return out;
}

std::vector<uint32_t> PartitionIndex::IntersectDirectory(
    std::span<const uint32_t> probes) const {
  std::vector<uint32_t> out(probes.size());
  size_t matches = 0;
  size_t partition = 0;
  size_t block = 0;  // monotone cursor: first position of a block
  for (const uint32_t value : probes) {
    if (value > max_) break;
    partition = FindPartition(value, partition);
    // The partition's maximum (or the padding after a short last slice)
    // ends its last block, so the skip stays inside the partition.
    block = std::max(block, partition * kPartitionWidth);
    while (values_[block + kBlockWidth - 1] < value) block += kBlockWidth;
    // The block holds the probe's lower bound: count its values below
    // the probe, one compare per lane and no branch.
    const uint32_t* lanes = values_.data() + block;
    uint32_t below = 0;
    for (uint32_t lane = 0; lane < kBlockWidth; ++lane) {
      below += lanes[lane] < value ? 1u : 0u;
    }
    out[matches] = value;
    matches += lanes[below] == value ? 1u : 0u;
  }
  out.resize(matches);
  return out;
}

bool PartitionSavingsMeter::RecordMiss(double savings_ns,
                                       double build_cost_ns,
                                       double payback_factor) {
  if (savings_ns <= 0) return false;
  missed_savings_ns_ += savings_ns;
  last_build_cost_ns_ = build_cost_ns;
  ++misses_recorded_;
  return missed_savings_ns_ >= payback_factor * build_cost_ns;
}

void PartitionSavingsMeter::ChargeBuild(double build_cost_ns) {
  missed_savings_ns_ -= build_cost_ns;
  if (missed_savings_ns_ < 0) missed_savings_ns_ = 0;
}

}  // namespace dba::query
