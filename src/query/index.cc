#include "query/index.h"

#include <algorithm>
#include <array>
#include <numeric>

namespace dba::query {

Result<SecondaryIndex> SecondaryIndex::Build(const Table& table,
                                             std::string column_name) {
  DBA_ASSIGN_OR_RETURN(std::span<const uint32_t> column,
                       table.Column(column_name));
  // A stable LSD radix sort of the (value, rid) pairs on 8-bit digits.
  // The RIDs start ascending and every pass is stable, so the pairs end
  // ordered by (value, rid). The passes move RIDs only and read each
  // value from the column, so one scratch array serves every pass and
  // the build never holds more than two n-entry arrays. A digit that
  // every value shares leaves the order as it is, so its pass is
  // skipped.
  const size_t n = column.size();
  std::vector<Rid> rids(n);
  std::iota(rids.begin(), rids.end(), 0u);
  uint32_t any_set = 0;
  uint32_t all_set = ~0u;
  for (const uint32_t value : column) {
    any_set |= value;
    all_set &= value;
  }
  const uint32_t varying = any_set ^ all_set;
  {
    std::vector<Rid> scratch(varying == 0 ? 0 : n);
    for (uint32_t shift = 0; shift < 32; shift += 8) {
      if (((varying >> shift) & 0xFF) == 0) continue;
      std::array<uint32_t, 256> next{};  // digit -> next output slot
      for (const uint32_t value : column) ++next[(value >> shift) & 0xFF];
      uint32_t offset = 0;
      for (uint32_t& slot : next) {
        const uint32_t count = slot;
        slot = offset;
        offset += count;
      }
      for (const Rid rid : rids) {
        scratch[next[(column[rid] >> shift) & 0xFF]++] = rid;
      }
      rids.swap(scratch);
    }
  }
  std::vector<uint32_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = column[rids[i]];
  return SecondaryIndex(std::move(column_name), std::move(values),
                        std::move(rids), table.num_rows());
}

std::vector<Rid> SecondaryIndex::ProbeEquals(uint32_t value) const {
  return ProbeRange(value, value);
}

SecondaryIndex::Slice SecondaryIndex::Lookup(uint32_t lo, uint32_t hi) const {
  if (lo > hi) return {};
  const auto begin = std::lower_bound(values_.begin(), values_.end(), lo);
  const auto end = std::upper_bound(begin, values_.end(), hi);
  const size_t first = static_cast<size_t>(begin - values_.begin());
  const size_t count = static_cast<size_t>(end - begin);
  return {std::span<const Rid>(rids_).subspan(first, count),
          count == 0 || *begin == *(end - 1)};
}

std::vector<Rid> SecondaryIndex::Slice::SortedCopy() const {
  std::vector<Rid> sorted(rids.begin(), rids.end());
  // Entries are ordered by (value, rid), so only a slice spanning
  // several values needs a RID sort to produce the canonical sorted set.
  if (!single_value) std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::vector<Rid> SecondaryIndex::ProbeRange(uint32_t lo, uint32_t hi) const {
  return Lookup(lo, hi).SortedCopy();
}

std::vector<Rid> SecondaryIndex::AllRids() const {
  std::vector<Rid> rids(num_rows_);
  std::iota(rids.begin(), rids.end(), 0u);
  return rids;
}

Result<uint32_t> SecondaryIndex::MinValue() const {
  if (values_.empty()) return Status::FailedPrecondition("empty index");
  return values_.front();
}

Result<uint32_t> SecondaryIndex::MaxValue() const {
  if (values_.empty()) return Status::FailedPrecondition("empty index");
  return values_.back();
}

}  // namespace dba::query
