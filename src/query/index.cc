#include "query/index.h"

#include <algorithm>
#include <numeric>

namespace dba::query {

Result<SecondaryIndex> SecondaryIndex::Build(const Table& table,
                                             std::string column_name) {
  DBA_ASSIGN_OR_RETURN(std::span<const uint32_t> column,
                       table.Column(column_name));
  std::vector<Rid> order(column.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&column](Rid x, Rid y) {
    return column[x] < column[y];
  });
  std::vector<uint32_t> values(column.size());
  for (size_t i = 0; i < order.size(); ++i) values[i] = column[order[i]];
  return SecondaryIndex(std::move(column_name), std::move(values),
                        std::move(order), table.num_rows());
}

std::vector<Rid> SecondaryIndex::ProbeEquals(uint32_t value) const {
  return ProbeRange(value, value);
}

std::vector<Rid> SecondaryIndex::ProbeRange(uint32_t lo, uint32_t hi) const {
  if (lo > hi) return {};
  const auto begin =
      std::lower_bound(values_.begin(), values_.end(), lo) - values_.begin();
  const auto end =
      std::upper_bound(values_.begin(), values_.end(), hi) - values_.begin();
  std::vector<Rid> rids(rids_.begin() + begin, rids_.begin() + end);
  // Entries are ordered by (value, rid): Build's stable sort keeps the
  // RIDs of one value ascending, so only a range spanning several values
  // needs a final RID sort to produce the canonical sorted RID set.
  if (end > begin && values_[static_cast<size_t>(begin)] !=
                         values_[static_cast<size_t>(end - 1)]) {
    std::sort(rids.begin(), rids.end());
  }
  return rids;
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
