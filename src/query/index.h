#ifndef DBA_QUERY_INDEX_H_
#define DBA_QUERY_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/table.h"

namespace dba::query {

/// A secondary index over one column: (value, rid) pairs sorted by
/// (value, rid). Probes return **sorted RID lists** -- the inputs of the
/// paper's set operations ("RID sets, which are obtained from secondary
/// indices when complex selection predicates within the WHERE clause are
/// specified", Section 2.3).
class SecondaryIndex {
 public:
  /// Builds the index over `column_name` of `table`: a stable radix
  /// sort, O(n) per 8-bit digit in which the values differ.
  static Result<SecondaryIndex> Build(const Table& table,
                                      std::string column_name);

  const std::string& column_name() const { return column_name_; }
  uint32_t num_entries() const { return static_cast<uint32_t>(rids_.size()); }

  /// The index entries with lo <= value <= hi: their RIDs in entry
  /// order, a view into the index that lives as long as it does.
  struct Slice {
    std::span<const Rid> rids;
    /// The entries hold at most one distinct value, so `rids` already is
    /// the sorted RID set (Build keeps each value's RIDs ascending).
    bool single_value = true;

    /// The sorted RID set as a vector the caller owns: a copy, sorted
    /// when the slice spans several values.
    std::vector<Rid> SortedCopy() const;
  };
  /// The entries with lo <= value <= hi (none when lo > hi).
  Slice Lookup(uint32_t lo, uint32_t hi) const;

  /// RIDs of rows with column == value.
  std::vector<Rid> ProbeEquals(uint32_t value) const;

  /// RIDs of rows with lo <= column <= hi (inclusive range).
  std::vector<Rid> ProbeRange(uint32_t lo, uint32_t hi) const;

  /// All RIDs (sorted) -- the domain for NOT at the top level.
  std::vector<Rid> AllRids() const;

  /// Smallest and largest indexed value (for statistics / planning).
  Result<uint32_t> MinValue() const;
  Result<uint32_t> MaxValue() const;

 private:
  SecondaryIndex(std::string column_name, std::vector<uint32_t> values,
                 std::vector<Rid> rids, uint32_t num_rows)
      : column_name_(std::move(column_name)),
        values_(std::move(values)),
        rids_(std::move(rids)),
        num_rows_(num_rows) {}

  std::string column_name_;
  std::vector<uint32_t> values_;  // sorted
  std::vector<Rid> rids_;         // parallel to values_
  uint32_t num_rows_;
};

}  // namespace dba::query

#endif  // DBA_QUERY_INDEX_H_
