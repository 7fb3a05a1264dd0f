#ifndef DBA_TESTS_SHARED_SCAN_SELECT_H_
#define DBA_TESTS_SHARED_SCAN_SELECT_H_

// The column-scan oracle of the query suites: a predicate evaluated row
// by row against the table, with no index, set operation or planner.

#include <vector>

#include "query/predicate.h"
#include "query/table.h"

namespace dba::query::test {

inline bool RowMatches(const Table& table, const Predicate& predicate,
                       Rid rid) {
  if (predicate.is_leaf()) {
    const uint32_t value = *table.Value(predicate.column, rid);
    return value >= predicate.lo && value <= predicate.hi;
  }
  switch (predicate.kind) {
    case Predicate::Kind::kNot:
      return !RowMatches(table, *predicate.children[0], rid);
    case Predicate::Kind::kAnd:
      for (const auto& child : predicate.children) {
        if (!RowMatches(table, *child, rid)) return false;
      }
      return true;
    case Predicate::Kind::kOr:
      for (const auto& child : predicate.children) {
        if (RowMatches(table, *child, rid)) return true;
      }
      return false;
    default:
      return false;
  }
}

/// The sorted RIDs of the rows that satisfy `predicate`.
inline std::vector<Rid> ScanSelect(const Table& table,
                                   const Predicate& predicate) {
  std::vector<Rid> rids;
  for (Rid rid = 0; rid < table.num_rows(); ++rid) {
    if (RowMatches(table, predicate, rid)) rids.push_back(rid);
  }
  return rids;
}

}  // namespace dba::query::test

#endif  // DBA_TESTS_SHARED_SCAN_SELECT_H_
