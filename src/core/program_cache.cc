#include "core/program_cache.h"

#include "core/processor.h"
#include "dbkern/eis_kernels.h"
#include "dbkern/scalar_kernels.h"
#include "obs/metrics/metrics.h"

namespace dba {

namespace {

// Set operations (and the merge pair) key on their SopMode value,
// merge-sort on a sentinel outside it.
constexpr int kSortKey = 99;

}  // namespace

Result<std::shared_ptr<const ProgramCache>> ProgramCache::Build(
    const ProcessorOptions& options) {
  std::shared_ptr<ProgramCache> cache(new ProgramCache);
  cache->partial_loading_ = options.partial_loading;
  cache->unroll_ = options.unroll;

  auto add = [&cache](int key, bool scalar,
                      Result<isa::Program> built) -> Status {
    if (!built.ok()) return built.status();
    cache->programs_.emplace(std::make_pair(key, scalar), *std::move(built));
    return Status::Ok();
  };

  for (const eis::SopMode op :
       {eis::SopMode::kIntersect, eis::SopMode::kUnion,
        eis::SopMode::kDifference}) {
    const int key = static_cast<int>(op);
    DBA_RETURN_IF_ERROR(add(key, true, dbkern::BuildScalarSetOp(op)));
    DBA_RETURN_IF_ERROR(
        add(key, false,
            dbkern::BuildEisSetOp(op, options.partial_loading,
                                  options.unroll)));
  }
  const int merge_key = static_cast<int>(eis::SopMode::kMerge);
  DBA_RETURN_IF_ERROR(add(merge_key, true, dbkern::BuildScalarMergePair()));
  DBA_RETURN_IF_ERROR(add(merge_key, false, dbkern::BuildEisMergePair()));
  DBA_RETURN_IF_ERROR(add(kSortKey, true, dbkern::BuildScalarMergeSort()));
  DBA_RETURN_IF_ERROR(add(kSortKey, false, dbkern::BuildEisMergeSort()));
  static obs::Counter* const builds =
      obs::MetricsRegistry::Global().GetCounter(
          "dba_core_program_builds_total",
          "Kernel programs assembled into program caches (ten per "
          "cache).");
  builds->Increment(cache->programs_.size());
  return std::shared_ptr<const ProgramCache>(std::move(cache));
}

const isa::Program* ProgramCache::setop(eis::SopMode op, bool scalar) const {
  const auto it =
      programs_.find(std::make_pair(static_cast<int>(op), scalar));
  return it == programs_.end() ? nullptr : &it->second;
}

const isa::Program* ProgramCache::sort(bool scalar) const {
  const auto it = programs_.find(std::make_pair(kSortKey, scalar));
  return it == programs_.end() ? nullptr : &it->second;
}

}  // namespace dba
