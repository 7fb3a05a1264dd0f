#ifndef DBA_CORE_PROGRAM_CACHE_H_
#define DBA_CORE_PROGRAM_CACHE_H_

#include <map>
#include <memory>
#include <utility>

#include "common/status.h"
#include "eis/sop.h"
#include "isa/program.h"

namespace dba {

struct ProcessorOptions;

/// All kernel programs a processor configuration can execute, built once
/// and shared read-only; every Processor reads its kernels from one. A
/// standalone processor builds its own, and a board of N identical cores
/// hands the same cache to every core -- the assembly output depends
/// only on the kernel options (partial loading, unroll), not on which
/// core runs it, and an immutable cache is safe to read from concurrent
/// host threads.
///
/// Contents: scalar and EIS variants of the three set operations, the
/// merge-pair kernel, and merge-sort (ten programs total).
class ProgramCache {
 public:
  /// Builds every kernel variant for `options`. The result is immutable.
  static Result<std::shared_ptr<const ProgramCache>> Build(
      const ProcessorOptions& options);

  ProgramCache(const ProgramCache&) = delete;
  ProgramCache& operator=(const ProgramCache&) = delete;

  /// The kernel options the cache was built with; a Processor refuses a
  /// cache whose options disagree with its own.
  bool partial_loading() const { return partial_loading_; }
  int unroll() const { return unroll_; }

  /// Never null: every (op, scalar) combination is built by Build.
  const isa::Program* setop(eis::SopMode op, bool scalar) const;
  const isa::Program* sort(bool scalar) const;

 private:
  ProgramCache() = default;

  bool partial_loading_ = true;
  int unroll_ = 1;
  std::map<std::pair<int, bool>, isa::Program> programs_;
};

}  // namespace dba

#endif  // DBA_CORE_PROGRAM_CACHE_H_
