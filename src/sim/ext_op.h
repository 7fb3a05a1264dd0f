#ifndef DBA_SIM_EXT_OP_H_
#define DBA_SIM_EXT_OP_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "isa/registers.h"
#include "mem/memory.h"

namespace dba::sim {

class Cpu;

/// Execution context handed to a TIE extension operation. It is the
/// hardware interface of an extension datapath:
///
///  - beats: 128-bit memory transactions issued through a load-store
///    unit. Multiple beats on the same LSU within one operation
///    serialize, costing one extra cycle each (port contention). An LSU
///    index beyond the configured count folds onto LSU 0 -- issuing the
///    same extension on a 1-LSU core automatically costs the extra port
///    cycles, which reproduces the DBA_1LSU_EIS vs DBA_2LSU_EIS gap.
///  - AR registers: extensions may read operands from and write results
///    (e.g. a loop-continuation flag) to the base register file.
///  - AddCycles: declares additional datapath cycles for multi-cycle
///    operations (e.g. draining a full result FIFO).
class ExtContext {
 public:
  ExtContext(Cpu* cpu, uint16_t operand) : cpu_(cpu), operand_(operand) {}

  ExtContext(const ExtContext&) = delete;
  ExtContext& operator=(const ExtContext&) = delete;

  uint16_t operand() const { return operand_; }

  // The accessors below run on every extension word; they are defined
  // inline in sim/cpu.h, where Cpu is complete.
  int num_lsus() const;
  uint32_t reg(isa::Reg r) const;
  void set_reg(isa::Reg r, uint32_t value);

  /// 128-bit aligned load/store through `lsu`. Requires a 128-bit data
  /// bus; fails with FailedPrecondition otherwise.
  Result<mem::Beat128> LoadBeat(int lsu, uint64_t addr);
  Status StoreBeat(int lsu, uint64_t addr, const mem::Beat128& beat);

  /// Narrow 32-bit access through `lsu` (counts as a full beat slot).
  Result<uint32_t> LoadWord(int lsu, uint64_t addr);
  Status StoreWord(int lsu, uint64_t addr, uint32_t value);

  /// Declares `extra` additional cycles consumed by this operation.
  void AddCycles(uint32_t extra) { extra_cycles_ += extra; }

 private:
  friend class Cpu;

  /// The memory backing an access of `bytes` at `addr`, with the access
  /// charged to `lsu` (folded onto LSU 0 when out of range); nullptr,
  /// charging nothing, when no region backs it.
  mem::Memory* Port(int lsu, uint64_t addr, uint64_t bytes);

  Cpu* cpu_;
  uint16_t operand_;
  uint32_t beats_[2] = {0, 0};
  uint32_t extra_cycles_ = 0;
};

/// Semantic function of one TIE extension operation.
using ExtOpFn = std::function<Status(ExtContext&)>;

}  // namespace dba::sim

#endif  // DBA_SIM_EXT_OP_H_
