#ifndef DBA_EIS_EIS_EXTENSION_H_
#define DBA_EIS_EIS_EXTENSION_H_

#include <cstdint>

#include "eis/fifo.h"
#include "eis/sop.h"
#include "sim/ext_op.h"
#include "sim/loop_accel.h"
#include "tie/tie_extension.h"

namespace dba::eis {

/// Extension-operation ids of the database instruction set (the EIS of
/// paper Section 4). Primitive instructions mirror Table 1; the fused
/// forms mirror the core loops of Figures 11 and 12.
namespace op {
inline constexpr uint16_t kInit = 0x200;          // states + pointers from ARs
inline constexpr uint16_t kLd0 = 0x201;           // LD for LSU0 / set A
inline constexpr uint16_t kLd1 = 0x202;           // LD for LSU1 / set B
inline constexpr uint16_t kLdP0 = 0x203;          // partial reload, set A
inline constexpr uint16_t kLdP1 = 0x204;          // partial reload, set B
inline constexpr uint16_t kSop = 0x205;           // sorted-set operation
inline constexpr uint16_t kStS = 0x206;           // result shuffle to Store
inline constexpr uint16_t kSt = 0x207;            // 128-bit result store
inline constexpr uint16_t kStoreSop = 0x208;      // fused ST + SOP (+flag)
inline constexpr uint16_t kLdLdpShuffle = 0x209;  // fused LD+LD_P+ST_S
inline constexpr uint16_t kFlush = 0x20A;         // drain results, count->a5
inline constexpr uint16_t kLdMerge = 0x20B;       // merge-sort load (+flag)
inline constexpr uint16_t kSortBeat = 0x20C;      // presort 4 elems (+flag)
}  // namespace op

/// INIT operand encoding: [1:0] SopMode, [2] partial loading enable.
constexpr uint16_t MakeInitOperand(SopMode mode, bool partial_loading) {
  return static_cast<uint16_t>(static_cast<uint16_t>(mode) |
                               (partial_loading ? 0x4 : 0));
}

/// Datapath activity counters (reset by INIT); used by tests and the
/// ablation benchmarks.
struct EisCounters {
  uint64_t sop_executions = 0;
  uint64_t elements_consumed = 0;
  uint64_t elements_emitted = 0;
  uint64_t matches = 0;
  uint64_t load_beats = 0;
  uint64_t store_beats = 0;
};

/// The database-specific instruction-set extension.
///
/// Datapath layout (paper Figures 8 and 9): per input set a Load state
/// FIFO (two beats deep) feeding a 4-element Word window; a 4x4
/// all-to-all comparator (SOP); a result FIFO with shuffle network
/// feeding 4-element Store states written back as 128-bit beats.
///
/// LSU assignment: set A loads on LSU0, set B loads on LSU1, result
/// stores on LSU1 (Figure 9). In merge-sort mode everything uses LSU0
/// (Section 4: "the LD instruction loads always from LSU0"). On a
/// single-LSU core the simulator folds all beats onto LSU0 and charges
/// the port-contention cycles automatically.
///
/// Also implements the simulator's LoopAccelerator interface: the
/// Figure 11 set-op loops and the Figure 12 merge loop run on the exact
/// cursor stepper (RunSetOpSteady), with the same semantics and the same
/// cycle arithmetic as the per-word path (pinned by the differential
/// test suite). Every other TIE loop -- the presort SORT_BEAT loop,
/// custom programs -- is declined and runs word by word on the core's
/// superblock loop, as does the rest of any loop the stepper hands back.
class EisExtension : public tie::TieExtension, public sim::LoopAccelerator {
 public:
  EisExtension();

  void ResetState() override;

  // --- sim::LoopAccelerator ---
  bool MatchesTieLoop(const sim::TieLoop& loop) const override;
  bool RunTieLoop(const sim::TieLoop& loop, sim::Cpu& cpu, bool exact,
                  uint64_t max_cycles, sim::ExecStats* stats) override;

  // --- Introspection for tests, the debug interface, and benches ---
  SopMode mode() const { return static_cast<SopMode>(mode_state_->Get()); }
  bool partial_loading() const { return partial_state_->Get() != 0; }
  bool active_flag() const { return active_state_->Get() != 0; }
  const Window& word_a() const { return a_.window; }
  const Window& word_b() const { return b_.window; }
  int load_fifo_a_size() const { return a_.load_fifo.size(); }
  int load_fifo_b_size() const { return b_.load_fifo.size(); }
  int result_fifo_size() const { return result_fifo_.size(); }
  int store_buffer_size() const { return store_count_; }
  uint32_t result_count() const { return c_count_; }
  const EisCounters& counters() const { return counters_; }

 private:
  /// One input stream: memory cursor, Load states, and Word window.
  struct StreamSide {
    uint64_t ptr = 0;        // next beat address (16-byte aligned)
    uint32_t remaining = 0;  // elements not yet loaded
    SmallFifo<uint32_t, 8> load_fifo;  // the Load_* states (2 beats)
    Window window;                     // the Word_* states

    /// True when nothing remains upstream of the window.
    bool upstream_empty() const {
      return remaining == 0 && load_fifo.empty();
    }
    /// True when the side holds no elements at all.
    bool drained() const { return upstream_empty() && window.empty(); }

    void Reset() {
      ptr = 0;
      remaining = 0;
      load_fifo.Clear();
      window = Window{};
    }
  };

  StreamSide& side(int index) { return index == 0 ? a_ : b_; }

  int LoadLsu(int side_index) const {
    return mode() == SopMode::kMerge ? 0 : side_index;
  }
  int StoreLsu() const { return mode() == SopMode::kMerge ? 0 : 1; }

  bool ContinueFlag() const;

  // Instruction semantics (shared by primitive and fused forms).
  Status Init(sim::ExtContext& ctx);
  Status Ld(sim::ExtContext& ctx, int side_index);
  void LdP(int side_index);
  Status Sop(sim::ExtContext& ctx);
  void StS();
  Status St(sim::ExtContext& ctx);
  Status Flush(sim::ExtContext& ctx);
  Status LdMerge(sim::ExtContext& ctx);
  Status SortBeat(sim::ExtContext& ctx);

  Status StorePack(sim::ExtContext& ctx, const std::array<uint32_t, 4>& pack);

  /// One EIS operation by id; every registered op dispatches through it.
  Status DispatchOp(uint16_t ext_id, sim::ExtContext& ctx);

  /// Cursor-based fast path for the steady-state loops: the set-op loop
  /// unroll x [STORE_SOP, LD_LDP_SHUFFLE] of Figure 11 and, in merge
  /// mode, the merge-sort loop unroll x [STORE_SOP, LD_MERGE] of
  /// Figure 12, each closed by a branch on the flag register. Executes
  /// whole iterations on raw memory views with integer FIFO/window
  /// occupancy modelling, writing result beats and accumulating into
  /// `stats` and the counters exactly what the per-word path would. Any
  /// case it cannot model bit-exactly -- a result-FIFO overflow, a beat
  /// or pack past its region's end, the watchdog margin, an output range
  /// that overlaps unread input, an unexpected entry state -- hands back
  /// to the per-word path at a word boundary (state synced, pc set), or
  /// declines if no word has run yet. Returns false when it declined,
  /// with nothing touched.
  ///
  /// With `exact` false (turbo mode) the steady region of a set-op loop
  /// additionally runs through a raw two-pointer bulk loop: results stay
  /// element-exact, but cycles and beat counts for the bulk segment are
  /// extrapolated linearly from a short calibration prefix of exact
  /// iterations. Merge loops stay exact in turbo.
  bool RunSetOpSteady(const sim::TieLoop& loop, sim::Cpu& cpu, bool exact,
                      uint64_t max_cycles, sim::ExecStats& stats);
  /// RunSetOpSteady for one SopMode (the mode INIT set).
  template <SopMode kMode>
  bool SteadyLoop(const sim::TieLoop& loop, sim::Cpu& cpu, bool exact,
                  uint64_t max_cycles, sim::ExecStats& stats);

  // TIE states (scalar configuration/flag states).
  tie::TieState* mode_state_;     // 2 bits
  tie::TieState* partial_state_;  // 1 bit
  tie::TieState* active_state_;   // 1 bit: loop-continuation flag

  // Datapath (the wide Load/Word/Result/Store states).
  StreamSide a_;
  StreamSide b_;
  SmallFifo<uint32_t, 32> result_fifo_;
  std::array<uint32_t, 4> store_buf_{};
  int store_count_ = 0;
  uint64_t c_ptr_ = 0;
  uint32_t c_count_ = 0;

  EisCounters counters_;
};

}  // namespace dba::eis

#endif  // DBA_EIS_EIS_EXTENSION_H_
