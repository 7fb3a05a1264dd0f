#include "eis/eis_extension.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <iterator>
#include <string_view>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/bits.h"
#include "eis/networks.h"
#include "isa/registers.h"
#include "obs/metrics/metrics.h"
#include "sim/cpu.h"

namespace dba::eis {

using isa::Reg;
using sim::ExtContext;

namespace {

Reg FlagReg(const ExtContext& ctx) {
  return isa::RegFromIndex(ctx.operand() & 0xF);
}

/// True when the loop body is a fused steady state: unroll x
/// [STORE_SOP(flag), load word] with one flag register, closed by a
/// conditional branch on that flag. The load word is LD_LDP_SHUFFLE for
/// the set operations (Figure 11) and LD_MERGE, which writes the same
/// flag, for the merge-sort loop (Figure 12). Returns the flag register
/// index via *flag_index.
bool MatchSteadyLoopShape(const sim::TieLoop& loop, uint16_t load_op,
                          int* flag_index) {
  const size_t body_len = loop.body.size();
  if (body_len < 2 || body_len % 2 != 0) return false;
  const int flag = loop.body[0].operand & 0xF;
  for (size_t k = 0; k < body_len; k += 2) {
    if (loop.body[k].ext_id != op::kStoreSop ||
        (loop.body[k].operand & 0xF) != flag ||
        loop.body[k + 1].ext_id != load_op ||
        (load_op == op::kLdMerge &&
         (loop.body[k + 1].operand & 0xF) != flag)) {
      return false;
    }
  }
  const Reg flag_reg = isa::RegFromIndex(flag);
  if (loop.branch.rs1 != flag_reg || loop.branch.rs2 == flag_reg) {
    return false;
  }
  *flag_index = flag;
  return true;
}

/// Mode-specialized rewrite of ComputeSop for the steady-state stepper,
/// operating directly on the raw window slices (no Window copies, no
/// bounds checks, mode dispatched at compile time). Semantics are
/// mirrored line for line from ComputeSop -- consumption limits, the
/// two-pointer order, and the four-element emission truncation -- and
/// pinned to it by the differential test suite. Result slot k lands in
/// ring[(at + k) & 63]; the slots just past the emitted ones are scratch.
/// An SOP form writes up to eight slots from `at` (this one at most
/// five, SimdSopUnion up to eight).
struct SteadySopOutcome {
  int consume_a = 0;
  int consume_b = 0;
  int emit_count = 0;
  int matches = 0;
};

template <SopMode kMode>
inline SteadySopOutcome SteadySop(const uint32_t* pa, int wa, bool ue_a,
                                  const uint32_t* pb, int wb, bool ue_b,
                                  uint32_t* ring, uint64_t at) {
  SteadySopOutcome out;
  const auto emit = [ring, at](int slot, uint32_t value) {
    ring[(at + static_cast<uint64_t>(slot)) & 63] = value;
  };
  int limit_a = 0;
  int limit_b = 0;
  if (wb > 0) {
    const uint32_t mx = pb[wb - 1];
    for (int i = 0; i < wa; ++i) limit_a += pa[i] <= mx ? 1 : 0;
  } else {
    limit_a = ue_b ? wa : 0;
  }
  if (wa > 0) {
    const uint32_t mx = pa[wa - 1];
    for (int j = 0; j < wb; ++j) limit_b += pb[j] <= mx ? 1 : 0;
  } else {
    limit_b = ue_a ? wb : 0;
  }
  // Mostly-branchless merge: element advances and the emission counter
  // move by flag arithmetic; the only data-dependent branch is the
  // rarely-taken four-element emission truncation (same semantics as
  // the datapath: the word stops *before* consuming the element whose
  // emission would not fit).
  int i = 0;
  int j = 0;
  bool truncated = false;
  while (i < limit_a && j < limit_b) {
    const uint32_t va = pa[i];
    const uint32_t vb = pb[j];
    const bool eq = va == vb;
    const bool ale = va <= vb;
    const bool ble = vb <= va;
    int want;  // Result slots this step fills
    uint32_t value;
    if constexpr (kMode == SopMode::kIntersect) {
      want = eq ? 1 : 0;
      value = va;
    } else if constexpr (kMode == SopMode::kUnion) {
      want = 1;
      value = ale ? va : vb;
    } else if constexpr (kMode == SopMode::kDifference) {
      want = ale && !eq ? 1 : 0;
      value = va;
    } else {
      // Merge keeps both copies of a matched pair: two Result slots.
      want = eq ? 2 : 1;
      value = ale ? va : vb;
    }
    if (out.emit_count + want > 4) {
      truncated = true;
      break;
    }
    emit(out.emit_count, value);
    if constexpr (kMode == SopMode::kMerge) emit(out.emit_count + 1, value);
    out.emit_count += want;
    out.matches += eq ? 1 : 0;
    i += ale ? 1 : 0;
    j += ble ? 1 : 0;
  }
  if (!truncated) {
    if (i < limit_a) {
      // B exhausted within its limit: the rest of A is unmatched.
      if constexpr (kMode == SopMode::kIntersect) {
        i = limit_a;  // consumed without emission
      } else {
        while (i < limit_a && out.emit_count < 4) emit(out.emit_count++, pa[i++]);
      }
    } else if (j < limit_b) {
      if constexpr (kMode == SopMode::kUnion || kMode == SopMode::kMerge) {
        while (j < limit_b && out.emit_count < 4) emit(out.emit_count++, pb[j++]);
      } else {
        j = limit_b;  // consumed without emission
      }
    }
  }
  out.consume_a = i;
  out.consume_b = j;
  return out;
}

/// Raw cursor over one input stream of the stepper. The window is the
/// element slice [consumed, consumed+win), the Load states the slice
/// behind it; both are contiguous prefixes of the stream, so integer
/// occupancy plus one base pointer reproduce the SmallFifo/Window
/// structures exactly.
struct Cursor {
  const uint32_t* data = nullptr;  // whole backing region as words
  size_t words = 0;                // region size in words
  uint64_t base = 0;               // region base address
  size_t pos = 0;                  // word index of ptr (next beat)
  size_t consumed = 0;             // word index of the window start
  uint32_t rem = 0;
  int win = 0;
  int fifo = 0;
  uint32_t lat = 1;
  bool has_span = false;
};

#if defined(__x86_64__)

/// Shuffle-control table for compacting the matched lanes of a 4x32
/// vector in order: entry m selects the dwords whose bit is set in m.
struct CompactTable {
  alignas(16) uint8_t ctl[16][16];
};
constexpr CompactTable MakeCompactTable() {
  CompactTable t{};
  for (int m = 0; m < 16; ++m) {
    int k = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((m & (1 << lane)) == 0) continue;
      for (int byte = 0; byte < 4; ++byte) {
        t.ctl[m][4 * k + byte] = static_cast<uint8_t>(4 * lane + byte);
      }
      ++k;
    }
    for (; k < 4; ++k) {
      for (int byte = 0; byte < 4; ++byte) t.ctl[m][4 * k + byte] = 0x80;
    }
  }
  return t;
}
alignas(16) constexpr CompactTable kCompact = MakeCompactTable();

/// Block-wise SIMD intersection of two strictly increasing runs: each
/// round compares a 4-element block of A against all rotations of a
/// 4-element block of B, compact-stores the matched A lanes, and
/// retires the block with the smaller maximum. Emitted elements and
/// order are identical to the scalar two-pointer on strictly
/// increasing inputs; the in-loop monotonicity probe (block vs block
/// shifted by one) bails to the scalar path the moment either stream
/// is not strictly increasing, so duplicate-bearing inputs fall back
/// to the exact pairwise semantics. Writes go straight into the
/// emission stream at `*eo`; the caller folds them into ring/pack
/// state. Requires ia/ib >= 1 (the shifted monotonicity loads).
__attribute__((target("ssse3,popcnt"))) inline void SimdIntersectRun(
    const uint32_t* A, size_t la, const uint32_t* B, size_t lb, size_t* pia,
    size_t* pib, uint32_t* out, size_t* eo, size_t eo_limit,
    uint64_t element_budget, uint64_t* pmatches) {
  size_t ia = *pia;
  size_t ib = *pib;
  size_t o = *eo;
  uint64_t matches = *pmatches;
  const size_t ia0 = ia;
  const size_t ib0 = ib;
  // The hot loop runs a precomputed number of rounds with no bounds
  // checks: every round advances at least one side by a whole block
  // and emits at most one, so each budget converts to a safe round
  // count; the outer loop re-derives the counts until one budget is
  // spent (or a monotonicity violation bails to the scalar path).
  for (;;) {
    const uint64_t consumed = (ia - ia0) + (ib - ib0);
    if (consumed >= element_budget) break;
    size_t rounds = std::min((la - ia) / 4, (lb - ib) / 4);
    rounds = std::min(rounds, eo_limit > o ? (eo_limit - o) / 4 : 0);
    rounds = std::min<size_t>(
        rounds, static_cast<size_t>((element_budget - consumed) / 4) + 1);
    if (rounds == 0) break;
    bool monotone = true;
    for (size_t t = 0; t < rounds; ++t) {
      const __m128i va =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(A + ia));
      const __m128i vb =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(B + ib));
      const __m128i prev_a =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(A + ia - 1));
      const __m128i prev_b =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(B + ib - 1));
      const __m128i dup = _mm_or_si128(_mm_cmpeq_epi32(va, prev_a),
                                       _mm_cmpeq_epi32(vb, prev_b));
      if (_mm_movemask_epi8(dup) != 0) {
        monotone = false;
        break;
      }
      __m128i m = _mm_cmpeq_epi32(va, vb);
      m = _mm_or_si128(m, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x39)));
      m = _mm_or_si128(m, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x4E)));
      m = _mm_or_si128(m, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x93)));
      const int mask = _mm_movemask_ps(_mm_castsi128_ps(m));
      const __m128i comp = _mm_shuffle_epi8(
          va, _mm_load_si128(
                  reinterpret_cast<const __m128i*>(kCompact.ctl[mask])));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + o), comp);
      const int n = __builtin_popcount(static_cast<unsigned>(mask));
      o += static_cast<size_t>(n);
      matches += static_cast<uint64_t>(n);
      const uint32_t amax = A[ia + 3];
      const uint32_t bmax = B[ib + 3];
      ia += amax <= bmax ? 4 : 0;
      ib += bmax <= amax ? 4 : 0;
    }
    if (!monotone) break;
  }
  *pia = ia;
  *pib = ib;
  *eo = o;
  *pmatches = matches;
}

/// SIMD form of one exact intersect or difference SOP word over two full
/// windows. Valid because neither op truncates its emission (an A lane
/// emits at most once, a B lane never) and the two-pointer always
/// consumes exactly to the consumption limits; the emitted values are
/// the A lanes within A's limit that match a B lane (intersect) or match
/// none (difference), in order, written to ring[(at + k) & 63] as in
/// SteadySop. Needs a strictly increasing A window (the monotone-stream
/// case; anything else returns false and takes the scalar path with
/// exact pairwise semantics); duplicates inside B only repeat a match.
template <SopMode kMode>
__attribute__((target("ssse3,popcnt"))) inline bool SimdSopFilter(
    const uint32_t* pa, const uint32_t* pb, uint32_t* ring, uint64_t at,
    SteadySopOutcome* out) {
  static_assert(kMode == SopMode::kIntersect ||
                kMode == SopMode::kDifference);
  if (!(pa[0] < pa[1] && pa[1] < pa[2] && pa[2] < pa[3])) return false;
  const uint32_t amax = pa[3];
  const uint32_t bmax = pb[3];
  int limit_a = 0;
  for (int i = 0; i < 4; ++i) limit_a += pa[i] <= bmax ? 1 : 0;
  int limit_b = 0;
  for (int j = 0; j < 4; ++j) limit_b += pb[j] <= amax ? 1 : 0;
  const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pa));
  const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb));
  __m128i m = _mm_cmpeq_epi32(va, vb);
  m = _mm_or_si128(m, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x39)));
  m = _mm_or_si128(m, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x4E)));
  m = _mm_or_si128(m, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x93)));
  const int limit_mask = (1 << limit_a) - 1;
  const int matched = _mm_movemask_ps(_mm_castsi128_ps(m)) & limit_mask;
  const int keep =
      kMode == SopMode::kIntersect ? matched : ~matched & limit_mask;
  const __m128i comp = _mm_shuffle_epi8(
      va,
      _mm_load_si128(reinterpret_cast<const __m128i*>(kCompact.ctl[keep])));
  alignas(16) uint32_t lanes[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), comp);
  for (int k = 0; k < 4; ++k) {
    ring[(at + static_cast<uint64_t>(k)) & 63] = lanes[k];
  }
  out->emit_count = __builtin_popcount(static_cast<unsigned>(keep));
  out->matches = __builtin_popcount(static_cast<unsigned>(matched));
  out->consume_a = limit_a;
  out->consume_b = limit_b;
  return true;
}

/// Rank terms of one rotation of the other window: lanes of `other`
/// strictly below each lane of `self` are added to *below (as -1 masks,
/// hence the subtraction), equal lanes or-ed into *equal. Both operands
/// carry their sign bit flipped, so the signed compare orders them as
/// unsigned values.
template <int kRotation>
inline void RankAgainst(__m128i self, __m128i other, __m128i* below,
                        __m128i* equal) {
  const __m128i rotated = _mm_shuffle_epi32(other, kRotation);
  *below = _mm_sub_epi32(*below, _mm_cmpgt_epi32(self, rotated));
  *equal = _mm_or_si128(*equal, _mm_cmpeq_epi32(self, rotated));
}

/// Each lane's rank terms against all four lanes of the other window:
/// how many lie strictly below it, and whether one equals it.
struct WindowRanks {
  __m128i below_a;
  __m128i equal_a;
  __m128i below_b;
  __m128i equal_b;
};

inline WindowRanks RankWindows(__m128i sa, __m128i sb) {
  WindowRanks r{_mm_setzero_si128(), _mm_setzero_si128(),
                _mm_setzero_si128(), _mm_setzero_si128()};
  RankAgainst<0xE4>(sa, sb, &r.below_a, &r.equal_a);
  RankAgainst<0x39>(sa, sb, &r.below_a, &r.equal_a);
  RankAgainst<0x4E>(sa, sb, &r.below_a, &r.equal_a);
  RankAgainst<0x93>(sa, sb, &r.below_a, &r.equal_a);
  RankAgainst<0xE4>(sb, sa, &r.below_b, &r.equal_b);
  RankAgainst<0x39>(sb, sa, &r.below_b, &r.equal_b);
  RankAgainst<0x4E>(sb, sa, &r.below_b, &r.equal_b);
  RankAgainst<0x93>(sb, sa, &r.below_b, &r.equal_b);
  return r;
}

/// One compare-exchange stage of a sorting network on sign-flipped lanes:
/// each lane meets the lane `kPartner` names, the lanes set in `low`
/// keep the smaller value and the others the larger.
template <int kPartner>
inline __m128i CompareExchange(__m128i v, __m128i low) {
  const __m128i partner = _mm_shuffle_epi32(v, kPartner);
  const __m128i v_greater = _mm_cmpgt_epi32(v, partner);
  const __m128i smaller = _mm_or_si128(_mm_and_si128(v_greater, partner),
                                       _mm_andnot_si128(v_greater, v));
  const __m128i larger = _mm_or_si128(_mm_andnot_si128(v_greater, partner),
                                      _mm_and_si128(v_greater, v));
  return _mm_or_si128(_mm_and_si128(low, smaller),
                      _mm_andnot_si128(low, larger));
}

/// Bit counts of the 4-bit lane masks _mm_movemask_ps returns.
constexpr int kLaneCount[16] = {0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4};

inline int LaneCount(__m128i mask) {
  return kLaneCount[_mm_movemask_ps(_mm_castsi128_ps(mask))];
}

/// SIMD form of one exact merge SOP word over two full windows (SSE2, so
/// it needs no CPU check). The two-pointer walk of SteadySop consumes in
/// value order, a matched pair as one step that fills two Result slots,
/// and stops at the first step that does not fit the four; so a lane is
/// consumed exactly when its step ends within the four slots. A lane
/// past its side's consumption limit exceeds the other window's maximum,
/// so at least four lanes rank before it and the limits need no mask.
/// The emitted values are the smallest of the eight lanes in order:
/// a ++ reverse(b) is bitonic, its lane-wise minimum holds the four
/// smallest, and two half-cleaners sort them. The ranks count a
/// duplicate inside one side against the other side only when nothing
/// matches across the sides; with both (in a sort's runs) this returns
/// false, writing nothing, and SteadySop runs the word.
inline bool SimdSopMerge(const uint32_t* pa, const uint32_t* pb,
                         uint32_t* ring, uint64_t at, SteadySopOutcome* out) {
  const __m128i sign = _mm_set1_epi32(INT32_MIN);
  const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pa));
  const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb));
  const __m128i sa = _mm_xor_si128(va, sign);
  const __m128i sb = _mm_xor_si128(vb, sign);
  const auto [below_a, equal_a, below_b, equal_b] = RankWindows(sa, sb);
  if (_mm_movemask_epi8(equal_a) != 0) {
    // Lanes 1-3 equal to their predecessor: a duplicate inside a side.
    const __m128i dup = _mm_or_si128(
        _mm_cmpeq_epi32(va, _mm_shuffle_epi32(va, 0x90)),
        _mm_cmpeq_epi32(vb, _mm_shuffle_epi32(vb, 0x90)));
    if ((_mm_movemask_ps(_mm_castsi128_ps(dup)) & 0xE) != 0) return false;
  }
  // A lane's step starts after the lanes below it on both sides and
  // ends one slot later, two for a matched pair; it fits if it ends by
  // the fourth slot.
  const auto fits = [](__m128i below, __m128i equal) {
    const __m128i last = _mm_sub_epi32(
        _mm_add_epi32(_mm_setr_epi32(0, 1, 2, 3), below), equal);
    return _mm_cmpgt_epi32(_mm_set1_epi32(4), last);
  };
  const __m128i fits_a = fits(below_a, equal_a);
  // Lane-wise minimum of a and reverse(b), then distance-2 and distance-1
  // half-cleaners (the lower lane of each pair keeps the minimum).
  const __m128i srb = _mm_shuffle_epi32(sb, 0x1B);
  const __m128i a_greater = _mm_cmpgt_epi32(sa, srb);
  __m128i lo = _mm_or_si128(_mm_and_si128(a_greater, srb),
                            _mm_andnot_si128(a_greater, sa));
  lo = CompareExchange<0x4E>(lo, _mm_setr_epi32(-1, -1, 0, 0));
  lo = CompareExchange<0xB1>(lo, _mm_setr_epi32(-1, 0, -1, 0));
  alignas(16) uint32_t lanes[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), _mm_xor_si128(lo, sign));
  for (int k = 0; k < 4; ++k) {
    ring[(at + static_cast<uint64_t>(k)) & 63] = lanes[k];
  }
  out->consume_a = LaneCount(fits_a);
  out->consume_b = LaneCount(fits(below_b, equal_b));
  out->emit_count = out->consume_a + out->consume_b;
  out->matches = LaneCount(_mm_and_si128(fits_a, equal_a));
  return true;
}

/// SIMD form of one exact union SOP word over two full, strictly
/// increasing windows (SSE2, so it needs no CPU check). The two-pointer
/// walk of SteadySop emits each distinct value once in value order, a
/// matched pair as one step, and stops once four are out; so a lane's
/// Result slot is the number of distinct values below it across both
/// windows, and the lane is consumed when that number is under four. A
/// lane past its side's consumption limit exceeds all four lanes of the
/// other window, so its slot is at least four and the limits need no
/// mask. Every lane writes its slot, ring[(at + slot) & 63] with slot up
/// to seven; both lanes of a matched pair write the same value to the
/// same slot. A window that is not strictly increasing returns false,
/// writing nothing, and SteadySop runs the word.
inline bool SimdSopUnion(const uint32_t* pa, const uint32_t* pb,
                         uint32_t* ring, uint64_t at, SteadySopOutcome* out) {
  const __m128i sign = _mm_set1_epi32(INT32_MIN);
  const __m128i sa = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(pa)), sign);
  const __m128i sb = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb)), sign);
  // Lanes 1-3 above their predecessor, on both sides.
  const __m128i rising =
      _mm_and_si128(_mm_cmpgt_epi32(sa, _mm_shuffle_epi32(sa, 0x90)),
                    _mm_cmpgt_epi32(sb, _mm_shuffle_epi32(sb, 0x90)));
  if ((_mm_movemask_ps(_mm_castsi128_ps(rising)) & 0xE) != 0xE) return false;
  const auto [below_a, equal_a, below_b, equal_b] = RankWindows(sa, sb);
  // Distinct values below a lane: the lanes below it on its own side,
  // plus those on the other side, less the matched pairs among them
  // (counted on both sides). `equal` lanes are -1, so its exclusive
  // prefix sum is minus the matched lanes below.
  const auto slots = [](__m128i below, __m128i equal) {
    __m128i before = _mm_slli_si128(equal, 4);
    before = _mm_add_epi32(before, _mm_slli_si128(before, 4));
    before = _mm_add_epi32(before, _mm_slli_si128(before, 8));
    return _mm_add_epi32(_mm_add_epi32(_mm_setr_epi32(0, 1, 2, 3), below),
                         before);
  };
  const __m128i slot_a = slots(below_a, equal_a);
  const __m128i slot_b = slots(below_b, equal_b);
  const __m128i four = _mm_set1_epi32(4);
  const __m128i fits_a = _mm_cmpgt_epi32(four, slot_a);
  alignas(16) uint32_t slot[8];
  _mm_store_si128(reinterpret_cast<__m128i*>(slot), slot_a);
  _mm_store_si128(reinterpret_cast<__m128i*>(slot + 4), slot_b);
  for (int k = 0; k < 4; ++k) {
    ring[(at + slot[k]) & 63] = pa[k];
    ring[(at + slot[4 + k]) & 63] = pb[k];
  }
  out->consume_a = LaneCount(fits_a);
  out->consume_b = LaneCount(_mm_cmpgt_epi32(four, slot_b));
  out->matches = LaneCount(_mm_and_si128(fits_a, equal_a));
  out->emit_count = out->consume_a + out->consume_b - out->matches;
  return true;
}

inline bool Ssse3Available() {
  static const bool available =
      __builtin_cpu_supports("ssse3") && __builtin_cpu_supports("popcnt");
  return available;
}

#endif  // defined(__x86_64__)

// TIE-loop entries (RunTieLoop calls) by the engine that ran them;
// "per_word" counts the entries the stepper declined, which the core's
// superblock loop then ran. A stepper that quietly declined would leave
// every modeled number as it was; this counter is where that shows.
// Registry lookups happen once; each entry costs one relaxed add.
enum class LoopEngine { kSetOpStepper, kMergeStepper, kPerWord };

obs::Counter* TieLoopCounter(LoopEngine engine) {
  static constexpr auto lookup = [](std::string_view label) {
    return obs::MetricsRegistry::Global().GetCounter(
        "dba_eis_tie_loops_total", "engine", label,
        "EIS TIE-loop entries by the engine that ran them.");
  };
  static obs::Counter* const counters[] = {
      lookup("setop_stepper"), lookup("merge_stepper"), lookup("per_word")};
  return counters[static_cast<int>(engine)];
}

bool EvalBranch(const isa::Instruction& branch, uint32_t rs1, uint32_t rs2) {
  switch (branch.opcode) {
    case isa::Opcode::kBeq:
      return rs1 == rs2;
    case isa::Opcode::kBne:
      return rs1 != rs2;
    case isa::Opcode::kBlt:
      return static_cast<int32_t>(rs1) < static_cast<int32_t>(rs2);
    case isa::Opcode::kBltu:
      return rs1 < rs2;
    case isa::Opcode::kBge:
      return static_cast<int32_t>(rs1) >= static_cast<int32_t>(rs2);
    case isa::Opcode::kBgeu:
      return rs1 >= rs2;
    default:
      return false;
  }
}

}  // namespace

EisExtension::EisExtension() : TieExtension("eis") {
  mode_state_ = AddState("sop_mode", 2, 0);
  partial_state_ = AddState("partial_loading", 1, 0);
  active_state_ = AddState("active", 1, 0);

  // Every operation, primitive or fused, routes through DispatchOp.
  static constexpr struct {
    uint16_t id;
    const char* name;
  } kOps[] = {
      {op::kInit, "init"},
      {op::kLd0, "ld_0"},
      {op::kLd1, "ld_1"},
      {op::kLdP0, "ld_p_0"},
      {op::kLdP1, "ld_p_1"},
      {op::kSop, "sop"},
      {op::kStS, "st_s"},
      {op::kSt, "st"},
      {op::kStoreSop, "store_sop"},
      {op::kLdLdpShuffle, "ld_ldp_shuffle"},
      {op::kFlush, "flush"},
      {op::kLdMerge, "ld_merge"},
      {op::kSortBeat, "sort_beat"},
  };
  for (const auto& def : kOps) {
    const uint16_t id = def.id;
    DefineOp(id, def.name,
             [this, id](ExtContext& ctx) { return DispatchOp(id, ctx); });
  }
}

Status EisExtension::DispatchOp(uint16_t ext_id, ExtContext& ctx) {
  switch (ext_id) {
    case op::kInit:
      return Init(ctx);
    case op::kLd0:
      return Ld(ctx, 0);
    case op::kLd1:
      return Ld(ctx, 1);
    case op::kLdP0:
      LdP(0);
      return Status::Ok();
    case op::kLdP1:
      LdP(1);
      return Status::Ok();
    case op::kSop:
      return Sop(ctx);
    case op::kStS:
      StS();
      return Status::Ok();
    case op::kSt:
      return St(ctx);
    case op::kStoreSop:
      // Fused ST + SOP: the store path writes the Store states filled in
      // the previous iteration while the comparator network executes.
      DBA_RETURN_IF_ERROR(St(ctx));
      DBA_RETURN_IF_ERROR(Sop(ctx));
      ctx.set_reg(FlagReg(ctx), active_state_->Get() != 0 ? 1u : 0u);
      return Status::Ok();
    case op::kLdLdpShuffle:
      // Fused LD_0 | LD_1 | LD_P_0 | LD_P_1 | ST_S (Section 4).
      DBA_RETURN_IF_ERROR(Ld(ctx, 0));
      DBA_RETURN_IF_ERROR(Ld(ctx, 1));
      LdP(0);
      LdP(1);
      StS();
      return Status::Ok();
    case op::kFlush:
      return Flush(ctx);
    case op::kLdMerge:
      return LdMerge(ctx);
    case op::kSortBeat:
      return SortBeat(ctx);
    default:
      return Status::Internal("unknown EIS operation id " +
                              std::to_string(ext_id));
  }
}

void EisExtension::ResetState() {
  TieExtension::ResetState();
  a_.Reset();
  b_.Reset();
  result_fifo_.Clear();
  store_buf_.fill(0);
  store_count_ = 0;
  c_ptr_ = 0;
  c_count_ = 0;
  counters_ = EisCounters{};
}

bool EisExtension::ContinueFlag() const {
  switch (mode()) {
    case SopMode::kIntersect:
      return !a_.drained() && !b_.drained();
    case SopMode::kUnion:
    case SopMode::kMerge:
      return !a_.drained() || !b_.drained();
    case SopMode::kDifference:
      return !a_.drained();
  }
  return false;
}

Status EisExtension::Init(ExtContext& ctx) {
  // Reset the datapath but keep the activity counters: INIT runs once
  // per merge pair inside the sort kernel, and the counters aggregate a
  // whole run (ResetState clears them between Processor runs). INIT
  // sets all three TIE states itself.
  a_.Reset();
  b_.Reset();
  result_fifo_.Clear();
  store_buf_.fill(0);
  store_count_ = 0;
  c_count_ = 0;
  const uint16_t operand = ctx.operand();
  mode_state_->Set(operand & 0x3);
  partial_state_->Set((operand >> 2) & 0x1);
  active_state_->Set(0);

  a_.ptr = ctx.reg(isa::abi::kPtrA);
  b_.ptr = ctx.reg(isa::abi::kPtrB);
  a_.remaining = ctx.reg(isa::abi::kLenA);
  b_.remaining = ctx.reg(isa::abi::kLenB);
  c_ptr_ = ctx.reg(isa::abi::kPtrC);

  // Alignment matters only for streams that will issue beats; merge
  // pairs at the tail of a pass have an empty run2 at an odd offset.
  if ((a_.remaining > 0 && !IsAligned(a_.ptr, 16)) ||
      (b_.remaining > 0 && !IsAligned(b_.ptr, 16)) ||
      !IsAligned(c_ptr_, 16)) {
    return Status::InvalidArgument(
        "EIS INIT: input/output pointers must be 16-byte aligned");
  }
  active_state_->Set(ContinueFlag() ? 1 : 0);
  return Status::Ok();
}

Status EisExtension::Ld(ExtContext& ctx, int side_index) {
  StreamSide& s = side(side_index);
  if (s.remaining == 0) return Status::Ok();
  // The load pipeline issues its 128-bit beat every iteration the stream
  // is live (Figure 10: LD occupies both LSUs every other cycle); when
  // the Load states are still full the beat is a redundant prefetch and
  // its data is dropped, but the port cycle is spent either way.
  DBA_ASSIGN_OR_RETURN(mem::Beat128 beat,
                       ctx.LoadBeat(LoadLsu(side_index), s.ptr));
  ++counters_.load_beats;
  if (s.load_fifo.space() < 4) return Status::Ok();
  const uint32_t take = std::min<uint32_t>(4, s.remaining);
  for (uint32_t i = 0; i < take; ++i) {
    s.load_fifo.Push(beat[i]);
  }
  s.ptr += mem::kBeatBytes;
  s.remaining -= take;
  return Status::Ok();
}

void EisExtension::LdP(int side_index) {
  StreamSide& s = side(side_index);
  const bool partial = partial_loading() || mode() == SopMode::kMerge;
  if (!partial && !s.window.empty()) {
    // Without partial loading the Word states are reloaded only once
    // fully consumed; the window stays ragged in between.
    return;
  }
  while (!s.window.full() && !s.load_fifo.empty()) {
    s.window.Push(s.load_fifo.Pop());
  }
}

Status EisExtension::Sop(ExtContext& ctx) {
  const SopOutcome outcome = ComputeSop(mode(), a_.window, a_.upstream_empty(),
                                        b_.window, b_.upstream_empty());
  a_.window.Consume(outcome.consume_a);
  b_.window.Consume(outcome.consume_b);
  if (result_fifo_.space() < outcome.emit_count) {
    return Status::Internal("EIS result FIFO overflow (store path stalled)");
  }
  for (int i = 0; i < outcome.emit_count; ++i) {
    result_fifo_.Push(outcome.emit[static_cast<size_t>(i)]);
  }
  ++counters_.sop_executions;
  counters_.elements_consumed +=
      static_cast<uint64_t>(outcome.consume_a + outcome.consume_b);
  counters_.elements_emitted += static_cast<uint64_t>(outcome.emit_count);
  counters_.matches += static_cast<uint64_t>(outcome.matches);
  active_state_->Set(ContinueFlag() ? 1 : 0);
  return Status::Ok();
}

void EisExtension::StS() {
  if (store_count_ != 0 || result_fifo_.size() < 4) return;
  for (int i = 0; i < 4; ++i) {
    store_buf_[static_cast<size_t>(i)] = result_fifo_.Pop();
  }
  store_count_ = 4;
}

Status EisExtension::StorePack(ExtContext& ctx,
                               const std::array<uint32_t, 4>& pack) {
  DBA_RETURN_IF_ERROR(ctx.StoreBeat(StoreLsu(), c_ptr_, pack));
  c_ptr_ += mem::kBeatBytes;
  c_count_ += 4;
  ++counters_.store_beats;
  return Status::Ok();
}

Status EisExtension::St(ExtContext& ctx) {
  // The store is delayed while fewer than four elements are available
  // (Section 4); a full Store state is written as one aligned beat.
  if (store_count_ == 4) {
    DBA_RETURN_IF_ERROR(StorePack(ctx, store_buf_));
    store_count_ = 0;
  } else if (store_count_ == 0 && result_fifo_.size() >= 4) {
    // Merge-sort path: the core loop issues no ST_S (Figure 12 -- "the
    // shuffle instruction is not applied"), so the Store states load
    // directly from the result FIFO within the store instruction.
    std::array<uint32_t, 4> pack;
    for (auto& value : pack) value = result_fifo_.Pop();
    DBA_RETURN_IF_ERROR(StorePack(ctx, pack));
  }
  // Burst drain: if the result FIFO has backed up past two packs (heavy
  // union output), issue additional store beats; the port model charges
  // one extra cycle per beat.
  while (result_fifo_.size() >= 8) {
    std::array<uint32_t, 4> pack;
    for (auto& value : pack) value = result_fifo_.Pop();
    DBA_RETURN_IF_ERROR(StorePack(ctx, pack));
  }
  return Status::Ok();
}

Status EisExtension::Flush(ExtContext& ctx) {
  // Drain Store states and the result FIFO. Full packs leave as beats;
  // the final partial pack is written with byte enables (modelled as
  // word stores).
  std::array<uint32_t, 4> pack;
  int pending = 0;
  auto flush_full = [&]() -> Status {
    DBA_RETURN_IF_ERROR(StorePack(ctx, pack));
    pending = 0;
    return Status::Ok();
  };
  for (int i = 0; i < store_count_; ++i) {
    pack[static_cast<size_t>(pending++)] = store_buf_[static_cast<size_t>(i)];
  }
  store_count_ = 0;
  if (pending == 4) DBA_RETURN_IF_ERROR(flush_full());
  while (!result_fifo_.empty()) {
    pack[static_cast<size_t>(pending++)] = result_fifo_.Pop();
    if (pending == 4) DBA_RETURN_IF_ERROR(flush_full());
  }
  for (int i = 0; i < pending; ++i) {
    DBA_RETURN_IF_ERROR(ctx.StoreWord(
        StoreLsu(), c_ptr_ + static_cast<uint64_t>(4 * i),
        pack[static_cast<size_t>(i)]));
    ++c_count_;
  }
  if (pending > 0) {
    c_ptr_ += static_cast<uint64_t>(4 * pending);
    ++counters_.store_beats;
  }
  ctx.set_reg(isa::abi::kLenC, c_count_);
  return Status::Ok();
}

Status EisExtension::LdMerge(ExtContext& ctx) {
  // Refill the side with fewer buffered elements first; if its stream
  // is exhausted or its Load states are full, try the other side.
  const int buffered_a = a_.window.count + a_.load_fifo.size();
  const int buffered_b = b_.window.count + b_.load_fifo.size();
  const int first = buffered_b < buffered_a ? 1 : 0;
  const uint64_t beats_before = counters_.load_beats;
  DBA_RETURN_IF_ERROR(Ld(ctx, first));
  if (counters_.load_beats == beats_before) {
    DBA_RETURN_IF_ERROR(Ld(ctx, 1 - first));
  }
  LdP(0);
  LdP(1);
  active_state_->Set(ContinueFlag() ? 1 : 0);
  ctx.set_reg(FlagReg(ctx), active_state_->Get() != 0 ? 1u : 0u);
  return Status::Ok();
}

Status EisExtension::SortBeat(ExtContext& ctx) {
  if (a_.remaining > 0) {
    DBA_ASSIGN_OR_RETURN(mem::Beat128 beat, ctx.LoadBeat(0, a_.ptr));
    const uint32_t take = std::min<uint32_t>(4, a_.remaining);
    // Pad the tail with the maximum value so the network sinks padding
    // lanes to the end of the run.
    for (uint32_t i = take; i < 4; ++i) beat[i] = 0xFFFFFFFFu;
    SortNetwork4(beat);
    DBA_RETURN_IF_ERROR(ctx.StoreBeat(0, c_ptr_, beat));
    a_.ptr += mem::kBeatBytes;
    a_.remaining -= take;
    c_ptr_ += mem::kBeatBytes;
    c_count_ += take;
    ++counters_.load_beats;
    ++counters_.store_beats;
  }
  ctx.set_reg(FlagReg(ctx), a_.remaining > 0 ? 1u : 0u);
  return Status::Ok();
}

// --- Loop accelerator (sim::LoopAccelerator) ---

bool EisExtension::MatchesTieLoop(const sim::TieLoop& loop) const {
  if (loop.body.empty()) return false;
  for (const isa::Instruction& instr : loop.body) {
    if (instr.ext_id < op::kInit || instr.ext_id > op::kSortBeat) {
      return false;
    }
  }
  return true;
}

// One instantiation per SopMode: the SOP kernel, the emission rules, the
// load word and the continuation flag constant-fold. Every value the loop
// touches per word -- cursors, ring counters, ExecStats tallies, counter
// deltas -- is a local of this function, written back once at the exit;
// nothing reaches it through a reference the compiler must assume that
// the result writes alias.
template <SopMode kMode>
bool EisExtension::SteadyLoop(const sim::TieLoop& loop, sim::Cpu& cpu,
                              bool exact, uint64_t max_cycles,
                              sim::ExecStats& stats) {
  constexpr bool kMerge = kMode == SopMode::kMerge;
  int flag_index = 0;
  if (!MatchSteadyLoopShape(loop, kMerge ? op::kLdMerge : op::kLdLdpShuffle,
                            &flag_index)) {
    return false;
  }
  const Reg flag_reg = isa::RegFromIndex(flag_index);
  const bool partial = kMerge || partial_loading();  // as in LdP
  // LoadLsu(1) and StoreLsu() folded onto the configured ports; merge
  // mode runs every beat and pack on LSU0.
  const int lsu_b = !kMerge && cpu.config().num_lsus >= 2 ? 1 : 0;
  const uint32_t penalty = cpu.config().branch_mispredict_penalty;
  const size_t unroll = loop.body.size() / 2;
  // Conservative worst-case cycles of one full iteration, for the
  // iteration-head watchdog margin: issue plus serialized beats per word
  // (the burst drain can issue 8 beats of latency <= 4 on each port)
  // plus the branch and its penalty.
  const uint64_t iter_margin =
      static_cast<uint64_t>(loop.body.size()) * 65 + 1 + penalty;
  // The flag register is the only value the loop changes that the
  // branch reads (MatchSteadyLoopShape), so both outcomes are fixed here.
  const uint32_t rs2_value = cpu.reg(loop.branch.rs2);
  const bool taken_if_active = EvalBranch(loop.branch, 1, rs2_value);
  const bool taken_if_idle = EvalBranch(loop.branch, 0, rs2_value);
  const mem::MemorySystem& memory = cpu.memory_system();
#if defined(__x86_64__)
  // The SSSE3 forms: the intersect bulk run and the compare-and-compact
  // SOP of intersect and difference.
  const bool use_ssse3 =
      (kMode == SopMode::kIntersect || kMode == SopMode::kDifference) &&
      Ssse3Available();
#endif

  const auto resolve = [&memory](const StreamSide& s, Cursor* c) -> bool {
    c->rem = s.remaining;
    c->win = s.window.count;
    c->fifo = s.load_fifo.size();
    if (c->rem == 0 && c->win == 0 && c->fifo == 0) return true;  // inert
    const uint64_t probe = c->rem > 0 ? s.ptr : s.ptr - mem::kBeatBytes;
    const mem::Memory* region = memory.Find(probe, mem::kBeatBytes);
    if (region == nullptr) return false;
    const std::span<const uint8_t> raw = region->raw();
    c->base = region->config().base;
    c->data = reinterpret_cast<const uint32_t*>(raw.data());
    c->words = raw.size() / 4;
    c->pos = static_cast<size_t>((s.ptr - c->base) / 4);
    const size_t buffered = static_cast<size_t>(c->win + c->fifo);
    if (c->pos > c->words) return false;
    // The cursor model only holds if the buffered elements really are
    // the stream slice just behind ptr -- or, once a short tail beat has
    // run (nothing remains to load then), a slice ending one to three
    // words before it. Verify and decline otherwise. Any offset that
    // verifies is exact: the cursor reads no other words.
    const size_t max_gap = c->rem == 0 ? 3 : 0;
    for (size_t gap = 0; gap <= max_gap && buffered + gap <= c->pos; ++gap) {
      const uint32_t* at = c->data + (c->pos - gap - buffered);
      bool same = std::equal(at, at + c->win, s.window.lanes.begin());
      for (int i = 0; same && i < c->fifo; ++i) {
        same = at[c->win + i] == s.load_fifo.Peek(i);
      }
      if (same) {
        c->consumed = c->pos - gap - buffered;
        c->lat = region->config().access_latency;
        c->has_span = true;
        return true;
      }
    }
    return false;
  };
  Cursor ca;
  Cursor cb;
  if (!resolve(a_, &ca) || !resolve(b_, &cb)) return false;

  // Result cursor: packs land directly in the backing region; the ring
  // keeps the last <= 36 emitted elements (Store states and result FIFO)
  // so both can be reconstructed on exit, and an SOP form writes up to
  // eight scratch slots past `emitted`.
  mem::Memory* const result_memory = memory.Find(c_ptr_, mem::kBeatBytes);
  if (result_memory == nullptr) return false;
  uint32_t* const out_data =
      reinterpret_cast<uint32_t*>(result_memory->mutable_raw().data());
  const uint64_t out_base = result_memory->config().base;
  const size_t out_words = result_memory->mutable_raw().size() / 4;
  const uint32_t lat_c = result_memory->config().access_latency;
  size_t out_pos = static_cast<size_t>((c_ptr_ - out_base) / 4);
  if (out_pos > out_words) return false;

  uint32_t ring[64];
  constexpr size_t kSopScratchSlots = 8;
  static_assert(std::size(ring) >= std::tuple_size_v<decltype(store_buf_)> +
                                       decltype(result_fifo_)::capacity() +
                                       kSopScratchSlots);
  uint64_t written = 0;
  int sbuf = store_count_;  // 0 or 4: ST_S fills all four Store states
  uint64_t emitted = static_cast<uint64_t>(sbuf);
  std::copy_n(store_buf_.begin(), sbuf, ring);
  for (int i = 0; i < result_fifo_.size(); ++i) {
    ring[emitted++ & 63] = result_fifo_.Peek(i);
  }

  // The cursors read buffered input from memory when it is consumed,
  // where the per-word path copies each beat when it loads it; a pack
  // stored over input not yet consumed would tell the two apart. Decline
  // when the packs this loop can still write overlap unread input. The
  // 1-LSU sort ping-pongs between two halves of LDM0, so this compares
  // address ranges, not regions.
  {
    const auto unread = [](const Cursor& c) {
      return static_cast<size_t>(c.win + c.fifo) + c.rem;
    };
    const size_t out_end =
        out_pos + 4 * ((static_cast<size_t>(emitted - written) +
                        unread(ca) + unread(cb)) / 4);
    const auto overlaps = [&](const Cursor& c) {
      if (!c.has_span || c.data != out_data) return false;
      const size_t in_end = c.pos + 4 * ((static_cast<size_t>(c.rem) + 3) / 4);
      return c.consumed < out_end && out_pos < in_end;
    };
    if (overlaps(ca) || overlaps(cb)) return false;
  }

  uint64_t cycles = stats.cycles;
  uint64_t bundles = stats.bundles;
  uint64_t instructions = stats.instructions;
  uint64_t taken_branches = stats.taken_branches;
  uint64_t mispredicted = stats.mispredicted_branches;
  uint64_t branch_penalty = stats.branch_penalty_cycles;
  uint64_t port_stall = stats.port_stall_cycles;
  uint64_t beats0 = stats.lsu_beats[0];
  uint64_t beats1 = stats.lsu_beats[1];
  uint64_t d_sops = 0, d_consumed = 0, d_emitted = 0, d_matches = 0;
  uint64_t d_load_beats = 0, d_store_beats = 0;
  bool active = active_state_->Get() != 0;
  // STORE_SOP, the first word of every iteration, writes the flag
  // register; so "a word ran" and "the flag was written" coincide.
  bool any_word = false;

  // Calibration snapshot for the turbo bulk extrapolation (the d_*
  // deltas all start at zero here, so they need no snapshot).
  const uint64_t snap_cycles = cycles;
  const uint64_t snap_bundles = bundles;
  const uint64_t snap_instructions = instructions;
  const uint64_t snap_taken = taken_branches;
  const uint64_t snap_port = port_stall;
  const uint64_t snap_beats0 = beats0;
  const uint64_t snap_beats1 = beats1;
  constexpr size_t kTail = 64;  // elements left to the exact tail
  // Exact iterations before the turbo bulk segment. Intersection's
  // per-iteration cost is flat (at most one emitted pack per window
  // pair), so one iteration calibrates it; the emission-heavy modes
  // flush up to two packs per iteration with data-dependent store
  // stalls, and need a longer prefix for a representative average.
  constexpr uint64_t kCalIters = kMode == SopMode::kIntersect ? 1 : 32;
  uint64_t iters = 0;
  bool bulk_tried = false;

  // Port cycles of one word: beats on one LSU serialize, one cycle each
  // beyond the first (Cpu::Charge).
  const auto charge_ports = [&](uint32_t b0, uint32_t b1) {
    const uint32_t port = std::max(b0, b1);
    const uint32_t stall = port > 1 ? port - 1 : 0;
    port_stall += stall;
    cycles += stall;
    beats0 += b0;
    beats1 += b1;
  };

  const uint32_t branch_pc =
      loop.head + static_cast<uint32_t>(loop.body.size());
  uint32_t next_pc = branch_pc + 1;
  for (;;) {
    // Iteration-head guard: the last iterations before the watchdog go
    // back to the per-word path, which reports the deadline at the exact
    // word. Region ends are checked per word below.
    if (cycles + iter_margin >= max_cycles) {
      if (!any_word) return false;
      next_pc = loop.head;
      break;
    }
    // --- Turbo bulk segment ---
    // After the calibration prefix, run the steady region as a raw
    // two-pointer directly over the input spans. The emitted element
    // stream is exactly what the datapath would produce (the windowed
    // SOP is a blocked merge; blocking does not change its output);
    // cycles, beats, and word counts for the segment are extrapolated
    // from the per-element rates of the calibration prefix, which is
    // the documented turbo-mode deviation. The exact stepper resumes
    // for the final kTail elements of either side. Merge loops stay
    // exact in turbo: a sort runs thousands of short pair loops.
    if (!kMerge && !exact && !bulk_tried && iters >= kCalIters &&
        d_consumed > 0 && ca.has_span && cb.has_span && ca.rem > 0 &&
        cb.rem > 0) {
      bulk_tried = true;
      const size_t total_a = ca.pos + static_cast<size_t>(ca.rem);
      const size_t total_b = cb.pos + static_cast<size_t>(cb.rem);
      const uint64_t cal_cycles = cycles - snap_cycles;
      const uint64_t cal_consumed = d_consumed;
      const double cyc_per_el =
          static_cast<double>(cal_cycles) / static_cast<double>(cal_consumed);
      const uint64_t cycle_room =
          max_cycles > cycles + 2 * iter_margin
              ? max_cycles - cycles - 2 * iter_margin
              : 0;
      const uint64_t budget_el =
          static_cast<uint64_t>(static_cast<double>(cycle_room) / cyc_per_el);
      const size_t olimit = out_words > 2 * kTail ? out_words - 2 * kTail : 0;
      // The bulk reads the streams straight from their regions; one
      // that runs past its region's end stays with the exact stepper,
      // which hands the faulting beat back to the per-word path.
      if (total_a > ca.consumed + 2 * kTail &&
          total_b > cb.consumed + 2 * kTail && total_a <= ca.words &&
          total_b <= cb.words && budget_el > 0 && out_pos + 4 <= olimit) {
        const size_t la = total_a - kTail;
        const size_t lb = total_b - kTail;
        const uint32_t* A = ca.data;
        const uint32_t* B = cb.data;
        size_t ia = ca.consumed;
        size_t ib = cb.consumed;
        const size_t ia0 = ia;
        const size_t ib0 = ib;
        const uint64_t emitted0 = emitted;
        const uint64_t written_b0 = written;
        uint64_t bulk_matches = 0;
#if defined(__x86_64__)
        // SIMD phase (intersection only): matched elements stream
        // straight into the result span at the position the pending
        // ring elements will eventually occupy; afterwards the pending
        // prefix is materialized from the ring and the pack/ring
        // bookkeeping is re-established so the scalar loop and the
        // exact tail continue on consistent state.
        if constexpr (kMode == SopMode::kIntersect) {
          if (use_ssse3 && ia >= 1 && ib >= 1) {
            const size_t pending = static_cast<size_t>(emitted - written);
            size_t eo = out_pos + pending;
            const size_t eo_before = eo;
            SimdIntersectRun(A, la, B, lb, &ia, &ib, out_data, &eo,
                             olimit > 4 ? olimit - 4 : 0, budget_el,
                             &bulk_matches);
            if (eo != eo_before) {
              for (size_t p = 0; p < pending; ++p) {
                out_data[out_pos + p] = ring[(written + p) & 63];
              }
              emitted += eo - eo_before;
              const uint64_t full = (emitted - written) / 4;
              written += 4 * full;
              out_pos += 4 * full;
              for (uint64_t r = written; r < emitted; ++r) {
                ring[r & 63] = out_data[out_pos + (r - written)];
              }
            }
          }
        }
#endif  // defined(__x86_64__)
        // Branchless merge: the ring slot is always written, the cursor
        // arithmetic is flag-based; the data-dependent path reduces to
        // the every-fourth-emission pack flush.
        while (ia < la && ib < lb && out_pos + 4 <= olimit &&
               (ia - ia0) + (ib - ib0) < budget_el) {
          const uint32_t va = A[ia];
          const uint32_t vb = B[ib];
          const bool eq = va == vb;
          const bool ale = va <= vb;
          const bool ble = vb <= va;
          if constexpr (kMode == SopMode::kIntersect) {
            ring[emitted & 63] = va;
            emitted += eq ? 1 : 0;
          } else if constexpr (kMode == SopMode::kUnion) {
            ring[emitted & 63] = ale ? va : vb;
            ++emitted;
          } else {
            ring[emitted & 63] = va;
            emitted += ale && !eq ? 1 : 0;
          }
          bulk_matches += eq ? 1 : 0;
          ia += ale ? 1 : 0;
          ib += ble ? 1 : 0;
          if (emitted - written >= 4) {
            std::memcpy(out_data + out_pos, ring + (written & 63), 16);
            out_pos += 4;
            written += 4;
          }
        }
        const uint64_t bulk_consumed = (ia - ia0) + (ib - ib0);
        if (bulk_consumed > 0) {
          // Drain pending packs so the post-bulk store state is the
          // canonical sbuf=0 / rfifo<4 steady shape (room is guaranteed
          // by the olimit slack).
          while (emitted - written >= 4) {
            std::memcpy(out_data + out_pos, ring + (written & 63), 16);
            out_pos += 4;
            written += 4;
          }
          sbuf = 0;
          d_consumed += bulk_consumed;
          d_matches += bulk_matches;
          d_emitted += emitted - emitted0;
          d_store_beats += (written - written_b0) / 4;
          const double f = static_cast<double>(bulk_consumed) /
                           static_cast<double>(cal_consumed);
          const auto scaled = [f](uint64_t cal) -> uint64_t {
            return static_cast<uint64_t>(
                std::llround(static_cast<double>(cal) * f));
          };
          cycles += scaled(cal_cycles);
          bundles += scaled(bundles - snap_bundles);
          instructions += scaled(instructions - snap_instructions);
          taken_branches += scaled(taken_branches - snap_taken);
          port_stall += scaled(port_stall - snap_port);
          beats0 += scaled(beats0 - snap_beats0);
          beats1 += scaled(beats1 - snap_beats1);
          d_load_beats += scaled(d_load_beats);
          d_sops += scaled(d_sops);
          // Refit the cursors to a canonical steady load state just
          // behind the new consumption point: window full, one to two
          // beats buffered, next beat aligned.
          const auto refit = [](Cursor& c, size_t inew) {
            const size_t total = c.pos + static_cast<size_t>(c.rem);
            const size_t loaded = ((inew + 3) & ~size_t{3}) + 8;
            c.consumed = inew;
            c.pos = loaded;
            c.rem = static_cast<uint32_t>(total - loaded);
            c.win = 4;
            c.fifo = static_cast<int>(loaded - inew) - 4;
          };
          refit(ca, ia);
          refit(cb, ib);
          continue;  // re-check the head guards against the new state
        }
      }
    }

    bool handed_back = false;
    for (size_t k = 0; k < unroll; ++k) {
      // --- STORE_SOP (ST; SOP; flag <- active) ---
      // The SOP outcome and the ST pack plan come first, so a result-FIFO
      // overflow or a pack past the result region's end can hand back
      // *before* any effect of the word (the per-word path then
      // reproduces the exact error).
      SteadySopOutcome outcome;
      bool simd_done = false;
#if defined(__x86_64__)
      // Full windows only: the 4-lane forms read every loaded lane, and
      // the lanes past a partial window are not part of the stream (tail
      // beats may carry stale local-store words from an earlier kernel).
      // SteadySop has exact partial-window semantics.
      if (ca.win == 4 && cb.win == 4) {
        const uint32_t* const pa = ca.data + ca.consumed;
        const uint32_t* const pb = cb.data + cb.consumed;
        if constexpr (kMode == SopMode::kUnion) {
          simd_done = SimdSopUnion(pa, pb, ring, emitted, &outcome);
        } else if constexpr (kMode == SopMode::kMerge) {
          simd_done = SimdSopMerge(pa, pb, ring, emitted, &outcome);
        } else if (use_ssse3) {
          simd_done = SimdSopFilter<kMode>(pa, pb, ring, emitted, &outcome);
        }
      }
#endif
      if (!simd_done) {
        outcome = SteadySop<kMode>(ca.data + ca.consumed, ca.win,
                                   ca.rem == 0 && ca.fifo == 0,
                                   cb.data + cb.consumed, cb.win,
                                   cb.rem == 0 && cb.fifo == 0, ring, emitted);
      }
      // ST: the Store states leave as one pack (sbuf == 4), or else the
      // FIFO's first four do; then the burst drain stores a pack while
      // at least eight remain.
      const int rfifo = static_cast<int>(emitted - written) - sbuf;
      const int first_packs = sbuf == 4 || rfifo >= 4 ? 1 : 0;
      const int r = sbuf == 0 && rfifo >= 4 ? rfifo - 4 : rfifo;
      const int drain_packs = r >= 8 ? (r - 4) >> 2 : 0;
      const int packs = first_packs + drain_packs;
      if (r - 4 * drain_packs + outcome.emit_count > result_fifo_.capacity() ||
          out_pos + 4 * static_cast<size_t>(packs) > out_words) {
        // Real behavior is an error inside this word; hand back so the
        // per-word path reproduces it. With zero progress, decline
        // instead (state is untouched) so the caller falls through to
        // the per-word path -- handing back at the head would re-enter
        // this stepper forever.
        if (!any_word) return false;
        next_pc = loop.head + static_cast<uint32_t>(2 * k);
        handed_back = true;
        break;
      }
      ++bundles;
      ++cycles;
      ++instructions;
      any_word = true;
      for (int p = 0; p < packs; ++p) {
        std::memcpy(out_data + out_pos, ring + (written & 63), 16);
        out_pos += 4;
        written += 4;
      }
      sbuf = 0;
      d_store_beats += static_cast<uint64_t>(packs);
      const uint32_t store_cycles = lat_c * static_cast<uint32_t>(packs);
      charge_ports(lsu_b == 0 ? store_cycles : 0,
                   lsu_b == 1 ? store_cycles : 0);
      // SOP effects. The SOP already wrote its Result slots into the
      // ring just past `emitted` (the packs above read only older ones).
      emitted += static_cast<uint64_t>(outcome.emit_count);
      ca.consumed += static_cast<size_t>(outcome.consume_a);
      ca.win -= outcome.consume_a;
      cb.consumed += static_cast<size_t>(outcome.consume_b);
      cb.win -= outcome.consume_b;
      ++d_sops;
      d_consumed += static_cast<uint64_t>(outcome.consume_a + outcome.consume_b);
      d_emitted += static_cast<uint64_t>(outcome.emit_count);
      d_matches += static_cast<uint64_t>(outcome.matches);
      const bool drained_a = ca.rem == 0 && ca.fifo == 0 && ca.win == 0;
      const bool drained_b = cb.rem == 0 && cb.fifo == 0 && cb.win == 0;
      if constexpr (kMode == SopMode::kIntersect) {
        active = !drained_a && !drained_b;
      } else if constexpr (kMode == SopMode::kDifference) {
        active = !drained_a;
      } else {
        active = !drained_a || !drained_b;
      }

      // --- Load word ---
      // LD_LDP_SHUFFLE: LD both sides; LD_P both; ST_S. LD_MERGE: one
      // beat into the side with fewer buffered elements, or the other
      // side once that stream is spent; LD_P both; flag <- active, which
      // loads cannot change. A live load whose beat would cross the
      // region end errors on the real path; hand back pre-word so the
      // per-word path raises it.
      const auto past_end = [](const Cursor& c) {
        return c.rem > 0 && c.pos + 4 > c.words;
      };
      // Loads into `c`, returning the port cycles of its beat. A beat
      // whose Load states are still full is a redundant prefetch: its
      // data is dropped, its port cycle spent.
      const auto load_side = [&d_load_beats](Cursor& c) -> uint32_t {
        if (c.rem == 0) return 0;
        ++d_load_beats;
        if (c.fifo <= 4) {
          const uint32_t take = std::min<uint32_t>(4, c.rem);
          c.fifo += static_cast<int>(take);
          c.pos += 4;
          c.rem -= take;
        }
        return c.lat;
      };
      uint32_t b0 = 0;
      uint32_t b1 = 0;
      if constexpr (kMerge) {
        const bool fewer_b = cb.win + cb.fifo < ca.win + ca.fifo;
        const bool load_b = fewer_b ? cb.rem > 0 : ca.rem == 0;
        if (load_b ? past_end(cb) : past_end(ca)) {
          next_pc = loop.head + static_cast<uint32_t>(2 * k + 1);
          handed_back = true;
          break;
        }
        b0 = load_b ? load_side(cb) : load_side(ca);
      } else {
        if (past_end(ca) || past_end(cb)) {
          next_pc = loop.head + static_cast<uint32_t>(2 * k + 1);
          handed_back = true;
          break;
        }
        b0 = load_side(ca);
        (lsu_b == 0 ? b0 : b1) += load_side(cb);
      }
      ++bundles;
      ++cycles;
      ++instructions;
      const auto refill = [partial](Cursor& c) {
        if (!partial && c.win != 0) return;
        const int moved = std::min(4 - c.win, c.fifo);
        c.win += moved;
        c.fifo -= moved;
      };
      refill(ca);
      refill(cb);
      if constexpr (!kMerge) {
        // ST_S: the Store states take four results once they are empty.
        if (emitted - written >= 4) sbuf = 4;
      }
      charge_ports(b0, b1);
    }
    if (handed_back) break;
    // --- closing branch ---
    ++bundles;
    ++cycles;
    ++instructions;
    if (active ? taken_if_active : taken_if_idle) {
      ++taken_branches;
      ++iters;
      continue;
    }
    ++mispredicted;
    branch_penalty += penalty;
    cycles += penalty;
    break;
  }

  // Write the cursor state back into the datapath structures; valid at
  // any word boundary.
  stats.cycles = cycles;
  stats.bundles = bundles;
  stats.instructions = instructions;
  stats.taken_branches = taken_branches;
  stats.mispredicted_branches = mispredicted;
  stats.branch_penalty_cycles = branch_penalty;
  stats.port_stall_cycles = port_stall;
  stats.lsu_beats[0] = beats0;
  stats.lsu_beats[1] = beats1;
  const auto sync_side = [](StreamSide& s, const Cursor& c) {
    if (!c.has_span) return;
    s.ptr = c.base + 4 * static_cast<uint64_t>(c.pos);
    s.remaining = c.rem;
    s.window = Window{};
    std::copy_n(c.data + c.consumed, c.win, s.window.lanes.begin());
    s.window.count = c.win;
    s.load_fifo.Clear();
    for (int i = 0; i < c.fifo; ++i) {
      s.load_fifo.Push(c.data[c.consumed + static_cast<size_t>(c.win + i)]);
    }
  };
  sync_side(a_, ca);
  sync_side(b_, cb);
  const int rfifo = static_cast<int>(emitted - written) - sbuf;
  result_fifo_.Clear();
  for (int i = 0; i < rfifo; ++i) {
    result_fifo_.Push(ring[(written + static_cast<uint64_t>(sbuf + i)) & 63]);
  }
  store_count_ = sbuf;
  for (int i = 0; i < sbuf; ++i) {
    store_buf_[static_cast<size_t>(i)] =
        ring[(written + static_cast<uint64_t>(i)) & 63];
  }
  c_ptr_ = out_base + 4 * static_cast<uint64_t>(out_pos);
  c_count_ += static_cast<uint32_t>(written);
  counters_.sop_executions += d_sops;
  counters_.elements_consumed += d_consumed;
  counters_.elements_emitted += d_emitted;
  counters_.matches += d_matches;
  counters_.load_beats += d_load_beats;
  counters_.store_beats += d_store_beats;
  active_state_->Set(active ? 1 : 0);
  if (any_word) cpu.set_reg(flag_reg, active ? 1u : 0u);
  cpu.set_pc(next_pc);
  return true;
}

bool EisExtension::RunSetOpSteady(const sim::TieLoop& loop, sim::Cpu& cpu,
                                  bool exact, uint64_t max_cycles,
                                  sim::ExecStats& stats) {
  switch (mode()) {
    case SopMode::kIntersect:
      return SteadyLoop<SopMode::kIntersect>(loop, cpu, exact, max_cycles,
                                             stats);
    case SopMode::kUnion:
      return SteadyLoop<SopMode::kUnion>(loop, cpu, exact, max_cycles, stats);
    case SopMode::kDifference:
      return SteadyLoop<SopMode::kDifference>(loop, cpu, exact, max_cycles,
                                              stats);
    case SopMode::kMerge:
      return SteadyLoop<SopMode::kMerge>(loop, cpu, exact, max_cycles, stats);
  }
  return false;
}

bool EisExtension::RunTieLoop(const sim::TieLoop& loop, sim::Cpu& cpu,
                              bool exact, uint64_t max_cycles,
                              sim::ExecStats* stats) {
  // The per-word path reports FailedPrecondition for 128-bit beats on a
  // narrow bus; decline so it gets the chance to.
  if (cpu.config().data_bus_bits < 128) return false;
  const bool ran = RunSetOpSteady(loop, cpu, exact, max_cycles, *stats);
  TieLoopCounter(!ran                        ? LoopEngine::kPerWord
                 : mode() == SopMode::kMerge ? LoopEngine::kMergeStepper
                                             : LoopEngine::kSetOpStepper)
      ->Increment();
  return ran;
}

}  // namespace dba::eis
