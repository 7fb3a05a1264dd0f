#ifndef DBA_COMMON_RANDOM_H_
#define DBA_COMMON_RANDOM_H_

#include <cstdint>

namespace dba {

/// SplitMix64's output for state `x`: seeds Random, and hashes the chaos
/// schedules and the service's retry jitter.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Deterministic 64-bit PRNG (xoshiro256**). Workloads and property tests
/// must be reproducible across platforms, so the library never uses
/// std::mt19937 (implementation-defined seeding helpers) or rand().
class Random {
 public:
  explicit Random(uint64_t seed) {
    // SplitMix64 seeding as recommended by the xoshiro authors.
    for (auto& word : state_) {
      word = Mix64(seed);
      seed += 0x9E3779B97F4A7C15ULL;
    }
  }

  uint64_t Next64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  uint32_t Next32() { return static_cast<uint32_t>(Next64() >> 32); }

  /// Uniform value in [0, bound). bound must be > 0.
  uint64_t Uniform(uint64_t bound) {
    // Lemire's multiply-shift rejection method.
    uint64_t x = Next64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<uint64_t>(m);
    if (low < bound) {
      const uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = Next64();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
  }

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace dba

#endif  // DBA_COMMON_RANDOM_H_
