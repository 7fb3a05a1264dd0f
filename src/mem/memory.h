#ifndef DBA_MEM_MEMORY_H_
#define DBA_MEM_MEMORY_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace dba::mem {

/// 128-bit memory beat: four little-endian 32-bit words, matching the
/// LSU-to-local-memory interface width of the DBA processor.
using Beat128 = std::array<uint32_t, 4>;
inline constexpr uint32_t kBeatBytes = 16;

/// Configuration of one physical memory in the processor model.
struct MemoryConfig {
  std::string name;              // for diagnostics: "ldm0", "sysmem", ...
  uint64_t base = 0;             // base address in the flat address space
  uint64_t size = 0;             // bytes; must be a multiple of 16
  uint32_t access_latency = 1;   // cycles per access as seen by the core
  bool dual_port = false;        // second port for the data prefetcher
};

/// A byte-addressable little-endian memory: local instruction/data
/// memories (single-cycle scratchpads), or the slower system memory used
/// by cache-less baseline configurations and as DMA source/sink.
///
/// The memory itself is purely functional; timing (latency, port
/// arbitration) is accounted by the simulator's load-store units using
/// `config().access_latency` and `config().dual_port`.
class Memory {
 public:
  /// Fails if size is zero, not 16-byte aligned, or base is unaligned.
  static Result<Memory> Create(MemoryConfig config);

  Memory(Memory&&) = default;
  Memory& operator=(Memory&&) = default;
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  const MemoryConfig& config() const { return config_; }
  bool Contains(uint64_t addr, uint64_t bytes = 1) const {
    return addr >= config_.base && addr - config_.base + bytes <= config_.size;
  }

  // --- Word access (32-bit, 4-byte aligned) ---
  Result<uint32_t> LoadU32(uint64_t addr) const;
  Status StoreU32(uint64_t addr, uint32_t value);

  // --- Wide access (128-bit, 16-byte aligned) ---
  Result<Beat128> Load128(uint64_t addr) const;
  Status Store128(uint64_t addr, const Beat128& beat);

  // --- Bulk host-side access (test and driver setup; no timing) ---
  Status WriteBlock(uint64_t addr, std::span<const uint32_t> values);
  Result<std::vector<uint32_t>> ReadBlock(uint64_t addr, size_t count) const;

  /// Inverts bit `bit` (0..31) of the 32-bit word at `addr` -- the
  /// fault injector's model of a transient single-event upset.
  Status FlipBit(uint64_t addr, uint32_t bit);

  /// Zeroes the full memory contents.
  void Clear();

  // --- Raw host-side views (fast-path steppers; no timing, no bounds
  // help: byte i maps to address config().base + i) ---
  std::span<const uint8_t> raw() const { return data_; }
  std::span<uint8_t> mutable_raw() { return data_; }

 private:
  explicit Memory(MemoryConfig config);

  Status CheckAccess(uint64_t addr, uint64_t bytes, uint64_t alignment) const;

  MemoryConfig config_;
  std::vector<uint8_t> data_;
};

/// Routes flat addresses to the memory that backs them. Regions must not
/// overlap. Non-owning: the processor model owns the memories.
class MemorySystem {
 public:
  MemorySystem() = default;

  /// Fails if the region overlaps an existing one.
  Status AddRegion(Memory* memory);

  /// Memory backing `addr` for an access of `bytes`, or NotFound.
  Result<Memory*> Route(uint64_t addr, uint64_t bytes = 4) const;
  /// Route without the Result: the backing memory, or nullptr.
  Memory* Find(uint64_t addr, uint64_t bytes = 4) const {
    for (Memory* memory : regions_) {
      if (memory->Contains(addr, bytes)) return memory;
    }
    return nullptr;
  }

  const std::vector<Memory*>& regions() const { return regions_; }

 private:
  std::vector<Memory*> regions_;
};

}  // namespace dba::mem

#endif  // DBA_MEM_MEMORY_H_
