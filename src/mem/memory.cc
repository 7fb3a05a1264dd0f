#include "mem/memory.h"

#include <cstring>
#include <utility>

#include "common/bits.h"

namespace dba::mem {

Memory::Memory(MemoryConfig config) : config_(std::move(config)) {
  data_.resize(config_.size, 0);
}

Result<Memory> Memory::Create(MemoryConfig config) {
  if (config.size == 0 || !IsAligned(config.size, kBeatBytes)) {
    return Status::InvalidArgument("memory size must be a non-zero multiple of " +
                                   std::to_string(kBeatBytes));
  }
  if (!IsAligned(config.base, kBeatBytes)) {
    return Status::InvalidArgument("memory base must be 16-byte aligned");
  }
  if (config.access_latency == 0) {
    return Status::InvalidArgument("access latency must be >= 1 cycle");
  }
  return Memory(std::move(config));
}

Status Memory::CheckAccess(uint64_t addr, uint64_t bytes,
                           uint64_t alignment) const {
  if (!IsAligned(addr, alignment)) {
    return Status::InvalidArgument(config_.name + ": unaligned access at 0x" +
                                   std::to_string(addr));
  }
  if (!Contains(addr, bytes)) {
    return Status::OutOfRange(config_.name + ": access at 0x" +
                              std::to_string(addr) + " (+" +
                              std::to_string(bytes) + ") out of bounds");
  }
  return Status::Ok();
}

Result<uint32_t> Memory::LoadU32(uint64_t addr) const {
  DBA_RETURN_IF_ERROR(CheckAccess(addr, 4, 4));
  uint32_t value = 0;
  std::memcpy(&value, data_.data() + (addr - config_.base), 4);
  return value;
}

Status Memory::StoreU32(uint64_t addr, uint32_t value) {
  DBA_RETURN_IF_ERROR(CheckAccess(addr, 4, 4));
  std::memcpy(data_.data() + (addr - config_.base), &value, 4);
  return Status::Ok();
}

Result<Beat128> Memory::Load128(uint64_t addr) const {
  DBA_RETURN_IF_ERROR(CheckAccess(addr, kBeatBytes, kBeatBytes));
  Beat128 beat;
  std::memcpy(beat.data(), data_.data() + (addr - config_.base), kBeatBytes);
  return beat;
}

Status Memory::Store128(uint64_t addr, const Beat128& beat) {
  DBA_RETURN_IF_ERROR(CheckAccess(addr, kBeatBytes, kBeatBytes));
  std::memcpy(data_.data() + (addr - config_.base), beat.data(), kBeatBytes);
  return Status::Ok();
}

Status Memory::WriteBlock(uint64_t addr, std::span<const uint32_t> values) {
  if (values.empty()) return Status::Ok();
  DBA_RETURN_IF_ERROR(CheckAccess(addr, values.size() * 4, 4));
  std::memcpy(data_.data() + (addr - config_.base), values.data(),
              values.size() * 4);
  return Status::Ok();
}

Result<std::vector<uint32_t>> Memory::ReadBlock(uint64_t addr,
                                                size_t count) const {
  if (count == 0) return std::vector<uint32_t>{};
  DBA_RETURN_IF_ERROR(CheckAccess(addr, count * 4, 4));
  std::vector<uint32_t> values(count);
  std::memcpy(values.data(), data_.data() + (addr - config_.base), count * 4);
  return values;
}

Status Memory::FlipBit(uint64_t addr, uint32_t bit) {
  if (bit >= 32) {
    return Status::InvalidArgument(config_.name +
                                   ": FlipBit bit index must be in 0..31");
  }
  DBA_ASSIGN_OR_RETURN(uint32_t word, LoadU32(addr));
  return StoreU32(addr, word ^ (1u << bit));
}

void Memory::Clear() { std::fill(data_.begin(), data_.end(), 0); }

Status MemorySystem::AddRegion(Memory* memory) {
  const MemoryConfig& config = memory->config();
  for (const Memory* existing : regions_) {
    const MemoryConfig& other = existing->config();
    const bool disjoint = config.base + config.size <= other.base ||
                          other.base + other.size <= config.base;
    if (!disjoint) {
      return Status::AlreadyExists("memory region '" + config.name +
                                   "' overlaps '" + other.name + "'");
    }
  }
  regions_.push_back(memory);
  return Status::Ok();
}

Result<Memory*> MemorySystem::Route(uint64_t addr, uint64_t bytes) const {
  if (Memory* memory = Find(addr, bytes)) return memory;
  return Status::NotFound("no memory region backs address 0x" +
                          std::to_string(addr));
}

}  // namespace dba::mem
