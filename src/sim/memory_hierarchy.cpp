#include "sim/memory_hierarchy.hpp"

#include "util/error.hpp"

namespace ramp::sim {

MemoryHierarchy::MemoryHierarchy(const CoreConfig& cfg)
    : cfg_(cfg), l1i_(cfg.l1i), l1d_(cfg.l1d), l2_(cfg.l2) {}

int MemoryHierarchy::data_miss(std::uint64_t addr, bool is_write) {
  // Look up the unified L2 (the L1D access already installed the line).
  const int latency = l2_.access(addr, is_write) ? cfg_.lat_l2 : cfg_.lat_memory;
  if (cfg_.enable_nextline_prefetch) {
    // Simple sequential prefetcher: pull the next line into L1D and L2 as
    // a stats-free fill (prefetches are not demand traffic).
    const std::uint64_t next_line = addr + cfg_.l1d.line_bytes;
    if (!l1d_.probe(next_line)) {
      l1d_.fill(next_line);
      l2_.fill(next_line);
    }
  }
  return latency;
}

void MemoryHierarchy::retire_miss() {
  RAMP_ASSERT(outstanding_misses_ > 0);
  --outstanding_misses_;
}

}  // namespace ramp::sim
