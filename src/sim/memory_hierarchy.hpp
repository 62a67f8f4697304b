// Memory hierarchy timing: L1I / L1D / unified L2 / main memory.
//
// Wraps the tag-array Cache models with the latency assignment of Table 2
// and an MSHR-style cap on outstanding L1D misses. The core asks for the
// completion latency of an access; the hierarchy updates cache state and
// returns cycles.
#pragma once

#include <cstdint>

#include "sim/cache.hpp"
#include "sim/core_config.hpp"

namespace ramp::sim {

class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(const CoreConfig& cfg);

  /// Data access for a load or store: returns load-to-use latency in cycles.
  /// Stores get the same lookup (write-allocate) but the core retires them
  /// through the store queue without waiting on the returned latency.
  /// With next-line prefetching enabled, a demand miss also installs the
  /// sequentially next line (timing-free fill, the usual simple model).
  /// The L1 hit paths of both access kinds are inline.
  int data_access(std::uint64_t addr, bool is_write) {
    if (l1d_.access(addr, is_write)) return cfg_.lat_l1d;
    return data_miss(addr, is_write);
  }

  /// Instruction fetch of the line containing `pc`: returns extra stall
  /// cycles (0 on an L1I hit).
  int fetch_access(std::uint64_t pc) {
    if (l1i_.access(pc, false)) return 0;
    return l2_.access(pc, false) ? cfg_.lat_l2 : cfg_.lat_memory;
  }

  /// True while the number of in-flight L1D misses is at the MSHR cap; the
  /// core must stall load issue until `retire_miss` frees a slot.
  bool miss_ports_full() const { return outstanding_misses_ >= cfg_.max_outstanding_misses; }

  /// Registers an in-flight miss (called when data_access reported a miss).
  void add_outstanding_miss() { ++outstanding_misses_; }

  /// Releases a miss slot when its fill completes.
  void retire_miss();

  /// Drops all in-flight miss bookkeeping. SampledCore abandons a
  /// measurement unit's outstanding fills when the unit's core is torn
  /// down (the fill events die with it), so the shared hierarchy must not
  /// keep their MSHR slots occupied.
  void clear_outstanding_misses() { outstanding_misses_ = 0; }

  const Cache& l1i() const { return l1i_; }
  const Cache& l1d() const { return l1d_; }
  const Cache& l2() const { return l2_; }

  int outstanding_misses() const { return outstanding_misses_; }

 private:
  /// data_access after an L1D miss (the access already filled L1D).
  int data_miss(std::uint64_t addr, bool is_write);

  CoreConfig cfg_;
  Cache l1i_;
  Cache l1d_;
  Cache l2_;
  int outstanding_misses_ = 0;
};

}  // namespace ramp::sim
