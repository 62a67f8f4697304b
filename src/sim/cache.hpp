// Set-associative cache model with true-LRU replacement.
//
// Tag-array-only (no data) model: access() reports hit/miss and performs the
// fill, which is all a trace-driven timing simulator needs. Used for L1I,
// L1D, and the unified L2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ramp::sim {

struct CacheConfig {
  std::string name = "cache";
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t line_bytes = 64;
  std::uint32_t ways = 2;
};

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  /// Looks `addr` up; on miss, fills the line (evicting LRU). Returns hit.
  /// `is_write` only affects the dirty bit (reported via writebacks()).
  /// The hit path is inline: every simulated load, store and fetch takes it.
  bool access(std::uint64_t addr, bool is_write = false) {
    ++accesses_;
    // LRU clock overflow: renormalize all stamps (rare; 2^32 accesses).
    if (lru_clock_ == std::numeric_limits<std::uint32_t>::max()) [[unlikely]] {
      reset_lru_stamps();
    }
    ++lru_clock_;
    const std::uint64_t tag = addr >> tag_shift_;
    const std::size_t base = ((addr >> line_shift_) & set_mask_) * ways_;
    // Scan every way without an early exit: a tag sits in at most one way,
    // and a data-dependent exit would mispredict on which way hits.
    std::size_t hit = base + ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      hit = tags_[base + w] == tag ? base + w : hit;
    }
    if (hit == base + ways_) {
      install(base, tag, is_write);
      return false;
    }
    ++hits_;
    lru_[hit] = lru_clock_;
    dirty_[hit] |= static_cast<std::uint8_t>(is_write);
    return true;
  }

  /// Hit check without any state change; used by tests.
  bool probe(std::uint64_t addr) const;

  /// Installs the line containing `addr` without touching hit/miss
  /// statistics — the path prefetch fills take (they are not demand
  /// traffic). A line already present is just LRU-refreshed.
  void fill(std::uint64_t addr);

  /// Invalidates everything and zeroes statistics.
  void reset();

  const CacheConfig& config() const { return cfg_; }
  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return accesses_ - hits_; }
  std::uint64_t writebacks() const { return writebacks_; }
  double miss_rate() const;

  std::uint64_t num_sets() const { return sets_; }

 private:
  static constexpr std::uint64_t kInvalid = ~0ULL;  ///< tag of an empty way

  /// Miss path of access(): fills `tag` into the set starting at `base`.
  void install(std::size_t base, std::uint64_t tag, bool is_write);
  void reset_lru_stamps();

  CacheConfig cfg_;
  std::uint64_t sets_ = 0;
  // line_bytes and sets_ are enforced powers of two, so the per-access
  // set/tag math runs as shifts instead of 64-bit divisions (access() sits
  // on the hot path of every simulated load, store, and fetch).
  std::uint64_t set_mask_ = 0;
  std::uint32_t line_shift_ = 0;
  std::uint32_t tag_shift_ = 0;
  std::uint32_t ways_ = 0;
  std::uint32_t lru_clock_ = 0;
  // Tag array split by field, set-major (sets_ * ways_ each): the hit scan
  // reads one contiguous run of tags. An empty way holds kInvalid, which no
  // real tag reaches (tags drop the line-offset bits, at least one).
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint32_t> lru_;  ///< higher = more recently used
  std::vector<std::uint8_t> dirty_;
  std::uint64_t accesses_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t writebacks_ = 0;
};

}  // namespace ramp::sim
