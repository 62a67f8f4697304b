#include "sim/cache.hpp"

#include <bit>

#include "util/error.hpp"

namespace ramp::sim {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  // Lines of at least 2 bytes keep every tag below kInvalid.
  RAMP_REQUIRE(cfg.line_bytes > 1 && std::has_single_bit(cfg.line_bytes),
               "line size must be a power of two of at least 2 bytes");
  RAMP_REQUIRE(cfg.ways > 0, "cache needs at least one way");
  RAMP_REQUIRE(cfg.size_bytes % (static_cast<std::uint64_t>(cfg.line_bytes) * cfg.ways) == 0,
               "size must be a multiple of line_bytes * ways");
  sets_ = cfg.size_bytes / (static_cast<std::uint64_t>(cfg.line_bytes) * cfg.ways);
  RAMP_REQUIRE(sets_ > 0 && std::has_single_bit(sets_),
               "number of sets must be a power of two");
  set_mask_ = sets_ - 1;
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(cfg.line_bytes));
  tag_shift_ = line_shift_ + static_cast<std::uint32_t>(std::countr_zero(sets_));
  ways_ = cfg.ways;
  tags_.assign(sets_ * ways_, kInvalid);
  lru_.assign(sets_ * ways_, 0);
  dirty_.assign(sets_ * ways_, 0);
}

void Cache::reset_lru_stamps() {
  for (auto& stamp : lru_) stamp = 0;
  lru_clock_ = 0;
}

void Cache::install(std::size_t base, std::uint64_t tag, bool is_write) {
  // Fill the first empty way, else evict true-LRU (the first of equally old
  // ways).
  const std::uint64_t* tags = &tags_[base];
  std::size_t victim = base;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (tags[w] == kInvalid) {
      victim = base + w;
      break;
    }
    if (lru_[base + w] < lru_[victim]) victim = base + w;
  }
  if (tags_[victim] != kInvalid && dirty_[victim] != 0) ++writebacks_;
  tags_[victim] = tag;
  lru_[victim] = lru_clock_;
  dirty_[victim] = static_cast<std::uint8_t>(is_write);
}

void Cache::fill(std::uint64_t addr) {
  const std::uint64_t saved_accesses = accesses_;
  const std::uint64_t saved_hits = hits_;
  access(addr, false);
  accesses_ = saved_accesses;
  hits_ = saved_hits;
}

bool Cache::probe(std::uint64_t addr) const {
  const std::uint64_t tag = addr >> tag_shift_;
  const std::size_t base = ((addr >> line_shift_) & set_mask_) * ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (tags_[base + w] == tag) return true;
  }
  return false;
}

void Cache::reset() {
  tags_.assign(tags_.size(), kInvalid);
  lru_.assign(lru_.size(), 0);
  dirty_.assign(dirty_.size(), 0);
  lru_clock_ = 0;
  accesses_ = hits_ = writebacks_ = 0;
}

double Cache::miss_rate() const {
  if (accesses_ == 0) return 0.0;
  return static_cast<double>(misses()) / static_cast<double>(accesses_);
}

}  // namespace ramp::sim
