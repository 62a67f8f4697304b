#include "trace/synthetic_generator.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ramp::trace {

namespace {
// Architectural register file layout: integer regs [0, 32), FP regs [32, 64).
constexpr std::uint16_t kNumIntRegs = 32;
constexpr std::uint16_t kNumFpRegs = 32;
constexpr std::uint16_t kFpRegBase = 32;
// Probability that a store's data register is an FP register.
constexpr double kFpStoreDataProb = 0.3;

// Deterministic per-PC hash (SplitMix64 finalizer) — fixes each static
// branch's preferred direction and target.
std::uint64_t pc_hash(std::uint64_t pc) {
  std::uint64_t z = pc + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void validate(const GeneratorProfile& p) {
  RAMP_REQUIRE(p.op_mix.size() == static_cast<std::size_t>(kNumOpClasses),
               "op_mix must have one weight per OpClass");
  double total = 0.0;
  for (double w : p.op_mix) {
    RAMP_REQUIRE(w >= 0.0, "op_mix weights must be non-negative");
    total += w;
  }
  RAMP_REQUIRE(total > 0.0, "op_mix must have positive total weight");
  RAMP_REQUIRE(p.dep_distance_p > 0.0 && p.dep_distance_p <= 1.0,
               "dep_distance_p must lie in (0, 1]");
  RAMP_REQUIRE(p.second_source_prob >= 0.0 && p.second_source_prob <= 1.0,
               "second_source_prob must lie in [0, 1]");
  RAMP_REQUIRE(p.stream_fraction >= 0.0 && p.stream_fraction <= 1.0,
               "stream_fraction must lie in [0, 1]");
  RAMP_REQUIRE(p.cold_fraction >= 0.0 && p.cold_fraction <= 1.0,
               "cold_fraction must lie in [0, 1]");
  RAMP_REQUIRE(p.num_streams > 0, "need at least one stream");
  RAMP_REQUIRE(p.hot_footprint_bytes > 0 && p.cold_footprint_bytes > 0,
               "footprints must be positive");
  RAMP_REQUIRE(p.branch_noise >= 0.0 && p.branch_noise <= 0.5,
               "branch_noise must lie in [0, 0.5]");
  RAMP_REQUIRE(p.taken_bias >= 0.0 && p.taken_bias <= 1.0,
               "taken_bias must lie in [0, 1]");
  RAMP_REQUIRE(p.code_blocks > 0 && p.block_len > 0,
               "code footprint must be positive");
}
}  // namespace

SyntheticTrace::SyntheticTrace(const GeneratorProfile& profile,
                               std::uint64_t length, std::uint64_t seed)
    : profile_(profile),
      length_(length),
      walk_{Xoshiro256(seed)},
      mix_(profile.op_mix) {
  validate(profile_);
  stream_span_ = std::max<std::uint64_t>(
      profile_.hot_footprint_bytes /
          static_cast<std::uint64_t>(profile_.num_streams),
      64);
  stream_bits_ = Xoshiro256::bernoulli_threshold(profile_.stream_fraction);
  cold_bits_ = Xoshiro256::bernoulli_threshold(profile_.cold_fraction);
  noise_bits_ = Xoshiro256::bernoulli_threshold(profile_.branch_noise);
  second_source_bits_ =
      Xoshiro256::bernoulli_threshold(profile_.second_source_prob);
  fp_store_data_bits_ = Xoshiro256::bernoulli_threshold(kFpStoreDataProb);
  if (profile_.dep_distance_p < 1.0) {
    dep_log1m_p_ = std::log1p(-profile_.dep_distance_p);
  }
  code_span_ = static_cast<std::uint64_t>(profile_.code_blocks) *
               static_cast<std::uint64_t>(profile_.block_len) * kInstrBytes;
  stream_pos_.resize(static_cast<std::size_t>(profile_.num_streams));
  // Lay streams out contiguously with a 3-line skew between them so their
  // footprints land in different cache sets (bases that are multiples of
  // the set-aliasing period would make all streams fight over one region).
  for (std::size_t s = 0; s < stream_pos_.size(); ++s) {
    stream_pos_[s] = stream_base(s);
  }
  const auto blocks = static_cast<std::uint64_t>(profile_.code_blocks);
  const auto block_bytes =
      static_cast<std::uint64_t>(profile_.block_len) * kInstrBytes;
  sites_.resize(static_cast<std::size_t>(blocks));
  for (std::uint64_t b = 0; b < blocks; ++b) {
    // The branch sits on the block's last slot.
    const std::uint64_t h =
        pc_hash(kCodeBase + (b + 1) * block_bytes - kInstrBytes);
    BranchSite& site = sites_[static_cast<std::size_t>(b)];
    site.preferred_taken =
        (h & 0x3ff) < static_cast<std::uint64_t>(profile_.taken_bias * 1024.0);
    site.target_block = (h >> 10) % blocks;
    site.target = kCodeBase + site.target_block * block_bytes;
  }
}

bool SyntheticTrace::next(Instruction& out) {
  if (emitted_ >= length_) return false;
  out = synthesize();
  ++emitted_;
  return true;
}

bool SyntheticTrace::next_functional(Instruction& out) {
  if (emitted_ >= length_) return false;
  synthesize_functional(out, walk_);
  ++emitted_;
  return true;
}

std::uint16_t SyntheticTrace::pick_source(bool fp) {
  const RecentRing& recent = fp ? recent_fp_ : recent_int_;
  if (recent.count == 0) {
    // Cold start: depend on an arbitrary architectural register.
    return fp ? kFpRegBase : std::uint16_t{0};
  }
  // Geometric distance from the most recent producer; clamp into the window.
  // Same draws as Xoshiro256::geometric(dep_distance_p): none at p = 1.
  const std::uint64_t d = profile_.dep_distance_p < 1.0
                              ? walk_.rng.geometric_log1m(dep_log1m_p_)
                              : 0;
  const std::uint64_t back = std::min<std::uint64_t>(d, recent.count - 1);
  return recent.buf[(recent.head + kRecentWindow - back) % kRecentWindow];
}

void SyntheticTrace::record_producer(RecentRing& recent, std::uint16_t dst) {
  recent.head = (recent.head + 1) % kRecentWindow;
  recent.buf[recent.head] = dst;
  if (recent.count < kRecentWindow) ++recent.count;
}

Instruction SyntheticTrace::synthesize() {
  Instruction ins;
  ins.op = static_cast<OpClass>(mix_.sample(walk_.rng));

  // Branches live on a fixed static grid: the last slot of every
  // block_len-instruction block. This keeps the set of *static* branch
  // sites exactly code_blocks-sized (stable, learnable by the predictor)
  // regardless of the dynamic path. Branch draws landing mid-block become
  // CR-logical ops (POWER cores have rich CR traffic), so branch density is
  // carried by block_len.
  const bool grid_slot =
      walk_.block_offset == static_cast<std::uint64_t>(profile_.block_len) - 1;
  if (grid_slot) {
    ins.op = OpClass::kBranch;
  } else if (ins.op == OpClass::kBranch) {
    ins.op = OpClass::kLogicalCr;
  }

  ins.pc = walk_.pc;
  const bool fp = is_fp(ins.op);

  switch (ins.op) {
    case OpClass::kLoad: {
      ins.src1 = pick_source(false);  // address register
      ins.mem_addr = gen_mem_addr(walk_.rng);
      break;
    }
    case OpClass::kStore: {
      ins.src1 = pick_source(false);           // address register
      ins.src2 = pick_source(walk_.rng.bernoulli_bits(fp_store_data_bits_));
      ins.mem_addr = gen_mem_addr(walk_.rng);
      break;
    }
    case OpClass::kBranch: {
      ins.src1 = pick_source(false);
      // Preferred direction is a fixed property of the static branch; the
      // dynamic outcome deviates with probability branch_noise.
      const bool preferred = sites_[walk_.block_index].preferred_taken;
      ins.branch_taken =
          walk_.rng.bernoulli_bits(noise_bits_) ? !preferred : preferred;
      break;
    }
    default: {
      ins.src1 = pick_source(fp);
      if (walk_.rng.bernoulli_bits(second_source_bits_)) {
        ins.src2 = pick_source(fp);
      }
      break;
    }
  }

  // Destination register for value-producing ops.
  if (ins.op != OpClass::kBranch && ins.op != OpClass::kStore) {
    if (fp) {
      ins.dst = static_cast<std::uint16_t>(kFpRegBase + next_fp_reg_);
      next_fp_reg_ = static_cast<std::uint16_t>((next_fp_reg_ + 1) % kNumFpRegs);
      record_producer(recent_fp_, ins.dst);
    } else {
      ins.dst = next_int_reg_;
      next_int_reg_ = static_cast<std::uint16_t>((next_int_reg_ + 1) % kNumIntRegs);
      record_producer(recent_int_, ins.dst);
    }
  }

  advance_pc(ins, walk_);
  return ins;
}

}  // namespace ramp::trace
