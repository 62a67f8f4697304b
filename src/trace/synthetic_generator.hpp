// Synthetic trace generation.
//
// Produces a deterministic dynamic-instruction stream whose statistical
// properties are controlled by a GeneratorProfile: instruction mix, register
// dependency distances (which bound extractable ILP), memory footprints and
// stream behaviour (which determine cache miss rates), and branch outcome
// predictability (which determines the gshare mispredict rate). The
// per-benchmark profiles in src/workloads instantiate this generator with
// parameters calibrated so the 180 nm simulation approximates the IPC and
// power reported in Table 3 of the paper.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "trace/instruction.hpp"
#include "util/rng.hpp"

namespace ramp::trace {

/// Statistical description of a workload, sufficient to synthesize a trace.
struct GeneratorProfile {
  /// Relative frequency of each OpClass, indexed by static_cast<int>(OpClass).
  /// Need not be normalized. Loads/stores/branches here define the memory and
  /// control-flow densities.
  std::vector<double> op_mix = std::vector<double>(kNumOpClasses, 0.0);

  /// Register dependences: each source register reads the destination of a
  /// recent producer at distance d (in dynamic instructions), with d drawn
  /// geometrically. Small mean distance => long dependency chains => low ILP.
  double dep_distance_p = 0.25;  ///< geometric success prob; mean = (1-p)/p
  double second_source_prob = 0.5;  ///< probability an op has two sources

  /// Memory behaviour. A fraction of accesses walk sequential streams (high
  /// spatial locality, near-perfect L1 hits); the rest are scattered
  /// uniformly over one of two footprints. Scattered accesses within
  /// `hot_footprint_bytes` typically hit L1/L2; accesses within
  /// `cold_footprint_bytes` model the L2-missing working set.
  double stream_fraction = 0.7;    ///< fraction of accesses on stride streams
  int num_streams = 4;             ///< concurrent sequential streams
  std::uint32_t stream_stride = 8; ///< bytes advanced per stream access
  double cold_fraction = 0.05;     ///< scattered accesses that go cold
  std::uint64_t hot_footprint_bytes = 24 * 1024;
  std::uint64_t cold_footprint_bytes = 64 * 1024 * 1024;

  /// Branch behaviour: each *static* branch has a fixed preferred direction
  /// and a fixed target (both derived deterministically from its PC), so a
  /// direction predictor and BTB can learn them; each dynamic instance flips
  /// the direction with probability `branch_noise` (the irreducible
  /// mispredict rate). `taken_bias` sets the fraction of static branches
  /// whose preferred direction is taken.
  double branch_noise = 0.04;
  double taken_bias = 0.6;

  /// Static code footprint in basic blocks; controls L1I pressure (small for
  /// SPEC-like loops).
  int code_blocks = 256;
  int block_len = 12;  ///< instructions per basic block between branches
};

/// Deterministic synthetic trace stream; exhausted after `length`
/// instructions.
class SyntheticTrace final : public TraceReader {
 public:
  /// Validates the profile (throws InvalidArgument on nonsense) and prepares
  /// a stream of `length` instructions seeded by `seed`.
  SyntheticTrace(const GeneratorProfile& profile, std::uint64_t length,
                 std::uint64_t seed);

  bool next(Instruction& out) override;

  /// Cheap functional path (~5× less RNG work than next()): keeps the op
  /// mix, the static branch grid, memory addresses, branch outcomes, and
  /// control flow bit-identical in distribution, but skips source/dest
  /// register draws and bookkeeping. Used by the sampled fast-forward,
  /// which only warms caches and the branch predictor.
  bool next_functional(Instruction& out) override;

  /// The functional path fused with its consumer: makes the next `n`
  /// instructions exactly as `n` next_functional() calls would, handing
  /// each to `sink(const Instruction&)` as it is made, so the consumer's
  /// work overlaps the generator's instead of following a buffer. Returns
  /// how many were made (fewer than `n` only at end of trace).
  template <class Sink>
  std::uint64_t fast_forward(std::uint64_t n, Sink&& sink);

  std::uint64_t emitted() const { return emitted_; }
  std::uint64_t length() const { return length_; }

 private:
  static constexpr std::size_t kRecentWindow = 64;  // power of two (ring mask)

  // Recent destination registers as a fixed ring, newest at `head`, so
  // recording a producer is O(1) (a growing vector with front-erase costs a
  // 64-entry memmove per value-producing instruction).
  struct RecentRing {
    std::array<std::uint16_t, kRecentWindow> buf{};
    std::uint32_t head = 0;  ///< index of the newest entry (when count > 0)
    std::uint32_t count = 0;
  };

  static constexpr std::uint64_t kInstrBytes = 4;
  static constexpr std::uint64_t kCodeBase = 0x10000;

  // The scalar state every instruction advances: the generator and the
  // program counter. The functional path takes it explicitly so
  // fast_forward() can run on a local copy that stays in registers (stores
  // through an Instruction could otherwise alias the members).
  struct Walk {
    Xoshiro256 rng;
    std::uint64_t pc = kCodeBase;
    // pc's offset within its basic block, tracked incrementally: branches
    // sit only on the last slot of each block, and both branch exits (taken
    // jumps to a block base; not-taken falls into the next block) reset it
    // to zero.
    std::uint64_t block_offset = 0;
    std::uint64_t block_index = 0;  ///< pc's basic block
  };

  Instruction synthesize();
  void synthesize_functional(Instruction& ins, Walk& walk);
  void advance_pc(Instruction& ins, Walk& walk) const;
  std::uint16_t pick_source(bool fp);
  void record_producer(RecentRing& recent, std::uint16_t dst);
  std::uint64_t gen_mem_addr(Xoshiro256& rng);
  std::uint64_t stream_base(std::size_t s) const;

  GeneratorProfile profile_;
  std::uint64_t length_;
  std::uint64_t emitted_ = 0;
  Walk walk_;
  AliasTable mix_;

  // Split by register class so FP ops depend on FP producers.
  RecentRing recent_int_;
  RecentRing recent_fp_;
  std::uint16_t next_int_reg_ = 0;
  std::uint16_t next_fp_reg_ = 0;

  std::vector<std::uint64_t> stream_pos_;
  // Derived constants hoisted out of the per-instruction path (each would
  // otherwise cost a 64-bit division per instruction or per memory access,
  // or a log1p per source-register draw).
  std::uint64_t stream_span_ = 0;
  double dep_log1m_p_ = 0.0;  ///< log1p(-dep_distance_p), when p < 1
  // Xoshiro256::bernoulli_threshold of each per-draw probability.
  std::uint64_t stream_bits_ = 0;
  std::uint64_t cold_bits_ = 0;
  std::uint64_t noise_bits_ = 0;
  std::uint64_t second_source_bits_ = 0;
  std::uint64_t fp_store_data_bits_ = 0;
  std::uint64_t code_span_ = 0;

  // A static branch's preferred direction and taken target are pure
  // functions of its PC; tabulated per block at construction, so a dynamic
  // branch skips two PC hashes and a 64-bit modulo.
  struct BranchSite {
    std::uint64_t target;        ///< taken target PC (a block base)
    std::uint64_t target_block;  ///< index of that block
    bool preferred_taken;
  };
  std::vector<BranchSite> sites_;
};

// --- the functional path, inline for fast_forward() ---

inline std::uint64_t SyntheticTrace::stream_base(std::size_t s) const {
  // Contiguous spans with a 3-cache-line skew per stream.
  return 0x100000 + s * (stream_span_ + 192);
}

// The functional path and its helpers are forced inline: fast_forward()
// keeps its Walk in registers only if every use of it is inlined.
[[gnu::always_inline]] inline std::uint64_t SyntheticTrace::gen_mem_addr(
    Xoshiro256& rng) {
  if (rng.bernoulli_bits(stream_bits_)) {
    const auto s = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(profile_.num_streams)));
    stream_pos_[s] += profile_.stream_stride;
    // Wrap within the span so streams stay cache-resident at the rate the
    // footprint implies.
    if (stream_pos_[s] >= stream_base(s) + stream_span_) {
      stream_pos_[s] = stream_base(s);
    }
    return stream_pos_[s];
  }
  if (rng.bernoulli_bits(cold_bits_)) {
    // 3-line skew vs the hot region below avoids systematic set aliasing.
    return 0x40000300 + (rng.below(profile_.cold_footprint_bytes) & ~7ULL);
  }
  // Scattered accesses over the hot footprint, offset from the stream
  // region so the two halves of the working set use different sets where
  // the footprint allows.
  return 0x20000000 + profile_.hot_footprint_bytes +
         (rng.below(profile_.hot_footprint_bytes) & ~7ULL);
}

[[gnu::always_inline]] inline void SyntheticTrace::synthesize_functional(
    Instruction& ins, Walk& walk) {
  ins = Instruction{};
  ins.op = static_cast<OpClass>(mix_.sample(walk.rng));

  // Same static branch grid as synthesize() — pc evolves identically on
  // both paths, so the set of static branch sites is shared.
  const bool grid_slot =
      walk.block_offset == static_cast<std::uint64_t>(profile_.block_len) - 1;
  if (grid_slot) {
    ins.op = OpClass::kBranch;
  } else if (ins.op == OpClass::kBranch) {
    ins.op = OpClass::kLogicalCr;
  }

  ins.pc = walk.pc;

  // Only the fields the warming pass consumes: no register draws, no
  // recent-producer bookkeeping. The RNG therefore advances differently
  // than on the next() path — deterministic, same distributions.
  switch (ins.op) {
    case OpClass::kLoad:
    case OpClass::kStore:
      ins.mem_addr = gen_mem_addr(walk.rng);
      break;
    case OpClass::kBranch: {
      const bool preferred = sites_[walk.block_index].preferred_taken;
      ins.branch_taken =
          walk.rng.bernoulli_bits(noise_bits_) ? !preferred : preferred;
      break;
    }
    default:
      break;
  }

  advance_pc(ins, walk);
}

[[gnu::always_inline]] inline void SyntheticTrace::advance_pc(
    Instruction& ins, Walk& walk) const {
  if (ins.op == OpClass::kBranch) {
    // Branches occupy only the last slot of a block, and both exits land on
    // a block base (taken targets are block-aligned; not-taken falls into
    // the next block or wraps), so the block offset resets to zero.
    walk.block_offset = 0;
    if (ins.branch_taken) {
      // Jump to this static branch's fixed target block (BTB-learnable).
      const BranchSite& site = sites_[walk.block_index];
      ins.branch_target = site.target;
      walk.pc = site.target;
      walk.block_index = site.target_block;
    } else {
      ins.branch_target = walk.pc + kInstrBytes;
      walk.pc += kInstrBytes;
      ++walk.block_index;
      if (walk.pc >= kCodeBase + code_span_) {
        walk.pc = kCodeBase;
        walk.block_index = 0;
      }
    }
  } else {
    walk.pc += kInstrBytes;
    ++walk.block_offset;
  }
}

template <class Sink>
std::uint64_t SyntheticTrace::fast_forward(std::uint64_t n, Sink&& sink) {
  n = std::min(n, length_ - emitted_);
  Walk walk = walk_;
  Instruction ins;
  for (std::uint64_t i = 0; i < n; ++i) {
    synthesize_functional(ins, walk);
    sink(static_cast<const Instruction&>(ins));
  }
  walk_ = walk;
  emitted_ += n;
  return n;
}

}  // namespace ramp::trace
