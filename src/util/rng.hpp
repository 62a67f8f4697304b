// Deterministic pseudo-random number generation.
//
// Every stochastic component in this library (trace synthesis, failure
// injection tests) draws from Xoshiro256StarStar seeded explicitly, so any
// run is reproducible from its seed. We do not use std::mt19937 because its
// distributions are not guaranteed to be identical across standard library
// implementations; our distribution helpers below are self-contained.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace ramp {

/// SplitMix64 (Steele, Lea & Flood / Vigna; public domain algorithm): a
/// 64-bit counter-based generator whose output is a bijective mix of an
/// additive Weyl sequence. Two roles here:
///  - seed expansion for Xoshiro256 (its historical use in this library),
///  - *stream splitting*: `stream_seed(base, k)` derives statistically
///    independent child seeds from one master seed, so a whole fleet of
///    per-chip generators is governed by a single `--seed` and a chip index,
///    independent of iteration or sharding order.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit SplitMix64(std::uint64_t seed = 0) : state_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// The golden-ratio Weyl increment of the reference implementation.
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

  /// The stateless finalizer (Stafford's mix13 variant used by the
  /// reference SplitMix64): a bijection on 64-bit words.
  static constexpr std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  result_type operator()() {
    state_ += kGamma;
    return mix(state_);
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  std::uint64_t state() const { return state_; }

 private:
  std::uint64_t state_;
};

/// Deterministic substream seed: child `stream` of master seed `base`.
/// Distinct (base, stream) pairs give uncorrelated seeds (the counter jump
/// lands each stream kGamma·(stream+1) apart on the Weyl orbit before the
/// mix), so per-chip/per-sample generators seeded this way behave as
/// independent streams while one master seed reproduces the entire set.
constexpr std::uint64_t stream_seed(std::uint64_t base, std::uint64_t stream) {
  return SplitMix64::mix(base + SplitMix64::kGamma * (stream + 1));
}

/// xoshiro256** 1.0 by Blackman & Vigna (public domain algorithm).
/// Fast, high-quality 64-bit generator with 2^256-1 period.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from `seed` via SplitMix64 so that even
  /// trivially-different seeds (0, 1, 2, ...) produce uncorrelated streams.
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n) by Lemire's multiply-shift, with rejection
  /// to remove modulo bias. Inline: trace synthesis draws several per
  /// instruction.
  std::uint64_t below(std::uint64_t n) {
    if (n == 0) [[unlikely]] below_needs_positive_range();
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli draw with probability p of returning true.
  bool bernoulli(double p) { return uniform() < p; }

  /// The integer form of bernoulli(p): with `threshold` =
  /// bernoulli_threshold(p) it takes the same draw and returns the same
  /// outcome, comparing the draw's top 53 bits instead of converting them
  /// to a double (uniform() is exactly those bits times 2^-53).
  bool bernoulli_bits(std::uint64_t threshold) {
    return ((*this)() >> 11) < threshold;
  }
  static std::uint64_t bernoulli_threshold(double p);

  /// Geometric draw: number of failures before first success, success prob p.
  std::uint64_t geometric(double p);

  /// geometric(p) for p < 1 with `log1m_p` = std::log1p(-p) hoisted by the
  /// caller: the same draw and the same arithmetic, minus one log per call.
  std::uint64_t geometric_log1m(double log1m_p);

  /// Standard normal via Box-Muller (no cached second value; simple and
  /// deterministic call-for-call).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

 private:
  [[noreturn]] static void below_needs_positive_range();

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

/// Samples indices from a fixed discrete distribution in O(1) per draw using
/// Walker's alias method. Weights need not be normalized.
class AliasTable {
 public:
  AliasTable() = default;
  explicit AliasTable(std::span<const double> weights) { rebuild(weights); }

  void rebuild(std::span<const double> weights);

  /// Number of categories (0 when default-constructed).
  std::size_t size() const { return slots_.size(); }

  /// Draws a category index in [0, size()).
  std::size_t sample(Xoshiro256& rng) const {
    if (slots_.empty()) [[unlikely]] sample_needs_categories();
    const std::size_t i = static_cast<std::size_t>(rng.below(slots_.size()));
    // Both outcomes are loaded before the compare so the pick compiles to
    // a conditional move: the coin is random, a branch on it mispredicts.
    const Slot& slot = slots_[i];
    const bool keep = rng.bernoulli_bits(slot.keep_bits);
    const std::size_t alias = slot.alias;
    return keep ? i : alias;
  }

 private:
  [[noreturn]] static void sample_needs_categories();

  struct Slot {
    std::uint64_t keep_bits;  ///< bernoulli_threshold of keeping the slot
    std::uint32_t alias;      ///< the category drawn otherwise
  };
  std::vector<Slot> slots_;
};

}  // namespace ramp
