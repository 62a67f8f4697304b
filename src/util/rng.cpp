#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace ramp {

void Xoshiro256::reseed(std::uint64_t seed) {
  // Seed expansion via SplitMix64, bit-identical to the historical inline
  // implementation (same Weyl increment, same finalizer).
  SplitMix64 s(seed);
  for (auto& word : state_) word = s();
  // All-zero state is the one invalid state for xoshiro; splitmix64 cannot
  // produce four zero words from any seed, but guard anyway.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

void Xoshiro256::below_needs_positive_range() {
  detail::throw_invalid("n > 0", __FILE__, __LINE__, "below(n) needs n >= 1");
}

std::uint64_t Xoshiro256::geometric(double p) {
  RAMP_REQUIRE(p > 0.0 && p <= 1.0, "geometric(p) needs p in (0, 1]");
  if (p >= 1.0) return 0;
  return geometric_log1m(std::log1p(-p));
}

std::uint64_t Xoshiro256::geometric_log1m(double log1m_p) {
  // Inverse-CDF: floor(ln(U) / ln(1-p)) with U in (0, 1].
  const double u = 1.0 - uniform();  // (0, 1]
  const double draws = std::floor(std::log(u) / log1m_p);
  return draws < 0.0 ? 0 : static_cast<std::uint64_t>(draws);
}

std::uint64_t Xoshiro256::bernoulli_threshold(double p) {
  // uniform() = k * 2^-53 for the draw's top 53 bits k, so uniform() < p
  // iff k < p * 2^53 (exact: a power-of-two scaling) iff k < ceil(p * 2^53).
  if (!(p > 0.0)) return 0;  // never true (also for NaN)
  if (p >= 1.0) return std::uint64_t{1} << 53;  // always true
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

double Xoshiro256::normal() {
  // Box-Muller; u1 in (0,1] to keep log finite.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

void AliasTable::rebuild(std::span<const double> weights) {
  RAMP_REQUIRE(!weights.empty(), "alias table needs at least one weight");
  const std::size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) {
    RAMP_REQUIRE(w >= 0.0, "alias table weights must be non-negative");
    total += w;
  }
  RAMP_REQUIRE(total > 0.0, "alias table needs a positive total weight");

  std::vector<double> prob(n, 0.0);
  std::vector<std::uint32_t> alias(n, 0);

  // Scaled probabilities; categories above/below 1 feed Walker's pairing.
  std::vector<double> scaled(n);
  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    const std::uint32_t l = large.back();
    small.pop_back();
    prob[s] = scaled[s];
    alias[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (std::uint32_t l : large) prob[l] = 1.0;
  for (std::uint32_t s : small) prob[s] = 1.0;  // numerical leftovers
  slots_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    slots_[i] = {Xoshiro256::bernoulli_threshold(prob[i]), alias[i]};
  }
}

void AliasTable::sample_needs_categories() {
  detail::throw_invalid("size() > 0", __FILE__, __LINE__,
                        "sampling from an empty alias table");
}

}  // namespace ramp
