// Sample statistics and open-loop accounting shared by the workloads.
// Header-only and dependency-free so perfbench_selftest can cover it alone.
//
// Conventions:
//  - a failed, refused or unanswered request is a sample of +infinity: it
//    misses every latency limit, so failures push percentiles up instead of
//    vanishing from them;
//  - a percentile is reported only when at least kMinBeyond samples lie
//    beyond it (p50 needs 20 samples, p99 needs 1000), otherwise it is
//    "not reportable" and the run that needed it is invalid;
//  - open-loop latency is measured from each request's due time, not from
//    when the driver got round to sending it, so a late driver cannot hide
//    queueing (no coordinated omission).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;
inline constexpr double kFailed = std::numeric_limits<double>::infinity();

/// Median by linear interpolation between the two middle order statistics
/// (what Python's statistics.median returns). Empty → NaN.
inline double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank q-quantile (q in (0, 1)): the smallest sample with at least
/// q·n samples at or below it. nullopt unless at least kMinBeyond samples
/// lie strictly after its rank. +inf samples (failures) sort last.
inline std::optional<double> percentile(std::vector<double> v, double q) {
  const std::size_t n = v.size();
  if (n == 0 || !(q > 0.0 && q < 1.0)) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (n - 1 - idx < kMinBeyond) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

/// Pass/fail tally of one run: every operation the benchmark attempted and
/// every one whose output was wrong, missing or refused.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// One open-loop request: when it was due, sent and answered (seconds on one
/// monotonic clock; recv < 0 means unanswered), and whether its answer was
/// right.
struct OpenLoopRecord {
  int cls = 0;
  double due = 0.0;
  double send = -1.0;
  double recv = -1.0;
  bool ok = false;

  bool answered() const { return recv >= 0.0; }
  /// Latency from the due time; failures and unanswered requests are +inf.
  double latency() const { return ok && answered() ? recv - due : kFailed; }
  /// How late the driver sent it (0 when on time; +inf when never sent).
  double lateness() const {
    return send < 0.0 ? kFailed : std::max(0.0, send - due);
  }
};

/// Fixed-rate arrival schedule for several request classes. Class c sends
/// every 1/rate[c] seconds from start + phase[c], where the phases are
/// drawn from `seed`, so one seed always gives the same schedule.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(const std::vector<double>& rates_per_s, double duration_s,
                   std::uint64_t seed) {
    std::uint64_t s = seed ^ 0x9e3779b97f4a7c15ULL;
    for (std::size_t c = 0; c < rates_per_s.size(); ++c) {
      const double rate = rates_per_s[c];
      if (!(rate > 0.0)) continue;
      const double gap = 1.0 / rate;
      // SplitMix64 step → uniform phase in [0, gap).
      s += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = s;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      z ^= z >> 31;
      const double phase =
          gap * static_cast<double>(z >> 11) * 0x1.0p-53;
      for (double t = phase; t < duration_s; t += gap) {
        arrivals_.push_back({static_cast<int>(c), t});
      }
    }
    std::stable_sort(arrivals_.begin(), arrivals_.end(),
                     [](const Arrival& a, const Arrival& b) {
                       return a.offset < b.offset;
                     });
  }

  struct Arrival {
    int cls;
    double offset;  ///< seconds after the schedule start
  };
  const std::vector<Arrival>& arrivals() const { return arrivals_; }

  /// Records for a run starting at `start` (due times filled, nothing sent).
  std::vector<OpenLoopRecord> records(double start) const {
    std::vector<OpenLoopRecord> out;
    out.reserve(arrivals_.size());
    for (const auto& a : arrivals_) {
      OpenLoopRecord r;
      r.cls = a.cls;
      r.due = start + a.offset;
      out.push_back(r);
    }
    return out;
  }

 private:
  std::vector<Arrival> arrivals_;
};

/// Latencies (seconds, from due time) of one class; failures are +inf.
inline std::vector<double> class_latencies(
    const std::vector<OpenLoopRecord>& recs, int cls) {
  std::vector<double> out;
  for (const auto& r : recs) {
    if (r.cls == cls) out.push_back(r.latency());
  }
  return out;
}

/// Driver lateness (seconds) of every record.
inline std::vector<double> latenesses(const std::vector<OpenLoopRecord>& recs) {
  std::vector<double> out;
  out.reserve(recs.size());
  for (const auto& r : recs) out.push_back(r.lateness());
  return out;
}

}  // namespace perfbench
