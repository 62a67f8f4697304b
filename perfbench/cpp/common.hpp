// Shared plumbing of the perfbench workloads: options, clocks, the result
// report every workload prints, and small process/file helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "pipeline/evaluator.hpp"
#include "stats.hpp"

namespace perfbench {

/// Command-line options common to every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t jobs = 1;          ///< worker threads (≤ nproc)
  std::filesystem::path work;    ///< scratch directory owned by this run
  std::filesystem::path data;    ///< perfbench/data (digests, references)
  std::filesystem::path ramp;    ///< the `ramp` CLI binary (serve workload)
  std::filesystem::path golden;  ///< the repo's golden 4000-instr sweep CSV
  std::string make_reference;    ///< fleet: write the detailed reference here
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Everything one workload run reports. Metric values keep full precision.
class Report {
 public:
  explicit Report(const Options& o) : opts_(o) {}

  void e2e(const std::string& name, double value, const std::string& unit) {
    e2e_[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers_[name] = {value, unit};
  }
  /// Extra numbers under the names the workload's own docs use.
  void info(const std::string& name, double value, const std::string& unit) {
    info_[name] = {value, unit};
  }
  /// The raw samples behind a median, kept in the results file together
  /// with their count and the highest of p99/p95/p90/p75 that has at least
  /// kMinBeyond samples beyond it (under info, as <name>_n / <name>_p<q>).
  void samples(const std::string& name, const std::vector<double>& v,
               const std::string& unit);
  /// One output check; every check is one attempted operation.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  Tally& tally() { return tally_; }

  /// Prints the report as one JSON line on stdout.
  void print() const;

 private:
  using Metric = std::pair<double, std::string>;
  const Options& opts_;
  std::map<std::string, Metric> e2e_, layers_, info_;
  std::map<std::string, std::vector<double>> samples_;
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Check> checks_;
  Tally tally_;
};

/// The paper's default configuration at `trace_len` instructions per cell
/// (environment overrides are deliberately not read).
ramp::pipeline::EvaluationConfig paper_config(std::uint64_t trace_len);

/// Peak resident set of this process (MiB).
double self_peak_rss_mb();
/// Peak resident set of another live process from /proc (MiB); 0 if gone.
double pid_peak_rss_mb(int pid);

/// CPUs this process may run on.
std::vector<int> allowed_cpus();

/// Pins the calling thread to cpus[k % size]. Short single-threaded
/// repetitions rotate over every CPU this way: on a shared VM one vCPU can
/// run ~1.6× slower than another for seconds at a time, and a thread left
/// where the scheduler put it would measure that one vCPU all run long.
void pin_rotating(const std::vector<int>& cpus, int k);

/// Thread CPU time of the calling thread (seconds).
double thread_cpu_s();

/// Pins the calling thread to `cpus` (threads it starts afterwards inherit
/// the mask); no-op when the list is empty or pinning fails.
void pin_to(const std::vector<int>& cpus);

/// Removes and recreates `dir`.
void fresh_dir(const std::filesystem::path& dir);

std::string read_file(const std::filesystem::path& p);
void write_file(const std::filesystem::path& p, const std::string& text);

/// 64-bit FNV-1a of `text`, as 16 hex digits.
std::string fnv_hex(const std::string& text);

/// Benchmark seed → a distinct 64-bit stream (SplitMix64 finalizer).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// `s` as a JSON string literal (quotes included).
std::string json_quote(const std::string& s);

// The workloads; each prints one Report and returns the exit code.
int run_sweep(const Options& o);
int run_fleet(const Options& o);
int run_serve(const Options& o);

}  // namespace perfbench
