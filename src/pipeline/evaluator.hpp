// End-to-end evaluation of one workload on one technology node:
// trace → timing simulation → power → thermal → RAMP.
//
// Implements the paper's methodology (§4):
//  1. Synthesize the workload's trace and run the Turandot-like timing
//     simulator to get per-interval activity factors (§4.1).
//  2. Convert activities to per-structure dynamic power; leakage follows
//     temperature (§4.2).
//  3. Two-run HotSpot methodology (§4.3): a steady-state solve from average
//     power pins the heat-sink temperature (with the leakage fixed point),
//     then a 1 µs-step transient rerun produces structure temperatures.
//     When scaling, the sink-to-ambient resistance is adjusted so each
//     application keeps its 180 nm heat-sink temperature.
//  4. RAMP computes instantaneous per-structure FIT values each interval
//     and keeps the running average (§4.4). Results here are *raw* (unit
//     proportionality constants); qualification rescales them (see sweep).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fit_tracker.hpp"
#include "obs/timeline.hpp"
#include "power/power_model.hpp"
#include "scaling/technology.hpp"
#include "sim/interval_stats.hpp"
#include "sim/sim_mode.hpp"
#include "thermal/rc_model.hpp"
#include "workloads/spec2k.hpp"

namespace ramp::pipeline {

struct EvaluationConfig {
  std::uint64_t trace_instructions = 300'000;
  std::uint64_t seed = 42;             ///< base RNG seed (per-app offsets added)
  double interval_seconds = 1e-6;      ///< RAMP/HotSpot granularity (§4.3/4.4)
  power::PowerModelConfig power{};
  thermal::ThermalConfig thermal{};
  /// When true, AppTechResult::interval_trace records the per-interval
  /// transient (time, hottest temp, power, instantaneous FIT).
  bool record_intervals = false;
  /// Whether the sweep may read/write its on-disk result cache. Does not
  /// affect results, so it is excluded from config_hash.
  bool cache_enabled = true;
  /// Mirror of the RAMP_METRICS switch (the obs registry/profiler read the
  /// variable themselves; this copy lets callers branch without re-parsing).
  /// Excluded from config_hash — metrics never affect results.
  bool metrics_enabled = true;
  /// Default destination for a metrics dump (RAMP_METRICS_PATH); empty means
  /// "stderr when requested". Excluded from config_hash.
  std::string metrics_path;
  /// Flight recorder: when true, AppTechResult::timeline carries the bounded
  /// per-interval physics sketch and the watchdog checks every interval.
  /// Recording never changes results, so all timeline/watchdog fields are
  /// excluded from config_hash. Defaults keep the PR 3 invariant: disabled
  /// means zero extra clock reads and byte-identical sweep output.
  bool timeline_enabled = false;
  /// Timeline point budget per cell (stride-doubling ring; >= 2).
  std::uint64_t timeline_points = 512;
  /// Default export directory for `--timeline` (RAMP_TIMELINE=DIR); empty
  /// means "<out-dir>/timeline" at the CLI layer.
  std::string timeline_dir;
  /// Default `--trace-out` destination (RAMP_TRACE_OUT); empty = disabled.
  std::string trace_out;
  /// Anomaly rules the watchdog applies when the timeline is enabled.
  obs::WatchdogRules watchdog{};
  /// Content-addressed per-stage memoization (see stage_graph.hpp). When
  /// true, an Evaluator constructed without an explicit StageStore creates
  /// its own; stage outputs are reused across evaluations whose stage keys
  /// match. Caching never changes results (staged output is byte-identical
  /// to the monolithic path), so both fields are excluded from config_hash.
  bool stage_cache_enabled = false;
  /// Persist directory for the stage store; empty = in-memory only. At the
  /// CLI layer a bare `--stage-cache` means "<out-dir>/stage_cache".
  std::string stage_cache_dir;
  /// Timing-simulation mode (see sim/sim_mode.hpp): detailed cycle-accurate
  /// OooCore (default), SMARTS-style sampled, or auto (resolved per run by
  /// resolved_sim_mode()). Sampled mode changes sim-stage results, so the
  /// *resolved* mode and its sampling parameters join config_hash / the sim
  /// stage key whenever it is not detailed — the detailed hash and `sim.v1`
  /// key stay frozen, keeping warm caches valid and default output
  /// byte-identical.
  sim::SimMode sim_mode = sim::SimMode::kDetailed;
  /// Sampling parameters for sampled mode (ignored by other modes).
  sim::SampledParams sampled{};

  /// The single place the environment overrides are read:
  ///   RAMP_TRACE_LEN     instructions per synthetic trace (default `trace_len`)
  ///   RAMP_SEED          base RNG seed (default 42)
  ///   RAMP_CACHE=off     disable the sweep cache (default on)
  ///   RAMP_METRICS       strict on/off switch for the obs subsystem
  ///   RAMP_METRICS_PATH  where `--metrics` dumps land by default
  ///   RAMP_TIMELINE      off (default) / on / a directory to export into
  ///   RAMP_TIMELINE_POINTS  per-cell point budget (default 512, >= 2)
  ///   RAMP_TRACE_OUT     default Chrome-trace output file
  ///   RAMP_WATCHDOG_TEMP_K  over-temperature trip point (Kelvin)
  ///   RAMP_STAGE_CACHE   off (default) / on (in-memory) / a persist directory
  ///   RAMP_SIM_MODE      detailed (default) / sampled / auto
  ///   RAMP_SIM_PERIOD    sampled: instructions per sampling period
  ///   RAMP_SIM_WARMUP    sampled: detailed warm-up instructions per unit
  ///   RAMP_SIM_MEASURE   sampled: instructions per measurement window
  ///   RAMP_SIM_WINDOWS   sampled: measurement windows per unit
  /// All other fields keep their defaults. Malformed values (non-numeric,
  /// signed, overflowing, a zero trace length, an unknown RAMP_SIM_MODE, or
  /// a RAMP_METRICS value that is not a recognised on/off spelling) throw
  /// InvalidArgument instead of being silently replaced by the default.
  static EvaluationConfig from_env(std::uint64_t trace_len = 300'000);
};

/// The concrete mode `auto` resolves to for this config: detailed below
/// 1M trace instructions (where sampling neither pays off nor meets its
/// ±2% tolerance contract), sampled from 1M up. Non-auto modes resolve
/// to themselves. Resolution happens *before* hashing/keying, so an auto
/// config with a long trace caches under the sampled key.
sim::SimMode resolved_sim_mode(const EvaluationConfig& cfg);

/// One recorded transient sample (record_intervals = true).
struct IntervalSample {
  double time_s = 0.0;
  double hottest_temp_k = 0.0;
  double total_power_w = 0.0;
  /// Instantaneous per-mechanism FIT with unit proportionality constants;
  /// apply qualification constants before aggregating across mechanisms
  /// (raw magnitudes are not comparable between mechanisms).
  std::array<double, core::kNumMechanisms> raw_mechanism_fit{};
  double ipc = 0.0;

  /// Qualified instantaneous total under the given constants.
  double qualified_total(const core::MechanismConstants& k) const {
    double total = 0.0;
    for (int m = 0; m < core::kNumMechanisms; ++m) {
      total += raw_mechanism_fit[static_cast<std::size_t>(m)] *
               k.get(static_cast<core::Mechanism>(m));
    }
    return total;
  }
};

/// Everything measured for one (application, technology) pair.
struct AppTechResult {
  std::string app;
  scaling::TechPoint tech = scaling::TechPoint::k180nm;

  // Performance.
  double ipc = 0.0;

  // Power (time-averaged over the transient run, Watts).
  double avg_dynamic_power_w = 0.0;
  double avg_leakage_power_w = 0.0;
  double avg_total_power_w = 0.0;

  // Temperatures (Kelvin).
  double max_structure_temp_k = 0.0;  ///< hottest structure, any interval
  double sink_temp_k = 0.0;           ///< steady-state heat-sink temperature
  double avg_die_temp_k = 0.0;        ///< area-weighted, time-averaged

  // Worst-case inputs.
  double max_activity = 0.0;

  /// Raw FIT summary (proportionality constants = 1). Scale with the
  /// qualification constants for absolute FIT.
  core::FitSummary raw_fits;

  sim::RunStats run;

  /// Transient time-series (empty unless EvaluationConfig::record_intervals).
  std::vector<IntervalSample> interval_trace;

  /// Flight-recorder sketch (empty unless EvaluationConfig::timeline_enabled).
  /// The final point's fit_avg equals raw_fits.by_mechanism() exactly.
  obs::CellTimeline timeline;
  /// Watchdog incidents tripped during this evaluation (timeline mode only).
  std::vector<obs::Incident> incidents;
};

/// Scales a raw summary by qualification constants (FIT is linear in them).
core::FitSummary scale_summary(const core::FitSummary& raw,
                               const core::MechanismConstants& k);

class StageStore;

class Evaluator {
 public:
  /// When `store` is null and `cfg.stage_cache_enabled` is set, the
  /// evaluator creates a private StageStore from the config's stage-cache
  /// fields; pass a shared store to reuse stage outputs across evaluators
  /// (SweepRunner and serve::EvalService do).
  explicit Evaluator(EvaluationConfig cfg,
                     std::shared_ptr<StageStore> store = nullptr);

  /// Evaluates `w` at `tech`. When `sink_target_k > 0`, the sink-to-ambient
  /// resistance is calibrated so the steady-state sink temperature equals
  /// the target (the paper's constant-sink-temperature scaling rule);
  /// otherwise the base 0.8 K/W resistance is used as-is.
  AppTechResult evaluate(const workloads::Workload& w, scaling::TechPoint tech,
                         double sink_target_k = 0.0) const;

  /// Evaluates `w` at every node: 180 nm first (pinning the app's sink
  /// temperature), then each scaled node holding that sink temperature.
  std::vector<AppTechResult> evaluate_app(const workloads::Workload& w) const;

  /// Evaluates an arbitrary instruction stream (file replay, phased trace,
  /// external tooling) instead of a named workload's synthetic trace.
  /// `label` names the result; `power_bias` calibrates per-app dynamic
  /// energy (1.0 when unknown).
  AppTechResult evaluate_stream(trace::TraceReader& stream,
                                const std::string& label, double power_bias,
                                scaling::TechPoint tech,
                                double sink_target_k = 0.0) const;

  const EvaluationConfig& config() const { return cfg_; }

  /// The stage store evaluations schedule against (null = memoization off).
  const std::shared_ptr<StageStore>& stage_store() const { return store_; }

 private:
  AppTechResult evaluate_staged(const workloads::Workload& w,
                                scaling::TechPoint tech,
                                double sink_target_k) const;

  EvaluationConfig cfg_;
  std::shared_ptr<StageStore> store_;
};

}  // namespace ramp::pipeline
