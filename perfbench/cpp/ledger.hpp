// The per-layer ledger: a replica of pipeline::Evaluator's staged cell
// evaluation, built from the pipeline's public stage bodies and the
// StageStore, with each layer timed from the outside.
//
// The replica differs from Evaluator::evaluate in one way only: the trace is
// drawn into a buffer first (timed as synthesis) and the simulator then runs
// over a replay of that buffer (timed as simulation), so synthesis, which is
// pull-driven and invisible inside `sim` in the program, gets its own line.
// The stage keys, the lazy lookup order and the stage bodies are the
// program's own, and every workload checks that each replicated cell's
// encode_payload is byte-identical to what Evaluator::evaluate produced —
// so the ledger cannot drift from the program without failing the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/evaluator.hpp"
#include "pipeline/stage_graph.hpp"
#include "sim/sim_mode.hpp"
#include "trace/instruction.hpp"
#include "workloads/spec2k.hpp"

namespace perfbench {

class Report;

/// The order in which a simulator pulled its instructions: alternating runs
/// of next() and next_functional() calls that returned an instruction.
struct CallRun {
  bool functional = false;
  std::uint64_t count = 0;
};
using CallSequence = std::vector<CallRun>;

/// Wall time and work per layer, accumulated over replicated cells.
struct LayerTimes {
  double synth_s = 0.0;       ///< SyntheticTrace::next() draws
  double functional_s = 0.0;  ///< SyntheticTrace::next_functional() draws
  std::uint64_t next_calls = 0;
  std::uint64_t functional_calls = 0;

  double detailed_s = 0.0;    ///< run_sim_stage, detailed mode
  std::uint64_t detailed_instr = 0;
  std::uint64_t detailed_cycles = 0;
  double sampled_s = 0.0;     ///< run_sim_stage, sampled mode
  std::uint64_t sampled_instr = 0;
  std::uint64_t cycles = 0;   ///< simulated cycles over every sim miss

  double power_s = 0.0;
  double thermal_s = 0.0;
  std::uint64_t thermal_intervals = 0;
  double fit_s = 0.0;
  std::uint64_t fit_intervals = 0;
  double store_s = 0.0;       ///< get_or_compute wall − compute callback

  double layer_sum_s() const {
    return synth_s + functional_s + detailed_s + sampled_s + power_s +
           thermal_s + fit_s + store_s;
  }
};

/// Estimator metadata of a set of sampled runs (benchmark-owned SampledCore).
struct SampledStats {
  std::uint64_t cells = 0;
  double coverage_sum = 0.0;
  std::uint64_t units = 0;
  double ipc_half_width_max = 0.0;
  double activity_half_width_max = 0.0;
  void add(const ramp::sim::FastSimStats& s);
};

/// Runs a benchmark-owned SampledCore over the cell's exact synthetic
/// stream through a counting decorator and returns the call sequence.
CallSequence record_sampled_calls(const ramp::pipeline::EvaluationConfig& cfg,
                                  const ramp::workloads::Workload& w,
                                  ramp::scaling::TechPoint tech,
                                  SampledStats* stats);

/// Replicates Evaluator::evaluate(w, tech, sink_target_k) against `store`.
/// `calls` is the recorded call sequence for sampled cells, null for
/// detailed ones (which pull with next() only).
ramp::pipeline::AppTechResult replicate_cell(
    const ramp::pipeline::EvaluationConfig& cfg,
    ramp::pipeline::StageStore& store, const ramp::workloads::Workload& w,
    ramp::scaling::TechPoint tech, double sink_target_k,
    const CallSequence* calls, LayerTimes& lt);

/// Value of a counter in `reg` (0 when absent).
std::uint64_t counter_value(const ramp::obs::MetricsRegistry& reg,
                            const std::string& name);

/// Reports the layer lines every workload shares: trace.*, sim.*, power.*,
/// thermal.*, core.*, pipeline.store_s and the per-stage hit/miss/write
/// counters of `reg`.
void report_layers(Report& rep, const LayerTimes& lt,
                   const ramp::obs::MetricsRegistry* reg);

/// Reports the ledger identity: traced e2e = Σ layers + unattributed, and
/// the traced ÷ untraced overhead. Fails the run's ledger check when the
/// identity does not hold to rounding.
void report_ledger(Report& rep, double traced_e2e_s, double layer_sum_s,
                   double untraced_e2e_s);

}  // namespace perfbench
