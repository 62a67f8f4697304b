#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "common.hpp"
#include "sim/core_config.hpp"
#include "sim/sampled_core.hpp"
#include "trace/synthetic_generator.hpp"

namespace perfbench {

namespace rp = ramp::pipeline;
using ramp::trace::Instruction;

namespace {

/// Passes a reader through while recording the call sequence.
class RecordingReader final : public ramp::trace::TraceReader {
 public:
  explicit RecordingReader(ramp::trace::TraceReader& inner) : inner_(inner) {}
  bool next(Instruction& out) override { return note(inner_.next(out), false); }
  bool next_functional(Instruction& out) override {
    return note(inner_.next_functional(out), true);
  }
  CallSequence take() { return std::move(calls_); }

 private:
  bool note(bool ok, bool functional) {
    if (!ok) return false;
    if (calls_.empty() || calls_.back().functional != functional) {
      calls_.push_back({functional, 0});
    }
    ++calls_.back().count;
    return true;
  }
  ramp::trace::TraceReader& inner_;
  CallSequence calls_;
};

/// Serves a pre-drawn instruction buffer in order, whichever method asks.
class ReplayReader final : public ramp::trace::TraceReader {
 public:
  explicit ReplayReader(const std::vector<Instruction>& buf) : buf_(buf) {}
  bool next(Instruction& out) override {
    if (pos_ == buf_.size()) return false;
    out = buf_[pos_++];
    return true;
  }
  bool next_functional(Instruction& out) override { return next(out); }

 private:
  const std::vector<Instruction>& buf_;
  std::size_t pos_ = 0;
};

/// StageStore::get_or_compute with the store's own time (lookup, codec,
/// disk) booked to store_s: the call's wall time minus the compute callback.
template <typename T>
T timed_get(rp::StageStore& store, rp::StageId id, const rp::StageKey& key,
            const std::function<T()>& body, LayerTimes& lt) {
  double callback_s = 0.0;
  const double t0 = now_s();
  T out = store.get_or_compute<T>(id, key, [&]() -> T {
    const double c0 = now_s();
    T v = body();
    callback_s = now_s() - c0;
    return v;
  });
  lt.store_s += (now_s() - t0) - callback_s;
  return out;
}

/// Draws the cell's stream into `buf` in the given call order (all next()
/// when `calls` is null), booking the draws to synthesis / functional.
void draw_stream(ramp::trace::SyntheticTrace& stream, const CallSequence* calls,
                 std::vector<Instruction>& buf, LayerTimes& lt) {
  Instruction in;
  if (calls == nullptr) {
    const double t0 = now_s();
    while (stream.next(in)) buf.push_back(in);
    lt.synth_s += now_s() - t0;
    lt.next_calls += buf.size();
    return;
  }
  for (const CallRun& run : *calls) {
    const double t0 = now_s();
    std::uint64_t k = 0;
    if (run.functional) {
      for (; k < run.count && stream.next_functional(in); ++k) buf.push_back(in);
      lt.functional_s += now_s() - t0;
      lt.functional_calls += k;
    } else {
      for (; k < run.count && stream.next(in); ++k) buf.push_back(in);
      lt.synth_s += now_s() - t0;
      lt.next_calls += k;
    }
  }
}

}  // namespace

void SampledStats::add(const ramp::sim::FastSimStats& s) {
  ++cells;
  coverage_sum += s.coverage;
  units += s.units;
  ipc_half_width_max = std::max(ipc_half_width_max, s.ipc_half_width);
  activity_half_width_max =
      std::max(activity_half_width_max, s.activity_half_width);
}

CallSequence record_sampled_calls(const rp::EvaluationConfig& cfg,
                                  const ramp::workloads::Workload& w,
                                  ramp::scaling::TechPoint tech,
                                  SampledStats* stats) {
  const auto& node = ramp::scaling::node(tech);
  const ramp::sim::CoreConfig core_cfg = ramp::sim::core_config_for(node);
  const auto interval_cycles = static_cast<std::uint64_t>(
      std::llround(core_cfg.frequency_hz * cfg.interval_seconds));
  ramp::trace::SyntheticTrace stream(w.profile, cfg.trace_instructions,
                                     rp::app_trace_seed(cfg.seed, w.name));
  RecordingReader rec(stream);
  ramp::sim::SampledCore core(core_cfg, cfg.sampled);
  (void)core.run(rec, interval_cycles);
  if (stats != nullptr) stats->add(core.fast_stats());
  return rec.take();
}

rp::AppTechResult replicate_cell(const rp::EvaluationConfig& cfg,
                                 rp::StageStore& store,
                                 const ramp::workloads::Workload& w,
                                 ramp::scaling::TechPoint tech_point,
                                 double sink_target_k,
                                 const CallSequence* calls, LayerTimes& lt) {
  const auto& tech = ramp::scaling::node(tech_point);
  const std::string cell =
      w.name + "@" + std::string(ramp::scaling::tech_token(tech_point));
  const ramp::sim::SimMode mode = rp::resolved_sim_mode(cfg);

  const rp::TraceStageIn tin{w.name, w.profile, cfg.trace_instructions,
                             cfg.seed};
  const rp::StageKey tkey = rp::trace_stage_key(tin);
  const rp::StageKey skey = rp::sim_stage_key(
      tkey, tech.frequency_hz, cfg.interval_seconds, mode, cfg.sampled);
  const rp::StageKey pkey =
      rp::power_stage_key(skey, cfg.power, w.power_bias, tech);
  const rp::StageKey hkey =
      rp::thermal_stage_key(pkey, cfg, tech, sink_target_k);
  const rp::StageKey fkey = rp::fit_stage_key(hkey, tech);

  // Same lazy pull order as Evaluator::evaluate_staged.
  std::optional<rp::SimStageOut> sim_out;
  const auto get_sim = [&]() -> const rp::SimStageOut& {
    if (!sim_out) {
      sim_out = timed_get<rp::SimStageOut>(
          store, rp::StageId::kSim, skey,
          [&]() -> rp::SimStageOut {
            (void)timed_get<rp::TraceStageOut>(
                store, rp::StageId::kTrace, tkey,
                [&] { return rp::TraceStageOut{tkey.canonical}; }, lt);
            ramp::trace::SyntheticTrace stream(
                w.profile, cfg.trace_instructions,
                rp::app_trace_seed(cfg.seed, w.name));
            std::vector<Instruction> buf;
            buf.reserve(cfg.trace_instructions);
            draw_stream(stream, calls, buf, lt);
            ReplayReader replay(buf);
            const double t0 = now_s();
            rp::SimStageOut out = rp::run_sim_stage(cfg, tech, replay, cell);
            const double dt = now_s() - t0;
            const auto& tot = out.result.totals;
            lt.cycles += tot.cycles;
            if (mode == ramp::sim::SimMode::kSampled) {
              lt.sampled_s += dt;
              lt.sampled_instr += tot.instructions;
            } else {
              lt.detailed_s += dt;
              lt.detailed_instr += tot.instructions;
              lt.detailed_cycles += tot.cycles;
            }
            return out;
          },
          lt);
    }
    return *sim_out;
  };
  std::optional<rp::PowerStageOut> power_out;
  const auto get_power = [&]() -> const rp::PowerStageOut& {
    if (!power_out) {
      power_out = timed_get<rp::PowerStageOut>(
          store, rp::StageId::kPower, pkey,
          [&] {
            const rp::SimStageOut& s = get_sim();
            const double t0 = now_s();
            rp::PowerStageOut p =
                rp::run_power_stage(cfg, tech, w.power_bias, s.result, cell);
            lt.power_s += now_s() - t0;
            return p;
          },
          lt);
    }
    return *power_out;
  };
  std::optional<rp::ThermalStageOut> thermal_out;
  const auto get_thermal = [&]() -> const rp::ThermalStageOut& {
    if (!thermal_out) {
      thermal_out = timed_get<rp::ThermalStageOut>(
          store, rp::StageId::kThermal, hkey,
          [&] {
            const rp::PowerStageOut& p = get_power();
            const double t0 = now_s();
            rp::ThermalStageOut h =
                rp::run_thermal_stage(cfg, tech, sink_target_k, p, cell);
            lt.thermal_s += now_s() - t0;
            lt.thermal_intervals += h.struct_temps.size();
            return h;
          },
          lt);
    }
    return *thermal_out;
  };

  rp::AppTechResult r = timed_get<rp::AppTechResult>(
      store, rp::StageId::kFit, fkey,
      [&] {
        const rp::SimStageOut& s = get_sim();
        const rp::PowerStageOut& p = get_power();
        const rp::ThermalStageOut& h = get_thermal();
        const double t0 = now_s();
        rp::AppTechResult fresh = rp::run_fit_stage(cfg, tech, s.result, p, h, cell);
        lt.fit_s += now_s() - t0;
        lt.fit_intervals += s.result.intervals.size();
        fresh.app = w.name;
        fresh.tech = tech_point;
        return fresh;
      },
      lt);
  r.app = w.name;
  r.tech = tech_point;
  return r;
}

std::uint64_t counter_value(const ramp::obs::MetricsRegistry& reg,
                            const std::string& name) {
  for (const auto& [n, v] : reg.snapshot().counters) {
    if (n == name) return v;
  }
  return 0;
}

void report_layers(Report& rep, const LayerTimes& lt,
                   const ramp::obs::MetricsRegistry* reg) {
  const auto per = [](double s, std::uint64_t n) {
    return n == 0 ? 0.0 : 1e9 * s / static_cast<double>(n);
  };
  rep.layer("trace.synth_s", lt.synth_s, "s");
  rep.layer("trace.synth_ns_per_instr", per(lt.synth_s, lt.next_calls), "ns");
  rep.layer("trace.functional_ns_per_instr",
            per(lt.functional_s, lt.functional_calls), "ns");
  rep.layer("trace.next_calls", static_cast<double>(lt.next_calls), "count");
  rep.layer("trace.functional_calls", static_cast<double>(lt.functional_calls),
            "count");
  rep.layer("sim.detailed_s", lt.detailed_s, "s");
  rep.layer("sim.detailed_ns_per_instr", per(lt.detailed_s, lt.detailed_instr),
            "ns");
  rep.layer("sim.detailed_ns_per_cycle", per(lt.detailed_s, lt.detailed_cycles),
            "ns");
  rep.layer("sim.cycles", static_cast<double>(lt.cycles), "count");
  rep.layer("sim.sampled_s", lt.sampled_s, "s");
  rep.layer("sim.sampled_ns_per_instr", per(lt.sampled_s, lt.sampled_instr),
            "ns");
  rep.layer("power.s", lt.power_s, "s");
  rep.layer("thermal.s", lt.thermal_s, "s");
  rep.layer("thermal.intervals", static_cast<double>(lt.thermal_intervals),
            "count");
  rep.layer("thermal.ns_per_interval", per(lt.thermal_s, lt.thermal_intervals),
            "ns");
  rep.layer("core.fit_s", lt.fit_s, "s");
  rep.layer("core.ns_per_interval", per(lt.fit_s, lt.fit_intervals), "ns");
  rep.layer("pipeline.store_s", lt.store_s, "s");
  if (reg == nullptr) return;
  for (const char* stage : {"trace", "sim", "power", "thermal", "fit"}) {
    for (const char* what : {"hits", "misses", "writes"}) {
      const std::string name =
          std::string("ramp_stage_") + stage + "_" + what + "_total";
      rep.layer(std::string("pipeline.") + stage + "_" + what,
                static_cast<double>(counter_value(*reg, name)), "count");
    }
  }
}

void report_ledger(Report& rep, double traced_e2e_s, double layer_sum_s,
                   double untraced_e2e_s) {
  const double unattributed = traced_e2e_s - layer_sum_s;
  rep.layer("ledger.traced_e2e_s", traced_e2e_s, "s");
  rep.layer("ledger.unattributed_s", unattributed, "s");
  rep.layer("ledger.unattributed_frac",
            traced_e2e_s > 0.0 ? unattributed / traced_e2e_s : 0.0, "ratio");
  rep.layer("ledger.trace_overhead_frac",
            untraced_e2e_s > 0.0 ? traced_e2e_s / untraced_e2e_s - 1.0 : 0.0,
            "ratio");
  // The identity is arithmetic, but checking it keeps a future edit from
  // reporting layers that were summed differently than they were printed.
  const double residual = std::fabs(layer_sum_s + unattributed - traced_e2e_s);
  rep.check("ledger.sums_to_traced_e2e",
            residual <= 1e-9 * std::max(1.0, traced_e2e_s) &&
                unattributed > -1e-6 * traced_e2e_s,
            "layers " + std::to_string(layer_sum_s) + " s + unattributed " +
                std::to_string(unattributed) + " s vs traced " +
                std::to_string(traced_e2e_s) + " s");
}

}  // namespace perfbench
