#include "pipeline/stage_graph.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/fit_tracker.hpp"
#include "core/ramp_model.hpp"
#include "obs/timeline.hpp"
#include "sim/core_config.hpp"
#include "sim/ooo_core.hpp"
#include "sim/sampled_core.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/rc_model.hpp"
#include "util/hashing.hpp"
#include "util/stats.hpp"

namespace ramp::pipeline {

namespace {

std::string fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint64_t as_u64(std::int64_t v) {
  return static_cast<std::uint64_t>(v);
}

// Block index (floorplan order) for each structure (StructureId order).
std::array<std::size_t, sim::kNumStructures> block_of_structure(
    const thermal::Floorplan& fp) {
  std::array<std::size_t, sim::kNumStructures> map{};
  for (int s = 0; s < sim::kNumStructures; ++s) {
    map[static_cast<std::size_t>(s)] = fp.index_of(
        std::string(sim::structure_name(static_cast<sim::StructureId>(s))));
  }
  return map;
}

}  // namespace

std::string_view stage_id_name(StageId s) {
  switch (s) {
    case StageId::kTrace: return "trace";
    case StageId::kSim: return "sim";
    case StageId::kPower: return "power";
    case StageId::kThermal: return "thermal";
    case StageId::kFit: return "fit";
  }
  throw InvalidArgument("unknown stage id");
}

std::uint64_t app_trace_seed(std::uint64_t base, const std::string& app) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (char c : app) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return base ^ h;
}

// ---- stage keys ------------------------------------------------------------

StageKey trace_stage_key(const TraceStageIn& in) {
  // Every GeneratorProfile field, declared order. Frozen: append-only, and
  // any semantic change bumps the "trace.v1" tag.
  Fnv64 h;
  h.mix(static_cast<std::uint64_t>(in.profile.op_mix.size()));
  for (double v : in.profile.op_mix) h.mix(v);
  h.mix(in.profile.dep_distance_p);
  h.mix(in.profile.second_source_prob);
  h.mix(in.profile.stream_fraction);
  h.mix(as_u64(in.profile.num_streams));
  h.mix(static_cast<std::uint64_t>(in.profile.stream_stride));
  h.mix(in.profile.cold_fraction);
  h.mix(in.profile.hot_footprint_bytes);
  h.mix(in.profile.cold_footprint_bytes);
  h.mix(in.profile.branch_noise);
  h.mix(in.profile.taken_bias);
  h.mix(as_u64(in.profile.code_blocks));
  h.mix(as_u64(in.profile.block_len));
  return {"trace.v1|app=" + in.app + "|n=" + std::to_string(in.instructions) +
          "|seed=" + std::to_string(in.seed) + "|profile=" + h.hex()};
}

StageKey sim_stage_key(const StageKey& trace_key, double frequency_hz,
                       double interval_seconds, sim::SimMode mode,
                       const sim::SampledParams& sampled) {
  RAMP_REQUIRE(mode != sim::SimMode::kAuto,
               "sim_stage_key needs a resolved mode (see resolved_sim_mode)");
  const std::string base = "|up=(" + trace_key.canonical +
                           ")|f=" + fmt17(frequency_hz) +
                           "|dt=" + fmt17(interval_seconds);
  switch (mode) {
    case sim::SimMode::kSampled:
      // The sampling parameters shape the estimate, so they are part of the
      // payload's identity.
      return {"sim.sampled.v1" + base + "|p=" + std::to_string(sampled.period) +
              "|w=" + std::to_string(sampled.warmup) +
              "|m=" + std::to_string(sampled.measure) +
              "|k=" + std::to_string(sampled.windows)};
    default:
      // Detailed keeps the frozen PR 6 tag: warm caches stay valid.
      return {"sim.v1" + base};
  }
}

StageKey power_stage_key(const StageKey& sim_key,
                         const power::PowerModelConfig& power,
                         double power_bias,
                         const scaling::TechnologyNode& tech) {
  // Dynamic power reads: unconstrained per-structure power, the clock-gating
  // floor, and the C·V²·f scale factors of the node.
  Fnv64 h;
  for (double w : power.unconstrained_w_180nm) h.mix(w);
  h.mix(power.clock_gating_floor);
  h.mix(tech.relative_capacitance);
  h.mix(tech.vdd);
  h.mix(tech.frequency_hz);
  return {"power.v1|up=(" + sim_key.canonical + ")|bias=" + fmt17(power_bias) +
          "|dyn=" + h.hex()};
}

StageKey thermal_stage_key(const StageKey& power_key,
                           const EvaluationConfig& cfg,
                           const scaling::TechnologyNode& tech,
                           double sink_target_k) {
  // The RC network reads every ThermalConfig field (same order as
  // config_hash); leakage inside the thermal loop reads the leakage model
  // parameters plus the node's leakage density and area. interval_seconds
  // (the transient step) is covered transitively by the sim key upstream.
  Fnv64 h;
  h.mix(cfg.thermal.ambient_k);
  h.mix(cfg.thermal.r_convec_k_per_w);
  h.mix(cfg.thermal.r_vertical_specific);
  h.mix(cfg.thermal.r_spreader_sink);
  h.mix(cfg.thermal.k_silicon);
  h.mix(cfg.thermal.die_thickness);
  h.mix(cfg.thermal.c_silicon);
  h.mix(cfg.thermal.spreader_capacitance);
  h.mix(cfg.thermal.sink_capacitance);
  h.mix(cfg.power.leakage_beta);
  h.mix(cfg.power.leakage_ref_temp);
  h.mix(cfg.power.base_core_area_mm2);
  h.mix(tech.leakage_w_per_mm2_at_383k);
  h.mix(tech.relative_area);
  return {"thermal.v1|up=(" + power_key.canonical +
          ")|sink=" + fmt17(sink_target_k) + "|cfg=" + h.hex()};
}

StageKey fit_stage_key(const StageKey& thermal_key,
                       const scaling::TechnologyNode& tech) {
  // RAMP reads: voltage (EM/TDDB operating point), oxide thickness (TDDB),
  // current-density limit (EM), linear scale (EM interconnect w·h), and
  // relative area (per-structure area weights).
  Fnv64 h;
  h.mix(tech.vdd);
  h.mix(tech.tox_nm);
  h.mix(tech.jmax_ma_per_um2);
  h.mix(tech.linear_scale);
  h.mix(tech.relative_area);
  return {"fit.v1|up=(" + thermal_key.canonical + ")|cfg=" + h.hex()};
}

// ---- stage bodies ----------------------------------------------------------
//
// These four passes are the old interleaved evaluator loop cut at the stage
// boundaries. Byte-for-byte identity with that loop is a hard contract (the
// golden sweep CSVs pin it): each pass performs the same floating-point
// operations on the same values in the same per-variable order, so do not
// reorder arithmetic when editing.

namespace {

/// Fast-path observability: per-mode compute counters plus the latest
/// estimator quality gauges. Recorded only when a sim stage actually
/// computes (cache hits replay stored payloads and touch no estimator).
void record_sim_mode_metrics(sim::SimMode mode,
                             const sim::FastSimStats& fast) {
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("ramp_sim_mode_" + std::string(sim::sim_mode_name(mode)) +
              "_total")
      .inc();
  if (mode == sim::SimMode::kDetailed) return;
  reg.gauge("ramp_sim_coverage_fraction").set(fast.coverage);
  reg.gauge("ramp_sim_ipc_half_width").set(fast.ipc_half_width);
  reg.gauge("ramp_sim_activity_half_width").set(fast.activity_half_width);
  if (mode == sim::SimMode::kSampled) {
    reg.counter("ramp_sim_sampled_units_total").inc(fast.units);
  }
}

}  // namespace

SimStageOut run_sim_stage(const EvaluationConfig& cfg,
                          const scaling::TechnologyNode& tech,
                          trace::TraceReader& stream, const std::string& cell) {
  using Clock = std::chrono::steady_clock;
  obs::Profiler& prof = obs::Profiler::global();
  const bool profile = prof.enabled();

  const sim::CoreConfig core_cfg = sim::core_config_for(tech);
  const auto interval_cycles = static_cast<std::uint64_t>(
      std::llround(core_cfg.frequency_hz * cfg.interval_seconds));
  RAMP_ASSERT(interval_cycles > 0);

  const sim::SimMode mode = resolved_sim_mode(cfg);
  const auto sim_start = profile ? Clock::now() : Clock::time_point{};
  SimStageOut out;
  sim::FastSimStats fast;
  switch (mode) {
    case sim::SimMode::kSampled: {
      sim::SampledCore core(core_cfg, cfg.sampled);
      out.result = core.run(stream, interval_cycles);
      fast = core.fast_stats();
      break;
    }
    default: {
      sim::OooCore core(core_cfg);
      out.result = core.run(stream, interval_cycles);
      break;
    }
  }
  if (profile) {
    prof.record_cell_timed(obs::Stage::kSim, cell, sim_start, Clock::now());
  }
  record_sim_mode_metrics(mode, fast);
  RAMP_ASSERT(!out.result.intervals.empty());
  return out;
}

PowerStageOut run_power_stage(const EvaluationConfig& cfg,
                              const scaling::TechnologyNode& tech,
                              double power_bias, const sim::SimResult& sim,
                              const std::string& cell) {
  using Clock = std::chrono::steady_clock;
  obs::Profiler& prof = obs::Profiler::global();
  const bool profile = prof.enabled();
  RAMP_REQUIRE(power_bias > 0.0, "power bias must be positive");

  const power::PowerModel pm(cfg.power, tech);
  // The workload's power_bias calibrates per-app energy-per-op to Table 3
  // (see workloads/spec2k.hpp).
  auto biased_dynamic = [&](const std::array<double, sim::kNumStructures>& act) {
    power::StructurePower p = pm.dynamic_power(act);
    for (double& v : p) v *= power_bias;
    return p;
  };

  const auto start = profile ? Clock::now() : Clock::time_point{};
  PowerStageOut out;
  // Average dynamic power over the whole run — the "first run" of the
  // paper's two-run methodology.
  out.avg_dynamic = biased_dynamic(sim.totals.avg_activity);
  const std::size_t n = sim.intervals.size();
  out.dynamic.reserve(n);
  out.dynamic_total.reserve(n);
  for (const auto& iv : sim.intervals) {
    const power::StructurePower dyn = biased_dynamic(iv.activity);
    double dyn_total = 0.0;
    for (double v : dyn) dyn_total += v;
    out.dynamic.push_back(dyn);
    out.dynamic_total.push_back(dyn_total);
  }
  if (profile) {
    prof.record_cell(obs::Stage::kPower, cell,
                     std::chrono::duration<double>(Clock::now() - start).count(),
                     static_cast<std::uint64_t>(n));
  }
  return out;
}

ThermalStageOut run_thermal_stage(const EvaluationConfig& cfg,
                                  const scaling::TechnologyNode& tech,
                                  double sink_target_k,
                                  const PowerStageOut& power,
                                  const std::string& cell) {
  using Clock = std::chrono::steady_clock;
  obs::Profiler& prof = obs::Profiler::global();
  const bool profile = prof.enabled();

  const power::PowerModel pm(cfg.power, tech);
  const thermal::Floorplan fp =
      thermal::power4_floorplan().scaled(std::sqrt(tech.relative_area));
  thermal::RcNetwork net(fp, cfg.thermal);
  const auto blk = block_of_structure(fp);
  const std::size_t nblocks = fp.size();

  // Block powers from structure dynamic power + leakage at block temps,
  // written into a caller-owned buffer so the per-interval loop never
  // allocates.
  auto block_power_into = [&](const power::StructurePower& dyn,
                              const std::vector<double>& block_temps,
                              std::vector<double>& p) {
    p.assign(nblocks, 0.0);
    for (int s = 0; s < sim::kNumStructures; ++s) {
      const auto si = static_cast<std::size_t>(s);
      const double leak = pm.leakage_power(static_cast<sim::StructureId>(s),
                                           block_temps[blk[si]]);
      p[blk[si]] += dyn[si] + leak;
    }
  };
  auto block_power_at = [&](const power::StructurePower& dyn,
                            const std::vector<double>& block_temps) {
    std::vector<double> p;
    block_power_into(dyn, block_temps, p);
    return p;
  };
  const std::function<std::vector<double>(const std::vector<double>&)>
      avg_power_fn = [&](const std::vector<double>& block_temps) {
        return block_power_at(power.avg_dynamic, block_temps);
      };

  // Steady state + sink calibration: the steady-state solve from average
  // power pins the heat-sink temperature (with the leakage fixed point).
  const auto steady_start = profile ? Clock::now() : Clock::time_point{};
  std::vector<double> steady = net.steady_state(avg_power_fn);
  const std::size_t sink_node = nblocks + 1;
  if (sink_target_k > 0.0) {
    // Choose R_convec so the sink settles at the target temperature:
    // R = (T_target − T_amb) / P_total, iterated with the leakage loop.
    RAMP_REQUIRE(sink_target_k > cfg.thermal.ambient_k,
                 "sink target must exceed ambient");
    for (int it = 0; it < 20; ++it) {
      std::vector<double> block_temps(
          steady.begin(),
          steady.begin() + static_cast<std::ptrdiff_t>(nblocks));
      const std::vector<double> p = avg_power_fn(block_temps);
      double total = 0.0;
      for (double v : p) total += v;
      RAMP_ASSERT(total > 0.0);
      net.set_r_convec((sink_target_k - cfg.thermal.ambient_k) / total);
      steady = net.steady_state(avg_power_fn);
      if (std::abs(steady[sink_node] - sink_target_k) < 1e-3) break;
    }
  }
  if (profile) {
    prof.record_cell_timed(obs::Stage::kThermal, cell, steady_start,
                           Clock::now());
  }

  // Transient rerun at the RAMP granularity.
  thermal::Transient transient(net, steady, cfg.interval_seconds);
  const std::size_t n = power.dynamic.size();
  ThermalStageOut out;
  out.struct_temps.reserve(n);
  out.block_total.reserve(n);

  // Hoisted per-interval workspace: steady-state operation performs zero
  // heap allocations per interval (vector::assign reuses capacity; the
  // transient solver is allocation-free by construction).
  std::vector<double> block_temps_ws;
  std::vector<double> bp_ws;
  block_temps_ws.reserve(nblocks);
  bp_ws.reserve(nblocks);

  const auto loop_start = profile ? Clock::now() : Clock::time_point{};
  std::array<double, sim::kNumStructures> struct_temps{};
  for (std::size_t i = 0; i < n; ++i) {
    {
      const std::vector<double>& temps_now = transient.temperatures();
      block_temps_ws.assign(
          temps_now.begin(),
          temps_now.begin() + static_cast<std::ptrdiff_t>(nblocks));
    }
    block_power_into(power.dynamic[i], block_temps_ws, bp_ws);
    transient.step(bp_ws);
    double block_total = 0.0;
    for (double v : bp_ws) block_total += v;
    {
      // Single post-step temperature read feeding everything downstream.
      const std::vector<double>& temps_after = transient.temperatures();
      for (int s = 0; s < sim::kNumStructures; ++s) {
        const auto si = static_cast<std::size_t>(s);
        struct_temps[si] = temps_after[blk[si]];
      }
    }
    out.struct_temps.push_back(struct_temps);
    out.block_total.push_back(block_total);
  }
  if (profile) {
    prof.record_cell(
        obs::Stage::kThermal, cell,
        std::chrono::duration<double>(Clock::now() - loop_start).count(),
        static_cast<std::uint64_t>(n));
  }
  out.sink_temp_k = steady[sink_node];
  return out;
}

AppTechResult run_fit_stage(const EvaluationConfig& cfg,
                            const scaling::TechnologyNode& tech,
                            const sim::SimResult& sim,
                            const PowerStageOut& power,
                            const ThermalStageOut& thermal,
                            const std::string& cell) {
  using Clock = std::chrono::steady_clock;
  obs::Profiler& prof = obs::Profiler::global();
  const bool profile = prof.enabled();
  const std::size_t n = sim.intervals.size();
  RAMP_ASSERT(power.dynamic_total.size() == n);
  RAMP_ASSERT(thermal.struct_temps.size() == n);
  RAMP_ASSERT(thermal.block_total.size() == n);

  const sim::CoreConfig core_cfg = sim::core_config_for(tech);
  const core::RampModel model(tech);  // unit constants => raw FITs
  core::FitTracker tracker(model);

  RunningMean dyn_power_avg;
  RunningMean leak_power_avg;
  std::vector<IntervalSample> samples;
  if (cfg.record_intervals) samples.reserve(n);
  double elapsed_s = 0.0;

  // Flight recorder: bounded per-interval physics sketch plus the anomaly
  // watchdog. Purely observational — results are identical with it off, and
  // its work is deterministic (no clocks, no RNG), so jobs=1 and jobs=4
  // sweeps export byte-identical timelines.
  std::unique_ptr<obs::TimelineBuffer> timeline;
  std::unique_ptr<obs::Watchdog> watchdog;
  if (cfg.timeline_enabled) {
    timeline = std::make_unique<obs::TimelineBuffer>(
        static_cast<std::size_t>(cfg.timeline_points));
    watchdog = std::make_unique<obs::Watchdog>(cell, cfg.watchdog, prof);
  }
  std::uint64_t interval_index = 0;

  // Whether each interval's *instantaneous* FIT is needed; computed once and
  // shared by the interval trace and the timeline.
  const bool want_instant = cfg.record_intervals || timeline != nullptr;

  const auto loop_start = profile ? Clock::now() : Clock::time_point{};
  for (std::size_t i = 0; i < n; ++i) {
    const auto& iv = sim.intervals[i];
    const double duration =
        static_cast<double>(iv.cycles) / core_cfg.frequency_hz;
    const double dyn_total = power.dynamic_total[i];
    const double block_total = thermal.block_total[i];
    dyn_power_avg.add(dyn_total);
    leak_power_avg.add(block_total - dyn_total);

    const std::array<double, sim::kNumStructures>& struct_temps =
        thermal.struct_temps[i];
    tracker.add_interval(struct_temps, iv.activity, tech.vdd, duration);
    elapsed_s += duration;

    // Instantaneous per-mechanism raw FIT at this interval's conditions,
    // computed once for both consumers below.
    std::array<double, core::kNumMechanisms> inst_mech{};
    if (want_instant) {
      core::FitTracker instant(model);
      instant.add_interval(struct_temps, iv.activity, tech.vdd, duration);
      inst_mech = instant.summary().by_mechanism();
    }

    if (cfg.record_intervals) {
      IntervalSample sample;
      sample.time_s = elapsed_s;
      for (double t : struct_temps) {
        sample.hottest_temp_k = std::max(sample.hottest_temp_k, t);
      }
      sample.total_power_w = block_total;
      sample.ipc = iv.ipc();
      sample.raw_mechanism_fit = inst_mech;
      samples.push_back(sample);
    }

    if (timeline) {
      obs::TimelinePoint point;
      point.interval = interval_index;
      point.time_s = elapsed_s;
      point.ipc = iv.ipc();
      point.dyn_power_w = dyn_total;
      point.leak_power_w = block_total - dyn_total;
      point.temp_k.assign(struct_temps.begin(), struct_temps.end());
      point.fit_inst.assign(inst_mech.begin(), inst_mech.end());
      // Running cumulative average: the final point lands exactly on the
      // reported raw_fits (the export's cross-check anchor).
      const auto avg = tracker.summary().by_mechanism();
      point.fit_avg.assign(avg.begin(), avg.end());
      watchdog->check(point, *timeline);
      timeline->push(std::move(point));
    }
    ++interval_index;
  }
  if (profile) {
    prof.record_cell(
        obs::Stage::kFit, cell,
        std::chrono::duration<double>(Clock::now() - loop_start).count(),
        static_cast<std::uint64_t>(n));
  }

  AppTechResult r;  // app/tech are the caller's
  r.ipc = sim.totals.ipc();
  r.avg_dynamic_power_w = dyn_power_avg.mean();
  r.avg_leakage_power_w = leak_power_avg.mean();
  r.avg_total_power_w = r.avg_dynamic_power_w + r.avg_leakage_power_w;
  r.max_structure_temp_k = tracker.max_temperature();
  r.sink_temp_k = thermal.sink_temp_k;
  r.avg_die_temp_k = tracker.avg_die_temperature();
  r.max_activity = tracker.max_activity();
  r.raw_fits = tracker.summary();
  r.run = sim.totals;
  r.interval_trace = std::move(samples);
  if (timeline) {
    r.timeline.cell = cell;
    for (const auto s : sim::kAllStructures) {
      r.timeline.temp_names.emplace_back(sim::structure_name(s));
    }
    for (int m = 0; m < core::kNumMechanisms; ++m) {
      r.timeline.fit_names.emplace_back(
          core::mechanism_name(static_cast<core::Mechanism>(m)));
    }
    r.timeline.intervals = timeline->pushed();
    r.timeline.stride = timeline->stride();
    r.timeline.capacity = timeline->capacity();
    r.timeline.points = timeline->points();
    r.incidents = watchdog->incidents();
  }
  return r;
}

// ---- payload codecs --------------------------------------------------------

namespace {

constexpr std::size_t kMagicLen = 8;
constexpr char kTraceMagic[] = "RPTR0001";
constexpr char kSimMagic[] = "RPSM0001";
constexpr char kPowerMagic[] = "RPPW0001";
constexpr char kThermalMagic[] = "RPTH0001";
constexpr char kFitMagic[] = "RPFT0001";

void put_u64(std::string& out, std::uint64_t v) {
  char b[sizeof v];
  std::memcpy(b, &v, sizeof v);
  out.append(b, sizeof v);
}

void put_f64(std::string& out, double v) {
  char b[sizeof v];
  std::memcpy(b, &v, sizeof v);
  out.append(b, sizeof v);
}

struct PayloadReader {
  const std::string& s;
  std::size_t pos = 0;

  bool magic(const char* expect) {
    if (s.size() < kMagicLen || std::memcmp(s.data(), expect, kMagicLen) != 0) {
      return false;
    }
    pos = kMagicLen;
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (s.size() - pos < sizeof v) return false;
    std::memcpy(&v, s.data() + pos, sizeof v);
    pos += sizeof v;
    return true;
  }
  bool f64(double& v) {
    if (s.size() - pos < sizeof v) return false;
    std::memcpy(&v, s.data() + pos, sizeof v);
    pos += sizeof v;
    return true;
  }
  bool bytes(std::string& out, std::uint64_t n) {
    if (s.size() - pos < n) return false;
    out.assign(s, pos, static_cast<std::size_t>(n));
    pos += static_cast<std::size_t>(n);
    return true;
  }
  /// Exactly `n` bytes left? Guards reserve()-before-read against bogus
  /// counts in corrupt payloads.
  bool remaining_is(std::uint64_t n) const { return s.size() - pos == n; }
  bool done() const { return pos == s.size(); }
};

constexpr std::uint64_t kNS = sim::kNumStructures;
constexpr std::uint64_t kNM = core::kNumMechanisms;

void put_run_stats(std::string& out, const sim::RunStats& r) {
  put_u64(out, r.cycles);
  put_u64(out, r.instructions);
  put_u64(out, r.l1d_accesses);
  put_u64(out, r.l1d_misses);
  put_u64(out, r.l2_accesses);
  put_u64(out, r.l2_misses);
  put_u64(out, r.l1i_misses);
  put_u64(out, r.branches);
  put_u64(out, r.branch_mispredicts);
  for (double a : r.avg_activity) put_f64(out, a);
}

bool read_run_stats(PayloadReader& in, sim::RunStats& r) {
  return in.u64(r.cycles) && in.u64(r.instructions) &&
         in.u64(r.l1d_accesses) && in.u64(r.l1d_misses) &&
         in.u64(r.l2_accesses) && in.u64(r.l2_misses) &&
         in.u64(r.l1i_misses) && in.u64(r.branches) &&
         in.u64(r.branch_mispredicts) &&
         [&] {
           for (double& a : r.avg_activity) {
             if (!in.f64(a)) return false;
           }
           return true;
         }();
}

constexpr std::uint64_t kRunStatsBytes = 9 * 8 + kNS * 8;

}  // namespace

std::string encode_payload(const TraceStageOut& v) {
  std::string out(kTraceMagic, kMagicLen);
  put_u64(out, v.spec.size());
  out += v.spec;
  return out;
}

bool decode_payload(const std::string& payload, TraceStageOut& out) {
  PayloadReader in{payload};
  std::uint64_t n = 0;
  return in.magic(kTraceMagic) && in.u64(n) && in.remaining_is(n) &&
         in.bytes(out.spec, n) && in.done();
}

std::string encode_payload(const SimStageOut& v) {
  std::string out(kSimMagic, kMagicLen);
  put_u64(out, v.result.intervals.size());
  for (const auto& iv : v.result.intervals) {
    put_u64(out, iv.cycles);
    put_u64(out, iv.instructions);
    for (double a : iv.activity) put_f64(out, a);
  }
  put_run_stats(out, v.result.totals);
  return out;
}

bool decode_payload(const std::string& payload, SimStageOut& out) {
  PayloadReader in{payload};
  std::uint64_t n = 0;
  if (!in.magic(kSimMagic) || !in.u64(n)) return false;
  const std::uint64_t per_interval = 2 * 8 + kNS * 8;
  if (!in.remaining_is(n * per_interval + kRunStatsBytes)) return false;
  out.result.intervals.resize(static_cast<std::size_t>(n));
  for (auto& iv : out.result.intervals) {
    if (!in.u64(iv.cycles) || !in.u64(iv.instructions)) return false;
    for (double& a : iv.activity) {
      if (!in.f64(a)) return false;
    }
  }
  return read_run_stats(in, out.result.totals) && in.done();
}

std::string encode_payload(const PowerStageOut& v) {
  std::string out(kPowerMagic, kMagicLen);
  put_u64(out, v.dynamic.size());
  for (double w : v.avg_dynamic) put_f64(out, w);
  for (const auto& dyn : v.dynamic) {
    for (double w : dyn) put_f64(out, w);
  }
  for (double t : v.dynamic_total) put_f64(out, t);
  return out;
}

bool decode_payload(const std::string& payload, PowerStageOut& out) {
  PayloadReader in{payload};
  std::uint64_t n = 0;
  if (!in.magic(kPowerMagic) || !in.u64(n)) return false;
  if (!in.remaining_is(kNS * 8 + n * (kNS * 8 + 8))) return false;
  for (double& w : out.avg_dynamic) {
    if (!in.f64(w)) return false;
  }
  out.dynamic.resize(static_cast<std::size_t>(n));
  for (auto& dyn : out.dynamic) {
    for (double& w : dyn) {
      if (!in.f64(w)) return false;
    }
  }
  out.dynamic_total.resize(static_cast<std::size_t>(n));
  for (double& t : out.dynamic_total) {
    if (!in.f64(t)) return false;
  }
  return in.done();
}

std::string encode_payload(const ThermalStageOut& v) {
  std::string out(kThermalMagic, kMagicLen);
  put_u64(out, v.struct_temps.size());
  put_f64(out, v.sink_temp_k);
  for (const auto& temps : v.struct_temps) {
    for (double t : temps) put_f64(out, t);
  }
  for (double p : v.block_total) put_f64(out, p);
  return out;
}

bool decode_payload(const std::string& payload, ThermalStageOut& out) {
  PayloadReader in{payload};
  std::uint64_t n = 0;
  if (!in.magic(kThermalMagic) || !in.u64(n)) return false;
  if (!in.remaining_is(8 + n * (kNS * 8 + 8))) return false;
  if (!in.f64(out.sink_temp_k)) return false;
  out.struct_temps.resize(static_cast<std::size_t>(n));
  for (auto& temps : out.struct_temps) {
    for (double& t : temps) {
      if (!in.f64(t)) return false;
    }
  }
  out.block_total.resize(static_cast<std::size_t>(n));
  for (double& p : out.block_total) {
    if (!in.f64(p)) return false;
  }
  return in.done();
}

std::string encode_payload(const AppTechResult& v) {
  RAMP_REQUIRE(v.interval_trace.empty() && v.timeline.empty() &&
                   v.incidents.empty(),
               "fit-stage payloads cannot carry interval traces or timelines");
  int tech_index = -1;
  for (std::size_t i = 0; i < scaling::kAllTechPoints.size(); ++i) {
    if (scaling::kAllTechPoints[i] == v.tech) {
      tech_index = static_cast<int>(i);
    }
  }
  RAMP_REQUIRE(tech_index >= 0, "unknown technology point");

  std::string out(kFitMagic, kMagicLen);
  put_u64(out, v.app.size());
  out += v.app;
  put_u64(out, static_cast<std::uint64_t>(tech_index));
  put_f64(out, v.ipc);
  put_f64(out, v.avg_dynamic_power_w);
  put_f64(out, v.avg_leakage_power_w);
  put_f64(out, v.avg_total_power_w);
  put_f64(out, v.max_structure_temp_k);
  put_f64(out, v.sink_temp_k);
  put_f64(out, v.avg_die_temp_k);
  put_f64(out, v.max_activity);
  for (const auto& row : v.raw_fits.by_structure) {
    for (double f : row) put_f64(out, f);
  }
  put_f64(out, v.raw_fits.tc_fit);
  put_run_stats(out, v.run);
  return out;
}

bool decode_payload(const std::string& payload, AppTechResult& out) {
  PayloadReader in{payload};
  std::uint64_t app_len = 0;
  if (!in.magic(kFitMagic) || !in.u64(app_len)) return false;
  if (!in.remaining_is(app_len + 8 + 8 * 8 + (kNS * kNM + 1) * 8 +
                       kRunStatsBytes)) {
    return false;
  }
  if (!in.bytes(out.app, app_len)) return false;
  std::uint64_t tech_index = 0;
  if (!in.u64(tech_index) || tech_index >= scaling::kAllTechPoints.size()) {
    return false;
  }
  out.tech = scaling::kAllTechPoints[static_cast<std::size_t>(tech_index)];
  if (!in.f64(out.ipc) || !in.f64(out.avg_dynamic_power_w) ||
      !in.f64(out.avg_leakage_power_w) || !in.f64(out.avg_total_power_w) ||
      !in.f64(out.max_structure_temp_k) || !in.f64(out.sink_temp_k) ||
      !in.f64(out.avg_die_temp_k) || !in.f64(out.max_activity)) {
    return false;
  }
  for (auto& row : out.raw_fits.by_structure) {
    for (double& f : row) {
      if (!in.f64(f)) return false;
    }
  }
  if (!in.f64(out.raw_fits.tc_fit)) return false;
  return read_run_stats(in, out.run) && in.done();
}

// ---- StageStore ------------------------------------------------------------

StageStore::StageStore() : StageStore(Options{}) {}

StageStore::StageStore(Options opts)
    : opts_(std::move(opts)),
      registry_(opts_.registry != nullptr ? opts_.registry
                                          : &obs::MetricsRegistry::global()),
      blobs_(BlobStore::Options{opts_.memory_entries, opts_.dir}) {
  const std::vector<double> bounds = {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3,
                                      5e-3, 0.01,   0.025, 0.05, 0.1,
                                      0.25, 0.5,    1.0};
  for (int i = 0; i < kNumStageIds; ++i) {
    const std::string base =
        "ramp_stage_" + std::string(stage_id_name(static_cast<StageId>(i)));
    auto& m = meters_[static_cast<std::size_t>(i)];
    m.hits = registry_->counter(base + "_hits_total");
    m.misses = registry_->counter(base + "_misses_total");
    m.writes = registry_->counter(base + "_writes_total");
    m.seconds = registry_->histogram(base + "_seconds", bounds);
  }
  entries_gauge_ = registry_->gauge("ramp_stage_store_entries");
  bytes_gauge_ = registry_->gauge("ramp_stage_store_bytes");
}

void StageStore::book(StageId stage, const BlobStore::Result& res) {
  StageMeters& m = meters_[static_cast<std::size_t>(stage)];
  switch (res.outcome) {
    case BlobStore::Outcome::kMemoryHit:
    case BlobStore::Outcome::kDiskHit:
    case BlobStore::Outcome::kCoalesced:
      m.hits.inc();
      break;
    case BlobStore::Outcome::kComputed:
      m.misses.inc();
      m.seconds.observe(res.compute_seconds);
      if (!opts_.dir.empty()) m.writes.inc();  // persisted (best effort)
      break;
  }
  entries_gauge_.set(static_cast<double>(blobs_.memory_entries()));
  bytes_gauge_.set(static_cast<double>(blobs_.memory_bytes()));
}

}  // namespace ramp::pipeline
