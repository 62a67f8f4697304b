// Tests for the sampled timing-simulation path: sim-mode parsing and
// validation, auto resolution, the env plumbing, cache-key / config-hash
// separation between detailed and sampled payloads (a cached sampled result
// must never answer a detailed request), the persisted identities pinned to
// literals, the sampled estimator's tolerance contract on a real workload,
// and rerun determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "pipeline/evaluator.hpp"
#include "pipeline/stage_graph.hpp"
#include "pipeline/sweep.hpp"
#include "scaling/technology.hpp"
#include "sim/ooo_core.hpp"
#include "sim/sampled_core.hpp"
#include "sim/sim_mode.hpp"
#include "trace/synthetic_generator.hpp"
#include "util/error.hpp"
#include "workloads/spec2k.hpp"

namespace ramp::pipeline {
namespace {

class ScopedEnv {
 public:
  ScopedEnv(std::string name, const char* value) : name_(std::move(name)) {
    if (const char* old = std::getenv(name_.c_str())) old_ = old;
    if (value != nullptr) {
      ::setenv(name_.c_str(), value, /*overwrite=*/1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_.c_str(), old_->c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::optional<std::string> old_;
};

// ---- mode parsing and parameter validation ---------------------------------

TEST(SimModeTest, NamesRoundTrip) {
  for (const auto mode :
       {sim::SimMode::kDetailed, sim::SimMode::kSampled, sim::SimMode::kAuto}) {
    EXPECT_EQ(sim::parse_sim_mode(sim::sim_mode_name(mode)), mode);
  }
}

TEST(SimModeTest, ParseRejectsUnknownSpellings) {
  EXPECT_THROW(sim::parse_sim_mode(""), InvalidArgument);
  EXPECT_THROW(sim::parse_sim_mode("Detailed"), InvalidArgument);
  EXPECT_THROW(sim::parse_sim_mode("SAMPLED"), InvalidArgument);
  EXPECT_THROW(sim::parse_sim_mode("fast"), InvalidArgument);
  EXPECT_THROW(sim::parse_sim_mode("interval"), InvalidArgument);  // retired
}

TEST(SimModeTest, SampledParamsValidate) {
  EXPECT_NO_THROW(sim::SampledParams{}.validate());

  sim::SampledParams p;
  p.windows = 0;
  EXPECT_THROW(p.validate(), InvalidArgument);

  p = {};
  p.warmup = 0;
  p.measure = 0;  // nothing measured at all
  EXPECT_THROW(p.validate(), InvalidArgument);

  p = {};
  p.period = p.warmup + p.windows * p.measure - 1;  // unit longer than period
  EXPECT_THROW(p.validate(), InvalidArgument);

  p = {};
  p.windows = std::uint64_t{1} << 63;  // windows * measure wraps to 0
  p.measure = 2;
  EXPECT_THROW(p.validate(), InvalidArgument);
}

// ---- auto resolution and env plumbing --------------------------------------

TEST(SimModeTest, AutoResolvesBySamplingPayoffThreshold) {
  EvaluationConfig cfg;
  cfg.sim_mode = sim::SimMode::kAuto;
  cfg.trace_instructions = 999'999;
  EXPECT_EQ(resolved_sim_mode(cfg), sim::SimMode::kDetailed);
  cfg.trace_instructions = 1'000'000;
  EXPECT_EQ(resolved_sim_mode(cfg), sim::SimMode::kSampled);

  // Explicit modes resolve to themselves at any length.
  cfg.trace_instructions = 1'000;
  for (const auto mode : {sim::SimMode::kDetailed, sim::SimMode::kSampled}) {
    cfg.sim_mode = mode;
    EXPECT_EQ(resolved_sim_mode(cfg), mode);
  }
}

TEST(SimModeTest, FromEnvReadsSimVariables) {
  ScopedEnv mode("RAMP_SIM_MODE", "sampled");
  ScopedEnv period("RAMP_SIM_PERIOD", "50000");
  ScopedEnv warmup("RAMP_SIM_WARMUP", "2600");
  ScopedEnv measure("RAMP_SIM_MEASURE", "3000");
  ScopedEnv windows("RAMP_SIM_WINDOWS", "3");
  const EvaluationConfig cfg = EvaluationConfig::from_env();
  EXPECT_EQ(cfg.sim_mode, sim::SimMode::kSampled);
  EXPECT_EQ(cfg.sampled.period, 50'000u);
  EXPECT_EQ(cfg.sampled.warmup, 2'600u);
  EXPECT_EQ(cfg.sampled.measure, 3'000u);
  EXPECT_EQ(cfg.sampled.windows, 3u);
}

TEST(SimModeTest, FromEnvIsStrictAboutSimVariables) {
  {
    ScopedEnv mode("RAMP_SIM_MODE", "quick");  // misspelled: must not fall
    EXPECT_THROW(EvaluationConfig::from_env(), InvalidArgument);  // back
  }
  {
    ScopedEnv mode("RAMP_SIM_MODE", "sampled");
    ScopedEnv windows("RAMP_SIM_WINDOWS", "0");  // validated at read time
    EXPECT_THROW(EvaluationConfig::from_env(), InvalidArgument);
  }
  {
    ScopedEnv period("RAMP_SIM_PERIOD", "lots");
    EXPECT_THROW(EvaluationConfig::from_env(), InvalidArgument);
  }
}

// ---- cache keys and config hashes ------------------------------------------

StageKey gzip_trace_key(std::uint64_t instructions) {
  const auto& w = workloads::workload("gzip");
  TraceStageIn in;
  in.app = w.name;
  in.profile = w.profile;
  in.instructions = instructions;
  in.seed = 42;
  return trace_stage_key(in);
}

TEST(SimStageKeyTest, DetailedTagIsFrozenAndIgnoresSamplingParams) {
  const StageKey trace = gzip_trace_key(20'000);
  const StageKey legacy = sim_stage_key(trace, 1e9, 1e-6);
  // A literal pin: the StageStore addresses persisted payloads by this
  // string, so any drift orphans every cached detailed sim entry on disk.
  EXPECT_EQ(legacy.canonical,
            "sim.v1|up=(trace.v1|app=gzip|n=20000|seed=42|"
            "profile=bf527f3f41e9b45f)|f=1000000000|"
            "dt=9.9999999999999995e-07");

  sim::SampledParams params;
  params.period = 12'345;
  EXPECT_EQ(sim_stage_key(trace, 1e9, 1e-6, sim::SimMode::kDetailed, params)
                .canonical,
            legacy.canonical);
}

TEST(SimStageKeyTest, FastModesGetTheirOwnKeys) {
  const StageKey trace = gzip_trace_key(20'000);
  const std::string detailed = sim_stage_key(trace, 1e9, 1e-6).canonical;
  const std::string sampled =
      sim_stage_key(trace, 1e9, 1e-6, sim::SimMode::kSampled).canonical;
  EXPECT_NE(sampled, detailed);
  // Pinned to a literal like the detailed key: persisted sampled payloads
  // are addressed by it.
  EXPECT_EQ(sampled,
            "sim.sampled.v1|up=(trace.v1|app=gzip|n=20000|seed=42|"
            "profile=bf527f3f41e9b45f)|f=1000000000|"
            "dt=9.9999999999999995e-07|p=100000|w=2500|m=3500|k=2");
}

TEST(SimStageKeyTest, SampledKeyEmbedsEverySamplingParameter) {
  const StageKey trace = gzip_trace_key(20'000);
  const auto key = [&](const sim::SampledParams& p) {
    return sim_stage_key(trace, 1e9, 1e-6, sim::SimMode::kSampled, p).canonical;
  };
  const sim::SampledParams base;
  const std::string base_key = key(base);
  using Field = std::uint64_t sim::SampledParams::*;
  for (const Field field :
       {&sim::SampledParams::period, &sim::SampledParams::warmup,
        &sim::SampledParams::measure, &sim::SampledParams::windows}) {
    sim::SampledParams p = base;
    p.*field += 1;
    EXPECT_NE(key(p), base_key);
  }
}

TEST(SimStageKeyTest, RejectsUnresolvedAuto) {
  const StageKey trace = gzip_trace_key(20'000);
  EXPECT_THROW(sim_stage_key(trace, 1e9, 1e-6, sim::SimMode::kAuto),
               InvalidArgument);
}

// The default config's canonical string; the sampled one appends its mode
// and schedule.
constexpr const char* kDefaultCanonical =
    "trace=300000;seed=42;interval=9.9999999999999995e-07;"
    "power=8,6,8,7.5,10,9,2.5,0.38,0.017000000000000001,383,81;"
    "thermal=318.14999999999998,0.80000000000000004,1.3200000000000001e-05,"
    "0.050000000000000003,100,0.00050000000000000001,1750000,300,1200";

TEST(SimFastConfigHashTest, DetailedHashAndCanonicalStringStayFrozen) {
  // Literal pins: the sweep cache is keyed by this hash and string.
  EvaluationConfig cfg;
  const std::uint64_t hash = config_hash(cfg);
  const std::string canonical = canonical_config(cfg);
  EXPECT_EQ(hash, 0x1c8ca97fb62d878full);
  EXPECT_EQ(canonical, kDefaultCanonical);

  // Sampling parameters are inert while the resolved mode is detailed —
  // existing sweep caches stay valid.
  cfg.sampled.period = 12'345;
  cfg.sim_mode = sim::SimMode::kAuto;  // 300k trace: resolves to detailed
  EXPECT_EQ(config_hash(cfg), hash);
  EXPECT_EQ(canonical_config(cfg), canonical);
}

TEST(SimFastConfigHashTest, FastModesJoinHashAndCanonicalString) {
  EvaluationConfig detailed;
  EvaluationConfig sampled = detailed;
  sampled.sim_mode = sim::SimMode::kSampled;
  // auto on a 1M trace resolves to sampled and must hash like it.
  EvaluationConfig auto_sampled = detailed;
  auto_sampled.sim_mode = sim::SimMode::kAuto;
  auto_sampled.trace_instructions = 1'000'000;
  EvaluationConfig sampled_1m = sampled;
  sampled_1m.trace_instructions = 1'000'000;

  // config_hash mixes the numeric SimMode, so renumbering the enum would
  // move this literal and orphan every persisted sampled sweep cache.
  EXPECT_EQ(config_hash(sampled), 0x89aaf5002778e594ull);
  EXPECT_EQ(canonical_config(sampled),
            std::string(kDefaultCanonical) +
                ";sim_mode=sampled;period=100000;warmup=2500;measure=3500;"
                "windows=2");
  EXPECT_EQ(config_hash(auto_sampled), config_hash(sampled_1m));
  EXPECT_EQ(canonical_config(auto_sampled), canonical_config(sampled_1m));

  EvaluationConfig rewindowed = sampled;
  rewindowed.sampled.windows += 1;
  EXPECT_NE(config_hash(rewindowed), config_hash(sampled));
  EXPECT_NE(canonical_config(rewindowed), canonical_config(sampled));
}

// ---- a cached fast-path payload never answers a detailed request -----------

TEST(SimFastCacheTest, MisKeyedStoreNeverCrossAnswersModes) {
  EvaluationConfig cfg;
  cfg.trace_instructions = 20'000;
  cfg.cache_enabled = false;
  obs::MetricsRegistry reg(true);
  StageStore::Options opts;
  opts.registry = &reg;
  const auto store = std::make_shared<StageStore>(std::move(opts));
  const auto& w = workloads::workload("gzip");
  const auto count = [&reg](const char* name) {
    return reg.counter(name).value();
  };

  const Evaluator detailed(cfg, store);
  detailed.evaluate(w, scaling::TechPoint::k180nm);
  EXPECT_EQ(count("ramp_stage_sim_misses_total"), 1u);

  // Same trace, same node — only the sim mode differs. The sampled request
  // must miss the detailed payload (and recompute the trace-dependent sim
  // stage under its own key), not be answered by it.
  EvaluationConfig fast_cfg = cfg;
  fast_cfg.sim_mode = sim::SimMode::kSampled;
  const Evaluator fast(fast_cfg, store);
  const auto r1 = fast.evaluate(w, scaling::TechPoint::k180nm);
  EXPECT_EQ(count("ramp_stage_sim_hits_total"), 0u);
  EXPECT_EQ(count("ramp_stage_sim_misses_total"), 2u);

  // A repeated sampled request is answered from the store (at the fit
  // stage, whose key chain embeds the sampled sim key — a hit there
  // short-circuits the upstream lookups), byte-identically.
  const auto r2 = fast.evaluate(w, scaling::TechPoint::k180nm);
  EXPECT_EQ(count("ramp_stage_fit_hits_total"), 1u);
  EXPECT_EQ(count("ramp_stage_sim_misses_total"), 2u);
  EXPECT_EQ(r2.ipc, r1.ipc);
}

// ---- estimator quality and determinism -------------------------------------

struct Reference {
  sim::CoreConfig cfg = sim::core_config_for(scaling::base_node());
  std::uint64_t interval_cycles = 0;
  sim::SimResult detailed;

  Reference(const workloads::Workload& w, std::uint64_t instructions) {
    interval_cycles = static_cast<std::uint64_t>(
        std::llround(cfg.frequency_hz * 1e-6));
    trace::SyntheticTrace t(w.profile, instructions, 42);
    sim::OooCore core(cfg);
    detailed = core.run(t, interval_cycles);
  }
};

double rel_ipc_error(const sim::SimResult& est, const sim::SimResult& det) {
  return std::abs(est.totals.ipc() - det.totals.ipc()) / det.totals.ipc();
}

double max_activity_error(const sim::SimResult& est,
                          const sim::SimResult& det) {
  double worst = 0.0;
  for (std::size_t s = 0; s < sim::kNumStructures; ++s) {
    worst = std::max(worst, std::abs(est.totals.avg_activity[s] -
                                     det.totals.avg_activity[s]));
  }
  return worst;
}

TEST(SimFastAccuracyTest, EstimatorsHoldToleranceOnGzipAt2M) {
  // One representative cell of the contract `ramp simcheck` enforces over
  // the whole suite: ±2% IPC / ±0.02 average activity for sampled, at the
  // 2M-instruction length the contract is sold for.
  const auto& w = workloads::workload("gzip");
  constexpr std::uint64_t kInstructions = 2'000'000;
  const Reference ref(w, kInstructions);

  trace::SyntheticTrace t(w.profile, kInstructions, 42);
  sim::SampledCore core(ref.cfg, sim::SampledParams{});
  const sim::SimResult est = core.run(t, ref.interval_cycles);
  EXPECT_LE(rel_ipc_error(est, ref.detailed), 0.02);
  EXPECT_LE(max_activity_error(est, ref.detailed), 0.02);

  const sim::FastSimStats& stats = core.fast_stats();
  EXPECT_EQ(stats.mode, sim::SimMode::kSampled);
  EXPECT_GT(stats.coverage, 0.0);
  EXPECT_LT(stats.coverage, 0.2);  // the speedup exists at all
  EXPECT_GE(stats.units, 10u);
  EXPECT_GT(stats.ipc_half_width, 0.0);
}

TEST(SimFastDeterminismTest, SampledRerunIsExactlyIdentical) {
  const auto& w = workloads::workload("gcc");
  const auto run_once = [&] {
    const sim::CoreConfig cfg = sim::core_config_for(scaling::base_node());
    trace::SyntheticTrace t(w.profile, 300'000, 42);
    sim::SampledCore core(cfg, sim::SampledParams{});
    return core.run(t, 1'000);
  };
  const sim::SimResult a = run_once();
  const sim::SimResult b = run_once();
  EXPECT_EQ(a.totals.cycles, b.totals.cycles);
  EXPECT_EQ(a.totals.instructions, b.totals.instructions);
  ASSERT_EQ(a.intervals.size(), b.intervals.size());
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    EXPECT_EQ(a.intervals[i].cycles, b.intervals[i].cycles);
    for (std::size_t s = 0; s < sim::kNumStructures; ++s) {
      // Bitwise, not approximate: the fast path promises byte-identical
      // payloads across reruns.
      EXPECT_EQ(a.intervals[i].activity[s], b.intervals[i].activity[s]);
    }
  }
}

}  // namespace
}  // namespace ramp::pipeline
