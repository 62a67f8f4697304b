// sweep_detailed: the paper's 16 apps × 5 nodes qualified sweep in the
// default detailed mode, as `ramp sweep --stage-cache` runs it.
//
// Per round: a cold SweepRunner on an empty directory (default result
// cache + persisted stage cache), then fresh runners answering the same
// sweep from that directory — from the result cache (hot) and, with the
// result cache bypassed, from the persisted stage store (warm).
#include <filesystem>
#include <memory>

#include "common.hpp"
#include "core/qualification.hpp"
#include "ledger.hpp"
#include "pipeline/stage_graph.hpp"
#include "pipeline/sweep.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace rp = ramp::pipeline;

namespace {

constexpr std::uint64_t kTraceLen = 100'000;
constexpr std::uint64_t kGoldenTraceLen = 4'000;
constexpr std::uint64_t kDefaultSeed = 42;  // EvaluationConfig's default

struct SweepDirs {
  fs::path csv;
  fs::path stages;
};

SweepDirs dirs_under(const fs::path& root) {
  fresh_dir(root);
  return {root / "ramp_sweep_cache.csv", root / "stage_cache"};
}

std::shared_ptr<rp::StageStore> store_at(const fs::path& dir,
                                         ramp::obs::MetricsRegistry* reg) {
  rp::StageStore::Options so;
  so.dir = dir.string();
  so.registry = reg;
  return std::make_shared<rp::StageStore>(std::move(so));
}

rp::SweepResult run_sweep_once(const rp::EvaluationConfig& cfg,
                               ramp::ThreadPool* pool, const fs::path& csv,
                               std::shared_ptr<rp::StageStore> store) {
  rp::SweepRunner::Options opts;
  opts.pool = pool;
  opts.jobs = 1;  // the pool size when `pool` is null
  opts.cache_path = csv.string();
  opts.stage_store = std::move(store);
  return rp::SweepRunner(cfg, opts).run();
}

/// The traced run: the replicated serial sweep against an untraced serial
/// SweepRunner, with the ledger and the per-cell payload check.
void traced_sweep(const Options& o, const rp::EvaluationConfig& cfg,
                  Report& rep) {
  // Untraced reference: the same sweep on one worker, cold.
  const SweepDirs ref = dirs_under(o.work / "ledger_ref");
  double t0 = now_s();
  const rp::SweepResult want =
      run_sweep_once(cfg, nullptr, ref.csv, store_at(ref.stages, nullptr));
  const double untraced_s = now_s() - t0;

  // Replica: identical stage sequence, every layer timed.
  const SweepDirs rep_dirs = dirs_under(o.work / "ledger_replica");
  ramp::obs::MetricsRegistry reg;
  const auto store = store_at(rep_dirs.stages, &reg);
  LayerTimes lt;
  const auto& suite = ramp::workloads::spec2k_suite();
  t0 = now_s();
  rp::SweepResult got;
  got.config = cfg;
  std::vector<ramp::core::FitSummary> raw180;
  for (const auto& w : suite) {
    double sink = 0.0;
    for (const auto tech : ramp::scaling::kAllTechPoints) {
      got.results.push_back(
          replicate_cell(cfg, *store, w, tech, sink, nullptr, lt));
      if (tech == ramp::scaling::TechPoint::k180nm) {
        sink = got.results.back().sink_temp_k;
        raw180.push_back(got.results.back().raw_fits);
      }
    }
  }
  got.constants = ramp::core::qualify(raw180);
  write_file(rep_dirs.csv, rp::sweep_to_csv(got));
  const double traced_s = now_s() - t0;

  bool same = got.results.size() == want.results.size();
  std::size_t first_bad = 0;
  for (std::size_t i = 0; same && i < got.results.size(); ++i) {
    same = rp::encode_payload(got.results[i]) ==
           rp::encode_payload(want.results[i]);
    first_bad = i;
  }
  rep.check("ledger.replica_payloads_match_evaluator", same,
            same ? "" : "first differing cell " + std::to_string(first_bad));
  rep.check("ledger.replica_csv_matches_sweep",
            read_file(rep_dirs.csv) == read_file(ref.csv));

  report_layers(rep, lt, &reg);
  report_ledger(rep, traced_s, lt.layer_sum_s(), untraced_s);

  // Which cache layer a fresh runner reads: the result cache when present,
  // else one fit-stage hit per cell from the persisted stage store.
  ramp::obs::MetricsRegistry hot_reg;
  const rp::SweepResult hot =
      run_sweep_once(cfg, nullptr, ref.csv, store_at(ref.stages, &hot_reg));
  std::uint64_t lookups = 0;
  for (const char* s : {"trace", "sim", "power", "thermal", "fit"}) {
    lookups += counter_value(hot_reg, std::string("ramp_stage_") + s + "_hits_total") +
               counter_value(hot_reg, std::string("ramp_stage_") + s + "_misses_total");
  }
  const bool csv_hit = lookups == 0 && rp::sweep_to_csv(hot) == read_file(ref.csv);
  rep.layer("pipeline.warm_csv_hit", csv_hit ? 1.0 : 0.0, "count");
  ramp::obs::MetricsRegistry warm_reg;
  const rp::SweepResult warm =
      run_sweep_once(cfg, nullptr, fs::path(), store_at(ref.stages, &warm_reg));
  rep.layer("pipeline.warm_stage_hits",
            static_cast<double>(counter_value(warm_reg, "ramp_stage_fit_hits_total")),
            "count");
  rep.check("sweep.warm_reads_cache_layers",
            csv_hit && rp::sweep_to_csv(warm) == read_file(ref.csv) &&
                counter_value(warm_reg, "ramp_stage_fit_misses_total") == 0);
}

}  // namespace

int run_sweep(const Options& o) {
  Report rep(o);
  rp::EvaluationConfig cfg = paper_config(kTraceLen);
  cfg.seed = kDefaultSeed + o.seed;
  rp::EvaluationConfig golden_cfg = paper_config(kGoldenTraceLen);

  if (o.trace) {
    traced_sweep(o, cfg, rep);
    rep.print();
    return 0;
  }

  // Set-up: the worker pool plus a warm-up sweep at 4000 instructions per
  // cell, which must equal the repo's golden CSV. It runs before the first
  // round and again after every round, so its median samples the machine
  // across the whole run rather than in its first second.
  const std::string golden = read_file(o.golden);
  std::vector<double> setups;
  std::unique_ptr<ramp::ThreadPool> pool;
  const auto setup = [&] {
    pool.reset();
    const double t0 = now_s();
    pool = std::make_unique<ramp::ThreadPool>(o.jobs);
    const SweepDirs d = dirs_under(o.work / "golden");
    (void)run_sweep_once(golden_cfg, pool.get(), d.csv, nullptr);
    setups.push_back(now_s() - t0);
    rep.check("sweep.golden_trace4000", read_file(d.csv) == golden);
  };
  setup();

  // The digest kept with the benchmark pins the default seed's output.
  std::string want_digest;
  if (o.seed == 0) {
    want_digest = read_file(o.data / "sweep_detailed_seed0.fnv1a64");
    while (!want_digest.empty() && std::isspace(static_cast<unsigned char>(want_digest.back()))) {
      want_digest.pop_back();
    }
  }

  // Single-threaded repetitions rotate over the CPUs (see pin_rotating).
  const std::vector<int> cpus = allowed_cpus();
  std::vector<double> cold_ms, warm_ms, hot_ms;
  // Peak RSS after the first round: a fixed amount of work, so the figure
  // does not grow with how many rounds a faster build fits in the window.
  double peak_rss_mb = 0.0;
  const double start = now_s();
  // Rounds until the next one would end past --seconds (at least three).
  double round_s = 0.0;
  for (int round = 0; round < 3 || now_s() - start + round_s <= o.seconds;
       ++round) {
    const double round_start = now_s();
    const SweepDirs d = dirs_under(o.work / "sweep");
    double t0 = now_s();
    (void)run_sweep_once(cfg, pool.get(), d.csv, store_at(d.stages, nullptr));
    cold_ms.push_back(1e3 * (now_s() - t0));
    const std::string cold_csv = read_file(d.csv);
    if (!want_digest.empty()) {
      rep.check("sweep.cold_digest_seed0", fnv_hex(cold_csv) == want_digest,
                fnv_hex(cold_csv));
    }
    for (int k = 0; k < 20; ++k) {
      pin_rotating(cpus, k);
      t0 = now_s();
      const rp::SweepResult hot =
          run_sweep_once(cfg, pool.get(), d.csv, store_at(d.stages, nullptr));
      hot_ms.push_back(1e3 * (now_s() - t0));
      rep.check("sweep.hot_equals_cold", rp::sweep_to_csv(hot) == cold_csv);
    }
    // The warm runner is a --jobs 1 one: its own one-worker pool, on the
    // CPU it is made on. 80 stage hits take ~1 ms; over the shared pool
    // that millisecond was mostly hand-offs between its four threads, whose
    // wake-up times made the median swing 2x between runs of one seed.
    for (int k = 0; k < 20; ++k) {
      pin_rotating(cpus, k);
      t0 = now_s();
      const rp::SweepResult warm =
          run_sweep_once(cfg, nullptr, fs::path(), store_at(d.stages, nullptr));
      warm_ms.push_back(1e3 * (now_s() - t0));
      rep.check("sweep.warm_equals_cold", rp::sweep_to_csv(warm) == cold_csv);
    }
    pin_to(cpus);
    if (round == 0) peak_rss_mb = self_peak_rss_mb();
    setup();
    round_s = now_s() - round_start;
  }
  rep.e2e("setup_s", median(setups), "s");
  rep.samples("setup_s", setups, "s");
  rep.samples("cold_ms", cold_ms, "ms");
  rep.samples("warm_ms", warm_ms, "ms");
  rep.samples("hot_ms", hot_ms, "ms");
  rep.e2e("cold_ms", median(cold_ms), "ms");
  rep.e2e("warm_ms", median(warm_ms), "ms");
  rep.e2e("hot_ms", median(hot_ms), "ms");
  rep.e2e("peak_rss_mb", peak_rss_mb, "MiB");
  rep.info("sweep_cold_s", median(cold_ms) / 1e3, "s");
  rep.info("sweep_warm_ms", median(hot_ms), "ms");
  rep.info("sweep_stage_warm_ms", median(warm_ms), "ms");
  rep.info("rounds", static_cast<double>(cold_ms.size()), "count");
  rep.print();
  return 0;
}

}  // namespace perfbench
