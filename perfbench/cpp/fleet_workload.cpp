// fleet_sampled: a `ramp fleet` scenario with the dvfs policy at 65 nm /
// 1.0 V whose physics cells run at 1M instructions, where `auto` resolves
// to sampled mode. The population seed comes from the benchmark seed; the
// physics cells keep the paper's trace seed so that the detailed reference
// kept in perfbench/data answers for them.
//
// Per round: a cold FleetSimulator on an empty stage store (prepare + run,
// what a user pays), then a fresh simulator over the now-warm store
// (prepare from stage hits + run), and fresh simulators that only
// prepare() from the warm store (the cached physics table) for
// kHotSeconds, at least 20 of them.
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <sstream>

#include "common.hpp"
#include "core/qualification.hpp"
#include "fleet/fleet_simulator.hpp"
#include "ledger.hpp"
#include "pipeline/stage_graph.hpp"
#include "pipeline/sweep.hpp"
#include "serve/json.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace rp = ramp::pipeline;
namespace rf = ramp::fleet;
using ramp::scaling::TechPoint;

namespace {

constexpr std::uint64_t kTraceLen = 1'000'000;
constexpr std::uint64_t kChips = 300'000;
constexpr TechPoint kNode = TechPoint::k65nm_1V0;
constexpr const char* kReferenceFile = "fleet_sampled_detailed_reference.json";
// A hot prepare() is ~0.7 ms and the host's speed wanders on a scale of
// half a second, so 20 back-to-back ones per round gave round medians
// 1.7x apart; half a second of them per round averages that out.
constexpr double kHotSeconds = 0.5;

rf::FleetScenario scenario(std::uint64_t seed) {
  rf::FleetScenario sc = rf::FleetScenario::preset("baseline");
  sc.policy = rf::DrmPolicy::kDvfs;
  sc.tech = kNode;
  sc.chips = kChips;
  sc.seed = mix_seed(seed, 2);
  sc.cell = paper_config(kTraceLen);
  sc.cell.sim_mode = ramp::sim::SimMode::kAuto;
  return sc;
}

/// The physics cells of the scenario in FleetSimulator::prepare order:
/// every app at 180 nm, then every app at the fleet node.
struct CellRef {
  const ramp::workloads::Workload* w;
  TechPoint tech;
};
std::vector<CellRef> physics_cells() {
  std::vector<CellRef> out;
  for (const TechPoint t : {TechPoint::k180nm, kNode}) {
    for (const auto& w : ramp::workloads::spec2k_suite()) out.push_back({&w, t});
  }
  return out;
}

/// Evaluator answers for every physics cell (sink pinned to the app's
/// 180 nm run, as FleetSimulator does), app-major by physics_cells().
std::vector<rp::AppTechResult> evaluate_cells(
    const rp::EvaluationConfig& cfg, std::shared_ptr<rp::StageStore> store,
    ramp::ThreadPool* pool) {
  const auto cells = physics_cells();
  const std::size_t napps = cells.size() / 2;
  std::vector<rp::AppTechResult> out(cells.size());
  const rp::Evaluator ev(cfg, std::move(store));
  std::vector<std::future<void>> futs;
  for (std::size_t a = 0; a < napps; ++a) {
    auto task = [&, a] {
      out[a] = ev.evaluate(*cells[a].w, TechPoint::k180nm);
      out[napps + a] = ev.evaluate(*cells[a].w, kNode, out[a].sink_temp_k);
    };
    if (pool != nullptr) {
      futs.push_back(pool->submit(task));
    } else {
      task();
    }
  }
  // Drain every task before rethrowing: they write into `out`.
  std::exception_ptr failure;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!failure) failure = std::current_exception();
    }
  }
  if (failure) std::rethrow_exception(failure);
  return out;
}

std::shared_ptr<rp::StageStore> memory_store(ramp::obs::MetricsRegistry* reg) {
  rp::StageStore::Options so;
  so.registry = reg;
  return std::make_shared<rp::StageStore>(std::move(so));
}

rf::FleetSimulator simulator(const rf::FleetScenario& sc, ramp::ThreadPool* pool,
                             std::shared_ptr<rp::StageStore> store) {
  rf::FleetSimulator::Options fo;
  fo.pool = pool;
  fo.stage_store = std::move(store);
  return rf::FleetSimulator(sc, fo);
}

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

rp::EvaluationConfig detailed_config(const rp::EvaluationConfig& cell) {
  rp::EvaluationConfig d = cell;
  d.sim_mode = ramp::sim::SimMode::kDetailed;
  return d;
}

/// One reference cell: what the detailed run reports for the quantities
/// the paper uses.
struct RefCell {
  std::string app;
  std::string tech;
  double max_temp_k = 0.0;
  double max_activity = 0.0;
  std::array<double, ramp::core::kNumMechanisms> raw{};
};
struct Reference {
  std::string config;
  std::vector<RefCell> cells;
  std::array<double, ramp::core::kNumMechanisms> constants{};
};

std::array<double, ramp::core::kNumMechanisms> constants_of(
    const ramp::core::MechanismConstants& k) {
  std::array<double, ramp::core::kNumMechanisms> out{};
  for (int m = 0; m < ramp::core::kNumMechanisms; ++m) {
    out[static_cast<std::size_t>(m)] = k.get(static_cast<ramp::core::Mechanism>(m));
  }
  return out;
}

ramp::core::MechanismConstants qualify_cells(
    const std::vector<rp::AppTechResult>& cells) {
  std::vector<ramp::core::FitSummary> raw180;
  for (std::size_t a = 0; a < cells.size() / 2; ++a) raw180.push_back(cells[a].raw_fits);
  return ramp::core::qualify(raw180);
}

int make_reference(const Options& o) {
  const rp::EvaluationConfig cfg = detailed_config(scenario(o.seed).cell);
  ramp::ThreadPool pool(o.jobs);
  const auto cells = evaluate_cells(cfg, nullptr, &pool);
  const auto k = constants_of(qualify_cells(cells));
  std::ostringstream out;
  out << "{\"config\":" << json_quote(rp::canonical_config(cfg))
      << ",\"constants\":[";
  for (std::size_t m = 0; m < k.size(); ++m) out << (m ? "," : "") << g17(k[m]);
  out << "],\"cells\":[\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    const auto raw = c.raw_fits.by_mechanism();
    out << (i ? ",\n" : "") << "{\"app\":" << json_quote(c.app) << ",\"tech\":"
        << json_quote(std::string(ramp::scaling::tech_token(c.tech)))
        << ",\"max_structure_temp_k\":" << g17(c.max_structure_temp_k)
        << ",\"max_activity\":" << g17(c.max_activity) << ",\"raw_fit\":[";
    for (std::size_t m = 0; m < raw.size(); ++m) out << (m ? "," : "") << g17(raw[m]);
    out << "]}";
  }
  out << "\n]}\n";
  write_file(o.make_reference, out.str());
  std::fprintf(stderr, "perfbench: wrote %s (%zu detailed cells)\n",
               o.make_reference.c_str(), cells.size());
  return 0;
}

Reference load_reference(const Options& o) {
  using ramp::serve::Json;
  const Json j = Json::parse(read_file(o.data / kReferenceFile));
  Reference ref;
  ref.config = j.find("config")->as_string();
  const auto& ks = j.find("constants")->elements();
  for (std::size_t m = 0; m < ref.constants.size(); ++m) {
    ref.constants[m] = ks.at(m).as_number();
  }
  for (const Json& c : j.find("cells")->elements()) {
    RefCell r;
    r.app = c.find("app")->as_string();
    r.tech = c.find("tech")->as_string();
    r.max_temp_k = c.find("max_structure_temp_k")->as_number();
    r.max_activity = c.find("max_activity")->as_number();
    const auto& raw = c.find("raw_fit")->elements();
    for (std::size_t m = 0; m < r.raw.size(); ++m) r.raw[m] = raw.at(m).as_number();
    ref.cells.push_back(r);
  }
  return ref;
}

/// Sampled-vs-detailed error on the paper's quantities, every cell and
/// mechanism, each mode qualified with its own 180 nm constants.
void report_accuracy(Report& rep, const Reference& ref,
                     const std::vector<rp::AppTechResult>& sampled, bool as_layers) {
  const bool shape = ref.cells.size() == sampled.size();
  rep.check("fleet.reference_matches_cells", shape);
  if (!shape) return;
  const auto ks = constants_of(qualify_cells(sampled));
  double fit_err = 0.0, temp_err = 0.0, act_err = 0.0;
  bool names = true;
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    const auto& s = sampled[i];
    const auto& d = ref.cells[i];
    names = names && s.app == d.app &&
            std::string(ramp::scaling::tech_token(s.tech)) == d.tech;
    const auto raw = s.raw_fits.by_mechanism();
    for (std::size_t m = 0; m < raw.size(); ++m) {
      const double qd = d.raw[m] * ref.constants[m];
      const double qs = raw[m] * ks[m];
      if (qd > 0.0) fit_err = std::max(fit_err, std::fabs(qs - qd) / qd);
    }
    temp_err = std::max(temp_err, std::fabs(s.max_structure_temp_k - d.max_temp_k));
    act_err = std::max(act_err, std::fabs(s.max_activity - d.max_activity));
  }
  rep.check("fleet.reference_cell_order", names);
  if (as_layers) {
    rep.layer("sim.sampled_fit_err", fit_err, "ratio");
    rep.layer("sim.sampled_temp_err_k", temp_err, "K");
    rep.layer("sim.sampled_max_act_err", act_err, "abs");
  } else {
    rep.info("sampled_fit_err", fit_err, "ratio");
    rep.info("sampled_temp_err_k", temp_err, "K");
    rep.info("sampled_max_act_err", act_err, "abs");
  }
}

/// Small determinism check: the same tiny fleet at one job and at N.
bool small_fleet_deterministic(std::size_t jobs, std::uint64_t seed) {
  rf::FleetScenario sc = rf::FleetScenario::preset("baseline");
  sc.policy = rf::DrmPolicy::kDvfs;
  sc.tech = kNode;
  sc.chips = 20'000;
  sc.seed = mix_seed(seed, 3);
  sc.apps = {"gzip", "twolf", "mesa", "ammp"};
  sc.cell = paper_config(20'000);
  const auto store = memory_store(nullptr);
  std::string curves[2];
  for (int i = 0; i < 2; ++i) {
    rf::FleetSimulator::Options fo;
    fo.jobs = i == 0 ? 1 : jobs;
    fo.stage_store = store;
    curves[i] = rf::fleet_curve_csv(rf::FleetSimulator(sc, fo).run());
  }
  return curves[0] == curves[1];
}

void traced_fleet(const rf::FleetScenario& sc,
                  ramp::ThreadPool& pool, const Reference& ref, Report& rep) {
  // Untraced reference: a cold fleet as a user runs it.
  ramp::obs::MetricsRegistry cold_reg;
  const auto cold_store = memory_store(&cold_reg);
  double t0 = now_s();
  const std::string want_curve =
      rf::fleet_curve_csv(simulator(sc, &pool, cold_store).run());
  const double untraced_s = now_s() - t0;
  rep.layer("fleet.sim_misses",
            static_cast<double>(counter_value(cold_reg, "ramp_stage_sim_misses_total")),
            "count");

  // Calibration (outside the ledger): each sampled cell's call order, from
  // a benchmark-owned SampledCore, plus its estimator statistics.
  const auto cells = physics_cells();
  std::vector<CallSequence> calls;
  SampledStats ss;
  for (const auto& c : cells) {
    calls.push_back(record_sampled_calls(sc.cell, *c.w, c.tech, &ss));
  }

  // Replica: the physics cells through the timed stage sequence, then the
  // simulator over that store.
  ramp::obs::MetricsRegistry reg;
  const auto store = memory_store(&reg);
  LayerTimes lt;
  const std::size_t napps = cells.size() / 2;
  std::vector<rp::AppTechResult> got(cells.size());
  t0 = now_s();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double sink = i < napps ? 0.0 : got[i - napps].sink_temp_k;
    got[i] = replicate_cell(sc.cell, *store, *cells[i].w, cells[i].tech, sink,
                            &calls[i], lt);
  }
  const rf::FleetSimulator sim = simulator(sc, &pool, store);
  double t1 = now_s();
  sim.prepare();
  const double prepare_s = now_s() - t1;
  t1 = now_s();
  const std::string got_curve = rf::fleet_curve_csv(sim.run());
  const double population_s = now_s() - t1;
  const double traced_s = now_s() - t0;

  const auto want = evaluate_cells(sc.cell, cold_store, &pool);
  bool same = true;
  for (std::size_t i = 0; i < got.size(); ++i) {
    same = same && rp::encode_payload(got[i]) == rp::encode_payload(want[i]);
  }
  rep.check("ledger.replica_payloads_match_evaluator", same);
  rep.check("ledger.replica_curve_matches_fleet", got_curve == want_curve);

  report_layers(rep, lt, &reg);
  rep.layer("sim.sampled_coverage",
            ss.cells ? ss.coverage_sum / static_cast<double>(ss.cells) : 0.0, "ratio");
  rep.layer("sim.sampled_units", static_cast<double>(ss.units), "count");
  rep.layer("sim.ipc_half_width_max", ss.ipc_half_width_max, "ratio");
  rep.layer("sim.activity_half_width_max", ss.activity_half_width_max, "abs");
  rep.layer("fleet.prepare_s", prepare_s, "s");
  rep.layer("fleet.population_s", population_s, "s");
  rep.layer("fleet.ns_per_chip", 1e9 * population_s / static_cast<double>(sc.chips), "ns");
  report_accuracy(rep, ref, want, /*as_layers=*/true);
  report_ledger(rep, traced_s, lt.layer_sum_s() + prepare_s + population_s,
                untraced_s);
}

}  // namespace

int run_fleet(const Options& o) {
  if (!o.make_reference.empty()) return make_reference(o);
  Report rep(o);

  // Set-up: worker pool, scenario, the detailed reference, and the small
  // jobs-1-vs-N determinism check. It runs once before the first round and
  // again after every round (as in sweep_detailed).
  std::vector<double> setups;
  std::unique_ptr<ramp::ThreadPool> pool;
  rf::FleetScenario sc;
  Reference ref;
  const auto setup = [&] {
    pool.reset();
    const double t0 = now_s();
    pool = std::make_unique<ramp::ThreadPool>(o.jobs);
    sc = scenario(o.seed);
    ref = load_reference(o);
    rep.check("fleet.small_curve_jobs1_equals_jobsN",
              small_fleet_deterministic(o.jobs, o.seed));
    setups.push_back(now_s() - t0);
  };
  setup();
  rep.check("fleet.auto_resolves_to_sampled",
            rp::resolved_sim_mode(sc.cell) == ramp::sim::SimMode::kSampled);
  rep.check("fleet.reference_config",
            ref.config == rp::canonical_config(detailed_config(sc.cell)));

  if (o.trace) {
    traced_fleet(sc, *pool, ref, rep);
    rep.print();
    return 0;
  }

  // prepare() runs on the calling thread; each round and each repetition
  // puts it on another CPU (see pin_rotating).
  const std::vector<int> cpus = allowed_cpus();
  std::vector<double> cold_ms, warm_ms, hot_ms, prepare_s, population_s;
  std::shared_ptr<rp::StageStore> store;
  double peak_rss_mb = 0.0;  // after the first round, as in sweep_detailed
  const double start = now_s();
  // Rounds until the next one would end past --seconds (at least two).
  double round_s = 0.0;
  for (int round = 0; round < 2 || now_s() - start + round_s <= o.seconds;
       ++round) {
    const double round_start = now_s();
    store = memory_store(nullptr);
    const rf::FleetSimulator cold = simulator(sc, pool.get(), store);
    pin_rotating(cpus, round);
    double t0 = now_s();
    cold.prepare();
    const double t1 = now_s();
    const std::string cold_curve = rf::fleet_curve_csv(cold.run());
    const double t2 = now_s();
    cold_ms.push_back(1e3 * (t2 - t0));
    prepare_s.push_back(t1 - t0);
    population_s.push_back(t2 - t1);

    t0 = now_s();
    const std::string warm_curve =
        rf::fleet_curve_csv(simulator(sc, pool.get(), store).run());
    warm_ms.push_back(1e3 * (now_s() - t0));
    rep.check("fleet.warm_curve_equals_cold", warm_curve == cold_curve);

    const double hot_start = now_s();
    for (int k = 0; k < 20 || now_s() - hot_start < kHotSeconds; ++k) {
      const rf::FleetSimulator hot = simulator(sc, pool.get(), store);
      pin_rotating(cpus, k);
      t0 = now_s();
      hot.prepare();
      hot_ms.push_back(1e3 * (now_s() - t0));
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
  rep.info("fleet_s", median(cold_ms) / 1e3, "s");
  rep.info("fleet_prepare_s", median(prepare_s), "s");
  rep.info("fleet_population_s", median(population_s), "s");
  rep.info("rounds", static_cast<double>(cold_ms.size()), "count");

  // Accuracy, outside the timed region: the sampled cells (stage-store hits
  // now) against the detailed reference.
  report_accuracy(rep, ref, evaluate_cells(sc.cell, store, pool.get()),
                  /*as_layers=*/false);
  rep.e2e("peak_rss_mb", peak_rss_mb, "MiB");
  rep.print();
  return 0;
}

}  // namespace perfbench
