#include "pipeline/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>

#include <unistd.h>

#include "core/qualification.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pipeline/stage_graph.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/hashing.hpp"
#include "util/thread_pool.hpp"

namespace ramp::pipeline {

namespace {

int tech_index(scaling::TechPoint p) {
  for (std::size_t i = 0; i < scaling::kAllTechPoints.size(); ++i) {
    if (scaling::kAllTechPoints[i] == p) return static_cast<int>(i);
  }
  throw InvalidArgument("unknown technology point");
}

}  // namespace

std::string default_sweep_cache_path() {
  return (std::filesystem::path(output_dir()) / "ramp_sweep_cache.csv")
      .string();
}

const AppTechResult& SweepResult::at(const std::string& app,
                                     scaling::TechPoint tech) const {
  for (const auto& r : results) {
    if (r.app == app && r.tech == tech) return r;
  }
  throw InvalidArgument("no sweep cell for " + app);
}

core::FitSummary SweepResult::qualified_fits(const AppTechResult& r) const {
  return scale_summary(r.raw_fits, constants);
}

core::FitSummary SweepResult::worst_case(scaling::TechPoint tech) const {
  double max_temp = 0.0;
  double max_act = 0.0;
  bool any = false;
  for (const auto& r : results) {
    if (r.tech != tech) continue;
    max_temp = std::max(max_temp, r.max_structure_temp_k);
    max_act = std::max(max_act, r.max_activity);
    any = true;
  }
  RAMP_REQUIRE(any, "no results at the requested node");
  const core::RampModel model(scaling::node(tech), constants);
  return core::steady_state_summary(model, max_temp, max_act,
                                    scaling::node(tech).vdd);
}

std::vector<const AppTechResult*> SweepResult::cells(
    workloads::Suite suite, scaling::TechPoint tech) const {
  std::vector<const AppTechResult*> out;
  for (const auto& w : workloads::suite_workloads(suite)) {
    out.push_back(&at(w.name, tech));
  }
  return out;
}

double SweepResult::average_total_fit(workloads::Suite suite,
                                      scaling::TechPoint tech) const {
  const auto suite_cells = cells(suite, tech);
  double sum = 0.0;
  for (const auto* r : suite_cells) sum += qualified_fits(*r).total();
  return sum / static_cast<double>(suite_cells.size());
}

double SweepResult::average_mechanism_fit(workloads::Suite suite,
                                          scaling::TechPoint tech,
                                          core::Mechanism m) const {
  const auto suite_cells = cells(suite, tech);
  double sum = 0.0;
  for (const auto* r : suite_cells) {
    sum += qualified_fits(*r).by_mechanism()[static_cast<std::size_t>(m)];
  }
  return sum / static_cast<double>(suite_cells.size());
}

double SweepResult::average_total_fit_all(scaling::TechPoint tech) const {
  double sum = 0.0;
  int n = 0;
  for (const auto& r : results) {
    if (r.tech != tech) continue;
    sum += qualified_fits(r).total();
    ++n;
  }
  RAMP_REQUIRE(n > 0, "no results at the requested node");
  return sum / n;
}

std::uint64_t config_hash(const EvaluationConfig& cfg) {
  // The mixing order is frozen: changing it invalidates every on-disk cache.
  // trace_instructions/seed go through double for compatibility with the
  // original hash (both are far below 2^53 in practice).
  Fnv64 h;
  h.mix(static_cast<double>(cfg.trace_instructions));
  h.mix(static_cast<double>(cfg.seed));
  h.mix(cfg.interval_seconds);
  for (double w : cfg.power.unconstrained_w_180nm) h.mix(w);
  h.mix(cfg.power.clock_gating_floor);
  h.mix(cfg.power.leakage_beta);
  h.mix(cfg.power.leakage_ref_temp);
  h.mix(cfg.power.base_core_area_mm2);
  h.mix(cfg.thermal.ambient_k);
  h.mix(cfg.thermal.r_convec_k_per_w);
  h.mix(cfg.thermal.r_vertical_specific);
  h.mix(cfg.thermal.r_spreader_sink);
  h.mix(cfg.thermal.k_silicon);
  h.mix(cfg.thermal.die_thickness);
  h.mix(cfg.thermal.c_silicon);
  h.mix(cfg.thermal.spreader_capacitance);
  h.mix(cfg.thermal.sink_capacitance);
  // Sampled mode changes sim-stage results, so the *resolved* mode joins
  // the hash — but only then: a detailed config (including auto resolving
  // to detailed) hashes exactly as before, keeping existing sweep caches
  // valid. The numeric SimMode value is mixed, so its values are frozen.
  const sim::SimMode mode = resolved_sim_mode(cfg);
  if (mode == sim::SimMode::kSampled) {
    h.mix(std::uint64_t{0x73696d5f6d6f6465});  // "sim_mode" domain separator
    h.mix(static_cast<std::uint64_t>(mode));
    h.mix(cfg.sampled.period);
    h.mix(cfg.sampled.warmup);
    h.mix(cfg.sampled.measure);
    h.mix(cfg.sampled.windows);
  }
  return h.value();
}

std::string canonical_config(const EvaluationConfig& cfg) {
  std::ostringstream out;
  out.precision(17);
  out << "trace=" << cfg.trace_instructions << ";seed=" << cfg.seed
      << ";interval=" << cfg.interval_seconds << ";power=";
  for (double w : cfg.power.unconstrained_w_180nm) out << w << ',';
  out << cfg.power.clock_gating_floor << ',' << cfg.power.leakage_beta << ','
      << cfg.power.leakage_ref_temp << ',' << cfg.power.base_core_area_mm2
      << ";thermal=" << cfg.thermal.ambient_k << ','
      << cfg.thermal.r_convec_k_per_w << ',' << cfg.thermal.r_vertical_specific
      << ',' << cfg.thermal.r_spreader_sink << ',' << cfg.thermal.k_silicon
      << ',' << cfg.thermal.die_thickness << ',' << cfg.thermal.c_silicon
      << ',' << cfg.thermal.spreader_capacitance << ','
      << cfg.thermal.sink_capacitance;
  // Appended only for sampled mode so detailed strings stay byte-identical.
  if (resolved_sim_mode(cfg) == sim::SimMode::kSampled) {
    out << ";sim_mode=sampled;period=" << cfg.sampled.period
        << ";warmup=" << cfg.sampled.warmup
        << ";measure=" << cfg.sampled.measure
        << ";windows=" << cfg.sampled.windows;
  }
  return out.str();
}

void write_result_row(std::ostream& out, const AppTechResult& r) {
  out << r.app << ',' << tech_index(r.tech) << ',' << r.ipc << ','
      << r.avg_dynamic_power_w << ',' << r.avg_leakage_power_w << ','
      << r.avg_total_power_w << ',' << r.max_structure_temp_k << ','
      << r.sink_temp_k << ',' << r.avg_die_temp_k << ',' << r.max_activity
      << ',' << r.raw_fits.tc_fit;
  for (const auto& row : r.raw_fits.by_structure) {
    for (double v : row) out << ',' << v;
  }
  out << ',' << r.run.cycles << ',' << r.run.instructions << ','
      << r.run.branches << ',' << r.run.branch_mispredicts << ','
      << r.run.l1d_accesses << ',' << r.run.l1d_misses << ','
      << r.run.l2_accesses << ',' << r.run.l2_misses << ','
      << r.run.l1i_misses;
  for (double a : r.run.avg_activity) out << ',' << a;
}

std::optional<AppTechResult> parse_result_row(const std::string& line) {
  std::istringstream row(line);
  std::string cell;
  auto next = [&]() -> std::string {
    if (!std::getline(row, cell, ',')) {
      throw InvalidArgument("truncated result row");
    }
    return cell;
  };
  try {
    AppTechResult r;
    r.app = next();
    r.tech = scaling::kAllTechPoints.at(static_cast<std::size_t>(std::stoi(next())));
    r.ipc = std::stod(next());
    r.avg_dynamic_power_w = std::stod(next());
    r.avg_leakage_power_w = std::stod(next());
    r.avg_total_power_w = std::stod(next());
    r.max_structure_temp_k = std::stod(next());
    r.sink_temp_k = std::stod(next());
    r.avg_die_temp_k = std::stod(next());
    r.max_activity = std::stod(next());
    r.raw_fits.tc_fit = std::stod(next());
    for (auto& srow : r.raw_fits.by_structure) {
      for (double& v : srow) v = std::stod(next());
    }
    r.run.cycles = std::stoull(next());
    r.run.instructions = std::stoull(next());
    r.run.branches = std::stoull(next());
    r.run.branch_mispredicts = std::stoull(next());
    r.run.l1d_accesses = std::stoull(next());
    r.run.l1d_misses = std::stoull(next());
    r.run.l2_accesses = std::stoull(next());
    r.run.l2_misses = std::stoull(next());
    r.run.l1i_misses = std::stoull(next());
    for (double& a : r.run.avg_activity) a = std::stod(next());
    return r;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::string sweep_to_csv(const SweepResult& sweep) {
  std::ostringstream out;
  out.precision(17);
  out << "# ramp_sweep_cache v1 hash=" << config_hash(sweep.config) << "\n";
  out << "# constants em=" << sweep.constants.em << " sm=" << sweep.constants.sm
      << " tddb=" << sweep.constants.tddb << " tc=" << sweep.constants.tc << "\n";
  for (const auto& r : sweep.results) {
    write_result_row(out, r);
    out << '\n';
  }
  return out.str();
}

std::optional<SweepResult> sweep_from_csv(const std::string& csv,
                                          const EvaluationConfig& expect_cfg) {
  std::istringstream in(csv);
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  {
    std::uint64_t hash = 0;
    if (std::sscanf(line.c_str(), "# ramp_sweep_cache v1 hash=%llu",
                    reinterpret_cast<unsigned long long*>(&hash)) != 1) {
      return std::nullopt;
    }
    if (hash != config_hash(expect_cfg)) return std::nullopt;
  }
  SweepResult sweep;
  sweep.config = expect_cfg;
  if (!std::getline(in, line)) return std::nullopt;
  if (std::sscanf(line.c_str(), "# constants em=%lf sm=%lf tddb=%lf tc=%lf",
                  &sweep.constants.em, &sweep.constants.sm,
                  &sweep.constants.tddb, &sweep.constants.tc) != 4) {
    return std::nullopt;
  }

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto r = parse_result_row(line);
    if (!r) return std::nullopt;  // malformed cache — recompute
    sweep.results.push_back(std::move(*r));
  }
  const std::size_t expected =
      workloads::spec2k_suite().size() * scaling::kAllTechPoints.size();
  if (sweep.results.size() != expected) return std::nullopt;
  return sweep;
}

namespace {

// Serializes access to the sweep cache file within this process; writes are
// additionally atomic on disk (temp file + rename) so concurrently launched
// processes sharing one cache path never read or produce a torn file.
std::mutex& cache_mutex() {
  static std::mutex m;
  return m;
}

std::optional<SweepResult> load_cache(const std::string& path,
                                      const EvaluationConfig& cfg) {
  const std::lock_guard<std::mutex> lock(cache_mutex());
  std::ifstream f(path);
  if (!f) return std::nullopt;
  std::ostringstream buf;
  buf << f.rdbuf();
  return sweep_from_csv(buf.str(), cfg);
}

void store_cache(const std::string& path, const SweepResult& sweep) {
  const std::lock_guard<std::mutex> lock(cache_mutex());
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path target = fs::absolute(fs::path(path), ec);
  if (ec) return;
  if (target.has_parent_path()) fs::create_directories(target.parent_path(), ec);
  ec.clear();
  // The temp file lives in the target directory so the rename cannot cross
  // filesystems; the PID suffix keeps concurrent writers off each other.
  fs::path tmp = target;
  tmp += ".tmp." + std::to_string(::getpid());
  {
    std::ofstream f(tmp);
    if (!f) return;
    f << sweep_to_csv(sweep);
    if (!f) {
      f.close();
      fs::remove(tmp, ec);
      return;
    }
  }
  fs::rename(tmp, target, ec);  // atomic publish; best effort like before
  if (ec) fs::remove(tmp, ec);
}

/// The canonical per-app node order of the serial sweep: 180 nm first (it
/// pins the sink temperature), then the scaled nodes in paper order.
std::vector<scaling::TechPoint> canonical_node_order() {
  std::vector<scaling::TechPoint> order = {scaling::TechPoint::k180nm};
  for (const auto tp : scaling::kAllTechPoints) {
    if (tp != scaling::TechPoint::k180nm) order.push_back(tp);
  }
  return order;
}

}  // namespace

SweepRunner::SweepRunner(EvaluationConfig cfg, Options opts)
    : cfg_(std::move(cfg)), opts_(std::move(opts)) {
  RAMP_REQUIRE(opts_.pool != nullptr || opts_.jobs > 0,
               "SweepRunner needs at least one job");
  if (opts_.stage_store == nullptr && cfg_.stage_cache_enabled) {
    StageStore::Options store_opts;
    store_opts.dir = cfg_.stage_cache_dir;
    opts_.stage_store = std::make_shared<StageStore>(std::move(store_opts));
  }
}

SweepResult SweepRunner::run() const {
  auto& reg = obs::MetricsRegistry::global();
  const bool use_cache = cfg_.cache_enabled && !opts_.cache_path.empty();
  // The cache stores result rows only — a cache hit would return cells with
  // no timelines. Flight-recorder runs therefore skip the read (the sweep is
  // re-evaluated so timelines exist) but still refresh the cache on the way
  // out; the recorded results are bit-identical to a plain run.
  const bool read_cache = use_cache && !cfg_.timeline_enabled;
  if (read_cache) {
    obs::Span cache_span(obs::Stage::kCache);
    if (auto cached = load_cache(opts_.cache_path, cfg_)) {
      reg.counter("ramp_sweep_cache_hits_total").inc();
      cache_span.stop();
      if (opts_.observer) opts_.observer->on_cache_hit(opts_.cache_path);
      return *cached;
    }
    reg.counter("ramp_sweep_cache_misses_total").inc();
  }

  SweepResult sweep;
  if (opts_.pool != nullptr) {
    sweep = execute(*opts_.pool);
  } else {
    ThreadPool pool(opts_.jobs);
    sweep = execute(pool);
  }

  if (use_cache) {
    obs::Span cache_span(obs::Stage::kCache);
    store_cache(opts_.cache_path, sweep);
    reg.counter("ramp_sweep_cache_writes_total").inc();
  }
  return sweep;
}

SweepResult SweepRunner::execute(ThreadPool& pool) const {
  using Clock = std::chrono::steady_clock;
  const auto& suite = workloads::spec2k_suite();
  const auto nodes = canonical_node_order();
  const std::size_t napps = suite.size();
  const std::size_t nnodes = nodes.size();
  const Evaluator evaluator(cfg_, opts_.stage_store);
  const auto sweep_start = Clock::now();

  // Scheduling metrics. All handles are null no-ops when RAMP_METRICS=off,
  // and nothing below feeds back into results.
  auto& reg = obs::MetricsRegistry::global();
  obs::Profiler& prof = obs::Profiler::global();
  const bool profile = prof.enabled();
  const obs::Counter cells_counter = reg.counter("ramp_sweep_cells_total");
  const obs::Histogram cell_hist = reg.histogram(
      "ramp_sweep_cell_seconds",
      {0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0});
  const obs::Gauge queue_gauge = reg.gauge("ramp_pool_queue_depth");
  const obs::Gauge active_gauge = reg.gauge("ramp_pool_active");

  if (opts_.observer) {
    opts_.observer->on_sweep_begin(napps * nnodes, pool.worker_count());
  }

  // Cell results land in their canonical app-major slot as they finish, so
  // the merged vector is independent of execution order.
  std::vector<AppTechResult> cells(napps * nnodes);
  std::mutex observer_mutex;   // serializes ProgressObserver calls
  std::mutex fan_out_mutex;    // guards the dependent-task future list
  std::vector<std::future<void>> scaled_futures;
  scaled_futures.reserve(napps * (nnodes - 1));

  // Runs one (app, node) cell and reports it. `sink_target_k` is 0 for the
  // 180 nm base run and the app's pinned sink temperature otherwise.
  const auto run_cell = [&](std::size_t app_i, std::size_t node_i,
                            double sink_target_k) {
    SweepCell cell;
    cell.app = suite[app_i].name;
    cell.tech = nodes[node_i];
    cell.task_id = static_cast<std::uint64_t>(app_i * nnodes + node_i);
    cell.worker_id = ThreadPool::current_worker_id();
    queue_gauge.set(static_cast<double>(pool.queued()));
    active_gauge.set(static_cast<double>(pool.active()));
    if (opts_.observer) {
      const std::lock_guard<std::mutex> lock(observer_mutex);
      opts_.observer->on_cell_start(cell);
    }
    const auto start = Clock::now();
    AppTechResult& slot = cells[cell.task_id];
    slot = evaluator.evaluate(suite[app_i], cell.tech, sink_target_k);
    const std::chrono::duration<double> wall = Clock::now() - start;
    cells_counter.inc();
    cell_hist.observe(wall.count());
    if (opts_.observer) {
      const std::lock_guard<std::mutex> lock(observer_mutex);
      opts_.observer->on_cell_finish(cell, slot, wall.count());
    }
  };

  // Phase 1: one base task per app. Each base task, once its 180 nm run has
  // pinned the sink temperature, fans out that app's scaled nodes as
  // dependent tasks on the same pool.
  // Queue wait (submit → dequeue) is recorded as kSchedule, which the
  // profile keeps out of kTotal: it is pool pressure, not pipeline work.
  const auto record_wait = [&prof, profile](Clock::time_point submitted) {
    if (!profile) return;
    const auto now = Clock::now();
    prof.record(obs::Stage::kSchedule,
                std::chrono::duration<double>(now - submitted).count());
    // In trace mode the wait shows up as a "queue-wait" slice on the worker
    // that eventually dequeued the task — the causal gap Perfetto renders
    // between submission and execution.
    prof.record_event(obs::Stage::kSchedule, "queue-wait", submitted, now);
  };

  std::vector<std::future<void>> base_futures;
  base_futures.reserve(napps);
  for (std::size_t app_i = 0; app_i < napps; ++app_i) {
    const auto submitted = profile ? Clock::now() : Clock::time_point{};
    base_futures.push_back(pool.submit([&, app_i, submitted] {
      record_wait(submitted);
      run_cell(app_i, 0, 0.0);
      const double sink_target = cells[app_i * nnodes].sink_temp_k;
      const std::lock_guard<std::mutex> lock(fan_out_mutex);
      for (std::size_t node_i = 1; node_i < nnodes; ++node_i) {
        const auto scaled_submitted = profile ? Clock::now() : Clock::time_point{};
        scaled_futures.push_back(
            pool.submit([&, app_i, node_i, sink_target, scaled_submitted] {
              record_wait(scaled_submitted);
              run_cell(app_i, node_i, sink_target);
            }));
      }
    }));
  }

  // Wait for everything before touching the results (or unwinding — tasks
  // capture locals by reference); remember the first failure.
  std::exception_ptr failure;
  const auto drain = [&](std::vector<std::future<void>>& futures) {
    for (auto& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!failure) failure = std::current_exception();
      }
    }
  };
  drain(base_futures);
  // All base tasks have returned, so the dependent-task list is complete.
  drain(scaled_futures);
  if (failure) std::rethrow_exception(failure);

  SweepResult sweep;
  sweep.config = cfg_;
  sweep.results = std::move(cells);

  // Qualification uses the 180 nm cells in suite order — the same summation
  // order as the serial sweep, keeping the constants bit-identical.
  std::vector<core::FitSummary> raw_180;
  raw_180.reserve(napps);
  for (std::size_t app_i = 0; app_i < napps; ++app_i) {
    raw_180.push_back(sweep.results[app_i * nnodes].raw_fits);
  }
  sweep.constants = core::qualify(raw_180);

  if (opts_.observer) {
    const std::chrono::duration<double> wall = Clock::now() - sweep_start;
    opts_.observer->on_sweep_end(wall.count());
  }
  return sweep;
}


}  // namespace ramp::pipeline
