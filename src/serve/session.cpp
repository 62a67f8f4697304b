#include "serve/session.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <utility>

#include "fleet/fleet_simulator.hpp"
#include "fleet/scenario.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_export.hpp"
#include "scaling/technology.hpp"
#include "util/error.hpp"

namespace ramp::serve {

namespace {

std::uint64_t delta_ns(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return b <= a ? std::uint64_t{0}
                : static_cast<std::uint64_t>(
                      std::chrono::nanoseconds(b - a).count());
}

Json stats_json(const ServiceStats& s) {
  Json j = Json::object();
  j.set("requests", s.requests)
      .set("hits", s.hits)
      .set("coalesced", s.coalesced)
      .set("misses", s.misses)
      .set("persist_hits", s.persist_hits)
      .set("evaluations", s.evaluations)
      .set("failures", s.failures)
      .set("evictions", s.evictions)
      .set("queue_depth", static_cast<std::uint64_t>(s.queue_depth))
      .set("cache_size", static_cast<std::uint64_t>(s.cache_size))
      .set("p50_latency_ms", s.p50_latency_ms)
      .set("p99_latency_ms", s.p99_latency_ms);
  return j;
}

Json cause_counts_json(
    const std::array<std::uint64_t, fleet::kNumFailureCauses>& counts) {
  Json j = Json::object();
  for (int c = 0; c < fleet::kNumFailureCauses; ++c) {
    j.set(std::string(fleet::cause_name(static_cast<fleet::FailureCause>(c))),
          counts[static_cast<std::size_t>(c)]);
  }
  return j;
}

}  // namespace

std::string oversize_line_message() {
  return "request line exceeds " + std::to_string(kMaxRequestLine) +
         " bytes";
}

void set_id(Json& response, const std::string& id) {
  // The id is re-parsed from its captured raw JSON so it round-trips with
  // whatever type the client sent (number, string, object, ...).
  if (!id.empty()) response.set("id", Json::parse(id));
}

Json error_response(const std::string& message, const std::string& id) {
  Json r = Json::object();
  r.set("ok", false);
  set_id(r, id);
  r.set("error", message);
  return r;
}

Json overloaded_response(const std::string& id) {
  Json r = error_response("overloaded", id);
  r.set("overloaded", true);
  return r;
}

Json shutdown_response(const EvalRequest& req) {
  Json r = Json::object();
  r.set("ok", true).set("op", "shutdown");
  set_id(r, req.id);
  return r;
}

Json stats_response(EvalService& service, const EvalRequest& req,
                    bool quiesce) {
  if (quiesce) service.drain();  // queue_depth reflects delivered responses
  Json r = Json::object();
  r.set("ok", true).set("op", "stats");
  set_id(r, req.id);
  r.set("stats", stats_json(service.stats()));
  return r;
}

Json metrics_response(EvalService& service, const EvalRequest& req,
                      bool quiesce) {
  if (quiesce) service.drain();  // counters are settled
  // Service metrics (always booked) plus whatever the process-wide registry
  // collected, with the stage profile attached.
  obs::MetricsSnapshot snap = service.metrics().snapshot();
  snap.merge_from(obs::MetricsRegistry::global().snapshot());
  const obs::StageProfile profile = obs::Profiler::global().snapshot();
  Json r = Json::object();
  r.set("ok", true).set("op", "metrics");
  set_id(r, req.id);
  if (req.metrics_format == "json") {
    // The machine-readable form: raw bucket counts and counters (Prometheus
    // text would lose the per-bucket structure behind formatting).
    r.set("snapshot", Json::parse(obs::to_ndjson(snap, &profile)));
  } else {
    r.set("prometheus", obs::to_prometheus(snap, &profile));
  }
  return r;
}

Json health_response(const EvalRequest& req, const HealthInfo& info) {
  Json r = Json::object();
  r.set("ok", true).set("op", "health");
  set_id(r, req.id);
  r.set("mode", info.mode)
      .set("uptime_s", info.uptime_s)
      .set("accepted_connections", info.accepted_connections)
      .set("active_connections", info.active_connections)
      .set("draining", info.draining)
      .set("shards", 1);
  return r;
}

Json trace_object(const obs::RequestTrace& rec) {
  Json t = Json::object();
  t.set("trace_id", rec.trace_id).set("op", rec.op);
  if (!rec.label.empty()) t.set("label", rec.label);
  t.set("start_ns", rec.start_ns)
      .set("total_ns", rec.total_ns)
      .set("cached", rec.cached)
      .set("coalesced", rec.coalesced);
  Json phases = Json::object();
  for (int p = 0; p < obs::kNumPhases; ++p) {
    phases.set(std::string(obs::phase_name(static_cast<obs::Phase>(p))),
               rec.phase_ns[static_cast<std::size_t>(p)]);
  }
  t.set("phases", std::move(phases));
  bool any_stage = false;
  for (const auto ns : rec.stage_ns) any_stage = any_stage || ns != 0;
  if (any_stage) {
    Json stages = Json::object();
    for (int s = 0; s < obs::kNumStages; ++s) {
      const auto ns = rec.stage_ns[static_cast<std::size_t>(s)];
      if (ns == 0) continue;
      stages.set(std::string(obs::stage_name(static_cast<obs::Stage>(s))), ns);
    }
    t.set("stages", std::move(stages));
  }
  return t;
}

Json trace_dump_response(const EvalRequest& req, const obs::TraceRing& ring) {
  const std::vector<obs::RequestTrace> recs = ring.snapshot();
  Json r = Json::object();
  r.set("ok", true).set("op", "trace_dump");
  set_id(r, req.id);
  r.set("count", static_cast<std::uint64_t>(recs.size()))
      .set("capacity", static_cast<std::uint64_t>(ring.capacity()))
      .set("total_traced", ring.total_pushed())
      .set("perfetto", obs::to_chrome_trace(obs::request_lanes(recs),
                                            "ramp-serve requests"));
  return r;
}

Json metrics_reset_response(EvalService& service, const EvalRequest& req,
                            bool quiesce) {
  // Zero the service counters, the process-wide registry, and the stage
  // profile — so a long-lived server can separate load phases.
  if (quiesce) service.drain();
  service.reset_stats();
  obs::MetricsRegistry::global().reset();
  obs::Profiler::global().reset();
  Json r = Json::object();
  r.set("ok", true).set("op", "metrics_reset");
  set_id(r, req.id);
  return r;
}

Json timeline_response(EvalService& service, const EvalRequest& req) {
  try {
    const pipeline::AppTechResult res = service.evaluate_timeline(req);
    Json r = Json::object();
    r.set("ok", true).set("op", "timeline");
    set_id(r, req.id);
    r.set("result", result_json(res));
    r.set("cell", res.timeline.cell);
    r.set("intervals", res.timeline.intervals);
    r.set("stride", res.timeline.stride);
    Json points = Json::array();
    for (const auto& p : res.timeline.points) {
      Json pt = Json::object();
      pt.set("interval", p.interval)
          .set("time_s", p.time_s)
          .set("ipc", p.ipc)
          .set("dyn_w", p.dyn_power_w)
          .set("leak_w", p.leak_power_w);
      Json temps = Json::array();
      for (double t : p.temp_k) temps.push(t);
      pt.set("temp_k", std::move(temps));
      Json inst = Json::array();
      for (double f : p.fit_inst) inst.push(f);
      pt.set("fit_inst", std::move(inst));
      Json avg = Json::array();
      for (double f : p.fit_avg) avg.push(f);
      pt.set("fit_avg", std::move(avg));
      points.push(std::move(pt));
    }
    r.set("points", std::move(points));
    Json incidents = Json::array();
    for (const auto& inc : res.incidents) {
      incidents.push(Json::parse(obs::incident_to_json(inc)));
    }
    r.set("incidents", std::move(incidents));
    return r;
  } catch (const std::exception& e) {
    return error_response(e.what(), req.id);
  }
}

Json fleet_response(EvalService& service, const EvalRequest& req) {
  try {
    fleet::FleetScenario sc = fleet::FleetScenario::preset(
        req.fleet_scenario.empty() ? "baseline" : req.fleet_scenario);
    if (req.chips) sc.chips = *req.chips;
    if (req.years) sc.horizon_years = *req.years;
    if (req.bin) sc.curve_bin_years = *req.bin;
    if (!req.fleet_policy.empty())
      sc.policy = fleet::parse_policy(req.fleet_policy);
    if (req.has_node) sc.tech = req.node;
    if (req.seed) sc.seed = *req.seed;
    // The scenario's physics cells run with the service's base config and
    // through the service's stage store, so a fleet op and the eval path
    // share per-stage work instead of duplicating it.
    sc.cell = service.config();
    // A serve request must not be able to wedge the process for hours: the
    // CLI handles unbounded studies, the wire op handles bounded ones.
    RAMP_REQUIRE(sc.chips <= 200'000,
                 "fleet op caps chips at 200000 (use `ramp fleet` for "
                 "larger populations)");
    RAMP_REQUIRE(sc.horizon_years <= 100.0, "fleet op caps years at 100");
    sc.validate();

    fleet::FleetSimulator::Options opts;
    opts.jobs = service.options().jobs;
    opts.stage_store = service.stage_store();
    opts.registry = &service.registry();
    const fleet::FleetResult res = fleet::FleetSimulator(sc, opts).run();

    Json scenario = Json::object();
    scenario.set("name", sc.name)
        .set("chips", sc.chips)
        .set("years", sc.horizon_years)
        .set("bin", sc.curve_bin_years)
        .set("policy", std::string(fleet::policy_name(sc.policy)))
        .set("node", std::string(scaling::tech_token(sc.tech)))
        .set("seed", sc.seed);

    const fleet::FleetSummary& s = res.summary;
    Json summary = Json::object();
    summary.set("chips", s.chips)
        .set("failed", s.failed)
        .set("survival_at_horizon", s.survival_at_horizon)
        .set("mean_failure_age_years", s.mean_failure_age_years)
        .set("by_cause", cause_counts_json(s.failures_by_cause))
        .set("avg_relative_performance", s.avg_relative_performance)
        .set("throttle_switches", s.throttle_switches)
        .set("migrations", s.migrations)
        .set("spare_activations", s.spare_activations)
        .set("monitor_reconfigs", s.monitor_reconfigs);

    Json curve = Json::array();
    for (const auto& p : res.curve) {
      Json bin = Json::object();
      bin.set("t_end_years", p.t_end_years)
          .set("failures", p.failures)
          .set("survivors", p.survivors)
          .set("survival", p.survival)
          .set("hazard_per_year", p.hazard_per_year)
          .set("by_cause", cause_counts_json(p.by_cause));
      curve.push(std::move(bin));
    }

    Json r = Json::object();
    r.set("ok", true).set("op", "fleet");
    set_id(r, req.id);
    r.set("scenario", std::move(scenario));
    r.set("summary", std::move(summary));
    r.set("curve", std::move(curve));
    return r;
  } catch (const std::exception& e) {
    return error_response(e.what(), req.id);
  }
}

Json control_response(EvalService& service, const EvalRequest& req,
                      bool quiesce) {
  switch (req.op) {
    case Op::kStats: return stats_response(service, req, quiesce);
    case Op::kMetrics: return metrics_response(service, req, quiesce);
    case Op::kMetricsReset:
      return metrics_reset_response(service, req, quiesce);
    case Op::kTimeline: return timeline_response(service, req);
    case Op::kFleet: return fleet_response(service, req);
    case Op::kHealth:
    case Op::kTraceDump:
      // Per-transport state (connections, trace ring) lives in the
      // front-end, which answers these itself before dispatching here.
      return error_response("internal: op is handled by the front-end",
                            req.id);
    case Op::kEval:
    case Op::kShutdown:
      break;
  }
  return error_response("internal: not a control op", req.id);
}

Json eval_response(const EvalService::Ticket& ticket, const std::string& id) {
  try {
    const OutcomePtr outcome = ticket.future.get();
    Json r = Json::object();
    r.set("ok", true);
    r.set("op", "eval");
    set_id(r, id);
    r.set("key", outcome->key);
    r.set("cached", ticket.source == EvalService::Source::kCache);
    r.set("coalesced", ticket.source == EvalService::Source::kCoalesced);
    r.set("result", result_json(outcome->result));
    return r;
  } catch (const std::exception& e) {
    return error_response(e.what(), id);
  }
}

// ---- Session ---------------------------------------------------------------

Session::Session(EvalService& service, Sink sink)
    : service_(service), sink_(std::move(sink)) {}

bool Session::respond(const Json& response) {
  if (sink_dead_) return false;
  if (!sink_(response.dump())) {
    sink_dead_ = true;
    pending_.clear();  // nobody left to deliver to; futures self-complete
    return false;
  }
  return true;
}

bool Session::drain_pending(bool all) {
  while (!pending_.empty()) {
    if (!all && pending_.front().ticket.future.wait_for(
                    std::chrono::seconds(0)) != std::future_status::ready) {
      break;
    }
    if (!respond(answer_pending(pending_.front()))) return false;
    pending_.pop_front();
  }
  return true;
}

Json Session::answer_pending(const Pending& p) {
  if (!p.traced) return eval_response(p.ticket, p.id);

  // Barrier drains reach here with the ticket possibly still in flight;
  // finish that wait before the clock pair, or the blocking get() inside
  // eval_response would be billed to the serialize phase (the wait is
  // already attributed as queue/compute by the worker's cell).
  p.ticket.future.wait();
  // The ready/after pair times serialization; everything before it comes
  // from the pending record and the worker's phase cell.
  const auto ready = std::chrono::steady_clock::now();
  Json r = eval_response(p.ticket, p.id);
  const auto after = std::chrono::steady_clock::now();

  obs::RequestTrace rec;
  rec.trace_id = p.trace_id;
  rec.op = "eval";
  rec.label = p.label;
  rec.cached = p.ticket.source == EvalService::Source::kCache;
  rec.coalesced = p.ticket.source == EvalService::Source::kCoalesced;
  const Json* ok = r.find("ok");
  rec.ok = ok != nullptr && ok->as_bool("ok");

  const std::uint64_t accepted_ns = ring_.to_epoch_ns(p.accepted);
  rec.start_ns =
      accepted_ns >= p.read_parse_ns ? accepted_ns - p.read_parse_ns : 0;
  auto& ph = rec.phase_ns;
  ph[static_cast<std::size_t>(obs::Phase::kParse)] = p.read_parse_ns;
  ph[static_cast<std::size_t>(obs::Phase::kAdmission)] = p.admission_ns;
  if (p.ticket.source == EvalService::Source::kScheduled &&
      p.ticket.phases != nullptr) {
    ph[static_cast<std::size_t>(obs::Phase::kQueue)] = p.ticket.phases->queue_ns;
    ph[static_cast<std::size_t>(obs::Phase::kCache)] = p.ticket.phases->cache_ns;
    ph[static_cast<std::size_t>(obs::Phase::kCompute)] =
        p.ticket.phases->compute_ns;
    rec.stage_ns = p.ticket.phases->stage_ns;
  } else {
    // Cache hits and coalesced joins did no work of their own: their latency
    // is head-of-line wait behind earlier pipelined responses.
    ph[static_cast<std::size_t>(obs::Phase::kQueue)] =
        delta_ns(p.accepted, ready);
  }
  ph[static_cast<std::size_t>(obs::Phase::kSerialize)] = delta_ns(ready, after);
  // kFlush stays 0: the stdio sink writes synchronously right after this.
  rec.total_ns = delta_ns(p.accepted, after) + p.read_parse_ns;

  ring_.push(rec);
  if (p.want_response) r.set("trace", trace_object(rec));
  return r;
}

bool Session::handle_line(const std::string& line) {
  if (shutdown_ || sink_dead_) return false;

  if (line.size() > kMaxRequestLine) return reject_line(oversize_line_message());
  if (line.find_first_not_of(" \t\r") == std::string::npos) return true;

  // With trace_all_ off this is the only tracing branch the hot path sees:
  // no clock is read unless the request itself asks for a trace.
  const auto t0 = trace_all_ ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
  EvalRequest req;
  try {
    req = parse_request(line);
  } catch (const std::exception& e) {
    // Errors keep request order too: answer everything in front first.
    if (!drain_pending(/*all=*/true)) return false;
    return respond(error_response(e.what()));
  }

  if (req.op == Op::kShutdown) {
    if (!drain_pending(/*all=*/true)) return false;
    shutdown_ = true;
    respond(shutdown_response(req));
    return false;
  }
  if (req.op == Op::kHealth) {
    if (!drain_pending(/*all=*/true)) return false;
    HealthInfo info;
    if (health_provider_) {
      info = health_provider_();
    } else {
      info.mode = "stdio";
      info.uptime_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started_)
              .count();
      info.accepted_connections = 1;
      info.active_connections = 1;
    }
    return respond(health_response(req, info));
  }
  if (req.op == Op::kTraceDump) {
    if (!drain_pending(/*all=*/true)) return false;
    return respond(trace_dump_response(req, ring_));
  }
  if (req.op != Op::kEval) {
    // Control ops are barriers on the blocking path: pending evals answer
    // first, then the op runs synchronously (quiesced — single client).
    if (!drain_pending(/*all=*/true)) return false;
    return respond(control_response(service_, req, /*quiesce=*/true));
  }

  Pending p;
  p.id = req.id;
  if (trace_all_ || req.trace) {
    const auto t1 = std::chrono::steady_clock::now();
    p.traced = true;
    p.want_response = req.trace;
    if (req.trace_id.empty()) {
      char buf[24];
      std::snprintf(buf, sizeof buf, "s%llx",
                    static_cast<unsigned long long>(++trace_seq_));
      p.trace_id = buf;
    } else {
      p.trace_id = req.trace_id;
    }
    p.label = req.app + "@" + std::string(scaling::tech_token(req.node));
    p.accepted = t1;
    // A request that asked for a trace under trace_all_ off reports
    // read/parse as 0 — the clock only started once parsing revealed the
    // flag (see enable_request_trace()).
    if (trace_all_) p.read_parse_ns = delta_ns(t0, t1);
    try {
      p.ticket = service_.submit(req);
    } catch (const std::exception& e) {
      if (!drain_pending(/*all=*/true)) return false;
      return respond(error_response(e.what(), req.id));
    }
    p.admission_ns = delta_ns(t1, std::chrono::steady_clock::now());
  } else {
    try {
      p.ticket = service_.submit(req);
    } catch (const std::exception& e) {
      if (!drain_pending(/*all=*/true)) return false;
      return respond(error_response(e.what(), req.id));
    }
  }
  pending_.push_back(std::move(p));
  return drain_pending(/*all=*/false);
}

bool Session::reject_line(const std::string& message) {
  if (shutdown_ || sink_dead_) return false;
  if (!drain_pending(/*all=*/true)) return false;
  return respond(error_response(message));
}

bool Session::pump() {
  if (sink_dead_) return false;
  return drain_pending(/*all=*/false);
}

bool Session::finish() {
  if (sink_dead_) return false;
  return drain_pending(/*all=*/true);
}

}  // namespace ramp::serve
