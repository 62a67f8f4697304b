#include "sim/sampled_core.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "sim/branch_predictor.hpp"
#include "sim/memory_hierarchy.hpp"
#include "sim/ooo_core.hpp"
#include "trace/synthetic_generator.hpp"
#include "util/error.hpp"

namespace ramp::sim {

using trace::Instruction;
using trace::OpClass;

namespace {

constexpr std::uint64_t kFetchLineBytes = 64;
constexpr std::uint64_t kNoLimit = ~0ULL;

/// Instructions at the start of the run simulated fully detailed.  The
/// cold-start ramp (cache and predictor fill) is a distinct regime where
/// miss costs overlap heavily; simulating it exactly is far cheaper than
/// modelling it.
constexpr std::uint64_t kDetailedPrefix = 10'000;

/// Ridge weight (in squared proxy cycles) pulling the regression's
/// event-cost coefficient toward 1 when the steady-state windows carry too
/// few events to identify it.  Sparse events do not overlap, so unit cost
/// is the right prior; event-dense workloads override it easily.
constexpr double kRidgeLambda = 1e5;

/// Caps how many instructions an inner reader hands out; the remainder
/// stays unread (the fast-forward picks it up). Lets a measurement-unit
/// core read ahead only as far as the unit allows.
class BoundedReader final : public trace::TraceReader {
 public:
  BoundedReader(trace::TraceReader& inner, std::uint64_t limit)
      : inner_(inner), remaining_(limit) {}

  bool next(Instruction& out) override {
    if (remaining_ == 0) return false;
    if (!inner_.next(out)) {
      inner_exhausted_ = true;
      return false;
    }
    --remaining_;
    ++consumed_;
    return true;
  }

  std::uint64_t consumed() const { return consumed_; }
  bool inner_exhausted() const { return inner_exhausted_; }

 private:
  trace::TraceReader& inner_;
  std::uint64_t remaining_;
  std::uint64_t consumed_ = 0;
  bool inner_exhausted_ = false;
};

/// The functional fast-forward's consumer: warms the shared hierarchy and
/// predictor with each instruction, in program order, and tallies the
/// structure events the instructions stand for.
class FunctionalWarmer {
 public:
  FunctionalWarmer(MemoryHierarchy& mem, BranchPredictor& predictor)
      : mem_(mem), predictor_(predictor) {}

  /// Starts a fast-forward run: zero tallies; the first instruction
  /// fetches its line.
  void begin() {
    last_line_ = ~0ULL;
    lsu = bxu = fpu = 0;
  }

  void operator()(const Instruction& ins) {
    const std::uint64_t line = ins.pc / kFetchLineBytes;
    if (line != last_line_) {
      mem_.fetch_access(ins.pc);
      last_line_ = line;
    }
    const bool is_mem = trace::is_memory(ins.op);
    const bool is_branch = ins.op == OpClass::kBranch;
    lsu += is_mem;
    bxu += is_branch || ins.op == OpClass::kLogicalCr;
    fpu += trace::is_fp(ins.op);
    if (is_mem) {
      mem_.data_access(ins.mem_addr, ins.op == OpClass::kStore);
    } else if (is_branch) {
      predictor_.record_outcome(ins.pc, ins.branch_taken, ins.branch_target);
    }
  }

  // Structure events of the warmed instructions; every op is exactly one of
  // int / FP / load-store / branch-or-CR, so the int count is the rest.
  std::uint64_t lsu = 0, bxu = 0, fpu = 0;

 private:
  MemoryHierarchy& mem_;
  BranchPredictor& predictor_;
  std::uint64_t last_line_ = ~0ULL;
};

double mean_of(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

/// 95% confidence half-width (normal approximation) of the mean of `xs`.
double half_width(const std::vector<double>& xs) {
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  const double m = mean_of(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - m) * (x - m);
  const double sd = std::sqrt(ss / static_cast<double>(n - 1));
  return 1.96 * sd / std::sqrt(static_cast<double>(n));
}

}  // namespace

SampledCore::SampledCore(const CoreConfig& cfg, const SampledParams& params)
    : cfg_(cfg), params_(params) {
  params_.validate();
}

SimResult SampledCore::run(trace::TraceReader& reader,
                           std::uint64_t interval_cycles) {
  RAMP_REQUIRE(interval_cycles > 0, "interval length must be positive");

  // Long-lived microarchitectural state, shared by the detailed prefix,
  // every measurement unit, and the fast-forward in between.
  MemoryHierarchy mem(cfg_);
  BranchPredictor predictor(cfg_.predictor);

  SimResult out;
  stats_ = FastSimStats{};
  stats_.mode = SimMode::kSampled;

  // The unit core may read ahead of the measurement window by its in-flight
  // capacity; cap its consumption so the leftover stays for fast-forward.
  const std::uint64_t slack =
      static_cast<std::uint64_t>(cfg_.rob_size) +
      static_cast<std::uint64_t>(cfg_.fetch_buffer);
  const std::uint64_t measure_target =
      params_.warmup + params_.windows * params_.measure;
  const std::uint64_t unit_cap = measure_target + slack;

  std::uint64_t consumed = 0;           // total trace instructions drawn
  std::uint64_t detailed_consumed = 0;  // drawn by prefix + units

  // Event counters on the shared predictor/hierarchy; deltas between
  // snapshots give exact per-window and per-period event counts.  The
  // event-cost coefficients are nominal serialized penalties; the
  // regression's event_scale rescales them per workload, so only their
  // relative weights matter.
  const double c_mp = static_cast<double>(cfg_.mispredict_penalty);
  const double c_l1i = static_cast<double>(cfg_.lat_l2);
  const double c_l1d = 0.5 * static_cast<double>(cfg_.lat_l2);
  const double c_l2 = 0.5 * static_cast<double>(cfg_.lat_memory);
  struct Events {
    std::uint64_t mp = 0, l1i = 0, l1d = 0, l2 = 0;
  };
  const auto snap_events = [&] {
    return Events{predictor.mispredicts(), mem.l1i().misses(),
                  mem.l1d().misses(), mem.l2().misses()};
  };
  const auto event_cost = [&](const Events& a, const Events& b) {
    return static_cast<double>(b.mp - a.mp) * c_mp +
           static_cast<double>(b.l1i - a.l1i) * c_l1i +
           static_cast<double>(b.l1d - a.l1d) * c_l1d +
           static_cast<double>(b.l2 - a.l2) * c_l2;
  };

  // One record per prefix/period: span, cycle information, and exact
  // per-structure event counts for activity.  `exact_cycles > 0` marks the
  // detailed prefix, whose cycles need no estimation.
  struct PeriodRecord {
    std::uint64_t instructions = 0;
    double exact_cycles = 0.0;
    double event_cycles = 0.0;  // nominal event cost over the whole span
    double fetched = 0.0, dispatched = 0.0, issued = 0.0;
    double fxu = 0.0, fpu = 0.0, lsu = 0.0, bxu = 0.0;
  };
  std::vector<PeriodRecord> periods;

  const auto record_core_counters = [](PeriodRecord& rec,
                                       const OooCore::LiveCounters& lc) {
    rec.fetched += static_cast<double>(lc.fetched);
    rec.dispatched += static_cast<double>(lc.dispatched);
    rec.issued += static_cast<double>(lc.int_issued + lc.fp_issued +
                                      lc.ls_issued + lc.br_issued);
    rec.fxu += static_cast<double>(lc.int_issued);
    rec.fpu += static_cast<double>(lc.fp_issued);
    rec.lsu += static_cast<double>(lc.ls_issued);
    rec.bxu += static_cast<double>(lc.br_issued);
  };

  bool exhausted = false;
  FunctionalWarmer warmer(mem, predictor);
  // A synthetic stream fuses its fast-forward with the warming.
  auto* const synthetic = dynamic_cast<trace::SyntheticTrace*>(&reader);

  // --- detailed prefix: the cold-start ramp, simulated exactly ---
  {
    const Events ev0 = snap_events();
    BoundedReader prefix_reader(reader, kDetailedPrefix);
    OooCore core(cfg_, &mem, &predictor);
    while (core.step_until(prefix_reader, kNoLimit, kNoLimit)) {
    }
    mem.clear_outstanding_misses();
    const auto lc = core.live_counters();
    consumed += prefix_reader.consumed();
    detailed_consumed += prefix_reader.consumed();
    if (prefix_reader.inner_exhausted()) exhausted = true;
    PeriodRecord rec;
    rec.instructions = prefix_reader.consumed();
    rec.exact_cycles = static_cast<double>(lc.cycles);
    rec.event_cycles = event_cost(ev0, snap_events());
    record_core_counters(rec, lc);
    if (rec.instructions > 0) periods.push_back(rec);
  }

  // Steady-state regression rows: per measurement window, cycles observed
  // detailed vs instructions retired and nominal event cost over the same
  // span.  Fitting cycles = base_cpi*instr + event_scale*events across
  // windows separates the workload's intrinsic per-instruction cost
  // (dependency stalls, issue contention) from its event costs; per-period
  // event deltas then place the estimated cycles where the events actually
  // happened, so phase shifts land in the right intervals.
  struct WindowRow {
    double instr = 0.0, cycles = 0.0, events = 0.0;
  };
  std::vector<WindowRow> windows;

  while (!exhausted) {
    const Events period_ev0 = snap_events();

    // --- detailed measurement unit: warmup, then `windows` consecutive
    // measurement windows bounded by retirement snapshots ---
    BoundedReader unit_reader(reader, unit_cap);
    OooCore core(cfg_, &mem, &predictor);
    OooCore::LiveCounters prev{};
    Events prev_ev = period_ev0;
    // Snapshot marks: warmup (opens the first window), then one per window.
    std::uint64_t next_mark = params_.warmup;
    std::uint64_t marks_done = 0;
    const std::uint64_t total_marks = params_.windows + 1;
    // Forward-progress guard, mirroring OooCore's deadlock bound.
    const std::uint64_t cycle_guard = 200'000 + 100 * unit_cap;
    while (marks_done < total_marks &&
           core.step_until(unit_reader, next_mark, cycle_guard)) {
      const auto lc = core.live_counters();
      while (marks_done < total_marks && lc.retired >= next_mark) {
        const Events ev = snap_events();
        if (marks_done > 0 && lc.cycles > prev.cycles &&
            lc.retired > prev.retired) {
          windows.push_back(
              WindowRow{static_cast<double>(lc.retired - prev.retired),
                        static_cast<double>(lc.cycles - prev.cycles),
                        event_cost(prev_ev, ev)});
        }
        prev = lc;
        prev_ev = ev;
        ++marks_done;
        next_mark += params_.measure;
      }
      RAMP_ASSERT(lc.cycles < cycle_guard);
    }
    if (marks_done < total_marks) {
      // Trace ended inside the unit (the machine has fully drained): close
      // one last window over whatever retired since the previous mark — or
      // over the whole unit if even the warmup never completed.
      const auto lc = core.live_counters();
      const Events ev = snap_events();
      if (lc.cycles > prev.cycles && lc.retired > prev.retired) {
        windows.push_back(
            WindowRow{static_cast<double>(lc.retired - prev.retired),
                      static_cast<double>(lc.cycles - prev.cycles),
                      event_cost(prev_ev, ev)});
      }
    }
    // The unit core dies here with its in-flight loads; their fill events
    // die with it, so release the MSHR slots they held in the shared
    // hierarchy.
    mem.clear_outstanding_misses();

    const std::uint64_t unit_consumed = unit_reader.consumed();
    consumed += unit_consumed;
    detailed_consumed += unit_consumed;
    if (unit_reader.inner_exhausted()) exhausted = true;
    if (unit_consumed == 0 && !exhausted) {
      break;  // nothing left in the trace at all
    }

    // Per-period structure events. The unit core's counters at teardown
    // cover its consumed instructions (minus the handful still in flight);
    // fast-forwarded instructions are classified directly below.
    PeriodRecord rec;
    record_core_counters(rec, core.live_counters());

    // --- functional fast-forward to the next unit ---
    std::uint64_t ff_done = 0;
    if (!exhausted && params_.period > unit_consumed) {
      const std::uint64_t ff_target = params_.period - unit_consumed;
      warmer.begin();
      if (synthetic != nullptr) {
        // Fused: each instruction is warmed as it is generated.
        ff_done = synthetic->fast_forward(ff_target, warmer);
      } else {
        Instruction ins;
        while (ff_done < ff_target && reader.next_functional(ins)) {
          warmer(ins);
          ++ff_done;
        }
      }
      if (ff_done < ff_target) exhausted = true;
      // Integer tallies added once equal the per-instruction `+= 1.0` sums
      // exactly (all values stay far below 2^53).
      rec.bxu += static_cast<double>(warmer.bxu);
      rec.lsu += static_cast<double>(warmer.lsu);
      rec.fpu += static_cast<double>(warmer.fpu);
      rec.fxu += static_cast<double>(ff_done - warmer.lsu - warmer.bxu -
                                     warmer.fpu);
      consumed += ff_done;
      const auto dff = static_cast<double>(ff_done);
      rec.fetched += dff;
      rec.dispatched += dff;
      rec.issued += dff;
    }

    rec.instructions = unit_consumed + ff_done;
    rec.event_cycles = event_cost(period_ev0, snap_events());
    if (rec.instructions > 0) periods.push_back(rec);
  }

  // Fit cycles = base_cpi*instr + event_scale*events over the windows,
  // ridge-regularized toward event_scale = 1 (serialized event cost) so
  // sparse-event workloads stay well-posed.  Closed form from the 2x2
  // normal equations of the penalized least-squares problem.
  double s_ii = 0.0, s_ie = 0.0, s_ee = 0.0, s_ic = 0.0, s_ec = 0.0;
  for (const WindowRow& w : windows) {
    s_ii += w.instr * w.instr;
    s_ie += w.instr * w.events;
    s_ee += w.events * w.events;
    s_ic += w.instr * w.cycles;
    s_ec += w.events * w.cycles;
  }
  double base_cpi = 1.0 / static_cast<double>(cfg_.dispatch_group);
  double event_scale = 1.0;
  const double denom = s_ii * (s_ee + kRidgeLambda) - s_ie * s_ie;
  if (s_ii > 0.0 && denom > 0.0) {
    base_cpi =
        (s_ic * (s_ee + kRidgeLambda) - (s_ec + kRidgeLambda) * s_ie) / denom;
    event_scale = ((s_ec + kRidgeLambda) * s_ii - s_ic * s_ie) / denom;
  }
  if (event_scale < 0.0) {
    event_scale = 0.0;
    base_cpi = s_ii > 0.0 ? s_ic / s_ii
                          : 1.0 / static_cast<double>(cfg_.dispatch_group);
  }
  if (base_cpi < 0.0) {
    base_cpi = 0.0;
    event_scale = s_ee > 0.0 ? s_ec / s_ee : 1.0;
  }

  // Interval emission: the prefix contributes its exact cycles; each steady
  // period contributes base_cpi*instr + event_scale*events.  The open
  // interval blends contributions by cycle weight until interval_cycles is
  // reached, mirroring how the detailed core chops its run into intervals.
  double est_cycles_total = 0.0;
  double open_cycles = 0.0;
  double open_instr = 0.0;
  std::array<double, kNumStructures> open_weighted{};
  std::uint64_t instr_assigned = 0;

  auto emit_period = [&](double period_cycles, double ipc,
                         const std::array<double, kNumStructures>& act) {
    est_cycles_total += period_cycles;
    double left = period_cycles;
    while (left > 0.0) {
      const double room = static_cast<double>(interval_cycles) - open_cycles;
      const double take = std::min(left, room);
      for (int s = 0; s < kNumStructures; ++s)
        open_weighted[static_cast<std::size_t>(s)] +=
            act[static_cast<std::size_t>(s)] * take;
      open_cycles += take;
      open_instr += take * ipc;
      left -= take;
      if (open_cycles >= static_cast<double>(interval_cycles)) {
        IntervalStats iv;
        iv.cycles = interval_cycles;
        iv.instructions = static_cast<std::uint64_t>(std::llround(open_instr));
        for (int s = 0; s < kNumStructures; ++s)
          iv.activity[static_cast<std::size_t>(s)] = std::clamp(
              open_weighted[static_cast<std::size_t>(s)] / open_cycles, 0.0,
              1.0);
        out.intervals.push_back(iv);
        instr_assigned += iv.instructions;
        open_cycles = 0.0;
        open_instr = 0.0;
        open_weighted.fill(0.0);
      }
    }
  };

  const int total_units = cfg_.int_units + cfg_.fp_units + cfg_.ls_units +
                          cfg_.br_units + cfg_.cr_units;
  for (const PeriodRecord& rec : periods) {
    const double cycles_k =
        rec.exact_cycles > 0.0
            ? rec.exact_cycles
            : base_cpi * static_cast<double>(rec.instructions) +
                  event_scale * rec.event_cycles;
    if (cycles_k <= 0.0) continue;
    const double ipc_k = static_cast<double>(rec.instructions) / cycles_k;
    auto rate = [cycles_k](double events, int width) {
      return std::clamp(events / (cycles_k * width), 0.0, 1.0);
    };
    std::array<double, kNumStructures> act{};
    act[idx(StructureId::kIfu)] = rate(rec.fetched, cfg_.fetch_width);
    act[idx(StructureId::kIdu)] = rate(rec.dispatched, cfg_.dispatch_group);
    act[idx(StructureId::kIsu)] = rate(rec.issued, total_units);
    act[idx(StructureId::kFxu)] = rate(rec.fxu, cfg_.int_units);
    act[idx(StructureId::kFpu)] = rate(rec.fpu, cfg_.fp_units);
    act[idx(StructureId::kLsu)] = rate(rec.lsu, cfg_.ls_units);
    act[idx(StructureId::kBxu)] = rate(rec.bxu, cfg_.br_units + cfg_.cr_units);
    emit_period(cycles_k, ipc_k, act);
  }

  // Final partial interval (mirrors OooCore's trailing finish_interval).
  const auto tail_cycles =
      static_cast<std::uint64_t>(std::llround(open_cycles));
  if (tail_cycles > 0) {
    IntervalStats iv;
    iv.cycles = tail_cycles;
    iv.instructions =
        consumed > instr_assigned ? consumed - instr_assigned : 0;
    for (int s = 0; s < kNumStructures; ++s)
      iv.activity[static_cast<std::size_t>(s)] = std::clamp(
          open_weighted[static_cast<std::size_t>(s)] / open_cycles, 0.0, 1.0);
    out.intervals.push_back(iv);
  }

  // Whole-run aggregates. Instruction/cache/branch counts are exact
  // full-stream functional totals; cycles (hence IPC) are the estimate.
  out.totals.instructions = consumed;
  out.totals.cycles =
      static_cast<std::uint64_t>(std::llround(est_cycles_total));
  out.totals.l1d_accesses = mem.l1d().accesses();
  out.totals.l1d_misses = mem.l1d().misses();
  out.totals.l2_accesses = mem.l2().accesses();
  out.totals.l2_misses = mem.l2().misses();
  out.totals.l1i_misses = mem.l1i().misses();
  out.totals.branches = predictor.lookups();
  out.totals.branch_mispredicts = predictor.mispredicts();

  // Cycle-weighted average activity over the emitted intervals, exactly as
  // the detailed core computes it.
  std::array<double, kNumStructures> weighted{};
  std::uint64_t total_cycles = 0;
  for (const auto& iv : out.intervals) {
    for (int s = 0; s < kNumStructures; ++s)
      weighted[static_cast<std::size_t>(s)] +=
          iv.activity[static_cast<std::size_t>(s)] *
          static_cast<double>(iv.cycles);
    total_cycles += iv.cycles;
  }
  if (total_cycles > 0) {
    for (int s = 0; s < kNumStructures; ++s)
      out.totals.avg_activity[static_cast<std::size_t>(s)] =
          weighted[static_cast<std::size_t>(s)] /
          static_cast<double>(total_cycles);
  }

  // Estimator metadata: coverage + cross-window confidence.  Each window's
  // observed-over-fitted cycle ratio is an independent draw around 1; the
  // spread of those ratios bounds the cycle (hence IPC) estimate, and
  // activity scales the same way, quoted at the largest structure activity.
  std::vector<double> ratios;
  ratios.reserve(windows.size());
  for (const WindowRow& w : windows) {
    const double fitted = base_cpi * w.instr + event_scale * w.events;
    if (fitted > 0.0) ratios.push_back(w.cycles / fitted);
  }
  stats_.units = windows.size();
  stats_.coverage = consumed > 0 ? static_cast<double>(detailed_consumed) /
                                       static_cast<double>(consumed)
                                 : 1.0;
  const double mean_ratio = mean_of(ratios);
  const double rel_hw =
      mean_ratio > 0.0 ? half_width(ratios) / mean_ratio : 0.0;
  stats_.ipc_half_width = rel_hw;
  double max_act = 0.0;
  for (int s = 0; s < kNumStructures; ++s)
    max_act = std::max(max_act,
                       out.totals.avg_activity[static_cast<std::size_t>(s)]);
  stats_.activity_half_width = rel_hw * max_act;

  return out;
}

}  // namespace ramp::sim
