#include "sim/interval_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "sim/branch_predictor.hpp"
#include "sim/memory_hierarchy.hpp"
#include "sim/ooo_core.hpp"
#include "util/error.hpp"

namespace ramp::sim {

using trace::Instruction;
using trace::OpClass;

namespace {

constexpr std::uint64_t kFetchLineBytes = 64;

/// Replays a buffered instruction prefix (for the calibration run).
class VectorReader final : public trace::TraceReader {
 public:
  explicit VectorReader(const std::vector<Instruction>& v) : v_(v) {}
  bool next(Instruction& out) override {
    if (i_ >= v_.size()) return false;
    out = v_[i_++];
    return true;
  }

 private:
  const std::vector<Instruction>& v_;
  std::size_t i_ = 0;
};

/// The continuous-time scoreboard; owns its functional cache hierarchy and
/// branch predictor so event latencies reflect the real stream.
class Scoreboard {
 public:
  explicit Scoreboard(const CoreConfig& cfg)
      : cfg_(cfg),
        mem_(cfg),
        predictor_(cfg.predictor),
        reg_ready_(
            static_cast<std::size_t>(cfg.arch_int_regs + cfg.arch_fp_regs),
            0.0),
        rob_ring_(static_cast<std::size_t>(cfg.rob_size), 0.0),
        int_free_(static_cast<std::size_t>(cfg.int_units), 0.0),
        fp_free_(static_cast<std::size_t>(cfg.fp_units), 0.0),
        ls_free_(static_cast<std::size_t>(cfg.ls_units), 0.0),
        br_free_(static_cast<std::size_t>(cfg.br_units), 0.0),
        cr_free_(static_cast<std::size_t>(cfg.cr_units), 0.0) {}

  void feed(const Instruction& ins) {
    // Fetch serialization: I-cache fill once per new line.
    const std::uint64_t line = ins.pc / kFetchLineBytes;
    if (line != last_line_) {
      const int stall = mem_.fetch_access(ins.pc);
      last_line_ = line;
      if (stall > 0)
        fetch_floor_ = std::max(fetch_floor_, disp_clock_) +
                       static_cast<double>(stall);
    }

    // Dispatch time: group-width clock, fetch floor, ROB window.
    const std::size_t rob_idx = static_cast<std::size_t>(
        count_ % static_cast<std::uint64_t>(cfg_.rob_size));
    double t = std::max(disp_clock_, fetch_floor_);
    t = std::max(t, rob_ring_[rob_idx]);
    disp_clock_ = t + 1.0 / static_cast<double>(cfg_.dispatch_group);

    // Operand readiness through the last-writer map.
    double ready = t;
    if (ins.src1 != Instruction::kNoReg)
      ready = std::max(ready, reg_ready_[ins.src1]);
    if (ins.src2 != Instruction::kNoReg)
      ready = std::max(ready, reg_ready_[ins.src2]);

    // Unit contention + latency.
    double complete = 0.0;
    switch (ins.op) {
      case OpClass::kLoad: {
        const int lat = mem_.data_access(ins.mem_addr, false);
        complete = claim(ls_free_, ready, 1.0) + static_cast<double>(lat);
        ++ls_count_;
        break;
      }
      case OpClass::kStore: {
        mem_.data_access(ins.mem_addr, true);
        complete = claim(ls_free_, ready, 1.0) + 1.0;
        ++ls_count_;
        break;
      }
      case OpClass::kBranch: {
        complete = claim(br_free_, ready, 1.0) + 1.0;
        ++br_count_;
        if (predictor_.record_outcome(ins.pc, ins.branch_taken,
                                      ins.branch_target)) {
          fetch_floor_ = std::max(
              fetch_floor_,
              complete + static_cast<double>(cfg_.mispredict_penalty));
        }
        break;
      }
      case OpClass::kLogicalCr:
        complete = claim(cr_free_, ready, 1.0) + 1.0;
        ++br_count_;  // BXU covers branch + CR-logical traffic
        break;
      case OpClass::kFpAlu:
        complete = claim(fp_free_, ready, 1.0) +
                   static_cast<double>(cfg_.lat_fp);
        ++fp_count_;
        break;
      case OpClass::kFpDiv:
        // Divides are unpipelined: the unit is busy for the full latency.
        complete = claim(fp_free_, ready,
                         static_cast<double>(cfg_.lat_fp_div)) +
                   static_cast<double>(cfg_.lat_fp_div);
        ++fp_count_;
        break;
      case OpClass::kIntAlu:
        complete = claim(int_free_, ready, 1.0) +
                   static_cast<double>(cfg_.lat_int_add);
        ++int_count_;
        break;
      case OpClass::kIntMul:
        complete = claim(int_free_, ready, 1.0) +
                   static_cast<double>(cfg_.lat_int_mul);
        ++int_count_;
        break;
      case OpClass::kIntDiv:
        complete = claim(int_free_, ready,
                         static_cast<double>(cfg_.lat_int_div)) +
                   static_cast<double>(cfg_.lat_int_div);
        ++int_count_;
        break;
    }

    if (ins.dst != Instruction::kNoReg) reg_ready_[ins.dst] = complete;
    rob_ring_[rob_idx] = complete;
    t_end_ = std::max(t_end_, complete);
    ++count_;
  }

  double cycles() const { return t_end_; }
  std::uint64_t count() const { return count_; }
  std::uint64_t int_count() const { return int_count_; }
  std::uint64_t fp_count() const { return fp_count_; }
  std::uint64_t ls_count() const { return ls_count_; }
  std::uint64_t br_count() const { return br_count_; }
  const MemoryHierarchy& mem() const { return mem_; }
  const BranchPredictor& predictor() const { return predictor_; }

 private:
  /// Claims the earliest-free unit of a pool at `ready`; occupies it for
  /// `occupy` cycles and returns the start time.
  static double claim(std::vector<double>& pool, double ready, double occupy) {
    std::size_t best = 0;
    for (std::size_t u = 1; u < pool.size(); ++u)
      if (pool[u] < pool[best]) best = u;
    const double start = std::max(ready, pool[best]);
    pool[best] = start + occupy;
    return start;
  }

  CoreConfig cfg_;
  MemoryHierarchy mem_;
  BranchPredictor predictor_;
  std::vector<double> reg_ready_;
  std::vector<double> rob_ring_;
  std::vector<double> int_free_, fp_free_, ls_free_, br_free_, cr_free_;
  double disp_clock_ = 0.0;
  double fetch_floor_ = 0.0;
  double t_end_ = 0.0;
  std::uint64_t last_line_ = ~0ULL;
  std::uint64_t count_ = 0;
  std::uint64_t int_count_ = 0;
  std::uint64_t fp_count_ = 0;
  std::uint64_t ls_count_ = 0;
  std::uint64_t br_count_ = 0;
};

}  // namespace

IntervalModel::IntervalModel(const CoreConfig& cfg,
                             std::uint64_t calibration_instructions)
    : cfg_(cfg), calibration_instructions_(calibration_instructions) {
  RAMP_REQUIRE(calibration_instructions_ > 0,
               "calibration prefix must be non-empty");
}

SimResult IntervalModel::run(trace::TraceReader& reader,
                             std::uint64_t interval_cycles) {
  RAMP_REQUIRE(interval_cycles > 0, "interval length must be positive");

  stats_ = FastSimStats{};
  stats_.mode = SimMode::kInterval;

  // Buffer the calibration prefix so both the detailed reference and the
  // scoreboard see the identical instruction sequence.
  std::vector<Instruction> prefix;
  prefix.reserve(static_cast<std::size_t>(calibration_instructions_));
  {
    Instruction ins;
    while (prefix.size() < calibration_instructions_ && reader.next(ins))
      prefix.push_back(ins);
  }

  SimResult out;
  if (prefix.empty()) return out;  // empty trace

  // Detailed reference over the prefix (own cold state, like a fresh run).
  // Gamma is measured over the *tail half* of the prefix: the head is
  // dominated by the cold-cache fill, where the detailed core's stall
  // structure (MSHR saturation, serialized compulsory misses) differs from
  // steady state, so a whole-prefix ratio bakes cold-phase bias into every
  // warm instruction and systematically underestimates IPC. Both sides see
  // the identical instruction sequence, so the tail ratio isolates the
  // model's structural bias at (near-)steady state.
  const std::uint64_t half = static_cast<std::uint64_t>(prefix.size()) / 2;
  double det_half_cycles = 0.0;
  double det_full_cycles = 0.0;
  {
    constexpr std::uint64_t kNoLimit = ~0ULL;
    VectorReader vr(prefix);
    OooCore core(cfg_);
    // The half mark counts only if the machine is still live when it is
    // crossed; a crossing on the draining cycle leaves it at zero.
    bool live = true;
    if (half > 0) {
      live = core.step_until(vr, half, kNoLimit);
      if (live) {
        det_half_cycles = static_cast<double>(core.live_counters().cycles);
      }
    }
    while (live) live = core.step_until(vr, kNoLimit, kNoLimit);
    det_full_cycles = static_cast<double>(core.live_counters().cycles);
  }

  // Scoreboard over the prefix, then straight on through the remainder.
  Scoreboard sb(cfg_);
  double model_half_cycles = 0.0;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    sb.feed(prefix[i]);
    if (half > 0 && i + 1 == static_cast<std::size_t>(half))
      model_half_cycles = sb.cycles();
  }
  const double model_prefix_cycles = sb.cycles();
  RAMP_ASSERT(model_prefix_cycles > 0.0);
  const double det_tail = det_full_cycles - det_half_cycles;
  const double model_tail = model_prefix_cycles - model_half_cycles;
  // Degenerate prefixes (a couple of instructions) fall back to the
  // whole-prefix ratio.
  const double gamma = (det_tail > 0.0 && model_tail > 0.0)
                           ? det_tail / model_tail
                           : det_full_cycles / model_prefix_cycles;

  {
    Instruction ins;
    while (reader.next(ins)) sb.feed(ins);
  }

  const std::uint64_t n = sb.count();
  const double est_cycles = gamma * sb.cycles();
  const auto total_cycles =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::llround(est_cycles)));
  const double ipc = static_cast<double>(n) / static_cast<double>(total_cycles);

  // Whole-run activity factors: exact per-class event counts over the
  // estimated cycle count — the same events/(cycles×width) definition the
  // detailed core applies per interval.
  const double dc = static_cast<double>(total_cycles);
  auto rate = [dc](std::uint64_t events, int width) {
    const double r = static_cast<double>(events) / (dc * width);
    return std::clamp(r, 0.0, 1.0);
  };
  const int total_units = cfg_.int_units + cfg_.fp_units + cfg_.ls_units +
                          cfg_.br_units + cfg_.cr_units;
  std::array<double, kNumStructures> act{};
  act[idx(StructureId::kIfu)] = rate(n, cfg_.fetch_width);
  act[idx(StructureId::kIdu)] = rate(n, cfg_.dispatch_group);
  act[idx(StructureId::kIsu)] = rate(n, total_units);
  act[idx(StructureId::kFxu)] = rate(sb.int_count(), cfg_.int_units);
  act[idx(StructureId::kFpu)] = rate(sb.fp_count(), cfg_.fp_units);
  act[idx(StructureId::kLsu)] = rate(sb.ls_count(), cfg_.ls_units);
  act[idx(StructureId::kBxu)] =
      rate(sb.br_count(), cfg_.br_units + cfg_.cr_units);

  // Piecewise-constant interval emission.
  std::uint64_t cycles_left = total_cycles;
  std::uint64_t instr_assigned = 0;
  while (cycles_left > 0) {
    IntervalStats iv;
    iv.cycles = std::min(cycles_left, interval_cycles);
    iv.activity = act;
    if (iv.cycles == cycles_left) {
      iv.instructions = n > instr_assigned ? n - instr_assigned : 0;
    } else {
      iv.instructions = static_cast<std::uint64_t>(
          std::llround(static_cast<double>(iv.cycles) * ipc));
    }
    instr_assigned += iv.instructions;
    out.intervals.push_back(iv);
    cycles_left -= iv.cycles;
  }

  out.totals.instructions = n;
  out.totals.cycles = total_cycles;
  out.totals.avg_activity = act;
  out.totals.l1d_accesses = sb.mem().l1d().accesses();
  out.totals.l1d_misses = sb.mem().l1d().misses();
  out.totals.l2_accesses = sb.mem().l2().accesses();
  out.totals.l2_misses = sb.mem().l2().misses();
  out.totals.l1i_misses = sb.mem().l1i().misses();
  out.totals.branches = sb.predictor().lookups();
  out.totals.branch_mispredicts = sb.predictor().mispredicts();

  stats_.coverage =
      static_cast<double>(prefix.size()) / static_cast<double>(n);

  return out;
}

}  // namespace ramp::sim
