// Trace-driven out-of-order superscalar core timing model (Turandot-like).
//
// Models the POWER4-like pipeline of Table 2: 8-wide fetch ending at taken
// branches, dispatch-group formation (up to 5 instructions, one group per
// cycle), register renaming against finite physical register files,
// per-class issue queues feeding 2 Int / 2 FP / 2 Load-Store / 1 Branch /
// 1 CR-logical units, a 150-entry reorder buffer with group retirement, a
// 32-entry memory queue, and the L1/L2/memory hierarchy. Being trace-driven,
// mispredicted branches stall fetch for a redirect penalty rather than
// executing wrong-path instructions — the same approach Turandot takes.
//
// The simulator's deliverable is SimResult: per-interval per-structure
// activity factors that the power model converts to Watts.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "sim/branch_predictor.hpp"
#include "sim/core_config.hpp"
#include "sim/interval_stats.hpp"
#include "sim/memory_hierarchy.hpp"
#include "trace/instruction.hpp"

namespace ramp::sim {

class OooCore {
 public:
  explicit OooCore(const CoreConfig& cfg);

  /// Borrowed-state constructor: the core uses (and mutates) the caller's
  /// memory hierarchy and/or branch predictor instead of owning fresh ones.
  /// Pass nullptr to own that component. SampledCore uses this so its
  /// short-lived measurement-unit cores share one persistently warm cache
  /// hierarchy and predictor instead of re-constructing MB-scale tag arrays
  /// per unit. Borrowed components must outlive the core.
  OooCore(const CoreConfig& cfg, MemoryHierarchy* mem,
          BranchPredictor* predictor);

  /// Runs `reader` to exhaustion, chopping statistics every
  /// `interval_cycles` cycles. Throws InvalidArgument on a zero interval.
  SimResult run(trace::TraceReader& reader, std::uint64_t interval_cycles);

  /// Stepping for callers that drive the core externally (SampledCore
  /// measures instruction windows this way): simulates cycles against
  /// `reader` until at least `retired_target` instructions have retired in
  /// all or the clock reaches `cycle_limit`, so the caller sees
  /// live_counters() at exactly the cycle that crossed its mark. Returns
  /// false once the trace is exhausted and the machine has drained. Idle
  /// cycles are skipped as in run(); they retire nothing, so no mark is
  /// crossed inside a skip. Interval chopping is disabled in this mode.
  /// Do not mix with run().
  bool step_until(trace::TraceReader& reader, std::uint64_t retired_target,
                  std::uint64_t cycle_limit);

  /// Running whole-run totals, valid while driving the core via
  /// step_until().
  struct LiveCounters {
    std::uint64_t cycles = 0;
    std::uint64_t retired = 0;
    std::uint64_t fetched = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t int_issued = 0;
    std::uint64_t fp_issued = 0;
    std::uint64_t ls_issued = 0;
    std::uint64_t br_issued = 0;
  };
  LiveCounters live_counters() const {
    return {cycle_,         iv_retired_,   iv_fetched_,   iv_dispatched_,
            iv_int_issued_, iv_fp_issued_, iv_ls_issued_, iv_br_issued_};
  }

  const CoreConfig& config() const { return cfg_; }

 private:
  // One in-flight instruction, identified by its dynamic sequence number.
  struct Flight {
    trace::OpClass op{};
    std::uint64_t seq = 0;
    std::uint64_t dep1 = kNoDep;  ///< producer sequence numbers
    std::uint64_t dep2 = kNoDep;
    std::uint64_t mem_addr = 0;
    std::uint64_t complete_cycle = 0;
    bool issued = false;  ///< complete_cycle is fixed once set
    bool produces_int = false;
    bool produces_fp = false;
    bool in_mem_queue = false;
  };
  static constexpr std::uint64_t kNoDep = ~0ULL;
  static constexpr std::uint64_t kNever = ~0ULL;

  // Functional-unit pool for one op family.
  struct UnitPool {
    std::vector<std::uint64_t> free_at;  ///< cycle each unit next accepts
    explicit UnitPool(int n = 0) : free_at(static_cast<std::size_t>(n), 0) {}
    int available(std::uint64_t now) const;
    /// Earliest cycle at which some unit accepts an op.
    std::uint64_t next_free() const;
    // Claims a unit: occupied through `occupy` cycles (1 for pipelined ops).
    void claim(std::uint64_t now, std::uint64_t occupy);
  };

  enum class IqClass : std::uint8_t { kInt, kFp, kLs, kBr, kCr };
  static constexpr int kNumIqClasses = 5;
  static IqClass iq_class_of(trace::OpClass op);

  // Issue-queue entry: the flight's seq plus a cached earliest-ready cycle.
  // ready_at stays kReadyUnknown while any producer is unissued, and the
  // entry is *parked* on that producer (`blocker`): the ready scan checks
  // only the blocker's issued bit, and re-derives ready_at from the ROB
  // once it has issued. When every producer has issued, ready_at is the max
  // over their complete cycles and never changes again (producers retiring
  // later cannot move it), so a waiting entry costs one compare per scan.
  struct IqEntry {
    std::uint64_t seq;
    std::uint64_t ready_at;
    std::uint64_t blocker;  ///< unissued producer, while ready_at is unknown
  };
  static constexpr std::uint64_t kReadyUnknown = ~0ULL;

  // --- pipeline stages, called once per cycle in reverse order ---
  void do_retire();
  void do_complete();
  void do_issue();
  void do_dispatch();
  void do_fetch(trace::TraceReader& reader);

  /// One full pipeline cycle plus interval bookkeeping (shared by run and
  /// step_until). A cycle in which no stage changed any state is followed
  /// by a jump to the next cycle at which one can (skip_idle_cycles).
  void cycle_once(trace::TraceReader& reader);
  bool drained() const {
    return trace_exhausted_ && !pending_valid_ && fetch_count_ == 0 &&
           rob_count() == 0;
  }

  /// Idle-cycle skipping. Called after a cycle in which nothing changed:
  /// the machine state is then a fixed point until the earliest of the
  /// timed events next_event_cycle() bounds, so the cycles before it would
  /// all be idle too and are skipped (never past an interval boundary).
  void skip_idle_cycles();
  /// Lower bound on the first cycle >= cycle_ at which any stage can act on
  /// the current state, or kNever when no timed event is pending.
  std::uint64_t next_event_cycle();
  /// True while `e` waits on a producer that has not issued yet.
  bool parked(const IqEntry& e) const {
    return e.blocker >= rob_base_seq_ && !rob_at(e.blocker).issued;
  }

  /// Earliest cycle the flight's operands are all available, or
  /// kReadyUnknown (with `blocker` set to the culprit) while a producer has
  /// not issued yet.
  std::uint64_t ready_at_of(const Flight& f, std::uint64_t& blocker) const;
  std::uint64_t rob_count() const { return next_seq_ - rob_base_seq_; }
  /// The in-flight instruction `seq` (rob_base_seq_ <= seq < next_seq_).
  Flight& rob_at(std::uint64_t seq) { return rob_[seq & rob_mask_]; }
  const Flight& rob_at(std::uint64_t seq) const { return rob_[seq & rob_mask_]; }
  int exec_latency(trace::OpClass op) const;
  void finish_interval();

  CoreConfig cfg_;
  // Owned by default; borrowed (null owners) via the injection constructor.
  std::unique_ptr<BranchPredictor> owned_predictor_;
  std::unique_ptr<MemoryHierarchy> owned_mem_;
  BranchPredictor* predictor_ = nullptr;
  MemoryHierarchy* mem_ = nullptr;

  // ROB as a power-of-two ring indexed by seq: the in-flight instructions
  // are exactly seqs [rob_base_seq_, next_seq_), so finding a producer is
  // one mask.
  std::vector<Flight> rob_;
  std::uint64_t rob_mask_ = 0;
  std::uint64_t rob_base_seq_ = 0;  ///< seq of ROB head (oldest in flight)
  std::uint64_t next_seq_ = 0;      ///< seq for the next dispatched instr

  // Rename: architectural register -> seq of last in-flight producer.
  std::vector<std::uint64_t> rename_table_;
  int int_regs_in_use_ = 0;
  int fp_regs_in_use_ = 0;
  int mem_queue_used_ = 0;

  std::vector<std::vector<IqEntry>> issue_queues_;  ///< FIFO order
  UnitPool int_pool_, fp_pool_, ls_pool_, br_pool_, cr_pool_;

  // Fetch state. The fetch buffer is a power-of-two ring of fetch_count_
  // instructions starting at fetch_head_.
  std::vector<trace::Instruction> fetch_ring_;
  std::size_t fetch_mask_ = 0;
  std::size_t fetch_head_ = 0;
  std::size_t fetch_count_ = 0;
  std::uint64_t fetch_resume_cycle_ = 0;  ///< stall until this cycle
  std::uint64_t stalled_on_branch_seq_ = kNoDep;  ///< unresolved mispredict
  bool trace_exhausted_ = false;
  trace::Instruction pending_;  ///< lookahead instruction when valid
  bool pending_valid_ = false;

  std::uint64_t cycle_ = 0;
  bool active_ = false;  ///< some stage changed state this cycle

  /// Completion times of in-flight L1D misses; each fill releases its MSHR
  /// slot when the cycle clock passes it.
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      miss_fill_events_;

  /// In-flight store (seq, 8-byte-aligned address) pairs, dispatch order;
  /// consulted by loads when store forwarding is enabled.
  std::deque<std::pair<std::uint64_t, std::uint64_t>> inflight_stores_;

  // --- per-interval counters ---
  std::uint64_t iv_start_cycle_ = 0;
  std::uint64_t iv_fetched_ = 0;
  std::uint64_t iv_dispatched_ = 0;
  std::uint64_t iv_retired_ = 0;
  std::uint64_t iv_int_issued_ = 0;
  std::uint64_t iv_fp_issued_ = 0;
  std::uint64_t iv_ls_issued_ = 0;
  std::uint64_t iv_br_issued_ = 0;

  SimResult result_;
  std::uint64_t interval_cycles_ = 0;
};

}  // namespace ramp::sim
