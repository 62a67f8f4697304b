#include "sim/ooo_core.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "util/error.hpp"

namespace ramp::sim {

using trace::Instruction;
using trace::OpClass;

namespace {
constexpr std::uint64_t kFetchLineBytes = 64;
}

int OooCore::UnitPool::available(std::uint64_t now) const {
  int n = 0;
  for (std::uint64_t t : free_at) {
    if (t <= now) ++n;
  }
  return n;
}

std::uint64_t OooCore::UnitPool::next_free() const {
  std::uint64_t next = kNever;  // a pool without units never accepts
  for (std::uint64_t t : free_at) next = std::min(next, t);
  return next;
}

void OooCore::UnitPool::claim(std::uint64_t now, std::uint64_t occupy) {
  for (auto& t : free_at) {
    if (t <= now) {
      t = now + occupy;
      return;
    }
  }
  throw InternalError("claimed a unit with none available");
}

OooCore::IqClass OooCore::iq_class_of(OpClass op) {
  switch (op) {
    case OpClass::kIntAlu:
    case OpClass::kIntMul:
    case OpClass::kIntDiv: return IqClass::kInt;
    case OpClass::kFpAlu:
    case OpClass::kFpDiv: return IqClass::kFp;
    case OpClass::kLoad:
    case OpClass::kStore: return IqClass::kLs;
    case OpClass::kBranch: return IqClass::kBr;
    case OpClass::kLogicalCr: return IqClass::kCr;
  }
  throw InvalidArgument("unknown op class");
}

OooCore::OooCore(const CoreConfig& cfg) : OooCore(cfg, nullptr, nullptr) {}

OooCore::OooCore(const CoreConfig& cfg, MemoryHierarchy* mem,
                 BranchPredictor* predictor)
    : cfg_(cfg),
      owned_predictor_(predictor
                           ? nullptr
                           : std::make_unique<BranchPredictor>(cfg.predictor)),
      owned_mem_(mem ? nullptr : std::make_unique<MemoryHierarchy>(cfg)),
      predictor_(predictor ? predictor : owned_predictor_.get()),
      mem_(mem ? mem : owned_mem_.get()),
      rename_table_(static_cast<std::size_t>(cfg.arch_int_regs + cfg.arch_fp_regs),
                    kNoDep),
      issue_queues_(kNumIqClasses),
      int_pool_(cfg.int_units),
      fp_pool_(cfg.fp_units),
      ls_pool_(cfg.ls_units),
      br_pool_(cfg.br_units),
      cr_pool_(cfg.cr_units) {
  RAMP_REQUIRE(cfg.rob_size > 0 && cfg.dispatch_group > 0 && cfg.fetch_width > 0,
               "pipeline widths must be positive");
  RAMP_REQUIRE(cfg.fetch_buffer > 0, "fetch buffer must be positive");
  RAMP_REQUIRE(cfg.int_rename_budget() > 0 && cfg.fp_rename_budget() > 0,
               "physical register files must exceed architectural state");
  rob_.resize(std::bit_ceil(static_cast<std::size_t>(cfg.rob_size)));
  rob_mask_ = rob_.size() - 1;
  fetch_ring_.resize(std::bit_ceil(static_cast<std::size_t>(cfg.fetch_buffer)));
  fetch_mask_ = fetch_ring_.size() - 1;
  for (auto& q : issue_queues_) {
    q.reserve(static_cast<std::size_t>(std::max(cfg.issue_queue_per_class, 0)));
  }
}

std::uint64_t OooCore::ready_at_of(const Flight& f,
                                   std::uint64_t& blocker) const {
  std::uint64_t ready = 0;
  for (const std::uint64_t dep : {f.dep1, f.dep2}) {
    if (dep == kNoDep || dep < rob_base_seq_) continue;  // no/retired producer
    const Flight& p = rob_at(dep);
    if (!p.issued) {  // completion time not fixed yet
      blocker = dep;
      return kReadyUnknown;
    }
    ready = std::max(ready, p.complete_cycle);
  }
  return ready;
}

int OooCore::exec_latency(OpClass op) const {
  switch (op) {
    case OpClass::kIntAlu: return cfg_.lat_int_add;
    case OpClass::kIntMul: return cfg_.lat_int_mul;
    case OpClass::kIntDiv: return cfg_.lat_int_div;
    case OpClass::kFpAlu: return cfg_.lat_fp;
    case OpClass::kFpDiv: return cfg_.lat_fp_div;
    case OpClass::kLogicalCr: return 1;
    case OpClass::kBranch: return 1;
    case OpClass::kLoad:
    case OpClass::kStore: return cfg_.lat_l1d;  // refined at issue
  }
  throw InvalidArgument("unknown op class");
}

void OooCore::do_retire() {
  int retired = 0;
  const int budget = cfg_.retire_groups * cfg_.dispatch_group;
  while (retired < budget && rob_count() > 0) {
    const Flight& head = rob_at(rob_base_seq_);
    if (!head.issued || head.complete_cycle > cycle_) break;
    if (head.produces_int) --int_regs_in_use_;
    if (head.produces_fp) --fp_regs_in_use_;
    if (head.in_mem_queue) --mem_queue_used_;
    if (!inflight_stores_.empty() && inflight_stores_.front().first == head.seq) {
      inflight_stores_.pop_front();
    }
    ++rob_base_seq_;
    ++retired;
    ++iv_retired_;
  }
  if (retired > 0) active_ = true;
  RAMP_ASSERT(int_regs_in_use_ >= 0 && fp_regs_in_use_ >= 0 &&
              mem_queue_used_ >= 0);
}

void OooCore::do_complete() {
  // Release MSHR slots whose fills have arrived.
  while (!miss_fill_events_.empty() && miss_fill_events_.top() <= cycle_) {
    miss_fill_events_.pop();
    mem_->retire_miss();
    active_ = true;
  }
  // Completion is otherwise implicit: issued instructions carry
  // complete_cycle. The remaining work is resuming fetch when a
  // mispredicted branch resolves.
  if (stalled_on_branch_seq_ != kNoDep) {
    // The stalling branch may still sit in the fetch buffer (not dispatched,
    // so not yet in the ROB); it cannot have resolved in that case.
    if (stalled_on_branch_seq_ >= next_seq_) return;
    const bool retired = stalled_on_branch_seq_ < rob_base_seq_;
    const Flight& br = rob_at(stalled_on_branch_seq_);
    if (retired || (br.issued && br.complete_cycle <= cycle_)) {
      const std::uint64_t resolve_cycle = retired ? cycle_ : br.complete_cycle;
      fetch_resume_cycle_ =
          resolve_cycle + static_cast<std::uint64_t>(cfg_.mispredict_penalty);
      stalled_on_branch_seq_ = kNoDep;
      active_ = true;
    }
  }
}

void OooCore::do_issue() {
  struct PoolRef {
    UnitPool* pool;
    std::uint64_t* counter;
  };
  const std::array<PoolRef, kNumIqClasses> pools = {{
      {&int_pool_, &iv_int_issued_},
      {&fp_pool_, &iv_fp_issued_},
      {&ls_pool_, &iv_ls_issued_},
      {&br_pool_, &iv_br_issued_},
      {&cr_pool_, &iv_br_issued_},  // BXU covers branch + CR-logical traffic
  }};

  for (int c = 0; c < kNumIqClasses; ++c) {
    auto& queue = issue_queues_[static_cast<std::size_t>(c)];
    UnitPool& pool = *pools[static_cast<std::size_t>(c)].pool;
    int slots = pool.available(cycle_);
    if (slots == 0 || queue.empty()) continue;

    // Oldest-first ready scan. Entries with a cached future ready_at are
    // skipped on one compare, parked ones on their blocker's issued bit;
    // only an entry whose blocker has issued re-derives ready_at.
    for (std::size_t qi = 0; qi < queue.size() && slots > 0;) {
      IqEntry& e = queue[qi];
      if (e.ready_at == kReadyUnknown) {
        if (parked(e)) {
          ++qi;
          continue;
        }
        e.ready_at = ready_at_of(rob_at(e.seq), e.blocker);
      }
      if (e.ready_at == kReadyUnknown || e.ready_at > cycle_) {
        ++qi;
        continue;
      }
      Flight* f = &rob_at(e.seq);
      RAMP_ASSERT(f->seq == e.seq && !f->issued);

      if (f->op == OpClass::kLoad || f->op == OpClass::kStore) {
        // Store-to-load forwarding: a load whose 8-byte word is produced by
        // an older in-flight store bypasses the cache entirely.
        if (cfg_.enable_store_forwarding && f->op == OpClass::kLoad) {
          const std::uint64_t word = f->mem_addr & ~7ULL;
          bool forwarded = false;
          for (auto it = inflight_stores_.rbegin();
               it != inflight_stores_.rend(); ++it) {
            if (it->first >= f->seq) continue;  // younger store: no forward
            if (it->second == word) {
              forwarded = true;
              break;
            }
          }
          if (forwarded) {
            f->complete_cycle = cycle_ + 2;  // bypass latency
            pool.claim(cycle_, 1);
            f->issued = true;
            ++iv_ls_issued_;
            --slots;
            active_ = true;
            queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(qi));
            continue;
          }
        }
        // Loads that will miss need an MSHR slot; since hit/miss is known
        // only at access time, conservatively require a free slot for loads
        // whenever the cap is reached.
        if (f->op == OpClass::kLoad && mem_->miss_ports_full()) {
          ++qi;
          continue;
        }
        const int lat = mem_->data_access(f->mem_addr, f->op == OpClass::kStore);
        if (f->op == OpClass::kLoad) {
          f->complete_cycle = cycle_ + static_cast<std::uint64_t>(lat);
          if (lat > cfg_.lat_l1d) {
            mem_->add_outstanding_miss();
            miss_fill_events_.push(f->complete_cycle);
          }
        } else {
          // Stores complete through the store queue one cycle after issue;
          // the write drains post-retirement and is not modeled for timing.
          f->complete_cycle = cycle_ + 1;
        }
        pool.claim(cycle_, 1);
      } else {
        const int lat = exec_latency(f->op);
        f->complete_cycle = cycle_ + static_cast<std::uint64_t>(lat);
        // Divides are unpipelined and occupy their unit for the full
        // latency; everything else accepts a new op next cycle.
        const bool unpipelined =
            f->op == OpClass::kIntDiv || f->op == OpClass::kFpDiv;
        pool.claim(cycle_, unpipelined ? static_cast<std::uint64_t>(lat) : 1);
      }

      f->issued = true;  // completion time recorded in complete_cycle
      ++*pools[static_cast<std::size_t>(c)].counter;
      --slots;
      active_ = true;
      queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(qi));
    }
  }
}

void OooCore::do_dispatch() {
  int dispatched = 0;
  while (dispatched < cfg_.dispatch_group && fetch_count_ > 0) {
    const Instruction& ins = fetch_ring_[fetch_head_];
    const IqClass iqc = iq_class_of(ins.op);
    auto& queue = issue_queues_[static_cast<std::size_t>(iqc)];

    // Structural stalls: ROB, issue queue, rename budget, memory queue.
    if (rob_count() >= static_cast<std::uint64_t>(cfg_.rob_size)) break;
    if (queue.size() >= static_cast<std::size_t>(cfg_.issue_queue_per_class)) break;
    const bool produces = ins.dst != Instruction::kNoReg;
    const bool fp_dest = produces && ins.dst >= cfg_.arch_int_regs;
    if (produces && !fp_dest && int_regs_in_use_ >= cfg_.int_rename_budget()) break;
    if (produces && fp_dest && fp_regs_in_use_ >= cfg_.fp_rename_budget()) break;
    const bool is_mem = trace::is_memory(ins.op);
    if (is_mem && mem_queue_used_ >= cfg_.mem_queue) break;

    Flight f;
    f.op = ins.op;
    f.seq = next_seq_;
    f.mem_addr = ins.mem_addr;
    auto lookup = [&](std::uint16_t reg) -> std::uint64_t {
      if (reg == Instruction::kNoReg) return kNoDep;
      RAMP_ASSERT(reg < rename_table_.size());
      return rename_table_[reg];
    };
    f.dep1 = lookup(ins.src1);
    f.dep2 = lookup(ins.src2);
    if (produces) {
      rename_table_[ins.dst] = f.seq;
      f.produces_int = !fp_dest;
      f.produces_fp = fp_dest;
      if (fp_dest) {
        ++fp_regs_in_use_;
      } else {
        ++int_regs_in_use_;
      }
    }
    if (is_mem) {
      f.in_mem_queue = true;
      ++mem_queue_used_;
      if (cfg_.enable_store_forwarding && ins.op == OpClass::kStore) {
        inflight_stores_.emplace_back(f.seq, ins.mem_addr & ~7ULL);
      }
    }

    // ready_at is a pure function of the producers' issue state, so
    // deriving it here rather than at the first scan changes no decision.
    IqEntry e{f.seq, 0, kNoDep};
    e.ready_at = ready_at_of(f, e.blocker);
    queue.push_back(e);
    rob_at(next_seq_++) = f;
    fetch_head_ = (fetch_head_ + 1) & fetch_mask_;
    --fetch_count_;
    ++dispatched;
    ++iv_dispatched_;
  }
  if (dispatched > 0) active_ = true;
}

void OooCore::do_fetch(trace::TraceReader& reader) {
  if (cycle_ < fetch_resume_cycle_ || stalled_on_branch_seq_ != kNoDep) return;

  int fetched = 0;
  std::uint64_t last_line = ~0ULL;
  while (fetched < cfg_.fetch_width &&
         fetch_count_ < static_cast<std::size_t>(cfg_.fetch_buffer)) {
    if (!pending_valid_) {
      if (trace_exhausted_) return;
      active_ = true;
      if (!reader.next(pending_)) {
        trace_exhausted_ = true;
        return;
      }
      pending_valid_ = true;
    }
    active_ = true;

    // I-cache lookup once per new line touched by this fetch group.
    const std::uint64_t line = pending_.pc / kFetchLineBytes;
    if (line != last_line) {
      const int stall = mem_->fetch_access(pending_.pc);
      last_line = line;
      if (stall > 0) {
        // Miss: the group ends and fetch sleeps for the fill latency.
        fetch_resume_cycle_ = cycle_ + static_cast<std::uint64_t>(stall);
        return;
      }
    }

    const Instruction& ins = pending_;
    pending_valid_ = false;
    fetch_ring_[(fetch_head_ + fetch_count_) & fetch_mask_] = ins;
    ++fetch_count_;
    ++fetched;
    ++iv_fetched_;

    if (ins.op == OpClass::kBranch) {
      const bool mispredict =
          predictor_->record_outcome(ins.pc, ins.branch_taken, ins.branch_target);
      if (mispredict) {
        // The redirect happens when this branch resolves; remember its
        // (future) sequence number. It is the next instruction to dispatch
        // after everything already in the buffer.
        stalled_on_branch_seq_ = next_seq_ + fetch_count_ - 1;
        return;
      }
      if (ins.branch_taken) break;  // taken branches end the fetch group
    }
  }
}

std::uint64_t OooCore::next_event_cycle() {
  std::uint64_t next = kNever;
  const auto consider = [&next](std::uint64_t t) { next = std::min(next, t); };

  // Retirement waits on the ROB head's completion.
  if (rob_count() > 0) {
    const Flight& head = rob_at(rob_base_seq_);
    if (head.issued) consider(head.complete_cycle);
  }
  // An MSHR fill frees a miss port (and may unblock a load).
  if (!miss_fill_events_.empty()) consider(miss_fill_events_.top());
  // Fetch sleeping on an I-cache fill or a redirect penalty.
  if (fetch_resume_cycle_ >= cycle_) consider(fetch_resume_cycle_);
  // A dispatched mispredicted branch resolves at its completion.
  if (stalled_on_branch_seq_ != kNoDep && stalled_on_branch_seq_ < next_seq_) {
    if (stalled_on_branch_seq_ < rob_base_seq_) return cycle_;
    const Flight& br = rob_at(stalled_on_branch_seq_);
    if (br.issued) consider(br.complete_cycle);
  }
  // Issue: per class, the first cycle at which an entry is ready and a unit
  // is free. Parked entries wait on another entry's issue, which is itself
  // bounded here. Entries a skipped class never re-derived (no free unit)
  // are derived now, so their readiness is not missed.
  const std::array<const UnitPool*, kNumIqClasses> pools = {
      &int_pool_, &fp_pool_, &ls_pool_, &br_pool_, &cr_pool_};
  for (int c = 0; c < kNumIqClasses; ++c) {
    auto& queue = issue_queues_[static_cast<std::size_t>(c)];
    if (queue.empty()) continue;
    const std::uint64_t unit_free = pools[static_cast<std::size_t>(c)]->next_free();
    for (IqEntry& e : queue) {
      if (e.ready_at == kReadyUnknown) {
        if (parked(e)) continue;
        e.ready_at = ready_at_of(rob_at(e.seq), e.blocker);
        if (e.ready_at == kReadyUnknown) continue;
      }
      const std::uint64_t t = std::max(e.ready_at, unit_free);
      if (t < cycle_) {
        // Issuable in the idle cycle just simulated, yet it stayed: only a
        // load held back by full miss ports does that, and the ports free
        // at an MSHR fill, bounded above. Anything else: do not skip.
        if (rob_at(e.seq).op == OpClass::kLoad && mem_->miss_ports_full()) {
          continue;
        }
        return cycle_;
      }
      consider(t);
    }
  }
  return next;
}

void OooCore::skip_idle_cycles() {
  if (drained()) return;
  std::uint64_t next = next_event_cycle();
  // No timed event: a model deadlock. Keep stepping so run()'s
  // forward-progress guard sees every cycle.
  if (next == kNever) return;
  if (interval_cycles_ > 0) {
    next = std::min(next, iv_start_cycle_ + interval_cycles_);
  }
  if (next > cycle_) cycle_ = next;
}

void OooCore::finish_interval() {
  const std::uint64_t cycles = cycle_ - iv_start_cycle_;
  if (cycles == 0) return;
  IntervalStats iv;
  iv.cycles = cycles;
  iv.instructions = iv_retired_;
  const auto dc = static_cast<double>(cycles);

  auto rate = [dc](std::uint64_t events, int width) {
    const double r = static_cast<double>(events) / (dc * width);
    return std::clamp(r, 0.0, 1.0);
  };
  iv.activity[idx(StructureId::kIfu)] = rate(iv_fetched_, cfg_.fetch_width);
  iv.activity[idx(StructureId::kIdu)] = rate(iv_dispatched_, cfg_.dispatch_group);
  // ISU activity: wakeup/select and completion events scale with issue
  // throughput across the whole unit pool.
  const int total_units = cfg_.int_units + cfg_.fp_units + cfg_.ls_units +
                          cfg_.br_units + cfg_.cr_units;
  iv.activity[idx(StructureId::kIsu)] = rate(
      iv_int_issued_ + iv_fp_issued_ + iv_ls_issued_ + iv_br_issued_, total_units);
  iv.activity[idx(StructureId::kFxu)] = rate(iv_int_issued_, cfg_.int_units);
  iv.activity[idx(StructureId::kFpu)] = rate(iv_fp_issued_, cfg_.fp_units);
  iv.activity[idx(StructureId::kLsu)] = rate(iv_ls_issued_, cfg_.ls_units);
  iv.activity[idx(StructureId::kBxu)] =
      rate(iv_br_issued_, cfg_.br_units + cfg_.cr_units);

  result_.intervals.push_back(iv);

  iv_start_cycle_ = cycle_;
  iv_fetched_ = iv_dispatched_ = iv_retired_ = 0;
  iv_int_issued_ = iv_fp_issued_ = iv_ls_issued_ = iv_br_issued_ = 0;
}

void OooCore::cycle_once(trace::TraceReader& reader) {
  active_ = false;
  do_retire();
  do_complete();
  do_issue();
  do_dispatch();
  do_fetch(reader);

  ++cycle_;
  if (!active_) skip_idle_cycles();

  // interval_cycles_ is 0 in step-driven mode: no chopping, the iv_*
  // counters keep whole-run totals for live_counters().
  if (interval_cycles_ > 0 && cycle_ - iv_start_cycle_ >= interval_cycles_) {
    result_.totals.instructions += iv_retired_;
    finish_interval();
  }
}

bool OooCore::step_until(trace::TraceReader& reader,
                         std::uint64_t retired_target,
                         std::uint64_t cycle_limit) {
  do {
    cycle_once(reader);
    if (drained()) return false;
  } while (iv_retired_ < retired_target && cycle_ < cycle_limit);
  return true;
}

SimResult OooCore::run(trace::TraceReader& reader,
                       std::uint64_t interval_cycles) {
  RAMP_REQUIRE(interval_cycles > 0, "interval length must be positive");
  interval_cycles_ = interval_cycles;
  result_ = SimResult{};

  std::uint64_t last_progress_cycle = 0;
  std::uint64_t last_rob_base = rob_base_seq_;
  while (true) {
    cycle_once(reader);
    if (drained()) break;

    // Forward-progress guard: with finite latencies the ROB head must retire
    // within a bounded number of cycles; a longer stall is a model deadlock.
    if (rob_base_seq_ != last_rob_base || rob_count() == 0) {
      last_rob_base = rob_base_seq_;
      last_progress_cycle = cycle_;
    }
    RAMP_ASSERT(cycle_ - last_progress_cycle < 100'000);
  }
  result_.totals.instructions += iv_retired_;
  finish_interval();

  // Whole-run aggregates.
  result_.totals.cycles = cycle_;
  result_.totals.l1d_accesses = mem_->l1d().accesses();
  result_.totals.l1d_misses = mem_->l1d().misses();
  result_.totals.l2_accesses = mem_->l2().accesses();
  result_.totals.l2_misses = mem_->l2().misses();
  result_.totals.l1i_misses = mem_->l1i().misses();
  result_.totals.branches = predictor_->lookups();
  result_.totals.branch_mispredicts = predictor_->mispredicts();

  // Cycle-weighted average activity.
  std::array<double, kNumStructures> weighted{};
  std::uint64_t total_cycles = 0;
  for (const auto& iv : result_.intervals) {
    for (int s = 0; s < kNumStructures; ++s)
      weighted[static_cast<std::size_t>(s)] +=
          iv.activity[static_cast<std::size_t>(s)] * static_cast<double>(iv.cycles);
    total_cycles += iv.cycles;
  }
  if (total_cycles > 0) {
    for (int s = 0; s < kNumStructures; ++s)
      result_.totals.avg_activity[static_cast<std::size_t>(s)] =
          weighted[static_cast<std::size_t>(s)] / static_cast<double>(total_cycles);
  }
  return std::move(result_);
}

}  // namespace ramp::sim
