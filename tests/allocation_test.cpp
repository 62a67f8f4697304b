// Pins down the zero-allocation hot path: this binary replaces the global
// allocation functions with counting wrappers and asserts that the
// per-interval kernels (LU solve, steady state, transient step, FIT
// accumulation) perform no heap traffic once their workspaces are warm, and
// that the evaluator's per-interval cost and the detailed core's
// per-instruction cost are allocation-free in the amortized sense (doubling
// the work adds only vector growth).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/fit_tracker.hpp"
#include "core/ramp_model.hpp"
#include "pipeline/evaluator.hpp"
#include "scaling/technology.hpp"
#include "sim/core_config.hpp"
#include "sim/ooo_core.hpp"
#include "thermal/rc_model.hpp"
#include "trace/synthetic_generator.hpp"
#include "util/linalg.hpp"
#include "workloads/spec2k.hpp"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace ramp {
namespace {

std::uint64_t allocs() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

TEST(AllocationTest, SolveIntoIsAllocationFree) {
  const std::size_t n = 12;
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = r == c ? 4.0 : -0.1;
  }
  const LuSolver lu(a);
  const std::vector<double> b(n, 1.0);
  std::vector<double> out;
  lu.solve_into(b, out);  // warm: sizes `out`
  const std::uint64_t before = allocs();
  for (int i = 0; i < 256; ++i) lu.solve_into(b, out);
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(AllocationTest, SteadyStateIntoIsAllocationFree) {
  const thermal::RcNetwork net(thermal::power4_floorplan(), {});
  const std::vector<double> p(net.num_blocks(), 4.0);
  thermal::SteadyWorkspace ws;
  std::vector<double> out;
  net.steady_state_into(p, ws, out);  // warm the workspace
  const std::uint64_t before = allocs();
  for (int i = 0; i < 256; ++i) net.steady_state_into(p, ws, out);
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(AllocationTest, TransientStepIsAllocationFree) {
  const thermal::RcNetwork net(thermal::power4_floorplan(), {});
  const std::vector<double> p(net.num_blocks(), 4.0);
  thermal::Transient tr(net, net.steady_state(p), 1e-6);
  tr.step(p);  // warm (the ctor already sized everything, but be safe)
  const std::uint64_t before = allocs();
  for (int i = 0; i < 1024; ++i) tr.step(p);
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(AllocationTest, FitTrackerAddIntervalIsAllocationFree) {
  const core::RampModel model(scaling::base_node());
  core::FitTracker tracker(model);
  std::array<double, sim::kNumStructures> temps{};
  std::array<double, sim::kNumStructures> act{};
  for (int s = 0; s < sim::kNumStructures; ++s) {
    const auto si = static_cast<std::size_t>(s);
    temps[si] = 340.0 + static_cast<double>(s);
    act[si] = 0.1 * static_cast<double>(s % 5);
  }
  tracker.add_interval(temps, act, 1.3, 1e-4);  // warm
  const std::uint64_t before = allocs();
  for (int i = 0; i < 1024; ++i) {
    // Vary the temperature so the memo path exercises misses, not just hits.
    temps[0] = 340.0 + 0.001 * static_cast<double>(i % 7);
    tracker.add_interval(temps, act, 1.3, 1e-4);
  }
  EXPECT_EQ(allocs() - before, 0u);
}

std::uint64_t evaluation_allocs(std::uint64_t instructions) {
  pipeline::EvaluationConfig cfg;
  cfg.trace_instructions = instructions;
  const pipeline::Evaluator ev(cfg);
  trace::SyntheticTrace s(workloads::workload("gzip").profile, instructions,
                          7);
  const std::uint64_t before = allocs();
  ev.evaluate_stream(s, "alloc-probe", 1.0, scaling::TechPoint::k180nm);
  return allocs() - before;
}

std::uint64_t sim_only_allocs(std::uint64_t instructions) {
  // The timing simulation exactly as evaluate_stream runs it (same config,
  // same interval cycles, same trace seed) but without the physics loop.
  const pipeline::EvaluationConfig cfg;
  const auto& tech = scaling::node(scaling::TechPoint::k180nm);
  const sim::CoreConfig core_cfg = sim::core_config_for(tech);
  const auto interval_cycles = static_cast<std::uint64_t>(
      std::llround(core_cfg.frequency_hz * cfg.interval_seconds));
  trace::SyntheticTrace s(workloads::workload("gzip").profile, instructions,
                          7);
  sim::OooCore core(core_cfg);
  const std::uint64_t before = allocs();
  core.run(s, interval_cycles);
  return allocs() - before;
}

TEST(AllocationTest, EvaluatorIntervalLoopIsAmortizedAllocationFree) {
  // Differential probe: the timing simulation's interval log allocates as
  // the trace grows, but the physics loop downstream of it must not — its
  // per-interval work runs entirely in the hoisted workspace. Subtracting a
  // sim-only run at each size cancels the simulator's share exactly; what
  // remains is the physics loop's growth, which must be a small constant
  // (amortized vector growth only).
  evaluation_allocs(20'000);  // warm lazy statics (workload tables etc.)
  sim_only_allocs(20'000);
  const std::uint64_t eval1 = evaluation_allocs(40'000);
  const std::uint64_t eval2 = evaluation_allocs(80'000);
  const std::uint64_t sim1 = sim_only_allocs(40'000);
  const std::uint64_t sim2 = sim_only_allocs(80'000);
  const std::uint64_t eval_growth = eval2 - eval1;
  const std::uint64_t sim_growth = sim2 - sim1;
  ASSERT_GE(eval_growth, sim_growth);
  EXPECT_LE(eval_growth - sim_growth, 64u)
      << "eval growth " << eval_growth << " vs sim growth " << sim_growth;
}

TEST(AllocationTest, DetailedCoreRunGrowsOnlyWithTheIntervalLog) {
  // The ROB and the fetch buffer are fixed rings sized at construction, and
  // the issue queues and MSHR fill queue stop growing at their structural
  // caps, so doubling the trace adds only the interval log's amortized
  // doublings.
  sim_only_allocs(20'000);  // warm lazy statics
  const std::uint64_t sim1 = sim_only_allocs(40'000);
  const std::uint64_t sim2 = sim_only_allocs(80'000);
  ASSERT_GE(sim2, sim1);
  EXPECT_LE(sim2 - sim1, 8u) << "40k: " << sim1 << " allocs, 80k: " << sim2;
}

}  // namespace
}  // namespace ramp
