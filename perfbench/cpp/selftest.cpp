// Self-tests of the benchmark harness: percentile reporting, failure
// counting and open-loop due-time accounting. Exit 0 when all pass.
//   .bench_build/cmake/perfbench_selftest     (or: python3 perfbench/run.py --selftest)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool cond, const std::string& what) {
  if (!cond) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_percentiles() {
  using perfbench::percentile;
  // 1..100: p50 is 50 (nearest rank), with 50 samples beyond it.
  auto p50 = percentile(iota(100), 0.5);
  expect(p50 && near(*p50, 50.0), "p50 of 1..100 is 50");
  // p99 of 100 samples has 1 sample beyond it: not reportable.
  expect(!percentile(iota(100), 0.99), "p99 needs >= 10 samples beyond");
  // 1000 samples: p99 is 990 with exactly 10 beyond → reportable.
  auto p99 = percentile(iota(1000), 0.99);
  expect(p99 && near(*p99, 990.0), "p99 of 1..1000 is 990");
  // 999 samples: rank 990 leaves 9 beyond → not reportable.
  expect(!percentile(iota(999), 0.99), "p99 of 999 samples is refused");
  // p50 needs 20 samples (rank 10 + 10 beyond); 19 is refused.
  expect(percentile(iota(20), 0.5).has_value(), "p50 of 20 samples reports");
  expect(!percentile(iota(19), 0.5), "p50 of 19 samples is refused");
  // Order does not matter.
  std::vector<double> rev = iota(40);
  std::reverse(rev.begin(), rev.end());
  auto pr = percentile(rev, 0.5);
  expect(pr && near(*pr, 20.0), "percentile ignores input order");
  expect(near(perfbench::median({3.0, 1.0, 2.0, 10.0}), 2.5),
         "even median interpolates");
  expect(near(perfbench::median({5.0, 1.0, 3.0}), 3.0), "odd median");
}

void test_failure_counting() {
  using perfbench::kFailed;
  using perfbench::percentile;
  perfbench::Tally t;
  for (int i = 0; i < 97; ++i) t.add(true);
  for (int i = 0; i < 3; ++i) t.add(false);
  expect(t.attempted == 100 && t.failed == 3, "tally counts failures");
  expect(near(t.failed_frac(), 0.03), "failed fraction");
  // Failures are +inf samples: 30 failures among 100 push p50 up by 30
  // ranks, and p80 lands on a failure.
  std::vector<double> v = iota(70);
  for (int i = 0; i < 30; ++i) v.push_back(kFailed);
  auto p50 = percentile(v, 0.5);
  expect(p50 && near(*p50, 50.0), "p50 with failures counts them");
  auto p80 = percentile(v, 0.8);
  expect(p80 && std::isinf(*p80), "a percentile inside the failures is inf");
  // A failed record is +inf even if it was answered quickly.
  perfbench::OpenLoopRecord r;
  r.due = 1.0;
  r.send = 1.0;
  r.recv = 1.001;
  r.ok = false;
  expect(std::isinf(r.latency()), "wrong answer misses every limit");
  r.ok = true;
  r.recv = -1.0;
  expect(std::isinf(r.latency()), "unanswered request misses every limit");
}

void test_open_loop_accounting() {
  // Latency runs from the due time: sent 5 ms late, answered 1 ms later →
  // 6 ms, and the lateness is 5 ms.
  perfbench::OpenLoopRecord r;
  r.due = 10.0;
  r.send = 10.005;
  r.recv = 10.006;
  r.ok = true;
  expect(near(r.latency(), 0.006), "latency counts from due time");
  expect(near(r.lateness(), 0.005), "lateness is send - due");
  r.send = 9.999;  // early sends are not negative lateness
  expect(near(r.lateness(), 0.0), "early send has zero lateness");
  perfbench::OpenLoopRecord never;
  never.due = 1.0;
  expect(std::isinf(never.lateness()), "a never-sent request is infinitely late");

  // Schedules: exact per-class counts, sorted, seed-deterministic.
  const perfbench::OpenLoopSchedule a({1000.0, 10.0}, 2.0, 7);
  const perfbench::OpenLoopSchedule b({1000.0, 10.0}, 2.0, 7);
  const perfbench::OpenLoopSchedule c({1000.0, 10.0}, 2.0, 8);
  std::size_t n0 = 0, n1 = 0;
  bool sorted = true;
  double prev = -1.0;
  for (const auto& x : a.arrivals()) {
    (x.cls == 0 ? n0 : n1) += 1;
    sorted = sorted && x.offset >= prev && x.offset < 2.0;
    prev = x.offset;
  }
  expect(n0 == 2000 && n1 == 20, "fixed-rate counts per class");
  expect(sorted, "arrivals sorted inside the window");
  bool same = a.arrivals().size() == b.arrivals().size();
  for (std::size_t i = 0; same && i < a.arrivals().size(); ++i) {
    same = a.arrivals()[i].offset == b.arrivals()[i].offset;
  }
  expect(same, "same seed, same schedule");
  expect(c.arrivals().front().offset != a.arrivals().front().offset,
         "another seed shifts the schedule");
  // Records carry absolute due times; class filter keeps failures.
  auto recs = a.records(100.0);
  expect(near(recs.front().due, 100.0 + a.arrivals().front().offset),
         "records offset by start");
  recs[0].send = recs[0].due;
  recs[0].recv = recs[0].due + 0.002;
  recs[0].ok = true;
  const auto lat = perfbench::class_latencies(recs, recs[0].cls);
  std::size_t infs = 0;
  for (double x : lat) infs += std::isinf(x) ? 1 : 0;
  expect(lat.size() == (recs[0].cls == 0 ? n0 : n1) && infs == lat.size() - 1,
         "unsent records count as failures of their class");
}

}  // namespace

int main() {
  test_percentiles();
  test_failure_counting();
  test_open_loop_accounting();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
