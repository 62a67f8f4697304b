// Byte-identity pins for the timing simulators.
//
// The detailed core is the golden reference every other engine is judged
// against, so a change to how it steps (data structures, scheduling, idle
// skipping) must leave every SimResult bit for bit unchanged. The golden
// sweep CSV only covers 4000 instructions per cell, which is mostly cold
// start; these digests cover the steady state: all 16 apps x 5 nodes at
// 30k instructions, one node with store forwarding and next-line prefetch
// on, one with undersized structures, and four SampledCore cells at 1M
// instructions including the estimator's FastSimStats.
//
// Each digest is FNV-1a over a SimResult's per-interval cycles,
// instructions and activity bit patterns, then its whole-run totals. A
// deliberate model change re-records them: run this binary and copy the
// "actual" values it prints on mismatch.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "pipeline/stage_graph.hpp"
#include "scaling/technology.hpp"
#include "sim/core_config.hpp"
#include "sim/ooo_core.hpp"
#include "sim/sampled_core.hpp"
#include "sim/sim_mode.hpp"
#include "trace/synthetic_generator.hpp"
#include "workloads/spec2k.hpp"

namespace ramp::sim {
namespace {

constexpr std::uint64_t kSeed = 42;  // the sweep's default base seed

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::uint64_t digest(const SimResult& r) {
  Fnv1a h;
  h.add(static_cast<std::uint64_t>(r.intervals.size()));
  for (const IntervalStats& iv : r.intervals) {
    h.add(iv.cycles);
    h.add(iv.instructions);
    for (double a : iv.activity) h.add(a);
  }
  const RunStats& t = r.totals;
  for (std::uint64_t v : {t.cycles, t.instructions, t.l1d_accesses,
                          t.l1d_misses, t.l2_accesses, t.l2_misses,
                          t.l1i_misses, t.branches, t.branch_mispredicts}) {
    h.add(v);
  }
  for (double a : t.avg_activity) h.add(a);
  return h.value();
}

std::uint64_t interval_cycles_for(const CoreConfig& cfg) {
  return static_cast<std::uint64_t>(std::llround(cfg.frequency_hz * 1e-6));
}

trace::SyntheticTrace stream_for(const std::string& app,
                                 std::uint64_t instructions) {
  return trace::SyntheticTrace(workloads::workload(app).profile, instructions,
                               pipeline::app_trace_seed(kSeed, app));
}

std::uint64_t detailed_digest(const std::string& app, const CoreConfig& cfg,
                              std::uint64_t instructions) {
  auto stream = stream_for(app, instructions);
  OooCore core(cfg);
  return digest(core.run(stream, interval_cycles_for(cfg)));
}

CoreConfig node_config(scaling::TechPoint p) {
  return core_config_for(scaling::node(p));
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

// Detailed digests at 30k instructions, one row per app in suite order,
// one column per node in kAllTechPoints order. The two 65 nm points share a
// clock, hence a core config, hence a digest.
struct AppDigests {
  const char* app;
  std::uint64_t node[5];
};
void PrintTo(const AppDigests& d, std::ostream* os) { *os << d.app; }
constexpr AppDigests kDetailed30k[] = {
    {"ammp",
     {0x00142cd758ecab13ULL, 0x10ea4902435395b1ULL, 0xd0d6705ad30e606dULL,
      0xdffdc773e8893ff1ULL, 0xdffdc773e8893ff1ULL}},
    {"applu",
     {0x98479f5e621bbe0eULL, 0x86704e3425d1bdd4ULL, 0x36e0ab4fd877c537ULL,
      0x0bafa4dd14ec7f2bULL, 0x0bafa4dd14ec7f2bULL}},
    {"sixtrack",
     {0x83ff8487c321d2ffULL, 0xdcefc13161f12098ULL, 0xb1bea12b7008bb00ULL,
      0x96a7f576d099d981ULL, 0x96a7f576d099d981ULL}},
    {"mgrid",
     {0xb0195d4e370961a0ULL, 0x35064aedb061642fULL, 0x69f6c4e32ec8b532ULL,
      0xfdd1d97b05b3b987ULL, 0xfdd1d97b05b3b987ULL}},
    {"mesa",
     {0x4dbcfca0e2ec0ca0ULL, 0x0740a7fef12ab34cULL, 0x08a04bc606101f9cULL,
      0xef26c084d61d381dULL, 0xef26c084d61d381dULL}},
    {"facerec",
     {0x324c1b09b6b44bdeULL, 0x6d94b54a230b16dfULL, 0x1e77443547314d3cULL,
      0x0fa471bb349aaac7ULL, 0x0fa471bb349aaac7ULL}},
    {"wupwise",
     {0x7d92e8b97db366cbULL, 0x61912776b0d72ff5ULL, 0x1db12dd03ce740f2ULL,
      0x1f47669c04db618aULL, 0x1f47669c04db618aULL}},
    {"apsi",
     {0xa031c1da349258c2ULL, 0x428cd7e84c71d8e8ULL, 0x7984335f19c200d2ULL,
      0xb3b02dd72680d984ULL, 0xb3b02dd72680d984ULL}},
    {"vpr",
     {0x6dfaf4a79f83e67fULL, 0xc9862565a76d75eaULL, 0xa9556581196f2494ULL,
      0x39ecdb7d835c50b1ULL, 0x39ecdb7d835c50b1ULL}},
    {"bzip2",
     {0xad8e38ea73899ac4ULL, 0x4af6b915f20ac8d3ULL, 0xd9ca2e7634e7ed46ULL,
      0x6a011eadef1c96faULL, 0x6a011eadef1c96faULL}},
    {"twolf",
     {0x3b4da04ca11a8a8cULL, 0x68c6ff5921c9d1a2ULL, 0x21ee1b4614a086cfULL,
      0x3c41563069058295ULL, 0x3c41563069058295ULL}},
    {"gzip",
     {0x4f37ffa3fdbd1fc1ULL, 0xe492595e71e8a0daULL, 0xc3aa8bde94853cd3ULL,
      0xa64a1ee761f9f0d4ULL, 0xa64a1ee761f9f0d4ULL}},
    {"perlbmk",
     {0xae71b661c58dba76ULL, 0x0491ed27e2887883ULL, 0xe49418fab31553c2ULL,
      0xa1d33fb4f3b6caf4ULL, 0xa1d33fb4f3b6caf4ULL}},
    {"gap",
     {0x5413cb6d9a897f29ULL, 0x027ae64cef96a713ULL, 0xdc219637e4075e8aULL,
      0xd2456035d8c0187dULL, 0xd2456035d8c0187dULL}},
    {"gcc",
     {0x823d3369fdc74a1cULL, 0x5a073c53c3abe05eULL, 0xb23e44d72c1032f3ULL,
      0xb62cc30a6af4c67dULL, 0xb62cc30a6af4c67dULL}},
    {"crafty",
     {0x1378387569c96225ULL, 0x73894b4394b849eaULL, 0x8119c3286bbb4fbfULL,
      0x2c7a94f24534a5a8ULL, 0x2c7a94f24534a5a8ULL}},
};

class DetailedIdentityTest : public ::testing::TestWithParam<AppDigests> {};

TEST_P(DetailedIdentityTest, AllNodesMatchPinnedDigests) {
  const AppDigests& want = GetParam();
  for (std::size_t n = 0; n < scaling::kAllTechPoints.size(); ++n) {
    const scaling::TechPoint p = scaling::kAllTechPoints[n];
    const std::uint64_t got =
        detailed_digest(want.app, node_config(p), 30'000);
    EXPECT_EQ(got, want.node[n])
        << want.app << "@" << scaling::tech_token(p) << " actual "
        << hex(got);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SuiteByNode, DetailedIdentityTest, ::testing::ValuesIn(kDetailed30k),
    [](const ::testing::TestParamInfo<AppDigests>& cell) {
      return std::string(cell.param.app);
    });

TEST(OooCoreIdentityTest, SuiteTableCoversEveryApp) {
  const auto& suite = workloads::spec2k_suite();
  ASSERT_EQ(suite.size(), std::size(kDetailed30k));
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(suite[i].name, kDetailed30k[i].app);
  }
}

TEST(OooCoreIdentityTest, StoreForwardingAndPrefetchMatchPinnedDigests) {
  // Integer and FP memory traffic exercise the forwarding search and the
  // prefetcher's extra fills; one node is enough to pin the code paths.
  struct Cell {
    const char* app;
    std::uint64_t want;
  };
  const Cell cells[] = {{"gcc", 0x93bd8dd26bdf4854ULL},
                        {"bzip2", 0xf42f430d04e19048ULL},
                        {"applu", 0xa64a2287bc758cf5ULL}};
  CoreConfig cfg = node_config(scaling::TechPoint::k90nm);
  cfg.enable_store_forwarding = true;
  cfg.enable_nextline_prefetch = true;
  for (const Cell& c : cells) {
    const std::uint64_t got = detailed_digest(c.app, cfg, 30'000);
    EXPECT_EQ(got, c.want) << c.app << " actual " << hex(got);
  }
}

TEST(OooCoreIdentityTest, SmallStructuresMatchPinnedDigests) {
  // A tiny ROB, issue queues, memory queue and MSHR file and a fetch buffer
  // that is not a power of two keep every structural stall, parked entry
  // and ring wrap busy.
  struct Cell {
    const char* app;
    std::uint64_t want;
  };
  const Cell cells[] = {{"gcc", 0x5f74f296569f2bc8ULL},
                        {"bzip2", 0x87210eaef0b7f866ULL},
                        {"applu", 0x3251ae6af95471efULL}};
  CoreConfig cfg = node_config(scaling::TechPoint::k90nm);
  cfg.rob_size = 24;
  cfg.issue_queue_per_class = 4;
  cfg.mem_queue = 6;
  cfg.max_outstanding_misses = 2;
  cfg.fetch_buffer = 7;
  for (const Cell& c : cells) {
    const std::uint64_t got = detailed_digest(c.app, cfg, 30'000);
    EXPECT_EQ(got, c.want) << c.app << " actual " << hex(got);
  }
}

struct SampledCell {
  const char* app;
  scaling::TechPoint node;
  std::uint64_t want;
};
void PrintTo(const SampledCell& c, std::ostream* os) { *os << c.app; }

class SampledIdentityTest : public ::testing::TestWithParam<SampledCell> {};

TEST_P(SampledIdentityTest, MatchesPinnedDigest) {
  const SampledCell& c = GetParam();
  const CoreConfig cfg = node_config(c.node);
  auto stream = stream_for(c.app, 1'000'000);
  SampledCore core(cfg, SampledParams{});
  const SimResult r = core.run(stream, interval_cycles_for(cfg));
  const FastSimStats& fs = core.fast_stats();
  Fnv1a h;
  h.add(digest(r));
  h.add(static_cast<std::uint64_t>(fs.mode));
  h.add(fs.coverage);
  h.add(fs.units);
  h.add(fs.ipc_half_width);
  h.add(fs.activity_half_width);
  EXPECT_EQ(h.value(), c.want)
      << c.app << "@" << scaling::tech_token(c.node) << " actual "
      << hex(h.value());
}

INSTANTIATE_TEST_SUITE_P(
    OneMillion, SampledIdentityTest,
    ::testing::Values(SampledCell{"gzip", scaling::TechPoint::k180nm,
                                  0xbead03ea96735336ULL},
                      SampledCell{"applu", scaling::TechPoint::k130nm,
                                  0x20f8b50dd4f3bfe8ULL},
                      SampledCell{"gcc", scaling::TechPoint::k90nm,
                                  0xdaa631f398eda87eULL},
                      SampledCell{"mgrid", scaling::TechPoint::k65nm_1V0,
                                  0x6350609137db45d4ULL}),
    [](const ::testing::TestParamInfo<SampledCell>& cell) {
      return std::string(cell.param.app);
    });

}  // namespace
}  // namespace ramp::sim
