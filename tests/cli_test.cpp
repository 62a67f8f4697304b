// End-to-end tests of the built `ramp` binary (path injected by CMake as
// RAMP_CLI_PATH): report/missions golden shape and determinism across job
// counts, strict flag parsing, and the NDJSON serve loop over a real pipe.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/json.hpp"

namespace ramp {
namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string output;  ///< stdout only; stderr is discarded
};

/// Runs `ramp <args>` through the shell from a scratch directory, with the
/// artifact/cache environment pointed away from the source tree. Extra
/// environment assignments (e.g. "RAMP_METRICS=off") go in `env`.
RunResult run_cli(const std::string& args, const std::string& stdin_doc = "",
                  const std::string& env = "") {
  static const std::string scratch = [] {
    const fs::path dir = fs::temp_directory_path() / "ramp_cli_test";
    fs::create_directories(dir);
    return dir.string();
  }();
  std::string cmd = "cd '" + scratch + "' && RAMP_OUT_DIR='" + scratch +
                    "' RAMP_CACHE=off " + env + " '" RAMP_CLI_PATH "' " +
                    args + " 2>/dev/null";
  std::string doc;
  if (!stdin_doc.empty()) {
    // Per process and call: ctest -j runs test cases as concurrent
    // processes, and a shared file lets one case read another's requests.
    static int seq = 0;
    doc = scratch + "/stdin_" + std::to_string(::getpid()) + "_" +
          std::to_string(seq++) + ".ndjson";
    std::FILE* f = std::fopen(doc.c_str(), "w");
    EXPECT_NE(f, nullptr);
    std::fwrite(stdin_doc.data(), 1, stdin_doc.size(), f);
    std::fclose(f);
    cmd += " < '" + doc + "'";
  }

  RunResult r;
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    r.output.append(buf, n);
  }
  const int status = ::pclose(pipe);
  if (!doc.empty()) fs::remove(doc);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

TEST(CliTest, NoArgumentsPrintsUsageAndFails) {
  EXPECT_EQ(run_cli("").exit_code, 2);
  EXPECT_EQ(run_cli("frobnicate").exit_code, 2);
}

TEST(CliTest, MalformedFlagValueFailsLoudly) {
  // Satellite of the strict-parse fix: "12abc" used to silently parse as 12.
  EXPECT_EQ(run_cli("evaluate gcc 90 --trace-len 12abc").exit_code, 1);
  EXPECT_EQ(run_cli("evaluate gcc 90 --trace-len -5").exit_code, 1);
  EXPECT_EQ(run_cli("serve --jobs zero").exit_code, 1);
  // A retired sim mode is a strict-parse error, not a fallback.
  EXPECT_EQ(run_cli("sweep --sim-mode interval").exit_code, 1);
}

TEST(CliTest, UnknownServeArgumentRejected) {
  EXPECT_EQ(run_cli("serve --frobnicate").exit_code, 2);
  // Removed options are unknown, not silently ignored.
  EXPECT_EQ(run_cli("serve --shards 2").exit_code, 2);
  EXPECT_EQ(run_cli("simcheck --mode sampled").exit_code, 2);
}

TEST(CliTest, EvaluateOneCell) {
  const auto r = run_cli("evaluate gcc 90 --trace-len 5000");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("IPC"), std::string::npos);
  EXPECT_NE(r.output.find("FIT"), std::string::npos);
  EXPECT_NE(r.output.find("MTTF"), std::string::npos);
}

TEST(CliTest, ReportGoldenShapeAndJobCountDeterminism) {
  const auto serial = run_cli("report --trace-len 5000 --jobs 1");
  ASSERT_EQ(serial.exit_code, 0);
  EXPECT_NE(serial.output.find("# RAMP scaling report"), std::string::npos);
  EXPECT_NE(serial.output.find("## Mechanism breakdown"), std::string::npos);
  for (const char* node : {"| 180", "| 130", "| 90", "| 65"}) {
    EXPECT_NE(serial.output.find(node), std::string::npos) << node;
  }

  const auto parallel = run_cli("report --trace-len 5000 --jobs 2");
  ASSERT_EQ(parallel.exit_code, 0);
  // The whole report, byte for byte: job count must not change any number.
  EXPECT_EQ(parallel.output, serial.output);
}

TEST(CliTest, MissionsGoldenShape) {
  const auto r = run_cli("missions --trace-len 5000 --jobs 2");
  ASSERT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("Example deployment missions"), std::string::npos);
  EXPECT_EQ(r.output, run_cli("missions --trace-len 5000 --jobs 2").output);
}

TEST(CliTest, ServeAnswersOverAPipe) {
  const auto r = run_cli(
      "serve --trace-len 5000 --jobs 2 --no-persist",
      "{\"op\":\"eval\",\"app\":\"gcc\",\"node\":\"90\",\"id\":1}\n"
      "{\"op\":\"stats\"}\n"
      "{\"op\":\"eval\",\"app\":\"gcc\",\"node\":\"90\",\"id\":2}\n"
      "{\"op\":\"shutdown\"}\n");
  ASSERT_EQ(r.exit_code, 0);

  std::vector<serve::Json> responses;
  std::istringstream lines(r.output);
  std::string line;
  while (std::getline(lines, line)) {
    responses.push_back(serve::Json::parse(line));
  }
  ASSERT_EQ(responses.size(), 4u);

  EXPECT_TRUE(responses[0].find("ok")->as_bool());
  EXPECT_FALSE(responses[0].find("cached")->as_bool());
  ASSERT_NE(responses[0].find("result"), nullptr);
  const double ipc = responses[0].find("result")->find("ipc")->as_number();
  EXPECT_GT(ipc, 0.0);

  const serve::Json* stats = responses[1].find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_DOUBLE_EQ(stats->find("misses")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(stats->find("evaluations")->as_number(), 2.0);

  // The repeat was answered from the in-memory cache, bit-identically.
  EXPECT_TRUE(responses[2].find("cached")->as_bool());
  EXPECT_EQ(responses[2].find("result")->dump(),
            responses[0].find("result")->dump());

  EXPECT_EQ(responses[3].find("op")->as_string(), "shutdown");
}

TEST(CliTest, SweepMetricsFlagWritesPrometheusProfile) {
  const fs::path path = fs::temp_directory_path() / "ramp_cli_test_metrics.prom";
  fs::remove(path);
  const auto r = run_cli("sweep --trace-len 5000 --jobs 2 --metrics='" +
                         path.string() + "'");
  ASSERT_EQ(r.exit_code, 0);
  ASSERT_TRUE(fs::exists(path));
  std::stringstream body;
  body << std::ifstream(path).rdbuf();
  const std::string text = body.str();
  // The per-stage profile and sweep counters made it into the dump; the full
  // grid is 16 apps x 5 nodes.
  EXPECT_NE(text.find("ramp_stage_seconds_total{stage=\"sim\"}"),
            std::string::npos);
  EXPECT_NE(text.find("ramp_sweep_cells_total 80"), std::string::npos);
  fs::remove(path);
}

TEST(CliTest, MetricsOffLeavesSweepOutputByteIdentical) {
  // RAMP_METRICS=off must be purely observational: the sweep table on stdout
  // is byte-for-byte what an instrumented run prints.
  const auto on = run_cli("sweep --trace-len 5000 --jobs 2");
  ASSERT_EQ(on.exit_code, 0);
  const auto off = run_cli("sweep --trace-len 5000 --jobs 2", "",
                           "RAMP_METRICS=off");
  ASSERT_EQ(off.exit_code, 0);
  EXPECT_EQ(off.output, on.output);
  EXPECT_NE(on.output.find("Qualified total FIT"), std::string::npos);
}

TEST(CliTest, SweepCsvMatchesCommittedGoldenByteForByte) {
  // The hot-path optimizations (workspace solvers, memoized FIT kernel)
  // promise bitwise-unchanged physics. This pins the full sweep grid to a
  // committed artifact: any ulp drift anywhere in the pipeline shows up as
  // a byte diff here, at serial and parallel job counts alike.
  const fs::path golden = fs::path(RAMP_GOLDEN_DIR) / "sweep_trace4000.csv";
  ASSERT_TRUE(fs::exists(golden)) << golden;
  std::stringstream want;
  want << std::ifstream(golden, std::ios::binary).rdbuf();
  ASSERT_FALSE(want.str().empty());

  for (const char* jobs : {"1", "4"}) {
    const fs::path dir =
        fs::temp_directory_path() / (std::string("ramp_cli_golden_j") + jobs);
    fs::remove_all(dir);  // cold cache: the sweep must recompute and rewrite
    fs::create_directories(dir);
    const auto r = run_cli(std::string("sweep --trace-len 4000 --jobs ") +
                               jobs,
                           "",
                           "RAMP_OUT_DIR='" + dir.string() +
                               "' RAMP_CACHE=on RAMP_METRICS=off");
    ASSERT_EQ(r.exit_code, 0);
    const fs::path cache = dir / "ramp_sweep_cache.csv";
    ASSERT_TRUE(fs::exists(cache));
    std::stringstream got;
    got << std::ifstream(cache, std::ios::binary).rdbuf();
    EXPECT_EQ(got.str(), want.str()) << "sweep CSV diverged at --jobs "
                                     << jobs;
    fs::remove_all(dir);
  }
}

TEST(CliTest, StageCacheSweepColdAndWarmMatchGolden) {
  // The stage-graph memoization contract: a sweep scheduling against the
  // content-addressed stage store — cold or fully warm, serial or parallel
  // — serializes byte-for-byte like the store-less monolithic path, pinned
  // by the same committed golden artifact as the test above.
  const fs::path golden = fs::path(RAMP_GOLDEN_DIR) / "sweep_trace4000.csv";
  ASSERT_TRUE(fs::exists(golden)) << golden;
  std::stringstream want;
  want << std::ifstream(golden, std::ios::binary).rdbuf();
  ASSERT_FALSE(want.str().empty());

  for (const char* jobs : {"1", "4"}) {
    const fs::path dir = fs::temp_directory_path() /
                         (std::string("ramp_cli_stage_cache_j") + jobs);
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string env = "RAMP_OUT_DIR='" + dir.string() +
                            "' RAMP_CACHE=on RAMP_METRICS=off";
    const std::string cmd = std::string("sweep --trace-len 4000 --jobs ") +
                            jobs + " --stage-cache";
    const fs::path cache = dir / "ramp_sweep_cache.csv";

    // Cold: every stage computes, populating <out-dir>/stage_cache.
    const auto cold = run_cli(cmd, "", env);
    ASSERT_EQ(cold.exit_code, 0);
    ASSERT_TRUE(fs::exists(cache));
    std::stringstream got_cold;
    got_cold << std::ifstream(cache, std::ios::binary).rdbuf();
    EXPECT_EQ(got_cold.str(), want.str())
        << "cold stage-cache sweep diverged at --jobs " << jobs;
    std::size_t blobs = 0;
    ASSERT_TRUE(fs::exists(dir / "stage_cache"));
    for (const auto& e : fs::directory_iterator(dir / "stage_cache")) {
      if (e.path().extension() == ".rampblob") ++blobs;
    }
    EXPECT_GT(blobs, 0u);

    // Warm: drop the sweep-level CSV so the grid re-runs entirely from the
    // persisted stage outputs — still byte-identical.
    fs::remove(cache);
    const auto warm = run_cli(cmd, "", env);
    ASSERT_EQ(warm.exit_code, 0);
    ASSERT_TRUE(fs::exists(cache));
    std::stringstream got_warm;
    got_warm << std::ifstream(cache, std::ios::binary).rdbuf();
    EXPECT_EQ(got_warm.str(), want.str())
        << "warm stage-cache sweep diverged at --jobs " << jobs;
    EXPECT_EQ(warm.output, cold.output);  // stdout table too
    fs::remove_all(dir);
  }
}

TEST(CliTest, StageCacheEnvDoesNotChangeEvaluateOutput) {
  const auto plain = run_cli("evaluate gcc 65-1.0 --trace-len 5000");
  ASSERT_EQ(plain.exit_code, 0);

  const fs::path dir = fs::temp_directory_path() / "ramp_cli_stage_env";
  fs::remove_all(dir);
  const std::string env = "RAMP_STAGE_CACHE='" + dir.string() + "'";
  const auto cold = run_cli("evaluate gcc 65-1.0 --trace-len 5000", "", env);
  ASSERT_EQ(cold.exit_code, 0);
  EXPECT_EQ(cold.output, plain.output);
  EXPECT_TRUE(fs::exists(dir));
  const auto warm = run_cli("evaluate gcc 65-1.0 --trace-len 5000", "", env);
  ASSERT_EQ(warm.exit_code, 0);
  EXPECT_EQ(warm.output, plain.output);
  fs::remove_all(dir);
}

TEST(CliTest, MalformedMetricsSwitchFailsLoudly) {
  const auto r = run_cli("sweep --trace-len 5000 --jobs 2", "",
                         "RAMP_METRICS=banana");
  EXPECT_EQ(r.exit_code, 1);
}

TEST(CliTest, SweepTimelineAndTraceOutProduceArtifacts) {
  const fs::path dir = fs::temp_directory_path() / "ramp_cli_test_flightrec";
  fs::remove_all(dir);
  const fs::path tl_dir = dir / "timeline";
  const fs::path trace = dir / "nested" / "trace.json";  // parent must be made

  const auto plain = run_cli("sweep --trace-len 5000 --jobs 2");
  ASSERT_EQ(plain.exit_code, 0);
  const auto r = run_cli("sweep --trace-len 5000 --jobs 2 --timeline='" +
                         tl_dir.string() + "' --trace-out='" + trace.string() +
                         "'");
  ASSERT_EQ(r.exit_code, 0);
  // Flight recording is purely observational: the sweep table on stdout is
  // byte-for-byte what an unrecorded run prints.
  EXPECT_EQ(r.output, plain.output);

  // One CSV + NDJSON timeline pair per cell (16 apps x 5 nodes).
  std::size_t csvs = 0;
  std::size_t ndjsons = 0;
  for (const auto& e : fs::directory_iterator(tl_dir)) {
    if (e.path().extension() == ".csv") ++csvs;
    if (e.path().extension() == ".ndjson" &&
        e.path().filename() != "incidents.ndjson") {
      ++ndjsons;
    }
  }
  EXPECT_EQ(csvs, 80u);
  EXPECT_EQ(ndjsons, 80u);
  EXPECT_TRUE(fs::exists(tl_dir / "incidents.ndjson"));

  std::stringstream csv_body;
  csv_body << std::ifstream(tl_dir / "gcc_180.csv").rdbuf();
  EXPECT_EQ(csv_body.str().rfind("# ramp_timeline v1 cell=gcc@180 ", 0), 0u);

  // The Chrome trace parses with the vendored codec and carries real slices
  // alongside the process/thread metadata records.
  std::stringstream trace_body;
  trace_body << std::ifstream(trace).rdbuf();
  const serve::Json doc = serve::Json::parse(trace_body.str());
  const serve::Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_slice = false;
  for (const auto& ev : events->elements()) {
    if (ev.find("ph")->as_string() == "X") saw_slice = true;
  }
  EXPECT_TRUE(saw_slice);
  fs::remove_all(dir);
}

TEST(CliTest, SweepWritesCacheIntoOutDirNotCwd) {
  const fs::path dir = fs::temp_directory_path() / "ramp_cli_test_outdir";
  fs::remove_all(dir);
  fs::create_directories(dir);
  // Cache explicitly enabled (RAMP_CACHE=on overrides the harness default).
  const std::string cmd = "cd '" + dir.string() + "' && RAMP_CACHE=on '"
                          RAMP_CLI_PATH "' sweep --trace-len 5000 --jobs 2"
                          " --out-dir '" + (dir / "artifacts").string() +
                          "' >/dev/null 2>&1";
  EXPECT_EQ(WEXITSTATUS(std::system(cmd.c_str())), 0);
  EXPECT_TRUE(fs::exists(dir / "artifacts" / "ramp_sweep_cache.csv"));
  EXPECT_FALSE(fs::exists(dir / "ramp_sweep_cache.csv"));
  fs::remove_all(dir);
}

TEST(CliTest, FleetCurveIsJobAndRerunInvariant) {
  const std::string flags =
      "fleet --chips 1500 --trace-len 2000 --seed 7 --bin 5";
  const auto serial = run_cli(flags + " --jobs 1");
  ASSERT_EQ(serial.exit_code, 0);
  EXPECT_EQ(serial.output.rfind("# ramp_fleet v1\n", 0), 0u);
  EXPECT_NE(serial.output.find("t_end_years,failures,survivors"),
            std::string::npos);
  // 30-year horizon in 5-year bins: 2 comments + header + 6 rows.
  EXPECT_EQ(std::count(serial.output.begin(), serial.output.end(), '\n'), 9);

  const auto parallel = run_cli(flags + " --jobs 4");
  ASSERT_EQ(parallel.exit_code, 0);
  EXPECT_EQ(serial.output, parallel.output);
  EXPECT_EQ(serial.output, run_cli(flags + " --jobs 4").output);
  // A different seed is a different fleet.
  EXPECT_NE(serial.output,
            run_cli("fleet --chips 1500 --trace-len 2000 --seed 8 --bin 5")
                .output);
}

TEST(CliTest, FleetWritesArtifactsAndAbDeltas) {
  const fs::path dir = fs::temp_directory_path() / "ramp_cli_test_fleet";
  fs::remove_all(dir);
  fs::create_directories(dir);
  // Scenario passed positionally (`--scenario baseline` also works).
  const auto r = run_cli(
      "fleet baseline --chips 800 --trace-len 2000 --policy dvfs --ab none "
      "--out-dir '" + dir.string() + "'");
  ASSERT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("# ramp_fleet_ab v1"), std::string::npos);
  EXPECT_TRUE(fs::exists(dir / "fleet_curve.csv"));
  EXPECT_TRUE(fs::exists(dir / "fleet.ndjson"));
  EXPECT_TRUE(fs::exists(dir / "fleet_ab.csv"));
  std::stringstream nd;
  nd << std::ifstream(dir / "fleet.ndjson").rdbuf();
  EXPECT_EQ(nd.str().rfind("{\"type\":\"summary\"", 0), 0u);
  fs::remove_all(dir);
}

TEST(CliTest, FleetRejectsGarbage) {
  EXPECT_EQ(run_cli("fleet --chips twelve").exit_code, 1);
  EXPECT_EQ(run_cli("fleet --years zero").exit_code, 1);
  EXPECT_EQ(run_cli("fleet --policy turbo").exit_code, 1);
  EXPECT_EQ(run_cli("fleet --scenario warp-core").exit_code, 1);
  EXPECT_EQ(run_cli("fleet warp-core").exit_code, 1);  // positional scenario
  EXPECT_EQ(run_cli("fleet --frobnicate").exit_code, 2);
  // Strict RAMP_FLEET_* environment: garbage throws instead of defaulting.
  EXPECT_EQ(run_cli("fleet", "", "RAMP_FLEET_CHIPS=ten").exit_code, 1);
  EXPECT_EQ(run_cli("fleet", "", "RAMP_FLEET_POLICY=turbo").exit_code, 1);
}

// ---- Serving: fleet op, client death, signals, TCP -------------------------

/// Writes `body` to a scratch script and runs `bash script <args...>`.
/// Returns the script's exit code (-1 if it died on a signal).
int run_bash(const std::string& body, const std::vector<std::string>& args) {
  static int seq = 0;
  const fs::path script = fs::temp_directory_path() /
                          ("ramp_cli_script_" + std::to_string(::getpid()) +
                           "_" + std::to_string(seq++) + ".sh");
  std::ofstream(script) << body;
  std::string cmd = "bash '" + script.string() + "'";
  for (const std::string& a : args) cmd += " '" + a + "'";
  const int status = std::system(cmd.c_str());
  fs::remove(script);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CliTest, ServeFleetOpOverStdio) {
  const std::string request =
      "{\"op\":\"fleet\",\"chips\":64,\"years\":6,\"bin\":2,\"seed\":3,"
      "\"id\":9}\n{\"op\":\"shutdown\"}\n";
  const auto r =
      run_cli("serve --trace-len 2000 --jobs 2 --no-persist", request);
  ASSERT_EQ(r.exit_code, 0);

  std::istringstream lines(r.output);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const serve::Json fleet = serve::Json::parse(line);
  EXPECT_TRUE(fleet.find("ok")->as_bool()) << line;
  EXPECT_EQ(fleet.find("op")->as_string(), "fleet");
  EXPECT_DOUBLE_EQ(fleet.find("id")->as_number(), 9.0);
  ASSERT_NE(fleet.find("summary"), nullptr);
  EXPECT_DOUBLE_EQ(fleet.find("summary")->find("chips")->as_number(), 64.0);
  ASSERT_NE(fleet.find("curve"), nullptr);
  EXPECT_EQ(fleet.find("curve")->elements().size(), 3u);  // 6 y / 2 y bins

  // Same seed, same scenario: the simulation is deterministic over the wire.
  const auto again =
      run_cli("serve --trace-len 2000 --jobs 2 --no-persist", request);
  ASSERT_EQ(again.exit_code, 0);
  EXPECT_EQ(again.output, r.output);

  // Bounds are enforced before any work happens.
  const auto huge = run_cli(
      "serve --trace-len 2000 --no-persist",
      "{\"op\":\"fleet\",\"chips\":999999999}\n{\"op\":\"shutdown\"}\n");
  ASSERT_EQ(huge.exit_code, 0);
  ASSERT_FALSE(huge.output.empty());
  std::istringstream huge_lines(huge.output);
  std::string huge_line;
  ASSERT_TRUE(std::getline(huge_lines, huge_line));
  EXPECT_FALSE(serve::Json::parse(huge_line).find("ok")->as_bool());
}

TEST(CliTest, ServeSurvivesClientDeathMidStream) {
  // The satellite regression: a client that reads one line and dies used to
  // kill serve with SIGPIPE (exit 141). Now EPIPE on stdout is a clean
  // shutdown. 200 pipelined responses overflow the 64 KiB pipe buffer, so
  // the write after `head` exits MUST hit the dead pipe.
  const std::string script = R"SH(
set -u
ramp=$1; dir=$2
req='{"op":"eval","app":"gcc","node":"90","trace_len":2000}'
{ for i in $(seq 1 200); do echo "$req"; done; } > "$dir/reqs.ndjson"
"$ramp" serve --trace-len 2000 --no-persist < "$dir/reqs.ndjson" 2>/dev/null \
  | head -n 1 > /dev/null
exit "${PIPESTATUS[0]}"
)SH";
  const fs::path dir = fs::temp_directory_path() / "ramp_cli_epipe";
  fs::remove_all(dir);
  fs::create_directories(dir);
  EXPECT_EQ(run_bash(script, {RAMP_CLI_PATH, dir.string()}), 0)
      << "serve must exit 0 when its client dies mid-stream";
  fs::remove_all(dir);
}

TEST(CliTest, ServeSigintDrainsGracefully) {
  // SIGINT mid-stream (client still connected, more input possibly coming)
  // is a graceful drain: answer what was read, flush, exit 0.
  const std::string script = R"SH(
set -u
ramp=$1; dir=$2
mkfifo "$dir/in"
"$ramp" serve --trace-len 2000 --no-persist < "$dir/in" \
  > "$dir/out.ndjson" 2>/dev/null &
pid=$!
exec 3> "$dir/in"
printf '{"op":"eval","app":"gcc","node":"90","trace_len":2000}\n' >&3
# Wait for the response so the kill provably lands mid-stream, not pre-work.
for i in $(seq 1 100); do [ -s "$dir/out.ndjson" ] && break; sleep 0.1; done
kill -INT "$pid"
wait "$pid"; rc=$?
exec 3>&-
exit "$rc"
)SH";
  const fs::path dir = fs::temp_directory_path() / "ramp_cli_sigint";
  fs::remove_all(dir);
  fs::create_directories(dir);
  EXPECT_EQ(run_bash(script, {RAMP_CLI_PATH, dir.string()}), 0)
      << "SIGINT must drain and exit 0, not die with 130";
  // The answered request made it out before the drain.
  std::stringstream out;
  out << std::ifstream(dir / "out.ndjson").rdbuf();
  EXPECT_NE(out.str().find("\"ok\":true"), std::string::npos);
  fs::remove_all(dir);
}

TEST(CliTest, ServeTcpAnswersMatchAndDrainOnShutdownOp) {
  // End-to-end TCP mode through the real binary: bash's /dev/tcp talks to
  // `serve --listen`, the answer matches the stdio answer for the same
  // request, and the `shutdown` op drains the process to exit 0.
  const std::string script = R"SH(
set -u
ramp=$1; dir=$2
"$ramp" serve --listen 127.0.0.1:0 --port-file "$dir/port" --trace-len 2000 \
  --out-dir "$dir/out" > /dev/null 2>&1 &
pid=$!
for i in $(seq 1 100); do [ -s "$dir/port" ] && break; sleep 0.1; done
port=$(cat "$dir/port")
exec 3<> "/dev/tcp/127.0.0.1/$port"
printf '{"op":"eval","app":"gcc","node":"90","trace_len":2000,"id":1}\n' >&3
IFS= read -r line <&3
printf '%s\n' "$line" > "$dir/tcp_answer"
printf '{"op":"shutdown"}\n' >&3
IFS= read -r bye <&3
exec 3<&- 3>&-
wait "$pid"
exit $?
)SH";
  const fs::path dir = fs::temp_directory_path() / "ramp_cli_tcp";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ASSERT_EQ(run_bash(script, {RAMP_CLI_PATH, dir.string()}), 0);

  std::stringstream tcp;
  tcp << std::ifstream(dir / "tcp_answer").rdbuf();
  ASSERT_FALSE(tcp.str().empty());
  const serve::Json answer = serve::Json::parse(tcp.str());
  EXPECT_TRUE(answer.find("ok")->as_bool());

  const auto stdio = run_cli(
      "serve --trace-len 2000 --no-persist",
      "{\"op\":\"eval\",\"app\":\"gcc\",\"node\":\"90\",\"trace_len\":2000,"
      "\"id\":1}\n{\"op\":\"shutdown\"}\n");
  ASSERT_EQ(stdio.exit_code, 0);
  std::istringstream lines(stdio.output);
  std::string stdio_line;
  ASSERT_TRUE(std::getline(lines, stdio_line));
  // Byte-identical result payloads (the `cached` provenance flag may differ
  // between a cold stdio service and the TCP server's persist dir).
  const serve::Json expected = serve::Json::parse(stdio_line);
  ASSERT_NE(answer.find("result"), nullptr);
  ASSERT_NE(expected.find("result"), nullptr);
  EXPECT_EQ(answer.find("result")->dump(), expected.find("result")->dump());
  EXPECT_EQ(answer.find("key")->as_string(),
            expected.find("key")->as_string());
  fs::remove_all(dir);
}

TEST(CliTest, LoadgenDrivesTcpServeEndToEnd) {
  // The benchmark harness path: serve --listen + ramp_loadgen closed loop.
  // Zero errors, everything sent gets answered, and SIGTERM drains to 0.
  const std::string script = R"SH(
set -u
ramp=$1; loadgen=$2; dir=$3
"$ramp" serve --listen 127.0.0.1:0 --port-file "$dir/port" --trace-len 2000 \
  --out-dir "$dir/out" > /dev/null 2>&1 &
pid=$!
"$loadgen" --port-file "$dir/port" --mode closed --connections 4 \
  --duration 2 --trace-len 2000 > "$dir/loadgen.json" || exit 5
kill -TERM "$pid"
wait "$pid"
exit $?
)SH";
  const fs::path dir = fs::temp_directory_path() / "ramp_cli_loadgen";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ASSERT_EQ(run_bash(script,
                     {RAMP_CLI_PATH, RAMP_LOADGEN_PATH, dir.string()}),
            0);

  std::stringstream body;
  body << std::ifstream(dir / "loadgen.json").rdbuf();
  const serve::Json summary = serve::Json::parse(body.str());
  EXPECT_GT(summary.find("sent")->as_number(), 0.0);
  EXPECT_DOUBLE_EQ(summary.find("completed")->as_number(),
                   summary.find("sent")->as_number());
  EXPECT_DOUBLE_EQ(summary.find("errors")->as_number(), 0.0);
  EXPECT_DOUBLE_EQ(summary.find("overloaded")->as_number(), 0.0);
  EXPECT_GT(summary.find("p99_ms")->as_number(), 0.0);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ramp
