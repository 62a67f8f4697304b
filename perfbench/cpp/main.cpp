// perfbench: one workload of the repo benchmark per invocation.
//   perfbench <sweep_detailed|fleet_sampled|serve_mixed> --seed N
//             --seconds S --trace 0|1 --jobs J --work DIR --data DIR
//             --ramp PATH --golden PATH [--make-reference FILE]
// Prints one JSON report line on stdout; perfbench/run.py drives it.
#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::fputs(
      "usage: perfbench <sweep_detailed|fleet_sampled|serve_mixed> --seed N "
      "--seconds S --trace 0|1 --jobs J --work DIR --data DIR --ramp PATH "
      "--golden PATH [--make-reference FILE]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  perfbench::Options o;
  o.workload = argv[1];
  try {
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string v = argv[i + 1];
      if (flag == "--seed") o.seed = std::stoull(v);
      else if (flag == "--seconds") o.seconds = std::stod(v);
      else if (flag == "--trace") o.trace = v == "1";
      else if (flag == "--jobs") o.jobs = std::stoul(v);
      else if (flag == "--work") o.work = v;
      else if (flag == "--data") o.data = v;
      else if (flag == "--ramp") o.ramp = v;
      else if (flag == "--golden") o.golden = v;
      else if (flag == "--make-reference") o.make_reference = v;
      else return usage();
    }
    if (o.jobs == 0 || o.work.empty()) return usage();
    perfbench::fresh_dir(o.work);
    if (o.workload == "sweep_detailed") return perfbench::run_sweep(o);
    if (o.workload == "fleet_sampled") return perfbench::run_fleet(o);
    if (o.workload == "serve_mixed") return perfbench::run_serve(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
