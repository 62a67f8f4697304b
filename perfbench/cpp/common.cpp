#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  tally_.add(ok);
  checks_.push_back({name, ok, detail});
  if (!ok) {
    std::fprintf(stderr, "perfbench: check failed: %s %s\n", name.c_str(),
                 detail.c_str());
  }
}

void Report::samples(const std::string& name, const std::vector<double>& v,
                     const std::string& unit) {
  samples_[name] = v;
  info(name + "_n", static_cast<double>(v.size()), "count");
  for (const int q : {99, 95, 90, 75}) {
    if (const auto p = percentile(v, q / 100.0)) {
      info(name + "_p" + std::to_string(q), *p, unit);
      break;
    }
  }
}

namespace {

void emit_metrics(std::ostringstream& out,
                  const std::map<std::string, std::pair<double, std::string>>& m) {
  out << "{";
  bool first = true;
  for (const auto& [name, v] : m) {
    if (!first) out << ",";
    first = false;
    out << json_quote(name) << ":{\"value\":";
    if (std::isfinite(v.first)) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v.first);
      out << buf;
    } else {
      out << "null";  // not a number: the harness refuses the run
    }
    out << ",\"unit\":" << json_quote(v.second) << "}";
  }
  out << "}";
}

}  // namespace

void Report::print() const {
  std::ostringstream out;
  out << "{\"workload\":" << json_quote(opts_.workload)
      << ",\"seed\":" << opts_.seed << ",\"trace\":" << (opts_.trace ? 1 : 0)
      << ",\"jobs\":" << opts_.jobs << ",\"attempted\":" << tally_.attempted
      << ",\"failed\":" << tally_.failed << ",\"checks\":[";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    if (i) out << ",";
    out << "{\"name\":" << json_quote(checks_[i].name)
        << ",\"ok\":" << (checks_[i].ok ? "true" : "false")
        << ",\"detail\":" << json_quote(checks_[i].detail) << "}";
  }
  out << "],\"e2e\":";
  emit_metrics(out, e2e_);
  out << ",\"layers\":";
  emit_metrics(out, layers_);
  out << ",\"info\":";
  emit_metrics(out, info_);
  out << ",\"samples\":{";
  bool first = true;
  for (const auto& [name, v] : samples_) {
    out << (first ? "" : ",") << json_quote(name) << ":[";
    first = false;
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.9g", v[i]);
      out << (i ? "," : "") << (std::isfinite(v[i]) ? buf : "null");
    }
    out << "]";
  }
  out << "}";
  out << "}\n";
  std::fputs(out.str().c_str(), stdout);
  std::fflush(stdout);
}

ramp::pipeline::EvaluationConfig paper_config(std::uint64_t trace_len) {
  ramp::pipeline::EvaluationConfig cfg;
  cfg.trace_instructions = trace_len;
  return cfg;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB → MiB
}

double pid_peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void pin_to(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
  }
  return out;
}

void pin_rotating(const std::vector<int>& cpus, int k) {
  if (cpus.empty()) return;
  pin_to({cpus[static_cast<std::size_t>(k) % cpus.size()]});
}

void fresh_dir(const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::filesystem::path& p, const std::string& text) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + p.string());
}

std::string fnv_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench
