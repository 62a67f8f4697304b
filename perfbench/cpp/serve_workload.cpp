// serve_mixed: a fresh `ramp serve --listen` on an empty out-dir, driven by
// this process's own single-threaded epoll client.
//
//  1. Set-up: boot to listening, then pre-warm the hot keys. This server
//     is the one measured.
//  2. kRounds rounds of four segments each:
//     a. open loop at fixed rates, latency from each request's due time,
//        on one connection per class so no class queues behind another:
//          hot   pre-warmed keys, answered from the response cache;
//          warm  a hot key's app/node with a never-used sink_k: trace, sim
//                and power come from the stage store, thermal + FIT compute;
//          cold  a never-used seed: the whole pipeline, 180 nm pin included;
//     b. closed loop on hot keys over min(3, nproc) connections: its median
//        round trip is the gated hot figure;
//     c. in-process EvalService::evaluate of warm requests: the gated warm
//        figure;
//     d. one more set-up, of a second server that stops right after, so
//        that setup_s is a median of kRounds + 1 set-ups across the run.
//  3. The driver's own ceiling: the same closed loop against a null
//     responder thread inside this process.
// Server and driver are pinned to disjoint CPUs when nproc allows. Every
// answer is checked against an in-process Evaluator answer for its key.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "ledger.hpp"
#include "obs/reqtrace.hpp"
#include "pipeline/stage_graph.hpp"
#include "serve/eval_service.hpp"
#include "serve/json.hpp"
#include "serve/request.hpp"
#include "util/thread_pool.hpp"

extern char** environ;

namespace perfbench {

namespace fs = std::filesystem;
namespace rp = ramp::pipeline;
using ramp::scaling::TechPoint;
using ramp::serve::Json;

namespace {

constexpr std::uint64_t kTraceLen = 100'000;
constexpr std::uint64_t kHotKeys = 8;
constexpr double kHotRate = 2000.0;   // requests/s, far below the knee
constexpr double kWarmRate = 20.0;
constexpr double kColdRate = 3.0;
constexpr double kClosedSeconds = 5.0;
constexpr double kCeilingSeconds = 0.5;
constexpr double kTracedSeconds = 1.5;
constexpr double kInProcessWarmS = 3.0;
constexpr int kRounds = 10;
constexpr double kAnswerGrace = 30.0;  // s to wait for stragglers
// Driver validity limits: beyond these the run measured the driver.
// Lateness limits: the median catches a driver that cannot keep up; the
// p99 limit leaves room for the few-ms scheduling stalls a shared VM shows.
constexpr double kLateP50LimitS = 0.1e-3;
constexpr double kLateP99LimitS = 10e-3;
constexpr double kCpuFracLimit = 0.8;
constexpr double kCeilingHeadroom = 0.8;  // closed rps must stay below this × ceiling

enum Cls { kHot = 0, kWarm = 1, kCold = 2 };

// ---- keys and expected answers ---------------------------------------------

struct Key {
  std::string app;
  TechPoint node = TechPoint::k180nm;
  double sink_k = 0.0;       // > 0: explicit sink target (warm)
  std::uint64_t seed = 0;    // != 0: seed override (cold)

  std::string request(std::uint64_t id, bool trace = false) const {
    std::string s = "{\"op\":\"eval\",\"id\":" + std::to_string(id) +
                    ",\"app\":\"" + app + "\",\"node\":\"" +
                    std::string(ramp::scaling::tech_token(node)) + "\"";
    if (sink_k > 0.0) {
      char buf[48];
      std::snprintf(buf, sizeof buf, ",\"sink_k\":%.17g", sink_k);
      s += buf;
    }
    if (seed != 0) s += ",\"seed\":" + std::to_string(seed);
    if (trace) s += ",\"trace\":true";
    return s + "}\n";
  }
};

/// The in-process Evaluator answer for a key, with the serve layer's own
/// semantics (pin the sink to the app's 180 nm run unless sink_k is given).
rp::AppTechResult expected(const std::shared_ptr<rp::StageStore>& store,
                           const rp::EvaluationConfig& base, const Key& k) {
  const auto& w = ramp::workloads::workload(k.app);
  rp::EvaluationConfig cfg = base;
  if (k.seed != 0) cfg.seed = k.seed;
  const rp::Evaluator ev(cfg, store);
  if (k.sink_k > 0.0) return ev.evaluate(w, k.node, k.sink_k);
  if (k.node == TechPoint::k180nm) return ev.evaluate(w, k.node);
  const auto b = ev.evaluate(w, TechPoint::k180nm);
  return ev.evaluate(w, k.node, b.sink_temp_k);
}

std::string result_text(const rp::AppTechResult& r) {
  return ramp::serve::result_json(r).dump();
}

/// A response line is right when it is ok, echoes the id, and its result
/// is the expected result's JSON byte for byte.
bool response_ok(const std::string& line, std::uint64_t id,
                 const std::string& want_result) {
  const std::string head = "{\"ok\":true,\"op\":\"eval\",\"id\":" + std::to_string(id) + ",";
  if (line.compare(0, head.size(), head) != 0) return false;
  const std::string tail = "\"result\":" + want_result + "}";
  if (line.size() >= tail.size() &&
      line.compare(line.size() - tail.size(), tail.size(), tail) == 0) {
    return true;
  }
  // Traced responses carry "trace" after the result.
  try {
    const Json j = Json::parse(line);
    const Json* res = j.find("result");
    return res != nullptr && res->dump() == want_result;
  } catch (const std::exception&) {
    return false;
  }
}

// ---- sockets ---------------------------------------------------------------

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(port);
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Single-threaded NDJSON client over several connections: pipelined
/// sends, in-order responses per connection, an absolute-time timer for
/// open-loop due times (no millisecond rounding of poll timeouts).
class Client {
 public:
  using OnLine = std::function<void(std::size_t tag, std::string&& line, double t)>;

  Client(std::uint16_t port, int conns) {
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    tfd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = ~0ULL;
    ::epoll_ctl(ep_, EPOLL_CTL_ADD, tfd_, &ev);
    for (int i = 0; i < conns; ++i) {
      Conn c;
      c.fd = connect_to(port);
      if (c.fd < 0) throw std::runtime_error("connect failed");
      conns_.push_back(std::move(c));
      ev.events = EPOLLIN;
      ev.data.u64 = static_cast<std::uint64_t>(i);
      ::epoll_ctl(ep_, EPOLL_CTL_ADD, conns_.back().fd, &ev);
    }
  }
  ~Client() {
    for (auto& c : conns_) ::close(c.fd);
    ::close(tfd_);
    ::close(ep_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(int conn, const std::string& line, std::size_t tag) {
    Conn& c = conns_[static_cast<std::size_t>(conn)];
    c.out += line;
    c.inflight.push_back(tag);
    ++outstanding_;
    flush(conn);
  }
  std::size_t outstanding() const { return outstanding_; }

  /// Waits until readable data or `wake_at` (absolute now_s() seconds;
  /// < 0 = no timer) and dispatches every complete response line.
  void poll(double wake_at, const OnLine& on_line) {
    if (wake_at >= 0.0) {
      itimerspec its{};
      const double w = std::max(wake_at, 1e-9);
      its.it_value.tv_sec = static_cast<time_t>(w);
      its.it_value.tv_nsec = static_cast<long>((w - std::floor(w)) * 1e9);
      ::timerfd_settime(tfd_, TFD_TIMER_ABSTIME, &its, nullptr);
    }
    epoll_event evs[16];
    const int n = ::epoll_wait(ep_, evs, 16, wake_at >= 0.0 ? -1 : 1000);
    const double t = now_s();
    for (int i = 0; i < n; ++i) {
      if (evs[i].data.u64 == ~0ULL) {
        std::uint64_t expirations;
        (void)!::read(tfd_, &expirations, sizeof expirations);
        continue;
      }
      const int ci = static_cast<int>(evs[i].data.u64);
      if (evs[i].events & EPOLLOUT) flush(ci);
      if (evs[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) read_lines(ci, t, on_line);
    }
  }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::string in;
    std::deque<std::size_t> inflight;
    bool want_out = false;
  };

  void flush(int ci) {
    Conn& c = conns_[static_cast<std::size_t>(ci)];
    while (!c.out.empty()) {
      const ssize_t w = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (w > 0) {
        c.out.erase(0, static_cast<std::size_t>(w));
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else {
        break;
      }
    }
    const bool want = !c.out.empty();
    if (want != c.want_out) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.u64 = static_cast<std::uint64_t>(ci);
      ::epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev);
      c.want_out = want;
    }
  }

  void read_lines(int ci, double t, const OnLine& on_line) {
    Conn& c = conns_[static_cast<std::size_t>(ci)];
    char buf[65536];
    for (;;) {
      const ssize_t r = ::recv(c.fd, buf, sizeof buf, 0);
      if (r > 0) {
        c.in.append(buf, static_cast<std::size_t>(r));
        if (static_cast<std::size_t>(r) < sizeof buf) break;
      } else if (r < 0 && errno == EINTR) {
        continue;
      } else {
        break;
      }
    }
    std::size_t start = 0;
    for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      if (c.inflight.empty()) continue;  // unsolicited: ignore
      const std::size_t tag = c.inflight.front();
      c.inflight.pop_front();
      --outstanding_;
      on_line(tag, c.in.substr(start, nl - start), t);
    }
    c.in.erase(0, start);
  }

  int ep_ = -1;
  int tfd_ = -1;
  std::vector<Conn> conns_;
  std::size_t outstanding_ = 0;
};

/// Sends one line on a fresh connection and waits for its answer.
std::string round_trip(std::uint16_t port, const std::string& line) {
  Client c(port, 1);
  std::string got;
  bool done = false;
  c.send(0, line, 0);
  const double until = now_s() + kAnswerGrace;
  while (!done && now_s() < until) {
    c.poll(-1.0, [&](std::size_t, std::string&& l, double) {
      got = std::move(l);
      done = true;
    });
  }
  return got;
}

// ---- the server process ----------------------------------------------------

class ServerProcess {
 public:
  ServerProcess(const Options& o, const fs::path& out_dir, std::size_t jobs,
                const std::vector<int>& cpus) {
    fresh_dir(out_dir);
    const fs::path port_file = out_dir / "port";
    const fs::path log = out_dir / "serve.log";
    std::vector<std::string> args = {
        o.ramp.string(), "serve",  "--listen", "127.0.0.1:0", "--port-file",
        port_file.string(), "--jobs", std::to_string(jobs), "--trace-len",
        std::to_string(kTraceLen), "--out-dir", out_dir.string(),
        "--stage-cache"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    // The server sees only its flags: no RAMP_* overrides leak in.
    std::vector<std::string> env_store;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "RAMP_", 5) != 0) env_store.emplace_back(*e);
    }
    std::vector<char*> envp;
    for (auto& e : env_store) envp.push_back(e.data());
    envp.push_back(nullptr);
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus) CPU_SET(c, &set);

    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      if (!cpus.empty()) (void)::sched_setaffinity(0, sizeof set, &set);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 2);
        ::dup2(fd, 1);
      }
      ::execve(argv[0], argv.data(), envp.data());
      ::_exit(127);
    }
    const double until = now_s() + 60.0;
    while (now_s() < until) {
      std::error_code ec;
      if (fs::exists(port_file, ec) && fs::file_size(port_file, ec) > 0) {
        const std::string text = read_file(port_file);
        if (!text.empty() && text.back() == '\n') {
          port_ = static_cast<std::uint16_t>(std::stoul(text));
          break;
        }
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("ramp serve exited during boot; see " + log.string());
      }
      ::usleep(500);
    }
    if (port_ == 0) throw std::runtime_error("ramp serve did not start listening");
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  int pid() const { return pid_; }

  /// Graceful shutdown op, then SIGKILL if it lingers; always reaps.
  void stop() {
    if (pid_ <= 0) return;
    if (port_ != 0) {
      try {
        (void)round_trip(port_, "{\"op\":\"shutdown\"}\n");
      } catch (const std::exception&) {
      }
    }
    const double until = now_s() + 10.0;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_s() > until) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(1000);
    }
    pid_ = -1;
  }

 private:
  int pid_ = -1;
  std::uint16_t port_ = 0;
};

// ---- null responder (driver ceiling) ---------------------------------------

/// Answers every request line with a canned hot response carrying the
/// request's id: no parsing, no compute — the driver's own limit.
class NullResponder {
 public:
  NullResponder(std::string canned_tail, const std::vector<int>& cpus)
      : tail_(std::move(canned_tail)) {
    lfd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (lfd_ < 0 || ::bind(lfd_, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0 ||
        ::listen(lfd_, 64) != 0) {
      if (lfd_ >= 0) ::close(lfd_);
      throw std::runtime_error("null responder: cannot listen on loopback");
    }
    socklen_t len = sizeof a;
    ::getsockname(lfd_, reinterpret_cast<sockaddr*>(&a), &len);
    port_ = ntohs(a.sin_port);
    ::fcntl(lfd_, F_SETFL, ::fcntl(lfd_, F_GETFL) | O_NONBLOCK);
    thread_ = std::thread([this, cpus] {
      pin_to(cpus);
      loop();
    });
  }
  ~NullResponder() {
    stop_.store(true);
    thread_.join();
    ::close(lfd_);
  }
  NullResponder(const NullResponder&) = delete;
  NullResponder& operator=(const NullResponder&) = delete;
  std::uint16_t port() const { return port_; }

 private:
  void loop() {
    const int ep = ::epoll_create1(EPOLL_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = lfd_;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, lfd_, &ev);
    std::map<int, std::string> bufs;
    while (!stop_.load()) {
      epoll_event evs[16];
      const int n = ::epoll_wait(ep, evs, 16, 20);
      for (int i = 0; i < n; ++i) {
        const int fd = evs[i].data.fd;
        if (fd == lfd_) {
          for (int c; (c = ::accept4(lfd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC)) >= 0;) {
            const int one = 1;
            ::setsockopt(c, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            epoll_event cev{};
            cev.events = EPOLLIN;
            cev.data.fd = c;
            ::epoll_ctl(ep, EPOLL_CTL_ADD, c, &cev);
            bufs[c];
          }
          continue;
        }
        char buf[65536];
        const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
        if (r <= 0) {
          ::epoll_ctl(ep, EPOLL_CTL_DEL, fd, nullptr);
          ::close(fd);
          bufs.erase(fd);
          continue;
        }
        std::string& in = bufs[fd];
        in.append(buf, static_cast<std::size_t>(r));
        std::string out;
        std::size_t start = 0;
        for (std::size_t nl; (nl = in.find('\n', start)) != std::string::npos;
             start = nl + 1) {
          // "id" is the first field the client writes after "op".
          const std::size_t p = in.find("\"id\":", start);
          const std::size_t e = in.find(',', p);
          out += "{\"ok\":true,\"op\":\"eval\",\"id\":" + in.substr(p + 5, e - p - 5) +
                 "," + tail_ + "\n";
        }
        in.erase(0, start);
        for (std::size_t off = 0; off < out.size();) {
          const ssize_t w = ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
          if (w > 0) off += static_cast<std::size_t>(w);
          else if (w < 0 && (errno == EAGAIN || errno == EINTR)) continue;
          else break;
        }
      }
    }
    for (auto& [fd, _] : bufs) ::close(fd);
    ::close(ep);
  }

  std::string tail_;
  int lfd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---- phases ----------------------------------------------------------------

struct ClosedLoopResult {
  double rps = 0.0;
  std::uint64_t done = 0;
  std::uint64_t bad = 0;
  double active_s = 0.0;      // first send → last answer counted in `done`
  std::vector<double> rtt_s;  // send → receipt of each answer counted in `done`
};

/// `conns` connections, one hot request in flight on each, for `seconds`.
ClosedLoopResult closed_loop(std::uint16_t port, int conns, double seconds,
                             const std::vector<Key>& hot,
                             const std::vector<std::string>& want,
                             std::uint64_t* next_id) {
  Client c(port, conns);
  ClosedLoopResult out;
  std::vector<std::uint64_t> ids;  // tag → request id
  std::vector<int> conn_of;        // tag → connection
  std::vector<double> sent;        // tag → send time
  const auto issue = [&](int conn) {
    const std::uint64_t id = (*next_id)++;
    ids.push_back(id);
    conn_of.push_back(conn);
    sent.push_back(now_s());
    c.send(conn, hot[id % hot.size()].request(id), ids.size() - 1);
  };
  for (int i = 0; i < conns; ++i) issue(i);
  const double start = now_s();
  const double end = start + seconds;
  double last = start;
  while (c.outstanding() > 0 && now_s() < end + kAnswerGrace) {
    c.poll(-1.0, [&](std::size_t tag, std::string&& line, double t) {
      const bool ok = response_ok(line, ids[tag], want[ids[tag] % hot.size()]);
      if (t <= end) {
        ++out.done;
        if (!ok) ++out.bad;
        out.rtt_s.push_back(t - sent[tag]);
        last = t;
      }
      if (t < end) issue(conn_of[tag]);
    });
  }
  out.active_s = last - start;
  out.rps = static_cast<double>(out.done) / std::max(1e-9, out.active_s);
  return out;
}

struct TracedHot {
  std::vector<double> latency_s;  // recv − send
  std::vector<std::array<double, ramp::obs::kNumPhases>> phases_s;
  std::uint64_t bad = 0;
};

/// Hot keys only, open loop at kHotRate on one connection; with `traced`
/// every request asks for the server's phase breakdown.
TracedHot hot_phase(std::uint16_t port, bool traced, const std::vector<Key>& hot,
                    const std::vector<std::string>& want, std::uint64_t* next_id,
                    std::uint64_t seed) {
  const OpenLoopSchedule sched({kHotRate}, kTracedSeconds, seed);
  auto recs = sched.records(now_s() + 0.02);
  std::vector<std::uint64_t> ids(recs.size());
  Client c(port, 1);
  TracedHot out;
  std::size_t next = 0;
  const auto on_line = [&](std::size_t tag, std::string&& line, double t) {
    recs[tag].recv = t;
    const std::size_t k = ids[tag] % hot.size();
    recs[tag].ok = response_ok(line, ids[tag], want[k]);
    if (!recs[tag].ok) {
      ++out.bad;
      return;
    }
    out.latency_s.push_back(t - recs[tag].send);
    if (!traced) return;
    std::array<double, ramp::obs::kNumPhases> ph{};
    const Json j = Json::parse(line);
    const Json* tr = j.find("trace");
    const Json* phases = tr != nullptr ? tr->find("phases") : nullptr;
    for (int p = 0; phases != nullptr && p < ramp::obs::kNumPhases; ++p) {
      const Json* v = phases->find(std::string(
          ramp::obs::phase_name(static_cast<ramp::obs::Phase>(p))));
      ph[static_cast<std::size_t>(p)] = v != nullptr ? 1e-9 * v->as_number() : 0.0;
    }
    out.phases_s.push_back(ph);
  };
  const double give_up = recs.empty() ? now_s() : recs.back().due + kAnswerGrace;
  while ((next < recs.size() || c.outstanding() > 0) && now_s() < give_up) {
    for (double t = now_s(); next < recs.size() && recs[next].due <= t; ++next) {
      ids[next] = (*next_id)++;
      recs[next].send = now_s();
      c.send(0, hot[ids[next] % hot.size()].request(ids[next], traced), next);
    }
    c.poll(next < recs.size() ? recs[next].due : -1.0, on_line);
  }
  for (const auto& r : recs) out.bad += r.answered() ? 0 : 1;
  return out;
}

double stat_of(const Json& stats_resp, const char* name) {
  const Json* s = stats_resp.find("stats");
  const Json* v = s != nullptr ? s->find(name) : nullptr;
  return v != nullptr ? v->as_number() : 0.0;
}

double prom_of(const Json& metrics_resp, const std::string& name) {
  const Json* p = metrics_resp.find("prometheus");
  if (p == nullptr) return 0.0;
  std::istringstream in(p->as_string());
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) return std::stod(line.substr(name.size() + 1));
  }
  return 0.0;
}

/// In-process EvalService::evaluate: no socket, no event loop, one
/// in-memory stage store shared by every service it makes. Each service has
/// one worker, and the worker runs on the CPU the service was made on (it
/// inherits the creating thread's mask). Leaves the calling thread pinned
/// to `cpus`.
class InProcess {
 public:
  InProcess(const rp::EvaluationConfig& base, std::vector<int> cpus,
            const std::vector<Key>& hot,
            std::shared_ptr<rp::StageStore> expect_store, Report& rep)
      : base_(base), cpus_(std::move(cpus)), hot_(hot),
        expect_store_(std::move(expect_store)), rep_(rep) {
    cfg_ = base;
    cfg_.stage_cache_enabled = true;
    const auto svc = service_on(0);
    for (const auto& k : hot_) check(k, eval(*svc, k));  // pre-warm
    pin_to(cpus_);
  }

  std::vector<double> hot_us, warm_ms, cold_ms;

  /// Warm requests for `seconds` (at least one block per CPU), in blocks of
  /// 100 that rotate over the CPUs: each request is ~0.1 ms, and one vCPU
  /// of a shared VM can run much slower than another for a while. Every
  /// warm request has a never-used sink_k.
  void warm_for(double seconds) {
    const double start = now_s();
    for (std::size_t b = 0;
         b < std::max<std::size_t>(1, cpus_.size()) || now_s() - start < seconds; ++b) {
      const auto svc = service_on(block_++);
      for (int k = 0; k < 100; ++k, ++warm_i_) {
        Key w = hot_[warm_i_ % hot_.size()];
        w.sink_k = 336.0 + 1e-4 * static_cast<double>(warm_i_);
        const double t0 = now_s();
        const rp::AppTechResult got = eval(*svc, w);
        warm_ms.push_back(1e3 * (now_s() - t0));
        if (warm_i_ % 16 == 0) check(w, got);
      }
    }
    pin_to(cpus_);
  }

  /// Hot requests (response-cache hits) and a few cold ones (never-used
  /// seeds), on one service.
  void hot_and_cold(std::uint64_t seed) {
    const auto svc = service_on(0);
    for (const auto& k : hot_) (void)eval(*svc, k);  // fills its response cache
    for (int i = 0; i < 2000; ++i) {
      const Key& k = hot_[static_cast<std::size_t>(i) % hot_.size()];
      const double t0 = now_s();
      (void)eval(*svc, k);
      hot_us.push_back(1e6 * (now_s() - t0));
    }
    for (std::uint64_t i = 0; i < 5; ++i) {
      Key c = hot_[i % hot_.size()];
      c.seed = 2'000'000'000ULL + mix_seed(seed, 200 + i) % 1'000'000'000ULL;
      const double t0 = now_s();
      const rp::AppTechResult got = eval(*svc, c);
      cold_ms.push_back(1e3 * (now_s() - t0));
      check(c, got);
    }
    pin_to(cpus_);
  }

 private:
  /// A one-worker service on the `n`-th CPU (round robin).
  std::unique_ptr<ramp::serve::EvalService> service_on(std::size_t n) {
    if (!cpus_.empty()) pin_to({cpus_[n % cpus_.size()]});
    ramp::serve::EvalService::Options so;
    so.jobs = 1;
    so.stage_store = store_;
    return std::make_unique<ramp::serve::EvalService>(cfg_, so);
  }
  static rp::AppTechResult eval(ramp::serve::EvalService& svc, const Key& k) {
    return svc.evaluate(ramp::serve::parse_request(k.request(0)))->result;
  }
  void check(const Key& k, const rp::AppTechResult& got) {
    rep_.check("serve.in_process_answer",
               result_text(got) == result_text(expected(expect_store_, base_, k)));
  }

  rp::EvaluationConfig base_, cfg_;
  std::vector<int> cpus_;
  const std::vector<Key>& hot_;
  std::shared_ptr<rp::StageStore> expect_store_;
  Report& rep_;
  std::shared_ptr<rp::StageStore> store_ = std::make_shared<rp::StageStore>();
  std::size_t block_ = 0;
  std::uint64_t warm_i_ = 0;
};

}  // namespace

int run_serve(const Options& o) {
  Report rep(o);
  const auto nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  // Driver on the last CPU (away from CPU 0, where device interrupts tend
  // to land), server (and the null responder) on the rest.
  const std::vector<int> all_cpus = allowed_cpus();
  std::vector<int> driver_cpus, server_cpus;
  if (nproc >= 2) {
    driver_cpus = {nproc - 1};
    for (int c = 0; c + 1 < nproc; ++c) server_cpus.push_back(c);
  }
  const std::size_t server_jobs =
      server_cpus.empty() ? o.jobs : std::min(o.jobs, server_cpus.size());
  const int conns = std::max(1, std::min(3, nproc));

  const rp::EvaluationConfig base = paper_config(kTraceLen);
  const auto& suite = ramp::workloads::spec2k_suite();
  const std::vector<TechPoint> scaled = {TechPoint::k130nm, TechPoint::k90nm,
                                         TechPoint::k65nm_0V9, TechPoint::k65nm_1V0};
  // The hot keys are every other suite app at a scaled node. The seed only
  // rotates their order: warm requests cycle through them, so every seed
  // asks for the same mix of thermal/FIT work.
  std::vector<Key> hot;
  const std::uint64_t rotate = mix_seed(o.seed, 10) % kHotKeys;
  for (std::uint64_t i = 0; i < kHotKeys; ++i) {
    const std::uint64_t j = (i + rotate) % kHotKeys;
    Key k;
    k.app = suite[(2 * j) % suite.size()].name;
    k.node = scaled[j % scaled.size()];
    hot.push_back(k);
  }
  // Expected hot answers up front (the open loop checks them on receipt).
  const auto expect_store = std::make_shared<rp::StageStore>();
  std::vector<std::string> hot_want;
  for (const auto& k : hot) hot_want.push_back(result_text(expected(expect_store, base, k)));

  pin_to(driver_cpus);

  // ---- set-up: boot to listening, then pre-warm the hot keys ----
  std::vector<double> setups;
  std::uint64_t next_id = 1;
  const auto boot = [&](const fs::path& dir) {
    const double t0 = now_s();
    auto s = std::make_unique<ServerProcess>(o, dir, server_jobs, server_cpus);
    Client c(s->port(), 1);
    std::vector<std::string> got(hot.size());
    for (std::size_t i = 0; i < hot.size(); ++i) c.send(0, hot[i].request(next_id + i), i);
    while (c.outstanding() > 0 && now_s() < t0 + 120.0) {
      c.poll(-1.0, [&](std::size_t tag, std::string&& line, double) { got[tag] = std::move(line); });
    }
    setups.push_back(now_s() - t0);
    for (std::size_t i = 0; i < hot.size(); ++i) {
      rep.check("serve.prewarm_answer", response_ok(got[i], next_id + i, hot_want[i]));
    }
    next_id += hot.size();
    return s;
  };
  const std::unique_ptr<ServerProcess> server = boot(o.work / "serve");
  const std::uint16_t port = server->port();
  const Json stats0 = Json::parse(round_trip(port, "{\"op\":\"stats\"}\n"));
  const Json metrics0 = Json::parse(round_trip(port, "{\"op\":\"metrics\"}\n"));

  // ---- rounds: open loop, closed loop, in-process warm ----
  // The host's speed wanders on a scale of about half a second, so each
  // phase runs as kRounds short segments spread over the whole run rather
  // than one long one. The server idles while the in-process segment runs.
  const double open_s = std::max(2.0, o.seconds - kClosedSeconds - kCeilingSeconds -
                                          kInProcessWarmS);
  std::vector<OpenLoopRecord> recs;
  std::vector<Key> keys;
  std::vector<std::uint64_t> ids;
  std::vector<std::string> lines;
  std::uint64_t warm_n = 0, cold_n = 0;
  const auto key_for = [&](int cls, std::uint64_t id) {
    Key k;
    if (cls == kHot) {
      k = hot[id % hot.size()];
    } else if (cls == kWarm) {
      k = hot[warm_n % hot.size()];
      k.sink_k = 333.0 + 0.01 * static_cast<double>(++warm_n) +
                 1e-6 * static_cast<double>(mix_seed(o.seed, 11) % 1000);
    } else {
      k.app = suite[(rotate + cold_n) % suite.size()].name;
      k.node = scaled[cold_n % scaled.size()];
      k.seed = 1000 + (mix_seed(o.seed, 100 + cold_n) % 1'000'000'000ULL);
      ++cold_n;
    }
    return k;
  };
  double driver_cpu_s = 0.0, driver_wall_s = 0.0;
  ClosedLoopResult closed;
  InProcess inproc(base, all_cpus, hot, expect_store, rep);
  pin_to(driver_cpus);
  const auto on_line = [&](std::size_t tag, std::string&& line, double t) {
    recs[tag].recv = t;
    if (recs[tag].cls == kHot) {
      recs[tag].ok = response_ok(line, ids[tag], hot_want[ids[tag] % hot.size()]);
    } else {
      lines[tag] = std::move(line);  // checked after the run
    }
  };
  for (int round = 0; round < kRounds; ++round) {
    {
      // Closed before the closed loop opens its own: at most `conns` at once.
      Client c(port, conns);
      std::size_t next = recs.size();
      for (const auto& r : OpenLoopSchedule({kHotRate, kWarmRate, kColdRate}, open_s / kRounds,
                                            mix_seed(o.seed, 300 + round))
                               .records(now_s() + 0.05)) {
        recs.push_back(r);
        ids.push_back(next_id++);
        keys.push_back(key_for(r.cls, ids.back()));
        lines.emplace_back();
      }
      const double cpu0 = thread_cpu_s(), wall0 = now_s();
      double cpu1 = 0.0, wall1 = 0.0;
      const double give_up = recs.back().due + kAnswerGrace;
      while ((next < recs.size() || c.outstanding() > 0) && now_s() < give_up) {
        for (double t = now_s(); next < recs.size() && recs[next].due <= t; ++next) {
          recs[next].send = now_s();
          c.send(std::min(recs[next].cls, conns - 1), keys[next].request(ids[next]), next);
        }
        if (next == recs.size() && cpu1 == 0.0) {
          cpu1 = thread_cpu_s();
          wall1 = now_s();
        }
        c.poll(next < recs.size() ? recs[next].due : -1.0, on_line);
      }
      driver_cpu_s += cpu1 - cpu0;
      driver_wall_s += wall1 - wall0;
    }

    ClosedLoopResult part =
        closed_loop(port, conns, kClosedSeconds / kRounds, hot, hot_want, &next_id);
    closed.done += part.done;
    closed.bad += part.bad;
    closed.active_s += part.active_s;
    closed.rtt_s.insert(closed.rtt_s.end(), part.rtt_s.begin(), part.rtt_s.end());

    inproc.warm_for(kInProcessWarmS / kRounds);
    pin_to(driver_cpus);

    // One more set-up, on a server of its own that stops right after.
    (void)boot(o.work / "serve-boot");
  }
  closed.rps = static_cast<double>(closed.done) / std::max(1e-9, closed.active_s);
  rep.check("serve.closed_loop_answers", closed.bad == 0 && closed.done > 0,
            std::to_string(closed.bad) + " bad of " + std::to_string(closed.done));

  // ---- the driver's ceiling ----
  double ceiling_rps = 0.0;
  {
    const std::string canned = "\"key\":\"null\",\"cached\":true,\"coalesced\":false,\"result\":" +
                               hot_want[0] + "}";
    NullResponder null(canned, server_cpus);
    std::vector<std::string> want_null(hot.size(), hot_want[0]);
    const ClosedLoopResult c = closed_loop(null.port(), conns, kCeilingSeconds, hot,
                                           want_null, &next_id);
    ceiling_rps = c.rps;
  }

  // ---- traced extras (per-layer run only) ----
  TracedHot plain, traced;
  if (o.trace) {
    plain = hot_phase(port, false, hot, hot_want, &next_id, o.seed);
    traced = hot_phase(port, true, hot, hot_want, &next_id, o.seed);
    rep.check("serve.traced_hot_answers", plain.bad == 0 && traced.bad == 0);
  }

  const Json stats1 = Json::parse(round_trip(port, "{\"op\":\"stats\"}\n"));
  const Json metrics1 = Json::parse(round_trip(port, "{\"op\":\"metrics\"}\n"));
  const double server_rss = pid_peak_rss_mb(server->pid());
  server->stop();
  pin_to(all_cpus);  // the checks below and in-process runs use every CPU

  // ---- verification of warm and cold answers (in-process Evaluator) ----
  {
    ramp::ThreadPool pool(o.jobs);
    std::vector<std::future<std::string>> want(recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (recs[i].cls == kHot) continue;
      want[i] = pool.submit(
          [&, i] { return result_text(expected(expect_store, base, keys[i])); });
    }
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (recs[i].cls != kHot) recs[i].ok = response_ok(lines[i], ids[i], want[i].get());
    }
  }
  std::uint64_t open_bad = 0;
  for (const auto& r : recs) {
    const bool ok = r.ok && r.answered();
    open_bad += ok ? 0 : 1;
  }
  // Every request is an attempted operation; the checks count on top.
  rep.tally().attempted += recs.size() + closed.done;
  rep.tally().failed += open_bad + closed.bad;
  rep.check("serve.open_loop_answers", open_bad == 0,
            std::to_string(open_bad) + " bad of " + std::to_string(recs.size()));

  // ---- driver validity ----
  const double cpu_frac = driver_cpu_s / std::max(1e-9, driver_wall_s);
  const auto late50 = percentile(latenesses(recs), 0.5);
  const auto late99 = percentile(latenesses(recs), 0.99);
  const double late_p50 = late50 ? *late50 : kFailed;
  const double late_p99 = late99 ? *late99 : kFailed;
  rep.check("serve.driver_on_time",
            late_p50 <= kLateP50LimitS && late_p99 <= kLateP99LimitS,
            "late p50 " + std::to_string(1e3 * late_p50) + " ms, p99 " +
                std::to_string(1e3 * late_p99) + " ms");
  rep.check("serve.driver_not_saturated", cpu_frac <= kCpuFracLimit,
            "driver cpu " + std::to_string(cpu_frac));
  rep.check("serve.closed_loop_below_driver_ceiling",
            closed.rps <= kCeilingHeadroom * ceiling_rps,
            std::to_string(closed.rps) + " rps vs ceiling " + std::to_string(ceiling_rps));

  // ---- metrics ----
  const auto p = [&](int cls, double q) {
    const auto v = percentile(class_latencies(recs, cls), q);
    rep.check(std::string("serve.percentile_reportable_") + std::to_string(cls) + "_" +
                  std::to_string(static_cast<int>(q * 100)),
              v.has_value() && std::isfinite(*v));
    return v && std::isfinite(*v) ? 1e3 * *v : kFailed;
  };
  const double hot50 = p(kHot, 0.5), hot99 = p(kHot, 0.99), warm50 = p(kWarm, 0.5),
               cold50 = p(kCold, 0.5);
  inproc.hot_and_cold(o.seed);
  if (!o.trace) {
    rep.e2e("setup_s", median(setups), "s");
    rep.e2e("peak_rss_mb", server_rss, "MiB");
    // The open-loop hot p50 (~0.12 ms at 2000/s, mostly outside the
    // server's phases) is how fast two idle vCPUs wake, and its spread
    // over seeds quadrupled between sets of runs on a shared VM. The gated
    // hot figure is the closed-loop round trip, where neither side sleeps
    // long; the open-loop p50 is kept as serve_hot_p50_ms.
    rep.e2e("hot_ms", 1e3 * median(closed.rtt_s), "ms");
    // Warm over the wire is mostly the server's three file writes, which on
    // a shared virtual disk swung 2.5x between back-to-back runs of one
    // seed; the gated warm figure is the in-process one, the wire figure
    // is kept as serve_warm_p50_ms.
    rep.e2e("warm_ms", median(inproc.warm_ms), "ms");
    rep.e2e("cold_ms", cold50, "ms");
  }
  for (const int cls : {kWarm, kCold}) {
    std::vector<double> ms;
    for (double x : class_latencies(recs, cls)) ms.push_back(1e3 * x);
    rep.samples(cls == kWarm ? "wire_warm_ms" : "cold_ms", ms, "ms");
  }
  rep.samples("warm_ms", inproc.warm_ms, "ms");
  rep.samples("setup_s", setups, "s");
  rep.info("serve_hot_p50_ms", hot50, "ms");
  rep.info("serve_hot_closed_ms", 1e3 * median(closed.rtt_s), "ms");
  rep.info("serve_hot_p99_ms", hot99, "ms");
  rep.info("serve_warm_p50_ms", warm50, "ms");
  rep.info("serve_cold_p50_ms", cold50, "ms");
  rep.info("serve_closed_rps", closed.rps, "1/s");
  rep.info("requests_open_loop", static_cast<double>(recs.size()), "count");
  rep.info("failed_frac", rep.tally().failed_frac(), "ratio");

  if (!o.trace) {
    rep.print();
    return 0;
  }

  rep.layer("serve.hot_p50_ms", hot50, "ms");
  rep.layer("serve.hot_p99_ms", hot99, "ms");
  rep.layer("serve.closed_rps", closed.rps, "1/s");
  rep.layer("driver.cpu_frac", cpu_frac, "ratio");
  rep.layer("driver.late_p50_ms", 1e3 * late_p50, "ms");
  rep.layer("driver.late_p99_ms", 1e3 * late_p99, "ms");
  rep.layer("driver.ceiling_rps", ceiling_rps, "1/s");
  for (const char* s : {"hits", "misses", "coalesced", "evaluations", "failures"}) {
    rep.layer(std::string("serve.") + s, stat_of(stats1, s) - stat_of(stats0, s), "count");
  }
  rep.layer("serve.stage_sim_hits",
            prom_of(metrics1, "ramp_stage_sim_hits_total") -
                prom_of(metrics0, "ramp_stage_sim_hits_total"),
            "count");
  rep.layer("serve.stage_thermal_misses",
            prom_of(metrics1, "ramp_stage_thermal_misses_total") -
                prom_of(metrics0, "ramp_stage_thermal_misses_total"),
            "count");

  // Wire phases of traced hot requests; the client-side remainder is what
  // none of the server's phases cover (kernel, loopback, client).
  std::array<std::vector<double>, ramp::obs::kNumPhases> per_phase;
  std::vector<double> remainder;
  double sum_latency = 0.0, sum_phases = 0.0;
  for (std::size_t i = 0; i < traced.phases_s.size(); ++i) {
    double s = 0.0;
    for (int q = 0; q < ramp::obs::kNumPhases; ++q) {
      per_phase[static_cast<std::size_t>(q)].push_back(traced.phases_s[i][static_cast<std::size_t>(q)]);
      s += traced.phases_s[i][static_cast<std::size_t>(q)];
    }
    remainder.push_back(traced.latency_s[i] - s);
    sum_latency += traced.latency_s[i];
    sum_phases += s;
  }
  for (int q = 0; q < ramp::obs::kNumPhases; ++q) {
    rep.layer("net." + std::string(ramp::obs::phase_name(static_cast<ramp::obs::Phase>(q))) + "_us",
              1e6 * median(per_phase[static_cast<std::size_t>(q)]), "us");
  }
  rep.layer("net.client_unattributed_us", 1e6 * median(remainder), "us");
  const double n_traced = static_cast<double>(std::max<std::size_t>(1, traced.latency_s.size()));
  double sum_plain = 0.0;
  for (double x : plain.latency_s) sum_plain += x;
  // Ledger per hot request (means, so that the parts add up exactly).
  report_ledger(rep, sum_latency / n_traced, sum_phases / n_traced,
                sum_plain / static_cast<double>(std::max<std::size_t>(1, plain.latency_s.size())));
  rep.layer("serve.hot_eval_us", median(inproc.hot_us), "us");
  rep.layer("serve.warm_eval_ms", median(inproc.warm_ms), "ms");
  rep.layer("serve.cold_eval_ms", median(inproc.cold_ms), "ms");

  rep.print();
  return 0;
}

}  // namespace perfbench
