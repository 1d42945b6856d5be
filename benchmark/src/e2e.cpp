#include "e2e.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/statfs.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "serve/wire.h"
#include "util/json.h"
#include "workload/trace.h"

extern char** environ;

namespace esva::bench {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// The untraced closed loop is timed in this many equal slices of its ops.
constexpr std::size_t kClosedSlices = 16;
/// Restarts after each SIGKILL, each timed to "listening".
constexpr int kRecoverySamples = 2;

/// Sleeps until shortly before `due_ns`, then spins: the generator's
/// lateness is reported (client.late_p99_ms), so it must not come from the
/// sleep's wake-up delay. The spin is kept short so the client leaves the
/// daemon's CPUs alone.
void wait_until(std::int64_t due_ns) {
  constexpr std::int64_t kSpinNs = 60'000;
  const std::int64_t wake_ns = due_ns - kSpinNs;
  if (wake_ns > now_ns()) {
    // steady_clock is CLOCK_MONOTONIC, so the absolute deadline carries over.
    const timespec at{static_cast<time_t>(wake_ns / 1'000'000'000),
                      static_cast<long>(wake_ns % 1'000'000'000)};
    while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &at, nullptr) ==
           EINTR) {
    }
  }
  while (now_ns() < due_ns) {
  }
}

bool is_ok(std::string_view line) { return line.rfind("{\"ok\":true", 0) == 0; }

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// One unix-socket connection with a line reader.
class Conn {
 public:
  explicit Conn(const std::string& path) {
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path))
      throw std::runtime_error("socket path too long: " + path);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const int err = errno;
      ::close(fd_);
      throw std::runtime_error("connect('" + path +
                               "') failed: " + std::strerror(err));
    }
    // A daemon that stops answering must fail the run, not hang it.
    timeval timeout{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Sends `line` plus a newline.
  void send_line(const std::string& line) {
    out_.assign(line);
    out_ += '\n';
    std::size_t off = 0;
    while (off < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + off, out_.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("send failed: ") +
                                 std::strerror(errno));
      }
      off += static_cast<std::size_t>(n);
    }
  }

  int fd() const { return fd_; }

  /// One read() into the line buffer (blocking unless the fd is readable).
  void read_once() {
    char chunk[65536];
    ssize_t n;
    do {
      n = ::read(fd_, chunk, sizeof(chunk));
    } while (n < 0 && errno == EINTR);
    if (n == 0) throw std::runtime_error("daemon closed the connection");
    if (n < 0)
      throw std::runtime_error(std::string("read failed: ") +
                               std::strerror(errno));
    buf_.append(chunk, static_cast<std::size_t>(n));
    arrival_ns_ = now_ns();
  }

  /// Blocks until at least one complete line is buffered, then calls
  /// on_line(line, arrival_ns) for every complete line; the arrival time is
  /// when the read that completed the line returned.
  template <typename OnLine>
  void receive_some(const OnLine& on_line) {
    while (buf_.find('\n', scan_) == std::string::npos) {
      scan_ = buf_.size();
      read_once();
    }
    dispatch(on_line);
  }

  /// Calls on_line for every complete buffered line (possibly none).
  template <typename OnLine>
  void dispatch(const OnLine& on_line) {
    std::size_t start = 0;
    std::size_t nl;
    while ((nl = buf_.find('\n', start)) != std::string::npos) {
      on_line(std::string_view(buf_).substr(start, nl - start), arrival_ns_);
      start = nl + 1;
    }
    buf_.erase(0, start);
    scan_ = 0;
  }

  std::string call(const std::string& line) {
    send_line(line);
    std::string response;
    receive_some([&](std::string_view l, std::int64_t) { response = l; });
    return response;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t scan_ = 0;
  std::int64_t arrival_ns_ = 0;
  std::string out_;
};

/// `esva serve` as a child process; stdout is a pipe (for the "listening"
/// line), stderr goes to the run's daemon log.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& bin, const std::vector<std::string>& args,
                const std::string& log_path)
      : log_path_(log_path) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(bin.c_str()));
    for (const std::string& a : args)
      argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    spawn_ns_ = now_ns();
    const int rc = ::posix_spawn(&pid_, bin.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      ::close(out_fd_);
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + bin + ": " +
                               std::strerror(rc));
    }
  }
  ~DaemonProcess() { kill_and_wait(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Seconds from the spawn to the "listening on" line.
  double wait_listening(double timeout_s) {
    std::string text;
    const std::int64_t deadline =
        spawn_ns_ + static_cast<std::int64_t>(timeout_s * 1e9);
    while (text.find("listening on") == std::string::npos) {
      const std::int64_t left_ms = (deadline - now_ns()) / 1'000'000;
      pollfd pfd{out_fd_, POLLIN, 0};
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(std::max<std::int64_t>(0, left_ms)));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0)
        throw std::runtime_error("daemon did not listen within " +
                                 std::to_string(timeout_s) + " s");
      char chunk[4096];
      const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0)
        throw std::runtime_error("daemon exited before listening: " +
                                 read_file(log_path_));
      text.append(chunk, static_cast<std::size_t>(n));
    }
    return static_cast<double>(now_ns() - spawn_ns_) * 1e-9;
  }

  /// The daemon's scheduler state and wait channel, for error messages.
  std::string describe() const {
    std::string out = "pid " + std::to_string(pid_);
    for (const char* file : {"wchan", "syscall"}) {
      std::ifstream in("/proc/" + std::to_string(pid_) + "/" + file);
      std::string text;
      std::getline(in, text);
      out += std::string(" ") + file + "=" + text;
    }
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line))
      if (line.rfind("State:", 0) == 0) out += " " + line;
    return out;
  }

  /// Peak resident set (VmHWM), MiB.
  double peak_rss_mb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line))
      if (line.rfind("VmHWM:", 0) == 0)
        return std::stod(line.substr(6)) / 1024.0;
    throw std::runtime_error("no VmHWM for the daemon");
  }

  void kill_and_wait() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

 private:
  std::string log_path_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::int64_t spawn_ns_ = 0;
};

std::vector<std::string> serve_args(const WorkloadSpec& spec,
                                    std::uint64_t seed, const RunPaths& p) {
  std::vector<std::string> args = {
      "serve", "--servers", p.servers_csv, "--socket", p.socket, "--wal",
      p.wal, "--wal-sync-every", std::to_string(spec.wal_sync_every),
      "--seed", std::to_string(seed), "--threads", "1", "--retry-max",
      std::to_string(spec.retry_max)};
  if (!p.snapshot.empty()) {
    args.insert(args.end(), {"--snapshot", p.snapshot, "--snapshot-every",
                             std::to_string(spec.snapshot_every)});
  }
  return args;
}

/// Parsed fields of a `stats` response.
struct Stats {
  std::uint64_t wal_seq = 0;
  double energy = 0;
  std::vector<std::pair<VmId, ServerId>> assignment;
};

Stats parse_stats(const std::string& line) {
  if (!is_ok(line)) throw std::runtime_error("stats failed: " + line);
  const json::Value root = json::parse(line);
  Stats stats;
  stats.wal_seq = std::stoull(json::require_string(root, "wal_seq", "stats"));
  stats.energy = serve::require_number_or_hex(root, "energy_hex", "stats");
  if (const json::Value* a = root.find("assignment")) {
    stats.assignment.reserve(a->array.size());
    for (const json::Value& pair : a->array) {
      if (pair.array.size() != 2)
        throw std::runtime_error("stats: malformed assignment pair");
      stats.assignment.emplace_back(
          static_cast<VmId>(pair.array[0].number),
          static_cast<ServerId>(pair.array[1].number));
    }
  }
  return stats;
}

/// Sends ops [begin, end) keeping `window` requests in flight; stores the
/// responses. Returns, for each of `slices` equal slices of the range in
/// order, the seconds from the first send to the slice's last response.
std::vector<double> closed_loop(Conn& conn, const Inputs& in, std::size_t begin,
                                std::size_t end, int window, RoundResult& r,
                                std::size_t slices = 1) {
  const std::int64_t t0 = now_ns();
  std::size_t next = begin;
  std::size_t done = begin;
  std::vector<double> ends;
  const auto slice_end = [&](std::size_t k) {
    return begin + (end - begin) * (k + 1) / slices;
  };
  const std::size_t w = static_cast<std::size_t>(std::max(1, window));
  for (; next < end && next - begin < w; ++next)
    conn.send_line(in.ops[next].line);
  while (done < end) {
    std::size_t arrived = 0;
    conn.receive_some([&](std::string_view line, std::int64_t t) {
      r.responses[done + arrived] = line;
      ++arrived;
      while (ends.size() < slices && done + arrived >= slice_end(ends.size()))
        ends.push_back(static_cast<double>(t - t0) * 1e-9);
    });
    done += arrived;
    for (std::size_t k = 0; k < arrived && next < end; ++k, ++next)
      conn.send_line(in.ops[next].line);
  }
  return ends;
}

/// Sends ops [begin, end) at t0 + open_offsets_s[i]; a receiver thread
/// timestamps the responses.
void open_loop(Conn& conn, const Inputs& in, std::size_t begin,
               std::size_t end, RoundResult& r) {
  const std::size_t n = end - begin;
  std::vector<std::int64_t> due(n), sent(n), acked(n);
  std::exception_ptr receiver_error;
  std::thread receiver([&] {
    try {
      std::size_t got = 0;
      while (got < n)
        conn.receive_some([&](std::string_view line, std::int64_t t) {
          r.responses[begin + got] = line;
          acked[got] = t;
          ++got;
        });
    } catch (...) {
      receiver_error = std::current_exception();
    }
  });
  const std::int64_t t0 = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = t0 + static_cast<std::int64_t>(in.open_offsets_s[i] * 1e9);
    wait_until(due[i]);
    sent[i] = now_ns();
    conn.send_line(in.ops[begin + i].line);
  }
  receiver.join();
  if (receiver_error) std::rethrow_exception(receiver_error);
  r.ack_ms.resize(n);
  r.late_ms.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    r.late_ms[i] = ns_to_ms(sent[i] - due[i]);
    r.ack_ms[i] = is_ok(r.responses[begin + i])
                      ? ns_to_ms(acked[i] - due[i])
                      : std::numeric_limits<double>::infinity();
  }
}

/// The reader connection: `stats` sent at a fixed rate until `stop`, without
/// waiting for earlier answers (an open loop), each timed from its due time.
class Reader {
 public:
  Reader(const std::string& socket, double hz) : conn_(socket), hz_(hz) {
    thread_ = std::thread([this] { loop(); });
  }
  /// Joins without rethrowing (stop() reports the thread's failure).
  ~Reader() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    if (error_) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      std::rethrow_exception(e);
    }
  }
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  std::int64_t failed() const { return failed_; }

 private:
  void loop() {
    try {
      const std::int64_t t0 = now_ns();
      const double period_ns = 1e9 / hz_;
      std::deque<std::int64_t> outstanding;  // due times, in send order
      std::int64_t k = 0;
      const auto due_of = [&](std::int64_t i) {
        return t0 +
               static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
      };
      for (;;) {
        // One read of the flag per pass: once stopping, block only for the
        // answers still owed (the socket's receive timeout bounds that
        // wait), and never for an answer that is not coming.
        const bool stopping = stop_.load();
        if (stopping && outstanding.empty()) break;
        if (!stopping) {
          std::int64_t now = now_ns();
          while (due_of(k) <= now) {
            conn_.send_line(R"({"op":"stats"})");
            outstanding.push_back(due_of(k++));
            now = now_ns();
          }
          // Sleep until the next send or a response, whichever comes first.
          const std::int64_t wait_ns = due_of(k) - now;
          const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                                 static_cast<long>(wait_ns % 1'000'000'000)};
          pollfd pfd{conn_.fd(), POLLIN, 0};
          const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
          if (ready < 0 && errno != EINTR)
            throw std::runtime_error("reader poll failed");
          if (ready <= 0) continue;
        }
        conn_.read_once();
        conn_.dispatch([&](std::string_view line, std::int64_t t) {
          if (outstanding.empty())
            throw std::runtime_error("reader: unsolicited response");
          latencies_ms_.push_back(ns_to_ms(t - outstanding.front()));
          outstanding.pop_front();
          if (!is_ok(line)) ++failed_;
        });
      }
    } catch (...) {
      error_ = std::current_exception();
    }
  }

  Conn conn_;
  double hz_;
  std::atomic<bool> stop_{false};
  std::vector<double> latencies_ms_;
  std::int64_t failed_ = 0;
  std::exception_ptr error_;
  std::thread thread_;
};

}  // namespace

RunPaths RunPaths::under(const std::string& dir, const WorkloadSpec& spec) {
  std::filesystem::create_directories(dir);
  RunPaths p;
  p.dir = dir;
  p.servers_csv = dir + "/servers.csv";
  p.socket = dir + "/d.sock";
  p.wal = dir + "/serve.wal";
  if (spec.snapshot_every > 0) p.snapshot = dir + "/serve.snap";
  p.daemon_log = dir + "/daemon.log";
  return p;
}

void RunPaths::clear_state() const {
  for (const std::string& f : {wal, snapshot, snapshot + ".tmp", socket})
    if (!f.empty()) std::filesystem::remove(f);
}

serve::DaemonOptions daemon_options(const WorkloadSpec& spec,
                                    std::uint64_t seed, const std::string& wal,
                                    const std::string& snapshot) {
  serve::DaemonOptions o;
  o.allocator = "min-incremental";
  o.seed = seed;
  o.wal_path = wal;
  o.snapshot_path = snapshot;
  o.wal_sync_every = spec.wal_sync_every;
  o.snapshot_every = snapshot.empty()
                         ? 0
                         : static_cast<std::uint64_t>(spec.snapshot_every);
  o.retry.max_attempts = spec.retry_max;
  o.scan.threads = 1;
  return o;
}

RoundResult run_round(const WorkloadSpec& spec, std::uint64_t seed,
                      const Inputs& in, const RunPaths& paths,
                      const std::string& esva_bin, bool latency) {
  constexpr double kListenTimeoutS = 60.0;
  RoundResult r;
  paths.clear_state();
  const std::vector<std::string> args = serve_args(spec, seed, paths);
  const std::size_t warm = static_cast<std::size_t>(spec.warmup_ops);
  const std::size_t closed_end =
      warm + static_cast<std::size_t>(spec.closed_ops);
  const std::size_t total = in.ops.size();
  r.responses.resize(total);

  // Set-up is short next to the host's noise, so it is sampled several times
  // per round: kSetupSamples spawns on an empty WAL, the last one serves.
  constexpr int kSetupSamples = 3;
  for (int k = 1; k < kSetupSamples; ++k) {
    DaemonProcess probe(esva_bin, args, paths.daemon_log);
    r.setup_s.push_back(probe.wait_listening(kListenTimeoutS));
    probe.kill_and_wait();
    paths.clear_state();
  }
  DaemonProcess daemon(esva_bin, args, paths.daemon_log);
  r.setup_s.push_back(daemon.wait_listening(kListenTimeoutS));
  Stats final_stats;
  const char* phase = "warm-up";
  try {
    Conn writer(paths.socket);
    closed_loop(writer, in, 0, warm, spec.window, r);
    if (latency) {
      Reader reader(paths.socket, spec.reader_hz);
      phase = "closed loop";
      const double closed_s =
          closed_loop(writer, in, warm, closed_end, spec.window, r).back();
      r.ops_rps = static_cast<double>(closed_end - warm) / closed_s;
      phase = "open loop";
      open_loop(writer, in, closed_end, total, r);
      phase = "reader drain";
      reader.stop();
      r.stats_ms = reader.latencies_ms();
      r.attempted += static_cast<std::int64_t>(r.stats_ms.size());
      r.failed += reader.failed();
    } else {
      phase = "closed loop";
      r.closed_ends_s =
          closed_loop(writer, in, warm, total, spec.window, r, kClosedSlices);
      r.ops_rps = static_cast<double>(total - warm) / r.closed_ends_s.back();
    }
    r.rss_mb = daemon.peak_rss_mb();
    phase = "final stats";
    final_stats =
        parse_stats(writer.call(R"({"op":"stats","assignment":true})"));
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string(e.what()) + " (" + phase +
                             "; daemon " + daemon.describe() + ")");
  }
  daemon.kill_and_wait();

  r.attempted += static_cast<std::int64_t>(total);
  for (std::size_t i = 0; i < total; ++i) {
    r.request_bytes += static_cast<std::int64_t>(in.ops[i].line.size() + 1);
    r.response_bytes += static_cast<std::int64_t>(r.responses[i].size() + 1);
    if (!is_ok(r.responses[i])) ++r.failed;
  }
  r.final_seq = final_stats.wal_seq;
  r.final_energy = final_stats.energy;
  r.assignment = std::move(final_stats.assignment);

  if (latency) {
    const auto copy = std::filesystem::copy_options::overwrite_existing;
    std::filesystem::copy_file(paths.wal, paths.dir + "/crash.wal", copy);
    std::filesystem::remove(paths.dir + "/crash.snap");
    if (!paths.snapshot.empty() && std::filesystem::exists(paths.snapshot))
      std::filesystem::copy_file(paths.snapshot, paths.dir + "/crash.snap",
                                 copy);
  }

  // The daemon is killed while idle and a restart appends nothing, so every
  // restart replays the same journal and must reach the same state.
  for (int k = 0; k < kRecoverySamples; ++k) {
    DaemonProcess restarted(esva_bin, args, paths.daemon_log);
    r.recovery_s.push_back(restarted.wait_listening(kListenTimeoutS));
    Conn conn(paths.socket);
    const Stats recovered = parse_stats(conn.call(R"({"op":"stats"})"));
    if (k == 0) {
      r.recovered_seq = recovered.wal_seq;
      r.recovered_energy = recovered.energy;
    }
    r.restarts_agree = r.restarts_agree &&
                       recovered.wal_seq == r.recovered_seq &&
                       recovered.energy == r.recovered_energy;
  }
  return r;
}

std::string filesystem_type(const std::string& path) {
  struct statfs fs{};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794c7630UL: return "overlayfs";
    default: break;
  }
  std::ostringstream hex;
  hex << "0x" << std::hex << static_cast<unsigned long>(fs.f_type);
  return hex.str();
}

}  // namespace esva::bench
