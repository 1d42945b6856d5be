// The serve daemon's halt path and its recovery reads, driven by an I/O
// fault shim.
//
// This binary defines write(), fsync() and read(), so every call the esva
// library makes resolves here first. A call on any file but the armed one
// (matched by device and inode: the journal, a snapshot, a `.tmp`, or their
// directory) passes straight through to the next definition
// (dlsym(RTLD_NEXT): libc, or a sanitizer's interceptor). On the armed file
// the shim fails the k-th write with ENOSPC or EIO, makes it short (half the
// bytes, then ENOSPC on the next write), fails the k-th fsync with EIO, or
// cuts every read short and fails the k-th with EIO. It can also hold a
// journal write until the test releases it, which lines up requests on two
// connections for one poll round.
//
// Each fault runs at --wal-sync-every 1 and 4, through handle_line (a round
// of one line) and through serve_loop (one round of two connections). No
// response of the failing round may be ok:true, later requests are refused,
// serve_loop returns 1, no snapshot is written, and a restart without
// faults recovers every acked op — at the energy a fault-free daemon had at
// the recovered seq — dropping and truncating a torn tail. ENOSPC on a
// write, a short write or EIO on fsync of the snapshot's `.tmp` fails only
// the explicit snapshot op, and so does a failed fsync of its directory,
// which leaves the journal uncompacted. A failed write or fsync of the fresh
// journal a compaction writes is logged and keeps the old journal; a failed
// fsync of the journal's directory after the rename halts the daemon. A new
// journal is created the same way, and any of those faults while a fresh
// daemon creates it makes the Daemon constructor throw. A read error while
// recovery reads the journal or the snapshot makes the Daemon constructor
// throw and changes neither file.
//
// The binary also counts allocations (counting_new.h): read_wal's
// allocation bound below needs no timing, so it holds on every build.

#include <dlfcn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "counting_new.h"
#include "serve/daemon.h"
#include "serve/journal.h"
#include "serve/wire.h"
#include "test_util.h"
#include "util/logging.h"
#include "util/rng.h"

namespace esva::faultshim {

enum class Fault { kWriteErrno, kShortWrite, kFsyncEio, kReadEio };

/// The most bytes an armed read() returns, so a file takes many calls.
constexpr std::size_t kShortRead = 97;

struct State {
  std::mutex mu;
  std::condition_variable cv;
  bool armed = false;
  dev_t dev = 0;
  ino_t ino = 0;
  Fault fault = Fault::kWriteErrno;
  int err = 0;
  /// Armed-file calls of the faulted kind (writes, fsyncs or reads) up to
  /// and including the failing one; 0 fails none.
  int countdown = 0;
  /// The write after a short one fails with ENOSPC.
  bool fail_next_write = false;
  bool hold = false;  ///< hold the next journal write until release()
  bool held = false;  ///< a journal write waits at the gate
};

State& state() {
  static State s;
  return s;
}

template <typename Fn>
Fn next_definition(const char* name) {
  return reinterpret_cast<Fn>(::dlsym(RTLD_NEXT, name));
}

/// Whether `fd` is the armed file; the caller holds the lock.
bool is_armed(const State& s, int fd) {
  if (!s.armed) return false;
  struct stat st{};
  return ::fstat(fd, &st) == 0 && st.st_dev == s.dev && st.st_ino == s.ino;
}

/// The k-th write (fsync for kFsyncEio, read for kReadEio) from now on the
/// file at `path` fails as `fault`.
void arm(const std::string& path, Fault fault, int k, int err = 0) {
  struct stat st{};
  ASSERT_EQ(::stat(path.c_str(), &st), 0) << path;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.armed = true;
  s.dev = st.st_dev;
  s.ino = st.st_ino;
  s.fault = fault;
  s.err = err;
  s.countdown = k;
  s.fail_next_write = false;
}

void disarm() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.armed = false;
  s.fail_next_write = false;
}

void hold_next_write() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.hold = true;
}

bool wait_until_held() {
  State& s = state();
  std::unique_lock<std::mutex> lock(s.mu);
  return s.cv.wait_for(lock, std::chrono::seconds(30), [&] { return s.held; });
}

void release() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.hold = false;
  s.cv.notify_all();
}

}  // namespace esva::faultshim

extern "C" ssize_t write(int fd, const void* buf, size_t count) {
  using esva::faultshim::Fault;
  static const auto real =
      esva::faultshim::next_definition<ssize_t (*)(int, const void*, size_t)>(
          "write");
  esva::faultshim::State& s = esva::faultshim::state();
  std::unique_lock<std::mutex> lock(s.mu);
  if (!esva::faultshim::is_armed(s, fd)) {
    lock.unlock();
    return real(fd, buf, count);
  }
  if (s.hold) {
    s.held = true;
    s.cv.notify_all();
    s.cv.wait(lock, [&] { return !s.hold; });
    s.held = false;
  }
  if (s.fail_next_write) {
    s.fail_next_write = false;
    errno = ENOSPC;
    return -1;
  }
  if ((s.fault == Fault::kWriteErrno || s.fault == Fault::kShortWrite) &&
      s.countdown > 0 && --s.countdown == 0) {
    if (s.fault == Fault::kWriteErrno) {
      errno = s.err;
      return -1;
    }
    s.fail_next_write = true;
    count /= 2;
  }
  lock.unlock();
  return real(fd, buf, count);
}

extern "C" int fsync(int fd) {
  using esva::faultshim::Fault;
  static const auto real =
      esva::faultshim::next_definition<int (*)(int)>("fsync");
  esva::faultshim::State& s = esva::faultshim::state();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (esva::faultshim::is_armed(s, fd) && s.fault == Fault::kFsyncEio &&
        s.countdown > 0 && --s.countdown == 0) {
      errno = EIO;
      return -1;
    }
  }
  return real(fd);
}

extern "C" ssize_t read(int fd, void* buf, size_t count) {
  using esva::faultshim::Fault;
  static const auto real =
      esva::faultshim::next_definition<ssize_t (*)(int, void*, size_t)>(
          "read");
  esva::faultshim::State& s = esva::faultshim::state();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.fault == Fault::kReadEio && esva::faultshim::is_armed(s, fd)) {
      if (s.countdown > 0 && --s.countdown == 0) {
        errno = EIO;
        return -1;
      }
      count = std::min(count, esva::faultshim::kShortRead);
    }
  }
  return real(fd, buf, count);
}

namespace esva {
namespace {

using faultshim::Fault;
using serve::Daemon;
using serve::DaemonOptions;

struct Case {
  const char* name;
  Fault fault;
  int err;
  int sync_every;
};

// Names the case in test listings (gtest would print its bytes).
void PrintTo(const Case& c, std::ostream* out) { *out << c.name; }

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/esva_faults_" + std::to_string(::getpid()) +
         "_" + name;
}

bool exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

bool is_ok(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

/// The error a line gets once the daemon halted: it echoes the line's id.
bool is_halt_error(const std::string& response, std::size_t id) {
  return response.rfind("{\"ok\":false,\"id\":" + std::to_string(id) +
                            ",\"error\":\"daemon halted: ",
                        0) == 0;
}

/// Forty places in start order, request k carrying id k; each journals one
/// record, so line k is seq k + 1.
struct Workload {
  std::vector<ServerSpec> servers;
  std::vector<std::string> lines;
};

Workload make_workload() {
  Rng rng(0xfa11);
  const ProblemInstance problem = testing::random_problem(rng, 40, 5);
  Workload w;
  w.servers = problem.servers;
  for (const std::size_t j : order_by_start(problem.vms)) {
    serve::Request req;
    req.op = serve::OpKind::kPlace;
    req.vm = problem.vms[j];
    req.has_id = true;
    req.id = static_cast<long long>(w.lines.size());
    w.lines.push_back(serve::encode_request(req));
  }
  return w;
}

DaemonOptions daemon_options(const std::string& tag, int sync_every) {
  DaemonOptions o;
  o.seed = 42;
  o.wal_sync_every = sync_every;
  o.wal_path = temp_path(tag + ".wal");
  o.snapshot_path = temp_path(tag + ".snap");
  testing::remove_journal(o.wal_path);
  ::unlink(o.snapshot_path.c_str());
  return o;
}

/// Energy after each seq of a fault-free daemon fed every line: [0] is the
/// empty engine.
std::vector<Energy> reference_energies(const Workload& w) {
  const DaemonOptions o = daemon_options("reference", 1);
  Daemon daemon(w.servers, o);
  std::vector<Energy> energy{daemon.engine().total_energy()};
  for (const std::string& line : w.lines) {
    EXPECT_TRUE(is_ok(daemon.handle_line(line)));
    energy.push_back(daemon.engine().total_energy());
  }
  testing::remove_journal(o.wal_path);
  return energy;
}

/// A restart without faults recovers a seq in [lowest, highest] at the
/// reference energy, drops and truncates a torn tail exactly when the file
/// ends mid-line, and takes one more op that a further restart reads back.
void expect_recovery(const Workload& w, const DaemonOptions& o,
                     std::uint64_t lowest, std::uint64_t highest) {
  const std::vector<Energy> reference = reference_energies(w);
  const std::string before = read_file(o.wal_path);
  const bool torn = !before.empty() && before.back() != '\n';
  std::uint64_t seq = 0;
  {
    Daemon recovered(w.servers, o);
    seq = recovered.last_seq();
    EXPECT_GE(seq, lowest);
    EXPECT_LE(seq, highest);
    ASSERT_LT(seq, w.lines.size());
    EXPECT_EQ(recovered.engine().total_energy(), reference[seq]);
    EXPECT_EQ(recovered.recovered_torn_tail(), torn);
    const std::string after = read_file(o.wal_path);
    EXPECT_EQ(after.size(), serve::read_wal(o.wal_path).valid_bytes);
    EXPECT_EQ(before.compare(0, after.size(), after), 0)
        << "recovery may only cut the torn tail";
    EXPECT_TRUE(is_ok(recovered.handle_line(w.lines[seq])));
  }
  Daemon again(w.servers, o);
  EXPECT_FALSE(again.recovered_torn_tail());
  EXPECT_EQ(again.last_seq(), seq + 1);
  EXPECT_EQ(again.engine().total_energy(), reference[seq + 1]);
}

class JournalFault : public ::testing::TestWithParam<Case> {
 protected:
  void TearDown() override { faultshim::disarm(); }
};

TEST_P(JournalFault, HandleLineHaltsAndKeepsTheAckedPrefix) {
  const Case& c = GetParam();
  const Workload w = make_workload();
  const DaemonOptions o =
      daemon_options(std::string("line_") + c.name, c.sync_every);
  constexpr std::size_t kWarm = 5;
  std::uint64_t acked = 0;
  std::uint64_t applied = 0;
  {
    Daemon daemon(w.servers, o);
    for (std::size_t k = 0; k < kWarm; ++k)
      ASSERT_TRUE(is_ok(daemon.handle_line(w.lines[k])));
    acked = daemon.last_seq();
    faultshim::arm(o.wal_path, c.fault, 1, c.err);
    std::size_t k = kWarm;
    std::string failed;
    for (; k + 1 < w.lines.size(); ++k) {
      failed = daemon.handle_line(w.lines[k]);
      if (!is_ok(failed)) break;
      acked = daemon.last_seq();  // acked only once its record is written
    }
    faultshim::disarm();
    ASSERT_LT(k + 1, w.lines.size()) << "the fault never fired";
    EXPECT_TRUE(is_halt_error(failed, k)) << failed;
    EXPECT_TRUE(daemon.halted());
    applied = daemon.last_seq();
    EXPECT_EQ(applied, acked + 1);
    const std::string later = daemon.handle_line(w.lines[k + 1]);
    EXPECT_TRUE(is_halt_error(later, k + 1)) << later;
    EXPECT_EQ(daemon.last_seq(), applied) << "a halted daemon applied an op";
    EXPECT_THROW(daemon.checkpoint(), std::runtime_error);
    EXPECT_THROW(daemon.drain(), std::runtime_error);
  }
  EXPECT_FALSE(exists(o.snapshot_path)) << "a halted daemon took a snapshot";
  // A failed write leaves nothing of its record but a torn fragment; after a
  // failed fsync the record is in the file.
  const std::uint64_t expected = c.fault == Fault::kFsyncEio ? applied : acked;
  expect_recovery(w, o, expected, expected);
  testing::remove_journal(o.wal_path);
}

// --- serve_loop: one round of two connections --------------------------------

int connect_to(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  // A daemon that stops answering fails the test instead of hanging it.
  timeval tv{};
  tv.tv_sec = 30;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// The next response line on `fd`; empty at EOF or on a timeout.
std::string read_line(int fd) {
  std::string out;
  char ch = 0;
  for (;;) {
    const ssize_t n = ::read(fd, &ch, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 || ch == '\n') return out;
    out += ch;
  }
}

TEST_P(JournalFault, ServeLoopHaltsTheWholeRound) {
  const Case& c = GetParam();
  const Workload w = make_workload();
  const DaemonOptions o =
      daemon_options(std::string("loop_") + c.name, c.sync_every);
  const std::string socket_path = temp_path(std::string(c.name) + ".sock");
  ::unlink(socket_path.c_str());
  {
    // Recovery below runs once this daemon has released the journal.
    auto daemon = std::make_unique<Daemon>(w.servers, o);
    std::atomic<int> rc{-1};
    std::atomic<bool> stop{false};
    std::atomic<bool> listening{false};
    std::thread server([&] {
      try {
        rc = daemon->serve_loop(socket_path, stop,
                                [&] { listening.store(true); });
      } catch (const std::exception& e) {
        ADD_FAILURE() << "serve_loop: " << e.what();
        listening.store(true);
      }
    });
    // Stops and joins the loop on every exit from this scope, a failed
    // assertion included; a daemon that failed to halt stops here.
    struct Joiner {
      std::atomic<bool>& stop;
      std::thread& server;
      void operator()() {
        stop.store(true);
        faultshim::release();
        if (server.joinable()) server.join();
      }
      ~Joiner() { (*this)(); }
    } join_server{stop, server};
    while (!listening.load()) std::this_thread::yield();

    // Accepted in this order, so a round reads a before b.
    const int a = connect_to(socket_path);
    const int b = connect_to(socket_path);
    const int p = connect_to(socket_path);
    ASSERT_GE(a, 0);
    ASSERT_GE(b, 0);
    ASSERT_GE(p, 0);
    for (const int fd : {a, b, p}) {
      ASSERT_TRUE(send_all(fd, "{\"op\":\"stats\"}\n"));
      ASSERT_TRUE(is_ok(read_line(fd)));
    }
    ASSERT_TRUE(send_all(p, w.lines[0] + "\n"));
    EXPECT_TRUE(is_ok(read_line(p)));

    // Hold p's next round in its journal write while a and b queue two
    // places each, so the round after it holds both connections. It is the
    // second journal write from here, and at N = 1 also the second fsync;
    // at N = 4 its six records cross the fsync boundary for the first time.
    const int k = c.fault == Fault::kFsyncEio && c.sync_every > 1 ? 1 : 2;
    faultshim::arm(o.wal_path, c.fault, k, c.err);
    faultshim::hold_next_write();
    ASSERT_TRUE(send_all(p, w.lines[1] + "\n"));
    ASSERT_TRUE(faultshim::wait_until_held());
    ASSERT_TRUE(send_all(a, w.lines[2] + "\n" + w.lines[3] + "\n"));
    ASSERT_TRUE(send_all(b, w.lines[4] + "\n" + w.lines[5] + "\n"));
    faultshim::release();

    EXPECT_TRUE(is_ok(read_line(p)));
    const std::uint64_t acked = 2;
    for (const auto& [fd, first] : {std::pair{a, 2}, std::pair{b, 4}}) {
      for (int j = first; j < first + 2; ++j) {
        const std::string response = read_line(fd);
        EXPECT_TRUE(is_halt_error(response, static_cast<std::size_t>(j)))
            << response;
      }
    }
    join_server();
    faultshim::disarm();
    EXPECT_EQ(rc.load(), 1);
    EXPECT_TRUE(daemon->halted());
    const std::uint64_t applied = daemon->last_seq();
    EXPECT_EQ(applied, 6u);
    EXPECT_TRUE(is_halt_error(daemon->handle_line(w.lines[6]), 6));
    EXPECT_THROW(daemon->checkpoint(), std::runtime_error);
    for (const int fd : {a, b, p}) ::close(fd);
    daemon.reset();

    EXPECT_FALSE(exists(o.snapshot_path)) << "a halted daemon took a snapshot";
    // A failed write leaves the round's records out of the file, a short
    // one may leave some of them whole, and after a failed fsync all of
    // them are in the file.
    expect_recovery(w, o, c.fault == Fault::kFsyncEio ? applied : acked,
                    c.fault == Fault::kWriteErrno ? acked : applied);
  }
  testing::remove_journal(o.wal_path);
  ::unlink(socket_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Faults, JournalFault,
    ::testing::Values(Case{"write_enospc_n1", Fault::kWriteErrno, ENOSPC, 1},
                      Case{"write_eio_n1", Fault::kWriteErrno, EIO, 1},
                      Case{"short_write_n1", Fault::kShortWrite, 0, 1},
                      Case{"fsync_eio_n1", Fault::kFsyncEio, 0, 1},
                      Case{"write_enospc_n4", Fault::kWriteErrno, ENOSPC, 4},
                      Case{"write_eio_n4", Fault::kWriteErrno, EIO, 4},
                      Case{"short_write_n4", Fault::kShortWrite, 0, 4},
                      Case{"fsync_eio_n4", Fault::kFsyncEio, 0, 4}),
    [](const ::testing::TestParamInfo<Case>& param) {
      return std::string(param.param.name);
    });

// The sync that runs before a periodic snapshot halts the daemon like a
// round's commit: the snapshot is never written.
TEST(JournalFaultSnapshot, FailedSyncBeforeAPeriodicSnapshotHalts) {
  const Workload w = make_workload();
  for (const Fault fault : {Fault::kWriteErrno, Fault::kFsyncEio}) {
    DaemonOptions o = daemon_options("periodic", 1);
    o.snapshot_every = 3;
    std::uint64_t applied = 0;
    {
      Daemon daemon(w.servers, o);
      ASSERT_TRUE(is_ok(daemon.handle_line(w.lines[0])));
      ASSERT_TRUE(is_ok(daemon.handle_line(w.lines[1])));
      faultshim::arm(o.wal_path, fault, 1, ENOSPC);
      const std::string response = daemon.handle_line(w.lines[2]);
      faultshim::disarm();
      EXPECT_TRUE(is_halt_error(response, 2)) << response;
      EXPECT_NE(response.find("journal I/O failed"), std::string::npos)
          << response;
      applied = daemon.last_seq();
      EXPECT_EQ(applied, 3u);
    }
    EXPECT_FALSE(exists(o.snapshot_path));
    const std::uint64_t expected = fault == Fault::kFsyncEio ? 3 : 2;
    expect_recovery(w, o, expected, expected);
    testing::remove_journal(o.wal_path);
  }
}

// --- the snapshot file's own write and fsync ----------------------------------

// An explicit snapshot whose file cannot be written answers ok:false naming
// the failed step, the `.tmp` and the error, and nothing else changes: the
// journal is intact, so the daemon is not halted, the previous snapshot
// stays as it was, the `.tmp` is removed and later places are acked.
// `<snapshot>.tmp` is created first so the shim can be armed on its inode,
// which the O_TRUNC open keeps.
TEST(SnapshotFileFault, ExplicitSnapshotNamesTheErrorAndKeepsServing) {
  struct FileFault {
    Fault fault;
    int err;
    const char* step;
    const char* strerror;
  };
  const FileFault faults[] = {
      {Fault::kWriteErrno, ENOSPC, "write", "No space left on device"},
      {Fault::kShortWrite, 0, "write", "No space left on device"},
      {Fault::kFsyncEio, 0, "fsync", "Input/output error"},
  };
  const std::string snapshot_op = "{\"op\":\"snapshot\"}";
  const Workload w = make_workload();
  const DaemonOptions o = daemon_options("snapshot_file", 1);
  const std::string tmp = o.snapshot_path + ".tmp";
  std::size_t next = 0;
  std::uint64_t seq = 0;
  Energy energy = 0.0;
  {
    Daemon daemon(w.servers, o);
    ASSERT_TRUE(is_ok(daemon.handle_line(w.lines[next++])));
    ASSERT_TRUE(is_ok(daemon.handle_line(snapshot_op)));
    const std::string previous = read_file(o.snapshot_path);
    ASSERT_FALSE(previous.empty());
    for (const FileFault& f : faults) {
      ASSERT_TRUE(is_ok(daemon.handle_line(w.lines[next++])));
      std::ofstream(tmp).close();
      faultshim::arm(tmp, f.fault, 1, f.err);
      const std::string response = daemon.handle_line(snapshot_op);
      faultshim::disarm();
      const std::string error = std::string("cannot ") + f.step +
                                " snapshot '" + tmp + "': " + f.strerror;
      EXPECT_FALSE(is_ok(response)) << response;
      EXPECT_NE(response.find(error), std::string::npos) << response;
      EXPECT_FALSE(daemon.halted()) << daemon.fatal_error();
      EXPECT_EQ(read_file(o.snapshot_path), previous) << error;
      EXPECT_FALSE(exists(tmp)) << error;
      EXPECT_TRUE(is_ok(daemon.handle_line(w.lines[next++]))) << error;
    }
    const std::string response = daemon.handle_line(snapshot_op);
    EXPECT_TRUE(is_ok(response)) << response;
    EXPECT_NE(read_file(o.snapshot_path), previous);
    EXPECT_FALSE(exists(tmp));
    seq = daemon.last_seq();
    energy = daemon.engine().total_energy();
  }
  Daemon restarted(w.servers, o);
  EXPECT_TRUE(restarted.recovered_from_snapshot());
  EXPECT_EQ(restarted.replayed_records(), 0u);
  EXPECT_EQ(restarted.last_seq(), seq);
  EXPECT_EQ(serve::hex_double(restarted.engine().total_energy()),
            serve::hex_double(energy));
  testing::remove_journal(o.wal_path);
  ::unlink(o.snapshot_path.c_str());
}

/// Records of the journal at `path`, and the seq it starts after.
std::pair<std::size_t, std::uint64_t> journal_shape(const std::string& path) {
  const serve::WalFile wal = serve::read_wal(path);
  return {wal.records.size(), wal.header.after};
}

// The snapshot's rename must be durable before compaction relies on it: a
// failed fsync of its directory fails the snapshot, so the journal is not
// compacted. The explicit op answers ok:false naming the error; a periodic
// snapshot logs it and the op that triggered it is acked. The daemon keeps
// serving, and a restart recovers every op.
TEST(SnapshotFileFault,
     FailedDirectoryFsyncFailsTheSnapshotAndKeepsTheJournal) {
  const Workload w = make_workload();
  DaemonOptions o = daemon_options("snapshot_dir", 1);
  o.snapshot_every = 3;
  const std::string error = "cannot fsync snapshot directory";
  const LogLevel level = log_level();
  set_log_level(LogLevel::Warn);
  std::uint64_t seq = 0;
  Energy energy = 0.0;
  {
    Daemon daemon(w.servers, o);
    ASSERT_TRUE(is_ok(daemon.handle_line(w.lines[0])));
    faultshim::arm(::testing::TempDir(), Fault::kFsyncEio, 1);
    const std::string snapshot = daemon.handle_line("{\"op\":\"snapshot\"}");
    faultshim::disarm();
    EXPECT_FALSE(is_ok(snapshot)) << snapshot;
    EXPECT_NE(snapshot.find(error), std::string::npos) << snapshot;
    EXPECT_EQ(journal_shape(o.wal_path), std::make_pair(std::size_t{1},
                                                        std::uint64_t{0}));
    ASSERT_TRUE(is_ok(daemon.handle_line(w.lines[1])));
    faultshim::arm(::testing::TempDir(), Fault::kFsyncEio, 1);
    ::testing::internal::CaptureStderr();
    const std::string periodic = daemon.handle_line(w.lines[2]);
    const std::string log = ::testing::internal::GetCapturedStderr();
    faultshim::disarm();
    EXPECT_TRUE(is_ok(periodic)) << periodic;
    EXPECT_NE(log.find("periodic snapshot failed: " + error),
              std::string::npos)
        << log;
    EXPECT_FALSE(daemon.halted());
    EXPECT_EQ(journal_shape(o.wal_path), std::make_pair(std::size_t{3},
                                                        std::uint64_t{0}));
    ASSERT_TRUE(is_ok(daemon.handle_line(w.lines[3])));
    seq = daemon.last_seq();
    energy = daemon.engine().total_energy();
  }
  set_log_level(level);
  Daemon restarted(w.servers, o);
  EXPECT_EQ(restarted.last_seq(), seq);
  EXPECT_EQ(restarted.engine().total_energy(), energy);
  testing::remove_journal(o.wal_path);
  ::unlink(o.snapshot_path.c_str());
}

// A compaction writes the fresh journal to `<wal>.tmp` and fsyncs it before
// the rename. A failed write or fsync there changes nothing at --wal: the
// daemon logs it, acks the op (a periodic snapshot's op and the explicit
// snapshot op alike), goes on appending to the whole journal, and a restart
// recovers every op. `<wal>.tmp` is created first so the shim can be armed
// on its inode, which the O_TRUNC open keeps.
TEST(CompactionFault, FailureBeforeTheRenameKeepsTheWholeJournal) {
  struct FileFault {
    Fault fault;
    int err;
    const char* error;
  };
  const FileFault faults[] = {
      {Fault::kWriteErrno, ENOSPC, "cannot write fresh wal"},
      {Fault::kShortWrite, 0, "cannot write fresh wal"},
      {Fault::kFsyncEio, 0, "cannot fsync fresh wal"},
  };
  const Workload w = make_workload();
  const LogLevel level = log_level();
  set_log_level(LogLevel::Warn);
  for (const FileFault& f : faults) {
    DaemonOptions o = daemon_options("compaction_tmp", 1);
    o.snapshot_every = 2;
    const std::string tmp = o.wal_path + ".tmp";
    std::uint64_t seq = 0;
    Energy energy = 0.0;
    {
      Daemon daemon(w.servers, o);
      ASSERT_TRUE(is_ok(daemon.handle_line(w.lines[0])));
      for (const std::string& line :
           {w.lines[1], std::string("{\"op\":\"snapshot\"}")}) {
        std::ofstream(tmp).close();
        faultshim::arm(tmp, f.fault, 1, f.err);
        ::testing::internal::CaptureStderr();
        const std::string response = daemon.handle_line(line);
        const std::string log = ::testing::internal::GetCapturedStderr();
        faultshim::disarm();
        EXPECT_TRUE(is_ok(response)) << f.error << ": " << response;
        EXPECT_NE(log.find("journal compaction failed"), std::string::npos)
            << log;
        EXPECT_NE(log.find(f.error), std::string::npos) << log;
        EXPECT_FALSE(daemon.halted()) << daemon.fatal_error();
        EXPECT_FALSE(exists(tmp)) << f.error;
        EXPECT_EQ(journal_shape(o.wal_path),
                  std::make_pair(std::size_t{2}, std::uint64_t{0}))
            << f.error;
      }
      ASSERT_TRUE(is_ok(daemon.handle_line(w.lines[2])));
      EXPECT_EQ(journal_shape(o.wal_path),
                std::make_pair(std::size_t{3}, std::uint64_t{0}));
      seq = daemon.last_seq();
      energy = daemon.engine().total_energy();
    }
    Daemon restarted(w.servers, o);
    EXPECT_TRUE(restarted.recovered_from_snapshot());
    EXPECT_EQ(restarted.last_seq(), seq);
    EXPECT_EQ(restarted.engine().total_energy(), energy);
    testing::remove_journal(o.wal_path);
    ::unlink(o.snapshot_path.c_str());
  }
  set_log_level(level);
}

// Once the fresh journal is renamed over --wal, the rename must be durable
// before a record is appended to it: a power loss could bring the old
// journal back and lose them. A failed fsync of the journal's directory
// (the second directory fsync: the snapshot's comes first) halts the daemon
// as a failed journal fsync does, for the explicit op and for a periodic
// snapshot. The fresh journal stays at --wal, and a restart recovers the
// snapshot's state from it.
TEST(CompactionFault, FailedDirectoryFsyncAfterTheRenameHalts) {
  const Workload w = make_workload();
  const std::vector<Energy> reference = reference_energies(w);
  for (const bool periodic : {false, true}) {
    DaemonOptions o = daemon_options("compaction_dir", 1);
    if (periodic) o.snapshot_every = 3;
    {
      Daemon daemon(w.servers, o);
      ASSERT_TRUE(is_ok(daemon.handle_line(w.lines[0])));
      ASSERT_TRUE(is_ok(daemon.handle_line(w.lines[1])));
      faultshim::arm(::testing::TempDir(), Fault::kFsyncEio, 2);
      const std::string response =
          periodic ? daemon.handle_line(w.lines[2])
                   : daemon.handle_line("{\"op\":\"snapshot\",\"id\":2}");
      faultshim::disarm();
      EXPECT_TRUE(is_halt_error(response, 2)) << response;
      EXPECT_NE(response.find("cannot fsync wal directory"), std::string::npos)
          << response;
      EXPECT_TRUE(daemon.halted());
      EXPECT_TRUE(is_halt_error(daemon.handle_line(w.lines[3]), 3));
      EXPECT_THROW(daemon.checkpoint(), std::runtime_error);
    }
    const std::uint64_t seq = periodic ? 3 : 2;
    EXPECT_EQ(journal_shape(o.wal_path),
              std::make_pair(std::size_t{0}, std::uint64_t{seq}));
    Daemon restarted(w.servers, o);
    EXPECT_TRUE(restarted.recovered_from_snapshot());
    EXPECT_EQ(restarted.last_seq(), seq);
    EXPECT_EQ(restarted.engine().total_energy(), reference[seq]);
    testing::remove_journal(o.wal_path);
    ::unlink(o.snapshot_path.c_str());
  }
}

// --- the creation of a fresh journal -----------------------------------------

// A daemon on an absent journal creates it as a compaction does: the header
// goes to `<wal>.tmp`, is fsynced and renamed over --wal. A failed write,
// short write or fsync of the `.tmp` makes the Daemon constructor throw
// naming the step, the file and the error, and leaves nothing at --wal and
// no `.tmp`; a fault-free start afterwards creates the journal and serves.
// `<wal>.tmp` is created first so the shim can be armed on its inode, which
// the O_TRUNC open keeps.
TEST(CreationFault, FailureBeforeTheRenameLeavesNoJournal) {
  struct FileFault {
    Fault fault;
    int err;
    const char* step;
    const char* strerror;
  };
  const FileFault faults[] = {
      {Fault::kWriteErrno, ENOSPC, "write", "No space left on device"},
      {Fault::kShortWrite, 0, "write", "No space left on device"},
      {Fault::kFsyncEio, 0, "fsync", "Input/output error"},
  };
  const Workload w = make_workload();
  const std::vector<Energy> reference = reference_energies(w);
  for (const FileFault& f : faults) {
    const DaemonOptions o = daemon_options("creation_tmp", 1);
    const std::string tmp = o.wal_path + ".tmp";
    std::ofstream(tmp).close();
    faultshim::arm(tmp, f.fault, 1, f.err);
    std::string error;
    try {
      Daemon daemon(w.servers, o);
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
    faultshim::disarm();
    const std::string expected = std::string("cannot ") + f.step +
                                 " fresh wal '" + tmp + "': " + f.strerror;
    EXPECT_EQ(error, expected);
    EXPECT_FALSE(exists(o.wal_path)) << expected;
    EXPECT_FALSE(exists(tmp)) << expected;
    {
      Daemon daemon(w.servers, o);
      EXPECT_TRUE(is_ok(daemon.handle_line(w.lines[0]))) << expected;
    }
    Daemon restarted(w.servers, o);
    EXPECT_EQ(restarted.last_seq(), 1u) << expected;
    EXPECT_EQ(restarted.engine().total_energy(), reference[1]) << expected;
    testing::remove_journal(o.wal_path);
  }
}

// Once the fresh journal is renamed over --wal, its directory is fsynced
// before the daemon serves: otherwise a power loss could take the journal,
// and every op acked to it, away. A failed fsync there makes the Daemon
// constructor throw naming the wal directory. The journal, only a header,
// stays at --wal, and a fault-free start recovers it and serves.
TEST(CreationFault, FailedDirectoryFsyncThrowsNamingTheDirectory) {
  const Workload w = make_workload();
  const DaemonOptions o = daemon_options("creation_dir", 1);
  faultshim::arm(::testing::TempDir(), Fault::kFsyncEio, 1);
  std::string error;
  try {
    Daemon daemon(w.servers, o);
  } catch (const std::runtime_error& e) {
    error = e.what();
  }
  faultshim::disarm();
  const std::string dir = o.wal_path.substr(0, o.wal_path.find_last_of('/'));
  EXPECT_EQ(error, "cannot fsync wal directory '" + dir +
                       "': Input/output error");
  EXPECT_EQ(journal_shape(o.wal_path),
            std::make_pair(std::size_t{0}, std::uint64_t{0}));
  EXPECT_FALSE(exists(o.wal_path + ".tmp"));
  {
    Daemon daemon(w.servers, o);
    EXPECT_TRUE(is_ok(daemon.handle_line(w.lines[0])));
  }
  Daemon restarted(w.servers, o);
  EXPECT_EQ(restarted.last_seq(), 1u);
  testing::remove_journal(o.wal_path);
}

// --- the reads of recovery ---------------------------------------------------

// A read error refuses recovery. Read as the end of the file, it would make
// the journal past it a torn tail, truncated with its acked records. Armed
// reads return at most kShortRead bytes, so each file takes many calls, and
// the k-th fails with EIO: the first, the second, and one in the middle of
// the file. The Daemon constructor throws naming the file and the error and
// leaves both files as they were. Short reads alone only take more calls.
TEST(RecoveryReadFault, ReadErrorThrowsAndLeavesBothFilesAlone) {
  const Workload w = make_workload();
  const DaemonOptions o = daemon_options("read_eio", 1);
  constexpr std::size_t kSnapshotAt = 10;
  {
    Daemon daemon(w.servers, o);
    for (std::size_t k = 0; k < w.lines.size(); ++k) {
      if (k == kSnapshotAt) {
        ASSERT_TRUE(is_ok(daemon.handle_line("{\"op\":\"snapshot\"}")));
      }
      ASSERT_TRUE(is_ok(daemon.handle_line(w.lines[k])));
    }
  }
  const std::string journal = read_file(o.wal_path);
  const std::string snapshot = read_file(o.snapshot_path);
  for (const auto& [path, what] :
       {std::pair{o.wal_path, "wal"}, std::pair{o.snapshot_path, "snapshot"}}) {
    const int middle = static_cast<int>(read_file(path).size() /
                                        faultshim::kShortRead / 2);
    ASSERT_GT(middle, 2) << path;
    for (const int k : {1, 2, middle}) {
      faultshim::arm(path, Fault::kReadEio, k);
      std::string error;
      try {
        Daemon recovered(w.servers, o);
      } catch (const std::runtime_error& e) {
        error = e.what();
      }
      faultshim::disarm();
      EXPECT_EQ(error, std::string("cannot read ") + what + " '" + path +
                           "': Input/output error")
          << "read " << k;
      EXPECT_EQ(read_file(o.wal_path), journal) << what << " read " << k;
      EXPECT_EQ(read_file(o.snapshot_path), snapshot)
          << what << " read " << k;
    }
  }
  const std::vector<Energy> reference = reference_energies(w);
  for (const std::string& path : {o.wal_path, o.snapshot_path}) {
    faultshim::arm(path, Fault::kReadEio, 0);
    std::unique_ptr<Daemon> recovered;
    EXPECT_NO_THROW(recovered = std::make_unique<Daemon>(w.servers, o));
    faultshim::disarm();
    ASSERT_TRUE(recovered) << path;
    EXPECT_TRUE(recovered->recovered_from_snapshot());
    EXPECT_EQ(recovered->last_seq(), w.lines.size());
    EXPECT_EQ(recovered->replayed_records(), w.lines.size() - kSnapshotAt);
    EXPECT_EQ(recovered->engine().total_energy(), reference.back());
  }
  testing::remove_journal(o.wal_path);
  ::unlink(o.snapshot_path.c_str());
}

// --- read_wal's allocations --------------------------------------------------

/// A journal of `records` records after the header, record k (seq k) made
/// by `make(k)`.
template <typename Make>
std::string journal_of(std::size_t records, Make make) {
  serve::WalHeader header;
  header.allocator = "min-incremental";
  header.seed = 42;
  header.num_servers = 16;
  std::string out = serve::encode_wal_header(header) + '\n';
  for (std::uint64_t seq = 1; seq <= records; ++seq) out += make(seq) + '\n';
  return out;
}

/// A stable VM of paper-like shape with full-length hexfloat demands.
VmSpec stable_vm(Rng& rng, VmId id) {
  const Time start = static_cast<Time>(1 + id / 4);
  const Time end = start + 5 + static_cast<Time>(rng.index(90));
  VmSpec vm = testing::vm(id, start, end, rng.uniform_double(0.5, 8.0),
                          rng.uniform_double(1.0, 16.0));
  vm.type_name = "m1.xlarge";
  return vm;
}

serve::WalFile read_counted(const std::string& path, const std::string& text,
                            testing::Allocations* counted) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  testing::allocations = {};
  testing::counting_allocations = true;
  serve::WalFile wal = serve::read_wal(path);
  testing::counting_allocations = false;
  *counted = testing::allocations;
  return wal;
}

// Each line is parsed into one tree that the next line reuses, and the
// canonical hexfloats and decimal seqs are read without strtod or a
// context string, so a journal of stable places costs the file buffer, the
// record vector's growth and one record's tree: under one allocation per
// hundred records (a fresh tree per line makes about 14). Counted, not
// timed, so the bound holds on every build.
TEST(ReadWalAllocations, StablePlacesMakeUnderOnePerHundredRecords) {
  constexpr std::size_t kRecords = 6000;
  Rng rng(0xa110c);
  Energy energy = 0.0;
  const std::string text = journal_of(kRecords, [&](std::uint64_t seq) {
    const VmSpec vm = stable_vm(rng, static_cast<VmId>(seq - 1));
    energy += rng.uniform_double(100.0, 5000.0);
    PlacementDecision decision;
    decision.server = static_cast<ServerId>(seq % 16);
    return serve::encode_place_record(seq, "min-incremental", vm, decision,
                                      energy);
  });
  const std::string path = temp_path("alloc_stable.wal");
  testing::Allocations counted;
  const serve::WalFile wal = read_counted(path, text, &counted);
  ASSERT_EQ(wal.records.size(), kRecords);
  EXPECT_EQ(wal.records.back().energy_after, energy);
  EXPECT_LT(counted.calls, kRecords / 100);
  EXPECT_GT(counted.calls, 0u) << "counter is live";
  ::unlink(path.c_str());
}

// Every record kind in turn: a place must rebuild the "spec" member a
// shorter record before it dropped, and a profiled VM owns its units, but
// the cost per record stays a small constant.
TEST(ReadWalAllocations, EveryRecordKindMakesAFewPerRecord) {
  constexpr std::size_t kRecords = 7000;
  Rng rng(0xa11c);
  const std::string text = journal_of(kRecords, [&](std::uint64_t seq) {
    const VmId id = static_cast<VmId>(seq);
    PlacementDecision decision;
    decision.server = static_cast<ServerId>(seq % 16);
    switch (seq % 7) {
      case 0: {
        VmSpec vm = stable_vm(rng, id);
        std::vector<Resources> units(
            static_cast<std::size_t>(vm.duration()), vm.demand);
        for (std::size_t k = units.size() / 2; k < units.size(); ++k)
          units[k].cpu /= 2;
        vm.set_profile(units);
        return serve::encode_place_record(seq, "min-incremental", vm,
                                          decision, 1.5 * seq);
      }
      case 1:
        return serve::encode_place_record(seq, "min-incremental",
                                          stable_vm(rng, id), decision,
                                          1.5 * seq);
      case 2:
        decision.server = kNoServer;
        decision.reject = PlacementReject::kNoCapacity;
        return serve::encode_place_record(seq, "min-incremental",
                                          stable_vm(rng, id), decision,
                                          1.5 * seq);
      case 3:
        return serve::encode_retire_record(seq, id - 3, decision.server);
      case 4:
        return serve::encode_advance_record(seq, static_cast<Time>(seq));
      case 5:
        return serve::encode_fault_record(
            seq, {static_cast<Time>(seq), FaultKind::kFail, 3});
      default:
        return serve::encode_drain_record(seq);
    }
  });
  const std::string path = temp_path("alloc_mixed.wal");
  testing::Allocations counted;
  const serve::WalFile wal = read_counted(path, text, &counted);
  ASSERT_EQ(wal.records.size(), kRecords);
  EXPECT_LT(counted.calls, 4 * kRecords);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace esva
