#include "serve/daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "baselines/registry.h"
#include "serve/snapshot.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/parse.h"

namespace esva::serve {

namespace {

std::string error_response(const std::optional<long long>& id,
                           const std::string& what) {
  std::string out = "{\"ok\":false";
  if (id) out += ",\"id\":" + std::to_string(*id);
  out += ",\"error\":" + json::escape(what) + '}';
  return out;
}

std::string fmt_energy17(Energy e) {
  std::ostringstream out;
  out.precision(17);
  out << e;
  return out.str();
}

}  // namespace

Daemon::Daemon(std::vector<ServerSpec> servers, DaemonOptions options)
    : options_(std::move(options)), rng_(options_.seed) {
  // Each phase runs from the end of the one before, on one clock, so the
  // phases sum to the constructor's time.
  using Clock = std::chrono::steady_clock;
  Clock::time_point phase_start = Clock::now();
  const auto end_phase = [&phase_start](double& ms) {
    const Clock::time_point now = Clock::now();
    ms = std::chrono::duration<double, std::milli>(now - phase_start).count();
    phase_start = now;
  };
  // Every check runs before the journal is opened, so a rejected
  // configuration writes no WAL; the retry policy must be one the header
  // reads back unchanged, or the daemon could not restart on its own WAL.
  if (options_.wal_path.empty())
    throw std::invalid_argument("a --wal path is required");
  checked_flag(options_.wal_sync_every, 1, std::numeric_limits<int>::max(),
               "wal-sync-every");
  if (options_.snapshot_every > 0 && options_.snapshot_path.empty())
    throw std::invalid_argument("--snapshot-every needs a --snapshot path");
  options_.retry = checked_retry_policy(
      options_.retry.max_attempts, options_.retry.base_delay,
      options_.retry.backoff,
      static_cast<std::int64_t>(options_.retry.queue_capacity));

  header_.allocator = options_.allocator;
  header_.seed = options_.seed;
  header_.num_servers = servers.size();
  header_.retry = options_.retry;

  // replay_stream's engine configuration (streaming_engine_options), so a
  // daemon-fed stream is byte-identical to `esva stream`. Fault events
  // arrive as ops (PlacementEngine::apply_fault), not a plan.
  allocator_ = make_allocator(options_.allocator);
  allocator_->set_scan_config(options_.scan);
  policy_ = allocator_->make_policy();
  if (!policy_)
    throw std::invalid_argument("allocator '" + options_.allocator +
                                "' is batch-only (no streaming policy)");
  engine_ = std::make_unique<PlacementEngine>(
      std::move(servers), *policy_, rng_,
      streaming_engine_options(options_.cost, options_.retry,
                               options_.migration_cost_per_gib));

  // One daemon per journal, decided before recovery reads it: a second
  // writer would ack records under seqs this daemon already used, and the
  // next recovery would refuse the file. The lock is on `<wal>.lock`, which
  // no compaction replaces, so it covers every journal the daemon writes.
  const std::string lock_path = options_.wal_path + ".lock";
  wal_lock_.fd =
      ::open(lock_path.c_str(), O_RDONLY | O_CREAT | O_CLOEXEC, 0644);
  if (wal_lock_.fd < 0)
    throw std::runtime_error("cannot open wal lock file '" + lock_path +
                             "': " + std::strerror(errno));
  if (::flock(wal_lock_.fd, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    throw std::runtime_error(
        err == EWOULDBLOCK
            ? "wal '" + options_.wal_path + "' is locked by another daemon"
            : "cannot lock '" + lock_path + "': " + std::strerror(err));
  }

  end_phase(recovery_.setup_ms);

  // --- recovery: snapshot restore, then journal replay past it ------------
  std::uint64_t applied = 0;
  if (!options_.snapshot_path.empty()) {
    bool found = false;
    const SnapshotData snap = load_snapshot(options_.snapshot_path, &found);
    if (found) {
      if (snap.allocator != header_.allocator || snap.seed != header_.seed ||
          snap.num_servers != header_.num_servers)
        throw std::runtime_error(
            "snapshot '" + options_.snapshot_path +
            "' was produced by a different daemon configuration "
            "(allocator/seed/fleet mismatch)");
      engine_->import_state(snap.engine);
      rng_.set_state(snap.rng);
      // The pairs come in vm order, so each goes in at the end, in constant
      // time; a repeated vm keeps its last server.
      for (const auto& [vm, server] : snap.assignment)
        assignment_.insert_or_assign(assignment_.end(), vm, server);
      applied = snap.wal_seq;
      from_snapshot_ = true;
    }
  }
  end_phase(recovery_.snapshot_ms);

  const WalFile wal = read_wal(options_.wal_path);
  end_phase(recovery_.read_ms);
  recovery_.records_read = wal.records.size();
  torn_tail_ = wal.torn_tail;
  if (wal.has_header) {
    if (wal.header.allocator != header_.allocator ||
        wal.header.seed != header_.seed ||
        wal.header.num_servers != header_.num_servers ||
        wal.header.retry.max_attempts != header_.retry.max_attempts ||
        wal.header.retry.base_delay != header_.retry.base_delay ||
        wal.header.retry.backoff != header_.retry.backoff ||
        wal.header.retry.queue_capacity != header_.retry.queue_capacity)
      throw std::runtime_error(
          "wal '" + options_.wal_path +
          "' was produced by a different daemon configuration "
          "(allocator/seed/fleet/retry mismatch)");
    // A compacted journal's records up to `after` are only in the snapshot
    // that compacted it. Without that snapshot or a later one, the records
    // past `after` would replay onto an engine that never saw the ones
    // before.
    if (wal.header.after > applied)
      throw std::runtime_error(
          "wal '" + options_.wal_path + "' starts after seq " +
          std::to_string(wal.header.after) +
          ", and only a snapshot holds the records before; " +
          (options_.snapshot_path.empty()
               ? std::string("the daemon runs without --snapshot")
           : from_snapshot_ ? "snapshot '" + options_.snapshot_path +
                                  "' holds only seq " + std::to_string(applied)
                            : "snapshot '" + options_.snapshot_path +
                                  "' is missing"));
  } else if (from_snapshot_) {
    throw std::runtime_error("snapshot present but wal '" + options_.wal_path +
                             "' is missing or empty");
  }
  std::uint64_t last_seq = applied;
  for (const WalRecord& rec : wal.records) {
    last_seq = rec.seq;
    if (rec.seq <= applied) continue;  // already inside the snapshot
    replay_record(rec);
    ++recovery_.records_replayed;
  }
  next_seq_ = std::max(applied, last_seq) + 1;
  // The records past the snapshot count toward the next periodic one, so a
  // daemon restarted more often than --snapshot-every still takes it.
  ops_since_snapshot_ = recovery_.records_replayed;
  end_phase(recovery_.replay_ms);

  // Whatever lies past the last record is cut off before the O_APPEND
  // writer reopens the file. Past a torn tail, the next record would merge
  // with the torn bytes and read as mid-file corruption on the following
  // restart; a journal of blank lines, cut to nothing, is created afresh
  // with a header instead of being appended to without one.
  if (wal.file_bytes > wal.valid_bytes)
    truncate_wal(options_.wal_path, wal.valid_bytes);

  wal_ = std::make_unique<WalWriter>(options_.wal_path, header_,
                                     options_.wal_sync_every);
  end_phase(recovery_.reopen_ms);
}

Daemon::~Daemon() = default;

Daemon::WalLock::~WalLock() {
  if (fd >= 0) ::close(fd);
}

PlacementDecision Daemon::apply(const Request& req) {
  PlacementDecision decision;
  switch (req.op) {
    case OpKind::kPlace:
      decision = engine_->submit(req.vm);
      break;
    case OpKind::kRetire:
      decision.server = engine_->retire_vm(req.vm_id);
      break;
    case OpKind::kAdvance:
      engine_->advance_to(req.to);
      break;
    case OpKind::kFault:
      engine_->apply_fault(req.fault);
      break;
    case OpKind::kDrain:
      engine_->finish_stream();
      break;
    case OpKind::kStats:
    case OpKind::kSnapshot:
      break;  // not journaled: they change no engine state
  }
  // An op can resolve *other* requests first (a submit drains due retries);
  // fold those in before recording this request's own outcome. Once folded
  // they are dropped, so the engine's log never outgrows one op.
  for (const Resolution& r : engine_->resolutions())
    assignment_[r.vm] = r.server;
  engine_->clear_resolutions();
  if (req.op == OpKind::kPlace) assignment_[req.vm.id] = decision.server;
  // Trace semantics: a retire journals "chosen":null, so last-write-wins
  // over the journal resolves this VM to kNoServer — mirror that here.
  if (req.op == OpKind::kRetire) assignment_[req.vm_id] = kNoServer;
  return decision;
}

void Daemon::replay_record(const WalRecord& rec) {
  // Built on the error paths only: most records replay without one.
  const auto where = [&rec] {
    return "wal replay (seq " + std::to_string(rec.seq) + ")";
  };
  // A daemon never journals an op the engine refused: this one was edited.
  PlacementDecision decision;
  try {
    decision = apply(rec.req);
  } catch (const std::exception& e) {
    throw std::runtime_error(where() + ": " + e.what());
  }
  // Fidelity checksums: the deterministic re-run must land exactly where the
  // live run did — on the same server, at the same cumulative energy
  // (bit-exact, hence hexfloat). Divergence means the journal and the engine
  // configuration no longer agree; refusing to serve is the only safe answer.
  if (rec.req.op == OpKind::kPlace) {
    if (decision.server != rec.chosen)
      throw std::runtime_error(
          where() + ": replay chose server " + std::to_string(decision.server) +
          ", journal recorded " + std::to_string(rec.chosen));
    if (rec.has_energy && engine_->total_energy() != rec.energy_after)
      throw std::runtime_error(where() +
                               ": replay energy diverged from the journal");
  } else if (rec.req.op == OpKind::kRetire && decision.server != rec.chosen) {
    throw std::runtime_error(
        where() + ": replay retired from server " +
        std::to_string(decision.server) + ", journal recorded " +
        std::to_string(rec.chosen));
  }
}

// A failed journal write or fsync halts the daemon: the engine already
// applied the ops being written, so in-memory state is ahead of the durable
// journal, and every later record's chosen/energy checksums would be
// computed from state a replay can never reach. Serving on would be silent
// divergence.
template <typename Step>
bool Daemon::journal_io(Step&& step) {
  try {
    step();
    return true;
  } catch (const std::exception& e) {
    fatal_ = std::string("journal I/O failed (") + e.what() +
             "); engine state is ahead of the durable journal, halting";
    return false;
  }
}

void Daemon::wal_sync() {
  if (!journal_io([this] { wal_->sync(); })) throw std::runtime_error(fatal_);
}

bool Daemon::commit_round() {
  return !halted() && journal_io([this] { wal_->commit(); });
}

std::string Daemon::halt_response(const LineId& id) const {
  return error_response(id, "daemon halted: " + fatal_);
}

void Daemon::journal(const std::string& record) {
  wal_->stage(record);
  ++next_seq_;
  if (options_.snapshot_every == 0 ||
      ++ops_since_snapshot_ < options_.snapshot_every)
    return;
  // Once do_snapshot's sync returns, the op is applied and its record
  // durable; a snapshot file that cannot be written leaves the journal
  // whole and only lengthens the next replay, so it is logged and the op
  // acked. A failed sync, or a compaction whose rename may not be durable,
  // has halted the daemon and still fails the op.
  try {
    do_snapshot();
  } catch (const std::exception& e) {
    if (halted()) throw;
    log_warn() << "periodic snapshot failed: " << e.what();
    ops_since_snapshot_ = 0;
  }
}

void Daemon::do_snapshot() {
  // Everything the snapshot claims as applied must be durable in the
  // journal first, or a crash between the two could leave a snapshot ahead
  // of its own journal.
  wal_sync();
  SnapshotData snap;
  snap.allocator = header_.allocator;
  snap.seed = header_.seed;
  snap.num_servers = header_.num_servers;
  snap.wal_seq = next_seq_ - 1;
  snap.engine = engine_->export_state();
  snap.rng = rng_.state();
  snap.assignment.assign(assignment_.begin(), assignment_.end());
  write_snapshot_atomic(options_.snapshot_path, snap);
  ops_since_snapshot_ = 0;
  compact_journal(snap.wal_seq);
}

void Daemon::compact_journal(std::uint64_t seq) {
  // The snapshot just written is durable and holds every record up to
  // `seq`, the last one journaled, so the journal can start over after it.
  WalHeader fresh = header_;
  fresh.after = seq;
  int fd = -1;
  try {
    fd = replace_file(options_.wal_path, encode_wal_header(fresh) + '\n',
                      "fresh wal");
  } catch (const std::exception& e) {
    // Nothing at --wal changed: the whole journal stays in use.
    log_warn() << "journal compaction failed, the journal keeps its records: "
               << e.what();
    return;
  }
  wal_->switch_to(fd);
  // Until the rename is durable, a power loss can bring the old journal
  // back, and with it lose every record appended to the fresh one.
  if (!journal_io([this] { fsync_directory_of(options_.wal_path, "wal"); }))
    throw std::runtime_error(fatal_);
}

void Daemon::drain() {
  if (halted()) throw std::runtime_error("daemon halted: " + fatal_);
  Request req;
  req.op = OpKind::kDrain;
  apply(req);
  journal(encode_drain_record(next_seq_));
  checkpoint();
}

void Daemon::checkpoint() {
  if (halted()) throw std::runtime_error("daemon halted: " + fatal_);
  if (options_.snapshot_path.empty())
    wal_sync();
  else
    do_snapshot();
}

std::string Daemon::stats_json(bool with_assignment, bool with_id,
                               long long id) const {
  const FaultStats& f = engine_->fault_stats();
  std::string out = "{\"ok\":true";
  if (with_id) out += ",\"id\":" + std::to_string(id);
  out += ",\"op\":\"stats\"";
  out += ",\"allocator\":" + json::escape(options_.allocator);
  out += ",\"requests\":" + std::to_string(engine_->requests());
  out += ",\"placed\":" + std::to_string(engine_->placed());
  out += ",\"active_vms\":" + std::to_string(engine_->cluster().active_vms());
  out += ",\"frontier\":" + std::to_string(engine_->cluster().frontier());
  out += ",\"energy\":" + fmt_energy17(engine_->total_energy());
  out += ",\"energy_hex\":" + hex_double(engine_->total_energy());
  out += ",\"peak_resident\":" +
         std::to_string(engine_->peak_resident_time_units());
  out += ",\"wal_seq\":" + u64_field(next_seq_ - 1);
  out += ",\"wal_fsyncs\":" + std::to_string(wal_->fsyncs());
  out += ",\"replayed\":" + std::to_string(recovery_.records_replayed);
  out += ",\"torn_tail_recovered\":";
  out += torn_tail_ ? "true" : "false";
  for (const auto& [key, member] : kFaultStatsFields)
    out += std::string(",\"") + key + "\":" + std::to_string(f.*member);
  if (with_assignment) {
    out += ",\"assignment\":[";
    bool first = true;
    for (const auto& [vm, server] : assignment_) {
      if (!first) out += ',';
      first = false;
      out += '[' + std::to_string(vm) + ',' + std::to_string(server) + ']';
    }
    out += ']';
  }
  out += '}';
  return out;
}

std::string Daemon::dispatch(const Request& req) {
  std::string out = "{\"ok\":true";
  if (req.has_id) out += ",\"id\":" + std::to_string(req.id);
  out += ",\"op\":" + json::escape(to_string(req.op));
  switch (req.op) {
    case OpKind::kPlace: {
      const PlacementDecision decision = apply(req);
      const std::uint64_t seq = next_seq_;
      journal(encode_place_record(seq, options_.allocator, req.vm, decision,
                                  engine_->total_energy()));
      out += ",\"seq\":" + u64_field(seq);
      out += ",\"vm\":" + std::to_string(req.vm.id);
      out += ",\"server\":";
      out += decision.server == kNoServer ? "null"
                                          : std::to_string(decision.server);
      out += ",\"reject\":" + json::escape(esva::to_string(decision.reject));
      break;
    }
    case OpKind::kRetire: {
      const ServerId host = apply(req).server;
      const std::uint64_t seq = next_seq_;
      journal(encode_retire_record(seq, req.vm_id, host));
      out += ",\"seq\":" + u64_field(seq);
      out += ",\"vm\":" + std::to_string(req.vm_id);
      out += ",\"server\":";
      out += host == kNoServer ? "null" : std::to_string(host);
      break;
    }
    case OpKind::kAdvance: {
      apply(req);
      const std::uint64_t seq = next_seq_;
      journal(encode_advance_record(seq, req.to));
      out += ",\"seq\":" + u64_field(seq);
      out += ",\"frontier\":" +
             std::to_string(engine_->cluster().frontier());
      break;
    }
    case OpKind::kFault: {
      apply(req);
      const std::uint64_t seq = next_seq_;
      journal(encode_fault_record(seq, req.fault));
      out += ",\"seq\":" + u64_field(seq);
      break;
    }
    case OpKind::kStats:
      return stats_json(req.with_assignment, req.has_id, req.id);
    case OpKind::kSnapshot: {
      if (options_.snapshot_path.empty())
        throw std::runtime_error("daemon runs without a --snapshot path");
      do_snapshot();
      out += ",\"path\":" + json::escape(options_.snapshot_path);
      out += ",\"wal_seq\":" + u64_field(next_seq_ - 1);
      break;
    }
    case OpKind::kDrain: {
      drain();
      out += ",\"requests\":" + std::to_string(engine_->requests());
      out += ",\"placed\":" + std::to_string(engine_->placed());
      out += ",\"energy_hex\":" + hex_double(engine_->total_energy());
      out += ",\"frontier\":" +
             std::to_string(engine_->cluster().frontier());
      break;
    }
  }
  out += '}';
  return out;
}

std::string Daemon::apply_line(std::string_view line, LineId& id) {
  Request req;
  try {
    req = decode_request(line);
  } catch (const std::exception& e) {
    return error_response(std::nullopt, e.what());
  }
  if (req.has_id) id = req.id;
  if (halted()) return halt_response(id);
  try {
    return dispatch(req);
  } catch (const std::exception& e) {
    return error_response(id, e.what());
  }
}

std::string Daemon::handle_line(const std::string& line) {
  LineId id;
  std::string response = apply_line(line, id);
  return commit_round() ? response : halt_response(id);
}

// ---------------------------------------------------------------------------
// Socket loop
// ---------------------------------------------------------------------------

namespace {

struct Connection {
  int fd = -1;
  /// Bytes read but not yet consumed as complete lines.
  std::string inbuf;
  /// inbuf[0, scanned) holds no '\n': the next search starts there.
  std::size_t scanned = 0;
  /// The round's responses, held until it commits, and the id of each line
  /// they answer (a halted round answers every line with the halt error).
  std::string out;
  std::vector<std::optional<long long>> ids;
  /// Close once the round's responses are out (an overlong line).
  bool closing = false;
};

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    // send(MSG_NOSIGNAL), not write(): a peer that closed its socket before
    // the response must surface as EPIPE, not terminate the daemon via the
    // default SIGPIPE disposition.
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // peer vanished; the connection is reaped on the next poll
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Removes a stale socket at `path` — one a killed daemon left behind, on
/// which connect() is refused. Anything else there (a regular file, a
/// directory, a socket another process listens on) is left untouched and
/// throws.
void remove_stale_socket(const std::string& path, const sockaddr_un& addr) {
  struct stat st{};
  if (::lstat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return;
    throw std::runtime_error("cannot stat socket path '" + path +
                             "': " + std::strerror(errno));
  }
  if (!S_ISSOCK(st.st_mode))
    throw std::runtime_error("socket path '" + path +
                             "' exists and is not a socket; not replacing it");
  const int probe =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (probe < 0)
    throw std::runtime_error(std::string("socket() failed: ") +
                             std::strerror(errno));
  const int rc = ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr));
  const int err = errno;
  ::close(probe);
  // A full backlog (EAGAIN) still means someone is listening.
  if (rc == 0 || err == EAGAIN)
    throw std::runtime_error("socket '" + path +
                             "' is served by another process");
  if (err != ECONNREFUSED)
    throw std::runtime_error("cannot probe socket '" + path +
                             "': " + std::strerror(err));
  ::unlink(path.c_str());
}

}  // namespace

int Daemon::serve_loop(const std::string& socket_path,
                       const std::atomic<bool>& stop,
                       const std::function<void()>& on_listening) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path))
    throw std::invalid_argument("socket path too long (" +
                                std::to_string(socket_path.size()) + " >= " +
                                std::to_string(sizeof(addr.sun_path)) + ")");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  remove_stale_socket(socket_path, addr);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listener < 0)
    throw std::runtime_error(std::string("socket() failed: ") +
                             std::strerror(errno));
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listener);
    throw std::runtime_error("bind('" + socket_path +
                             "') failed: " + std::strerror(err));
  }
  if (::listen(listener, 16) != 0) {
    const int err = errno;
    ::close(listener);
    ::unlink(socket_path.c_str());
    throw std::runtime_error(std::string("listen() failed: ") +
                             std::strerror(err));
  }
  if (on_listening) on_listening();

  std::vector<Connection> conns;
  // Ends a round: one commit of every record it staged, then each
  // connection's responses in one write — or, when the daemon halted at
  // any point in the round, the halt error for each of its lines.
  const auto end_round = [&] {
    const bool committed = commit_round();
    for (Connection& c : conns) {
      if (c.ids.empty()) continue;
      if (!committed) {
        c.out.clear();
        for (const LineId& id : c.ids) {
          c.out += halt_response(id);
          c.out += '\n';
        }
      }
      if (c.fd >= 0) write_all(c.fd, c.out);
      c.out.clear();
      c.ids.clear();
      if (c.closing && c.fd >= 0) {
        ::close(c.fd);
        c.fd = -1;  // compacted after the round
      }
    }
  };

  while (!stop.load(std::memory_order_relaxed)) {
    std::vector<pollfd> fds;
    fds.push_back({listener, POLLIN, 0});
    for (const Connection& c : conns) fds.push_back({c.fd, POLLIN, 0});
    const int ready = ::poll(fds.data(), fds.size(), /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal: re-check stop
      break;
    }
    if (ready == 0) continue;

    // fds[k + 1] pairs with conns[k] only while conns is untouched: scan
    // exactly the connections the pollfds were built from, mark dead ones,
    // and only compact / accept afterwards — erasing mid-scan would shift
    // survivors onto the wrong pollfd's revents (a blocking read() on an
    // idle socket), and accepting first would grow conns past fds.
    const std::size_t polled = fds.size() - 1;
    for (std::size_t k = 0; k < polled && !halted(); ++k) {
      const short revents = fds[k + 1].revents;
      if (!(revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Connection& c = conns[k];
      char buf[4096];
      const ssize_t n = ::read(c.fd, buf, sizeof(buf));
      if (n <= 0 && !(n < 0 && errno == EINTR)) {
        ::close(c.fd);
        c.fd = -1;  // compacted after the round
        continue;
      }
      if (n <= 0) continue;  // EINTR
      c.inbuf.append(buf, static_cast<std::size_t>(n));
      // Each byte is searched once; the consumed prefix is dropped once per
      // read, not once per line.
      std::size_t consumed = 0;
      std::size_t nl;
      while ((nl = c.inbuf.find('\n', c.scanned)) != std::string::npos) {
        c.scanned = nl + 1;
        if (nl - consumed > kMaxRequestBytes) {
          c.closing = true;
          break;
        }
        std::string_view line(c.inbuf.data() + consumed, nl - consumed);
        consumed = nl + 1;
        if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        if (line.empty()) continue;
        LineId id;
        c.out += apply_line(line, id);
        c.out += '\n';
        c.ids.push_back(id);
        if (c.out.size() > kMaxRoundOutputBytes) end_round();
      }
      c.inbuf.erase(0, consumed);
      c.scanned = c.inbuf.size();
      if (c.closing || c.inbuf.size() > kMaxRequestBytes) {
        c.out += error_response(std::nullopt,
                                "request line longer than " +
                                    std::to_string(kMaxRequestBytes) +
                                    " bytes; closing the connection");
        c.out += '\n';
        c.ids.emplace_back();
        c.closing = true;
      }
    }
    end_round();
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const Connection& c) { return c.fd < 0; }),
                conns.end());
    if (halted()) break;
    if (fds[0].revents & POLLIN) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd >= 0) conns.emplace_back().fd = fd;
    }
  }
  for (const Connection& c : conns) ::close(c.fd);
  ::close(listener);
  ::unlink(socket_path.c_str());
  return halted() ? 1 : 0;
}

}  // namespace esva::serve
