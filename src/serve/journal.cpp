#include "serve/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "serve/wire.h"
#include "util/json.h"

namespace esva::serve {

namespace {

/// Version 3 names the seq the journal starts after ("after"), which a
/// compacted journal needs: an older reader would replay its records onto
/// an empty engine. Version 2 writes profiles as runs (serve/wire.h);
/// version 1 wrote one [cpu,mem] entry per unit. The decoder reads both
/// entry forms, so every version recovers, and each bump stops an older
/// daemon at the header instead of at the first record it cannot read.
constexpr int kWalVersion = 3;
constexpr int kOldestWalVersion = 1;
constexpr int kFirstVersionWithAfter = 3;

[[noreturn]] void fail_line(std::size_t line, const std::string& what) {
  throw std::runtime_error("wal line " + std::to_string(line) + ": " + what);
}

WalHeader decode_header(const json::Value& root, std::size_t line) {
  if (const json::Value* f = root.find("format");
      !f || f->kind != json::Value::Kind::String || f->string != "esva-wal")
    fail_line(line, "not an esva-wal header");
  const long long version = json::require_integer(
      root, "version", 1, std::numeric_limits<int>::max(), "wal header");
  if (version < kOldestWalVersion || version > kWalVersion)
    fail_line(line, "unsupported wal version " + std::to_string(version));
  WalHeader h;
  h.allocator = json::require_string(root, "allocator", "wal header");
  h.seed = require_u64(root, "seed", "wal header");
  h.num_servers = static_cast<std::size_t>(json::require_integer(
      root, "servers", 0, std::numeric_limits<long long>::max(),
      "wal header"));
  h.retry.max_attempts = static_cast<int>(json::require_integer(
      root, "retry_max", 0, std::numeric_limits<int>::max(), "wal header"));
  h.retry.base_delay = static_cast<Time>(json::require_integer(
      root, "retry_delay", 0, std::numeric_limits<Time>::max(), "wal header"));
  h.retry.backoff =
      require_number_or_hex(root, "retry_backoff", "wal header");
  h.retry.queue_capacity = static_cast<std::size_t>(json::require_integer(
      root, "retry_queue", 0, std::numeric_limits<long long>::max(),
      "wal header"));
  if (version >= kFirstVersionWithAfter)
    h.after = require_u64(root, "after", "wal header");
  return h;
}

/// The fields the wire does not carry: the seq, a place's VM under "spec",
/// and the recorded outcomes recovery checks. Every other op field is read
/// by decode_request, as the request that made the record was.
WalRecord decode_record(const json::Value& root, const std::string& op,
                        std::size_t line) {
  constexpr std::string_view ctx = "wal record";
  WalRecord rec;
  rec.seq = require_u64(root, "seq", ctx);
  if (op == "place") {
    rec.req.op = OpKind::kPlace;
    const json::Value* spec = root.find("spec");
    if (!spec) fail_line(line, "place record missing 'spec'");
    rec.req.vm = decode_vm(*spec, "wal place spec");
    if (const json::Value* c = root.find("chosen"); c && c->is_null())
      rec.chosen = kNoServer;
    else
      rec.chosen = static_cast<ServerId>(json::require_integer(
          root, "chosen", kNoServer, std::numeric_limits<ServerId>::max(),
          ctx));
    if (const json::Value* e = root.find("energy_hex");
        e && e->kind == json::Value::Kind::String) {
      rec.has_energy = true;
      rec.energy_after = require_number_or_hex(root, "energy_hex", ctx);
    }
    return rec;
  }
  rec.req = decode_request(root);
  if (rec.req.op == OpKind::kStats || rec.req.op == OpKind::kSnapshot)
    fail_line(line, "op '" + op + "' is never journaled");
  if (const json::Value* s = root.find("server");
      rec.req.op == OpKind::kRetire && s && !s->is_null())
    rec.chosen = static_cast<ServerId>(json::require_integer(
        root, "server", kNoServer, std::numeric_limits<ServerId>::max(), ctx));
  return rec;
}

/// True when `text` holds a line that is not blank (" \t\r" only).
bool has_nonblank_line(std::string_view text) {
  return text.find_first_not_of(" \t\r\n") != std::string_view::npos;
}

/// write()s all of `data`, retrying EINTR and short writes; false, with
/// errno set, on the first failed write.
bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

std::string encode_wal_header(const WalHeader& header) {
  std::string out = "{\"op\":\"hdr\",\"format\":\"esva-wal\",\"version\":" +
                    std::to_string(kWalVersion);
  out += ",\"allocator\":" + json::escape(header.allocator);
  out += ",\"seed\":" + u64_field(header.seed);
  out += ",\"servers\":" + std::to_string(header.num_servers);
  out += ",\"retry_max\":" + std::to_string(header.retry.max_attempts);
  out += ",\"retry_delay\":" + std::to_string(header.retry.base_delay);
  out += ",\"retry_backoff\":" + hex_double(header.retry.backoff);
  out += ",\"retry_queue\":" + std::to_string(header.retry.queue_capacity);
  out += ",\"after\":" + u64_field(header.after);
  out += '}';
  return out;
}

std::string encode_place_record(std::uint64_t seq, const std::string& allocator,
                                const VmSpec& vm,
                                const PlacementDecision& decision,
                                Energy energy_after) {
  // Key-compatible with to_jsonl(VmDecisionTrace): "vm" and "chosen" mean
  // exactly what the trace loader expects; everything else is a superset.
  // Append-only construction: this runs once per acked placement, and the
  // BENCH_perf.json "wal" gate holds the whole journal path to <= 5% over
  // the bare stream replay.
  std::string out;
  out.reserve(288);
  out += "{\"op\":\"place\",\"seq\":\"";
  out += std::to_string(seq);
  out += "\",\"allocator\":";
  out += json::escape(allocator);
  out += ",\"vm\":";
  out += std::to_string(vm.id);
  out += ",\"chosen\":";
  out += decision.server == kNoServer ? "null" : std::to_string(decision.server);
  out += ",\"reject\":";
  out += json::escape(esva::to_string(decision.reject));
  out += ",\"spec\":";
  append_vm(out, vm);
  out += ",\"energy_hex\":";
  append_hex_double(out, energy_after);
  out += '}';
  return out;
}

std::string encode_retire_record(std::uint64_t seq, VmId vm, ServerId host) {
  std::string out = "{\"op\":\"retire\",\"seq\":" + u64_field(seq);
  out += ",\"vm\":" + std::to_string(vm);
  // "chosen":null is the trace-schema half: last-write-wins over the journal
  // resolves a retired VM to kNoServer, exactly like a rejected one.
  out += ",\"chosen\":null,\"note\":\"retired\"";
  out += ",\"server\":";
  out += host == kNoServer ? "null" : std::to_string(host);
  out += '}';
  return out;
}

std::string encode_advance_record(std::uint64_t seq, Time to) {
  return "{\"op\":\"advance\",\"seq\":" + u64_field(seq) +
         ",\"to\":" + std::to_string(to) + '}';
}

std::string encode_fault_record(std::uint64_t seq, const FaultEvent& event) {
  std::string out = "{\"op\":\"fault\",\"seq\":" + u64_field(seq);
  out += ",\"at\":" + std::to_string(event.at);
  out += ",\"kind\":" + json::escape(esva::to_string(event.kind));
  out += ",\"server\":" + std::to_string(event.server);
  out += '}';
  return out;
}

std::string encode_drain_record(std::uint64_t seq) {
  return "{\"op\":\"drain\",\"seq\":" + u64_field(seq) + '}';
}

bool read_whole_file(const std::string& path, const char* what,
                     std::string& out) {
  // "cannot read wal '<path>': Input/output error", from errno.
  const auto refuse = [&](const char* step) {
    return std::runtime_error(std::string("cannot ") + step + ' ' + what +
                              " '" + path + "': " + std::strerror(errno));
  };
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return false;
    throw refuse("open");
  }
  const struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  struct stat st{};
  if (::fstat(fd, &st) != 0) throw refuse("stat");
  // One spare byte past the size fstat saw: the loop stops at the read()
  // that returns 0, and only a file that grew meanwhile fills the buffer
  // and doubles it.
  out.resize(static_cast<std::size_t>(st.st_size > 0 ? st.st_size : 0) + 1);
  std::size_t used = 0;
  while (true) {
    if (used == out.size()) out.resize(2 * out.size());
    const ssize_t n = ::read(fd, out.data() + used, out.size() - used);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      throw refuse("read");
    }
    used += static_cast<std::size_t>(n);
  }
  out.resize(used);
  return true;
}

WalFile read_wal(const std::string& path) {
  WalFile wal;
  std::string data;  // the file's one copy
  if (!read_whole_file(path, "wal", data)) return wal;  // fresh daemon
  wal.file_bytes = data.size();

  // One pass over the buffer, each line parsed where it lies into one tree
  // whose storage every line reuses. The split is on '\n' by hand (not
  // getline), so every line keeps its byte-exact end offset — valid_bytes,
  // the truncate-to point after a torn tail — and a missing final newline
  // is observable. Blank lines are skipped, and "final" below means the
  // last non-blank line.
  const std::string_view text(data);
  json::Value root;
  bool have_header = false;
  std::uint64_t prev_seq = 0;
  std::size_t pos = 0, number = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const bool has_nl = nl != std::string_view::npos;
    const std::size_t end = has_nl ? nl + 1 : text.size();
    // Without its '\n' (it may keep a '\r', which the JSON reader skips).
    const std::string_view line =
        text.substr(pos, (has_nl ? nl : text.size()) - pos);
    ++number;
    pos = end;
    if (!has_nonblank_line(line)) continue;
    if (!has_nl) {
      // A completed append batch always ends in '\n', so a newline-less
      // tail — even one that happens to parse — is a partial write whose op
      // was never acked: drop it.
      wal.torn_tail = true;
      break;
    }
    WalRecord rec;
    bool header = false;
    try {
      json::parse(line, root);
      if (root.kind != json::Value::Kind::Object)
        fail_line(number, "record is not a JSON object");
      const std::string& op = json::require_string(root, "op", "wal record");
      header = op == "hdr";
      if (header) {
        // Only a first line can get here without a header: any other
        // record before it would have failed for want of one.
        if (have_header) fail_line(number, "duplicate header");
        wal.header = decode_header(root, number);
      } else {
        if (!have_header)
          fail_line(number, "journal does not start with a header");
        rec = decode_record(root, op, number);
      }
    } catch (const std::exception&) {
      if (!has_nonblank_line(text.substr(pos))) {
        // The crash window of an append: a torn final line is dropped, not
        // fatal — the op it would have recorded was never acked.
        wal.torn_tail = true;
        break;
      }
      throw;  // mid-file corruption is a hard error, never skipped
    }
    if (header) {
      wal.has_header = true;
      have_header = true;
      prev_seq = wal.header.after;
    } else {
      // Checked outside the torn-tail catch: a complete record that reuses
      // a seq was written by a second daemon on this journal, and dropping
      // it as torn would lose an op that daemon acked.
      if (rec.seq <= prev_seq)
        fail_line(number, "sequence numbers must strictly increase (" +
                              std::to_string(rec.seq) + " after " +
                              std::to_string(prev_seq) + ")");
      prev_seq = rec.seq;
      wal.records.push_back(std::move(rec));
    }
    wal.valid_bytes = end;
  }
  return wal;
}

void truncate_wal(const std::string& path, std::uint64_t valid_bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0)
    throw std::runtime_error("cannot open wal '" + path +
                             "' to truncate it: " + std::strerror(errno));
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("cannot truncate wal '" + path +
                             "': " + std::strerror(err));
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("cannot fsync truncated wal '" + path +
                             "': " + std::strerror(err));
  }
  ::close(fd);
}

void fsync_directory_of(const std::string& path, const char* what) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0)
    throw std::runtime_error(std::string("cannot open ") + what +
                             " directory '" + dir +
                             "': " + std::strerror(errno));
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("cannot fsync ") + what +
                             " directory '" + dir + "': " + std::strerror(err));
  }
  ::close(fd);
}

int replace_file(const std::string& path, std::string_view bytes,
                 const char* what) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC,
             0644);
  if (fd < 0)
    throw std::runtime_error(std::string("cannot create ") + what + " '" +
                             tmp + "': " + std::strerror(errno));
  const char* failed = nullptr;
  if (!write_all(fd, bytes))
    failed = "write";
  else if (::fsync(fd) != 0)
    failed = "fsync";
  else if (::rename(tmp.c_str(), path.c_str()) != 0)
    failed = "rename";
  if (failed) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    throw std::runtime_error(std::string("cannot ") + failed + ' ' + what +
                             " '" + tmp + "': " + std::strerror(err));
  }
  return fd;
}

WalWriter::WalWriter(const std::string& path, const WalHeader& fresh_header,
                     int sync_every)
    : sync_every_(static_cast<std::uint64_t>(sync_every < 1 ? 1 : sync_every)) {
  struct stat st{};
  const bool exists = ::stat(path.c_str(), &st) == 0;
  if (!exists && errno != ENOENT)
    throw std::runtime_error("cannot stat wal '" + path +
                             "': " + std::strerror(errno));
  if (exists && st.st_size > 0) {
    fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd_ < 0)
      throw std::runtime_error("cannot open wal '" + path +
                               "': " + std::strerror(errno));
    return;
  }
  // Written in place, a crash could leave a journal holding half a header.
  fd_ = replace_file(path, encode_wal_header(fresh_header) + '\n',
                     "fresh wal");
  fsyncs_ = 1;
  try {
    fsync_directory_of(path, "wal");
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

WalWriter::~WalWriter() {
  // Best-effort write of staged records (a clean destruction mid-batch
  // should reach the kernel like every committed batch did), then close.
  // Durability against power loss stays the sync schedule's job, not the
  // destructor's, and destructor errors are swallowed — a crashing daemon
  // never gets here, which is exactly what the SIGKILL recovery tests
  // simulate.
  try {
    flush_pending();
  } catch (...) {
  }
  ::close(fd_);
}

void WalWriter::stage(const std::string& line) {
  pending_ += line;
  pending_ += '\n';
  ++since_sync_;
}

bool WalWriter::append(const std::string& line) {
  // With sync_every == 1 this is the classic write+fsync before every ack;
  // larger values batch sync_every records into one write() + fsync() (the
  // write() syscall, not the encode, dominates per-record journal cost —
  // see the BENCH_perf.json "wal" gate).
  stage(line);
  return since_sync_ >= sync_every_ && commit();
}

bool WalWriter::commit() {
  flush_pending();
  if (since_sync_ < sync_every_) return false;
  sync();
  return true;
}

void WalWriter::flush_pending() {
  const bool written = write_all(fd_, pending_);
  const int err = errno;
  pending_.clear();
  if (!written)
    throw std::runtime_error(std::string("wal append failed: ") +
                             std::strerror(err));
}

void WalWriter::sync() {
  if (since_sync_ == 0 && fsyncs_ > 0) return;  // nothing to flush
  flush_pending();
  if (::fsync(fd_) != 0)
    throw std::runtime_error(std::string("wal fsync failed: ") +
                             std::strerror(errno));
  since_sync_ = 0;
  ++fsyncs_;
}

void WalWriter::switch_to(int fd) {
  assert(pending_.empty() && since_sync_ == 0);
  ::close(fd_);
  fd_ = fd;
}

}  // namespace esva::serve
