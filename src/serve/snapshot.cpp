#include "serve/snapshot.h"

#include <unistd.h>

#include <limits>
#include <stdexcept>

#include "serve/journal.h"
#include "serve/wire.h"
#include "util/json.h"
#include "util/parse.h"

namespace esva::serve {

namespace {

/// Version 3 drops the engine's resolution log, which a restored daemon
/// never read; version 2 writes profiles as runs (serve/wire.h). Versions 1
/// and 2 still load: the decoder reads both profile entry forms and skips
/// their "resolutions".
constexpr int kSnapshotVersion = 3;
constexpr int kOldestSnapshotVersion = 1;

template <typename T>
T require_int(const json::Value& obj, const std::string& key,
              const std::string& context) {
  return static_cast<T>(json::require_integer(obj, key,
                                              std::numeric_limits<T>::min(),
                                              std::numeric_limits<T>::max(),
                                              context));
}

const json::Value& require_member(const json::Value& obj,
                                  const std::string& key,
                                  json::Value::Kind kind,
                                  const std::string& context) {
  const json::Value* v = obj.find(key);
  if (!v || v->kind != kind)
    throw std::runtime_error(context + ": missing or mistyped field '" + key +
                             "'");
  return *v;
}

ServerHealth health_from_string(const std::string& s) {
  if (s == "up") return ServerHealth::kUp;
  if (s == "drained") return ServerHealth::kDrained;
  if (s == "failed") return ServerHealth::kFailed;
  throw std::runtime_error("snapshot: unknown server health '" + s + "'");
}

std::string encode_engine(const EngineStateSnapshot& e) {
  std::string out = "{\"frontier\":" + std::to_string(e.frontier);
  out += ",\"horizon\":" + std::to_string(e.horizon);
  out += ",\"requests\":" + std::to_string(e.requests);
  out += ",\"placed\":" + std::to_string(e.placed);
  out += ",\"energy_hex\":" + hex_double(e.energy);
  out += ",\"peak_resident\":" + std::to_string(e.peak_resident);
  out += ",\"fault_cursor\":" + std::to_string(e.fault_cursor);
  out += ",\"retry_seq\":" + u64_field(e.retry_seq);
  out += ",\"servers\":[";
  for (std::size_t i = 0; i < e.servers.size(); ++i) {
    const ServerStateSnapshot& s = e.servers[i];
    if (i > 0) out += ',';
    out += "{\"health\":" + json::escape(esva::to_string(s.health));
    out += ",\"retired_hi\":" + std::to_string(s.retired_hi);
    out += ",\"active\":[";
    for (std::size_t k = 0; k < s.active.size(); ++k) {
      if (k > 0) out += ',';
      out += encode_vm(s.active[k]);
    }
    out += "]}";
  }
  out += "],\"retry_queue\":[";
  for (std::size_t k = 0; k < e.retry_queue.size(); ++k) {
    const PendingRequest& p = e.retry_queue[k];
    if (k > 0) out += ',';
    out += "{\"vm\":" + encode_vm(p.vm);
    out += ",\"not_before\":" + std::to_string(p.not_before);
    out += ",\"attempts\":" + std::to_string(p.attempts);
    out += ",\"displaced\":";
    out += p.displaced ? "true" : "false";
    out += ",\"waiting_since\":" + std::to_string(p.waiting_since);
    out += ",\"seq\":" + u64_field(p.seq);
    out += '}';
  }
  out += "],\"fault_stats\":{";
  for (const auto& [key, member] : kFaultStatsFields) {
    if (out.back() != '{') out += ',';
    out += std::string("\"") + key + "\":" +
           std::to_string(e.fault_stats.*member);
  }
  out += "}}";
  return out;
}

EngineStateSnapshot decode_engine(const json::Value& obj) {
  const std::string ctx = "snapshot engine";
  EngineStateSnapshot e;
  e.frontier = require_int<Time>(obj, "frontier", ctx);
  e.horizon = require_int<Time>(obj, "horizon", ctx);
  e.requests = require_int<std::int64_t>(obj, "requests", ctx);
  e.placed = require_int<std::int64_t>(obj, "placed", ctx);
  const json::Value* energy = obj.find("energy_hex");
  if (!energy || energy->kind != json::Value::Kind::String)
    throw std::runtime_error(ctx + ": missing 'energy_hex'");
  e.energy = parse_double_field(energy->string, ctx + " energy_hex");
  e.peak_resident = static_cast<std::size_t>(json::require_integer(
      obj, "peak_resident", 0, std::numeric_limits<long long>::max(), ctx));
  e.fault_cursor = static_cast<std::size_t>(json::require_integer(
      obj, "fault_cursor", 0, std::numeric_limits<long long>::max(), ctx));
  e.retry_seq = require_u64(obj, "retry_seq", ctx);

  const json::Value& servers =
      require_member(obj, "servers", json::Value::Kind::Array, ctx);
  for (const json::Value& s : servers.array) {
    ServerStateSnapshot snap;
    snap.health =
        health_from_string(json::require_string(s, "health", ctx));
    snap.retired_hi = require_int<Time>(s, "retired_hi", ctx);
    const json::Value& active =
        require_member(s, "active", json::Value::Kind::Array, ctx);
    for (const json::Value& vm : active.array)
      snap.active.push_back(decode_vm(vm, "snapshot active vm"));
    e.servers.push_back(std::move(snap));
  }

  const json::Value& queue =
      require_member(obj, "retry_queue", json::Value::Kind::Array, ctx);
  for (const json::Value& q : queue.array) {
    PendingRequest p;
    const json::Value* vm = q.find("vm");
    if (!vm) throw std::runtime_error(ctx + ": retry entry missing 'vm'");
    p.vm = decode_vm(*vm, "snapshot retry vm");
    p.not_before = require_int<Time>(q, "not_before", ctx);
    p.attempts = require_int<int>(q, "attempts", ctx);
    if (const json::Value* d = q.find("displaced");
        d && d->kind == json::Value::Kind::Bool)
      p.displaced = d->boolean;
    p.waiting_since = require_int<Time>(q, "waiting_since", ctx);
    p.seq = require_u64(q, "seq", ctx);
    e.retry_queue.push_back(std::move(p));
  }

  const json::Value& stats =
      require_member(obj, "fault_stats", json::Value::Kind::Object, ctx);
  for (const auto& [key, member] : kFaultStatsFields)
    e.fault_stats.*member = require_int<std::int64_t>(stats, key, ctx);
  return e;
}

}  // namespace

std::string encode_snapshot(const SnapshotData& snap) {
  std::string out = "{\"format\":\"esva-snapshot\",\"version\":" +
                    std::to_string(kSnapshotVersion);
  out += ",\"allocator\":" + json::escape(snap.allocator);
  out += ",\"seed\":" + u64_field(snap.seed);
  out += ",\"servers\":" + std::to_string(snap.num_servers);
  out += ",\"wal_seq\":" + u64_field(snap.wal_seq);
  out += ",\"rng\":[";
  for (std::size_t k = 0; k < snap.rng.size(); ++k) {
    if (k > 0) out += ',';
    out += u64_field(snap.rng[k]);
  }
  out += "],\"engine\":" + encode_engine(snap.engine);
  out += ",\"assignment\":[";
  for (std::size_t k = 0; k < snap.assignment.size(); ++k) {
    if (k > 0) out += ',';
    out += '[' + std::to_string(snap.assignment[k].first) + ',' +
           std::to_string(snap.assignment[k].second) + ']';
  }
  out += "]}";
  return out;
}

SnapshotData decode_snapshot(const std::string& text) {
  const json::Value root = json::parse(text);
  if (root.kind != json::Value::Kind::Object)
    throw std::runtime_error("snapshot: not a JSON object");
  if (const json::Value* f = root.find("format");
      !f || f->kind != json::Value::Kind::String ||
      f->string != "esva-snapshot")
    throw std::runtime_error("snapshot: not an esva-snapshot document");
  const long long version = json::require_integer(
      root, "version", 1, std::numeric_limits<int>::max(), "snapshot");
  if (version < kOldestSnapshotVersion || version > kSnapshotVersion)
    throw std::runtime_error("snapshot: unsupported version " +
                             std::to_string(version));
  SnapshotData snap;
  snap.allocator = json::require_string(root, "allocator", "snapshot");
  snap.seed = require_u64(root, "seed", "snapshot");
  snap.num_servers = static_cast<std::size_t>(json::require_integer(
      root, "servers", 0, std::numeric_limits<long long>::max(), "snapshot"));
  snap.wal_seq = require_u64(root, "wal_seq", "snapshot");
  const json::Value& rng =
      require_member(root, "rng", json::Value::Kind::Array, "snapshot");
  if (rng.array.size() != snap.rng.size())
    throw std::runtime_error("snapshot: rng must hold 4 words");
  for (std::size_t k = 0; k < snap.rng.size(); ++k) {
    if (rng.array[k].kind != json::Value::Kind::String)
      throw std::runtime_error("snapshot: rng words are decimal strings");
    snap.rng[k] = parse_u64_field(rng.array[k].string, "snapshot rng word");
  }
  const json::Value& engine =
      require_member(root, "engine", json::Value::Kind::Object, "snapshot");
  snap.engine = decode_engine(engine);
  if (snap.engine.servers.size() != snap.num_servers)
    throw std::runtime_error("snapshot: engine.servers disagrees with the "
                             "declared fleet size");
  const json::Value& assignment =
      require_member(root, "assignment", json::Value::Kind::Array, "snapshot");
  for (const json::Value& pair : assignment.array) {
    if (pair.kind != json::Value::Kind::Array || pair.array.size() != 2 ||
        pair.array[0].kind != json::Value::Kind::Number ||
        pair.array[1].kind != json::Value::Kind::Number)
      throw std::runtime_error("snapshot: assignment entries are "
                               "[vm,server] pairs");
    const VmId vm = checked_integer_as<VmId>(pair.array[0].number,
                                             "snapshot assignment vm");
    const ServerId server = static_cast<ServerId>(checked_integer(
        pair.array[1].number, kNoServer, std::numeric_limits<ServerId>::max(),
        "snapshot assignment server"));
    snap.assignment.emplace_back(vm, server);
  }
  return snap;
}

void write_snapshot_atomic(const std::string& path, const SnapshotData& snap) {
  ::close(replace_file(path, encode_snapshot(snap) + "\n", "snapshot"));
  // The rename itself must be durable before the daemon compacts its
  // journal: after a power loss, an undone rename would leave a journal
  // that starts past the only snapshot on disk.
  fsync_directory_of(path, "snapshot");
}

SnapshotData load_snapshot(const std::string& path, bool* found) {
  std::string text;
  const bool exists = read_whole_file(path, "snapshot", text);
  if (found) *found = exists;
  return exists ? decode_snapshot(text) : SnapshotData{};
}

}  // namespace esva::serve
