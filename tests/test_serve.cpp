// The esva serve daemon (src/serve/): wire codec exactness, WAL round-trips
// and torn-tail handling, snapshot round-trips, and the headline guarantee —
// a daemon-fed stream (including one killed and restarted mid-stream)
// produces assignments and total energy byte-identical to the same workload
// replayed through `esva stream` (sim/replay.cpp). The end-to-end variant
// SIGKILLs a real `esva serve` process over a unix socket.

#include "serve/daemon.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.h"
#include "core/fault_plan.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/journal.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "sim/replay.h"
#include "test_util.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workload/arrival_stream.h"
#include "workload/trace.h"

namespace esva {
namespace {

using serve::Daemon;
using serve::DaemonOptions;
using serve::OpKind;
using serve::Request;
using serve::WalFile;
using serve::WalHeader;
using serve::WalRecord;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/esva_serve_" + std::to_string(::getpid()) +
         "_" + name;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

VmSpec awkward_vm() {
  VmSpec vm = testing::vm(7, 3, 12, 0.1, 6.8);  // 0.1 is inexact in binary
  vm.type_name = "m1.small \"quoted\"";
  return vm;
}

// --- wire codec -------------------------------------------------------------

TEST(ServeWire, VmSpecRoundTripsBitExact) {
  VmSpec vm = awkward_vm();
  vm.set_profile({{0.1, 6.8}, {0.2, 3.3}, {0.3, 1.1}, {0.1, 0.7}, {0.5, 0.9},
                  {0.1, 6.8}, {0.2, 3.3}, {0.3, 1.1}, {0.1, 0.7}, {0.5, 0.9}});
  const json::Value parsed = json::parse(serve::encode_vm(vm));
  const VmSpec back = serve::decode_vm(parsed, "test");
  EXPECT_EQ(back.id, vm.id);
  EXPECT_EQ(back.type_name, vm.type_name);
  EXPECT_EQ(back.demand.cpu, vm.demand.cpu);  // bit-exact via hexfloat
  EXPECT_EQ(back.demand.mem, vm.demand.mem);
  EXPECT_EQ(back.start, vm.start);
  EXPECT_EQ(back.end, vm.end);
  ASSERT_TRUE(back.has_profile());
  for (Time t = vm.start; t <= vm.end; ++t) {
    EXPECT_EQ(back.demand_at(t).cpu, vm.demand_at(t).cpu);
    EXPECT_EQ(back.demand_at(t).mem, vm.demand_at(t).mem);
  }
}

TEST(ServeWire, RequestsRoundTripForEveryOp) {
  Request place;
  place.op = OpKind::kPlace;
  place.has_id = true;
  place.id = 99;
  place.vm = awkward_vm();
  const Request place2 = serve::decode_request(serve::encode_request(place));
  EXPECT_EQ(place2.op, OpKind::kPlace);
  ASSERT_TRUE(place2.has_id);
  EXPECT_EQ(place2.id, 99);
  EXPECT_EQ(place2.vm.id, place.vm.id);
  EXPECT_EQ(place2.vm.demand.cpu, place.vm.demand.cpu);

  Request retire;
  retire.op = OpKind::kRetire;
  retire.vm_id = 41;
  EXPECT_EQ(serve::decode_request(serve::encode_request(retire)).vm_id, 41);

  Request advance;
  advance.op = OpKind::kAdvance;
  advance.to = 77;
  EXPECT_EQ(serve::decode_request(serve::encode_request(advance)).to, 77);

  Request fault;
  fault.op = OpKind::kFault;
  fault.fault = {12, FaultKind::kDrain, 3};
  const Request fault2 = serve::decode_request(serve::encode_request(fault));
  EXPECT_EQ(fault2.fault.at, 12);
  EXPECT_EQ(fault2.fault.kind, FaultKind::kDrain);
  EXPECT_EQ(fault2.fault.server, 3);

  Request stats;
  stats.op = OpKind::kStats;
  stats.with_assignment = true;
  EXPECT_TRUE(
      serve::decode_request(serve::encode_request(stats)).with_assignment);

  for (const OpKind op : {OpKind::kSnapshot, OpKind::kDrain}) {
    Request req;
    req.op = op;
    EXPECT_EQ(serve::decode_request(serve::encode_request(req)).op, op);
  }
}

TEST(ServeWire, DecodeAcceptsPlainNumbersForDemands) {
  const Request req = serve::decode_request(
      R"({"op":"place","vm":{"id":1,"type":"t","cpu":2,"mem":3.5,)"
      R"("start":4,"end":9}})");
  EXPECT_EQ(req.vm.demand.cpu, 2.0);
  EXPECT_EQ(req.vm.demand.mem, 3.5);
}

TEST(ServeWire, DecodeRejectsMalformedRequests) {
  EXPECT_THROW(serve::decode_request("not json"), std::runtime_error);
  EXPECT_THROW(serve::decode_request("[1,2]"), std::runtime_error);
  EXPECT_THROW(serve::decode_request(R"({"op":"launch"})"), std::runtime_error);
  EXPECT_THROW(serve::decode_request(R"({"op":"place"})"), std::runtime_error);
  EXPECT_THROW(serve::decode_request(R"({"op":"retire","vm":-3})"),
               std::runtime_error);
  EXPECT_THROW(
      serve::decode_request(
          R"({"op":"fault","at":5,"kind":"melt","server":0})"),
      std::runtime_error);
  EXPECT_THROW(serve::decode_request(
                   R"({"op":"place","vm":{"id":1,"type":"t","cpu":-1,)"
                   R"("mem":3,"start":4,"end":2}})"),
               std::runtime_error);
}

/// A JSON array of `n` empty arrays: n + 1 values in 3n + 1 bytes, the
/// cheapest way to make a parser build a large tree.
std::string empty_arrays(std::size_t n) {
  std::string line = "[";
  for (std::size_t k = 0; k < n; ++k) line += k ? ",[]" : "[]";
  return line + "]";
}

// json::parse counts every value it creates against its limit, the root
// included; without a limit it reads any number.
TEST(ServeWire, JsonParseStopsAtItsValueLimit) {
  EXPECT_EQ(json::parse("[0,{\"a\":[1]},2]", 6).array.size(), 3u);
  EXPECT_THROW(json::parse("[0,{\"a\":[1]},2]", 5), std::runtime_error);
  EXPECT_EQ(json::parse(empty_arrays(serve::kMaxRequestValues)).array.size(),
            serve::kMaxRequestValues);
}

// A request line may create at most kMaxRequestValues values: one of more
// is refused for its size before anything reads its root, whatever its
// shape, so a line under the byte cap cannot build a tree many times the
// size of the longest legal place.
TEST(ServeWire, RequestLinesOverTheValueLimitAreRefused) {
  const std::string limit = std::to_string(serve::kMaxRequestValues);
  for (const std::string& line :
       {empty_arrays(serve::kMaxRequestValues),
        "{\"op\":\"stats\",\"pad\":" +
            empty_arrays(serve::kMaxRequestValues) + "}"}) {
    ASSERT_LT(line.size(), serve::kMaxRequestBytes);
    try {
      serve::decode_request(line);
      ADD_FAILURE() << "decoded a line of " << line.size() << " bytes";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("more than " + limit + " values"),
                std::string::npos)
          << e.what();
    }
  }
}

/// The profile writer of format version 1: one [cpu,mem] entry per time
/// unit. The codec only reads this form now, so the old-format tests carry
/// their own writer.
std::string per_unit_vm(const VmSpec& vm) {
  std::string out = serve::encode_vm(vm);
  if (!vm.has_profile()) return out;
  out.erase(out.find(",\"profile\":"));
  out += ",\"profile\":[";
  for (std::size_t k = 0; k < vm.profile.size(); ++k) {
    if (k > 0) out += ',';
    out += '[' + serve::hex_double(vm.profile[k].cpu) + ',' +
           serve::hex_double(vm.profile[k].mem) + ']';
  }
  out += "]}";
  return out;
}

/// Maximal runs of bit-identical units: one plus the bit changes between
/// neighbours.
std::size_t bit_runs(const std::vector<Resources>& units) {
  std::size_t runs = units.empty() ? 0 : 1;
  for (std::size_t k = 1; k < units.size(); ++k)
    if (std::memcmp(&units[k], &units[k - 1], sizeof(Resources)) != 0) ++runs;
  return runs;
}

void expect_same_units(const std::vector<Resources>& got,
                       const std::vector<Resources>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k)
    EXPECT_EQ(std::memcmp(&got[k], &want[k], sizeof(Resources)), 0)
        << "unit " << k;
}

VmSpec decode_vm_text(const std::string& text) {
  return serve::decode_vm(json::parse(text), "test");
}

TEST(ServeWire, ProfileRunsRoundTripBitExact) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<std::vector<Resources>> profiles = {
      std::vector<Resources>(9, Resources{0.1, 6.8}),  // a single run
      {{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}, {0.7, 0.8}, {0.9, 1.0}},
      {{0.1, 6.8}},  // a one-unit VM
      {{0.0, 1.0}, {-0.0, 1.0}, {-0.0, 1.0}, {0.0, 1.0}, {0.0, -0.0}},
      {{tiny, 3 * tiny}, {tiny, 3 * tiny}, {2 * tiny, tiny}, {0x1p-1070, 0.5}},
      // 0.1 + 0.2 and 0.3 print alike in decimal but differ in bits.
      {{0.1, 0.7}, {0.1, 0.7}, {0.1 + 0.2, 0.7}, {0.3, 0.7}, {0.3, 0.7}},
  };
  for (std::size_t c = 0; c < profiles.size(); ++c) {
    SCOPED_TRACE("profile " + std::to_string(c));
    const std::vector<Resources>& units = profiles[c];
    VmSpec vm = testing::vm(
        3, 5, 5 + static_cast<Time>(units.size()) - 1, 1.0, 1.0);
    vm.set_profile(units);
    const std::string text = serve::encode_vm(vm);
    const json::Value parsed = json::parse(text);
    const json::Value* entries = parsed.find("profile");
    ASSERT_NE(entries, nullptr);
    EXPECT_EQ(entries->array.size(), bit_runs(units)) << text;
    for (const json::Value& entry : entries->array)
      EXPECT_EQ(entry.array.size(), 3u) << text;
    const VmSpec back = serve::decode_vm(parsed, "test");
    expect_same_units(back.profile, units);
    EXPECT_EQ(std::memcmp(&back.demand, &vm.demand, sizeof(Resources)), 0);
    EXPECT_EQ(serve::encode_vm(back), text);
  }
}

TEST(ServeWire, PerUnitAndMixedProfilesDecodeLikeRuns) {
  VmSpec vm = testing::vm(4, 10, 17, 1.0, 1.0);
  vm.set_profile({{0.5, 1.5}, {0.5, 1.5}, {0.5, 1.5}, {0.25, 2.0},
                  {0.25, 2.0}, {0.1, 0.7}, {0.1, 0.7}, {0.1, 0.7}});
  const VmSpec runs = decode_vm_text(serve::encode_vm(vm));
  const VmSpec units = decode_vm_text(per_unit_vm(vm));
  // Runs and one-unit entries in any mix, numbers or hexfloat strings.
  const VmSpec mixed = decode_vm_text(
      R"({"id":4,"cpu":1,"mem":1,"start":10,"end":17,"profile":)"
      R"([[2,0.5,1.5],["0x1p-1","0x1.8p+0"],[2,"0x1p-2",2],)"
      R"([0.1,0.7],[2,0.1,"0x1.6666666666666p-1"]]})");
  for (const VmSpec* back : {&runs, &units, &mixed}) {
    EXPECT_EQ(back->id, vm.id);
    EXPECT_EQ(back->start, vm.start);
    EXPECT_EQ(back->end, vm.end);
    expect_same_units(back->profile, vm.profile);
    EXPECT_EQ(std::memcmp(&back->demand, &vm.demand, sizeof(Resources)), 0);
  }
}

TEST(ServeWire, StableVmEncodesWithoutAProfile) {
  VmSpec vm = testing::vm(7, 3, 12, 1.5, 6.75);
  vm.type_name = "m1.small";
  EXPECT_EQ(serve::encode_vm(vm),
            R"({"id":7,"type":"m1.small","cpu":"0x1.8p+0","mem":"0x1.bp+2",)"
            R"("start":3,"end":12})");
}

TEST(ServeWire, RequestIdsKeepEveryBitOfALongLong) {
  for (const std::string id :
       {"9007199254740993", "9223372036854775807", "-9223372036854775808"}) {
    const std::string line = R"({"op":"stats","id":)" + id + "}";
    const Request req = serve::decode_request(line);
    ASSERT_TRUE(req.has_id);
    EXPECT_EQ(std::to_string(req.id), id);
    EXPECT_EQ(serve::encode_request(req), line);
  }
  try {
    serve::decode_request(R"({"op":"stats","id":9223372036854775808})");
    ADD_FAILURE() << "2^63 does not fit a long long";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'id'"), std::string::npos)
        << e.what();
  }
  // Other spellings go through the double: exact to 2^53, refused beyond.
  EXPECT_EQ(serve::decode_request(R"({"op":"advance","to":1e3})").to, 1000);
  EXPECT_EQ(serve::decode_request(R"({"op":"stats","id":9.007199254740992e15})")
                .id,
            9007199254740992LL);
  for (const char* line : {R"({"op":"stats","id":9.3e18})",
                           R"({"op":"stats","id":-1e19})",
                           R"({"op":"stats","id":1.5})"})
    EXPECT_THROW(serve::decode_request(line), std::runtime_error) << line;
}

// The longest place encode_request writes for a VM the decoder accepts:
// kMaxPlaceDuration units that are all distinct runs, every double at full
// hexfloat length. It must fit under the daemon's line cap.
TEST(ServeWire, LongestLegalPlaceLineFitsTheRequestCap) {
  Request place;
  place.op = OpKind::kPlace;
  place.has_id = true;
  place.id = std::numeric_limits<long long>::min();
  place.vm = testing::vm(std::numeric_limits<VmId>::max(), 1,
                         serve::kMaxPlaceDuration, 1.0, 1.0);
  std::vector<Resources> units(
      static_cast<std::size_t>(serve::kMaxPlaceDuration));
  for (std::size_t k = 0; k < units.size(); ++k) {
    const double wide =
        k % 2 ? 0x1.fffffffffffffp+1023 : 0x1.ffffffffffffep+1022;
    units[k] = {wide, wide};
  }
  place.vm.set_profile(units);
  const std::string line = serve::encode_request(place);
  EXPECT_GT(line.size(), std::size_t{5} << 20);
  EXPECT_LT(line.size(), serve::kMaxRequestBytes);
  // Its 100,000 distinct runs sit under the value limit too.
  const Request back = serve::decode_request(line);
  EXPECT_EQ(back.id, place.id);
  expect_same_units(back.vm.profile, units);
}

// --- WAL --------------------------------------------------------------------

WalHeader test_header() {
  WalHeader h;
  h.allocator = "min-incremental";
  h.seed = 42;
  h.num_servers = 3;
  h.retry.max_attempts = 2;
  h.retry.base_delay = 8;
  h.retry.backoff = 2.5;
  h.retry.queue_capacity = 16;
  return h;
}

TEST(ServeWal, RoundTripsHeaderAndRecords) {
  const std::string path = temp_path("wal_roundtrip.wal");
  ::unlink(path.c_str());
  {
    serve::WalWriter writer(path, test_header(), /*sync_every=*/1);
    PlacementDecision d;
    d.server = 2;
    writer.append(
        serve::encode_place_record(1, "min-incremental", awkward_vm(), d,
                                   123.456));
    writer.append(serve::encode_retire_record(2, 7, 2));
    writer.append(serve::encode_advance_record(3, 15));
    writer.append(serve::encode_fault_record(4, {16, FaultKind::kFail, 1}));
    writer.append(serve::encode_drain_record(5));
  }
  const WalFile wal = serve::read_wal(path);
  EXPECT_FALSE(wal.torn_tail);
  ASSERT_TRUE(wal.has_header);
  EXPECT_EQ(wal.header.allocator, "min-incremental");
  EXPECT_EQ(wal.header.seed, 42u);
  EXPECT_EQ(wal.header.num_servers, 3u);
  EXPECT_EQ(wal.header.retry.max_attempts, 2);
  EXPECT_EQ(wal.header.retry.backoff, 2.5);
  ASSERT_EQ(wal.records.size(), 5u);
  EXPECT_EQ(wal.records[0].req.op, OpKind::kPlace);
  EXPECT_EQ(wal.records[0].chosen, 2);
  EXPECT_TRUE(wal.records[0].has_energy);
  EXPECT_EQ(wal.records[0].energy_after, 123.456);  // hexfloat: bit-exact
  EXPECT_EQ(wal.records[0].req.vm.demand.cpu, 0.1);
  EXPECT_EQ(wal.records[1].req.op, OpKind::kRetire);
  EXPECT_EQ(wal.records[1].req.vm_id, 7);
  EXPECT_EQ(wal.records[2].req.to, 15);
  EXPECT_EQ(wal.records[3].req.fault.kind, FaultKind::kFail);
  EXPECT_EQ(wal.records[4].req.op, OpKind::kDrain);
  ::unlink(path.c_str());
}

TEST(ServeWal, AbsentFileIsAFreshJournal) {
  const WalFile wal = serve::read_wal(temp_path("never_written.wal"));
  EXPECT_FALSE(wal.has_header);
  EXPECT_TRUE(wal.records.empty());
  EXPECT_FALSE(wal.torn_tail);
}

TEST(ServeWal, TornFinalLineIsDroppedNotFatal) {
  const std::string path = temp_path("wal_torn.wal");
  {
    std::ofstream out(path);
    out << serve::encode_wal_header(test_header()) << '\n';
    out << serve::encode_advance_record(1, 9) << '\n';
    out << R"({"op":"place","seq":"2","vm":3,"chos)";  // crash mid-append
  }
  const WalFile wal = serve::read_wal(path);
  EXPECT_TRUE(wal.torn_tail);
  ASSERT_EQ(wal.records.size(), 1u);
  EXPECT_EQ(wal.records[0].req.to, 9);
  ::unlink(path.c_str());
}

TEST(ServeWal, NewlinelessTailIsTornEvenWhenParseable) {
  // A completed commit batch always ends in '\n': a final line missing its
  // newline is a partial write whose op was never acked durable, even when
  // the bytes happen to parse. valid_bytes must stop at the durable prefix
  // so truncate_wal can cut the tail off.
  const std::string path = temp_path("wal_noeol.wal");
  std::string durable = serve::encode_wal_header(test_header()) + "\n" +
                        serve::encode_advance_record(1, 9) + "\n";
  {
    std::ofstream out(path);
    out << durable;
    out << serve::encode_advance_record(2, 12);  // crash mid-batch: no '\n'
  }
  const WalFile wal = serve::read_wal(path);
  EXPECT_TRUE(wal.torn_tail);
  ASSERT_EQ(wal.records.size(), 1u);
  EXPECT_EQ(wal.records[0].req.to, 9);
  EXPECT_EQ(wal.valid_bytes, durable.size());
  serve::truncate_wal(path, wal.valid_bytes);
  const WalFile again = serve::read_wal(path);
  EXPECT_FALSE(again.torn_tail);
  ASSERT_EQ(again.records.size(), 1u);
  EXPECT_EQ(again.valid_bytes, durable.size());
  ::unlink(path.c_str());
}

TEST(ServeWal, MidFileCorruptionIsFatal) {
  const std::string path = temp_path("wal_corrupt.wal");
  {
    std::ofstream out(path);
    out << serve::encode_wal_header(test_header()) << '\n';
    out << "garbage in the middle\n";
    out << serve::encode_advance_record(1, 9) << '\n';
  }
  EXPECT_THROW(serve::read_wal(path), std::runtime_error);
  ::unlink(path.c_str());
}

TEST(ServeWal, NonMonotonicSeqIsFatal) {
  const std::string path = temp_path("wal_seq.wal");
  {
    std::ofstream out(path);
    out << serve::encode_wal_header(test_header()) << '\n';
    out << serve::encode_advance_record(5, 9) << '\n';
    out << serve::encode_advance_record(5, 10) << '\n';
    out << serve::encode_advance_record(6, 11) << '\n';
  }
  EXPECT_THROW(serve::read_wal(path), std::runtime_error);
  ::unlink(path.c_str());
}

// A complete, newline-terminated last record that reuses a seq is a second
// writer's, not a torn append: dropping it would lose an op that writer
// acked, so it is refused like a seq regression anywhere else.
TEST(ServeWal, DuplicateSeqOnTheLastLineIsFatal) {
  const std::string path = temp_path("wal_dup_tail.wal");
  {
    std::ofstream out(path);
    out << serve::encode_wal_header(test_header()) << '\n';
    out << serve::encode_advance_record(1, 9) << '\n';
    out << serve::encode_advance_record(1, 10) << '\n';
  }
  EXPECT_THROW(serve::read_wal(path), std::runtime_error);
  ::unlink(path.c_str());
}

TEST(ServeWal, MissingHeaderIsFatal) {
  const std::string path = temp_path("wal_nohdr.wal");
  {
    std::ofstream out(path);
    out << serve::encode_advance_record(1, 9) << '\n';
    out << serve::encode_advance_record(2, 10) << '\n';
  }
  EXPECT_THROW(serve::read_wal(path), std::runtime_error);
  ::unlink(path.c_str());
}

// A complete run-form place on the last line is a record, not a torn tail.
TEST(ServeWal, CompleteRunFormPlaceOnTheLastLineIsKept) {
  const std::string path = temp_path("runs_tail.wal");
  ::unlink(path.c_str());
  VmSpec vm = testing::vm(2, 4, 11, 1.0, 1.0);
  vm.set_profile({{1.0, 2.0}, {1.0, 2.0}, {1.0, 2.0}, {0.5, 2.0},
                  {0.5, 2.0}, {0.5, 2.0}, {0.5, 2.0}, {0.25, 1.0}});
  PlacementDecision decision;
  decision.server = 1;
  {
    serve::WalWriter writer(path, test_header(), 1);
    writer.append(
        serve::encode_place_record(1, "min-incremental", vm, decision, 7.5));
  }
  const WalFile wal = serve::read_wal(path);
  EXPECT_FALSE(wal.torn_tail);
  ASSERT_EQ(wal.records.size(), 1u);
  std::stringstream text;
  text << std::ifstream(path).rdbuf();
  EXPECT_NE(text.str().find(R"("profile":[[3,)"), std::string::npos)
      << text.str();
  expect_same_units(wal.records[0].req.vm.profile, vm.profile);
  EXPECT_EQ(wal.records[0].chosen, 1);
  ::unlink(path.c_str());
}

// Versions 1 to 3 read; anything else stops at the header, so a reader
// never meets a record form it does not know. (A record follows the header:
// a malformed last line would read as a torn tail.)
TEST(ServeWal, UnknownVersionsAreRefused) {
  const std::string path = temp_path("version.wal");
  const std::string header = serve::encode_wal_header(test_header());
  ASSERT_NE(header.find("\"version\":3"), std::string::npos) << header;
  for (const std::string version : {"0", "1", "2", "3", "4"}) {
    std::string line = header;
    line.replace(line.find("\"version\":3"), 11, "\"version\":" + version);
    std::ofstream(path, std::ios::trunc)
        << line << '\n' << serve::encode_advance_record(1, 5) << '\n';
    if (version == "1" || version == "2" || version == "3") {
      EXPECT_TRUE(serve::read_wal(path).has_header) << version;
    } else {
      EXPECT_THROW(serve::read_wal(path), std::runtime_error) << version;
    }
  }
  ::unlink(path.c_str());
}

// A version 3 header names the seq its journal starts after, and every
// record must be past it. Versions 1 and 2 carry no such field and start
// after 0, whatever their header holds.
TEST(ServeWal, RecordsStartPastTheHeadersAfter) {
  const std::string path = temp_path("after.wal");
  WalHeader compacted = test_header();
  compacted.after = 5;
  const std::string header = serve::encode_wal_header(compacted);
  ASSERT_NE(header.find(",\"after\":\"5\""), std::string::npos) << header;
  std::ofstream(path, std::ios::trunc)
      << header << '\n' << serve::encode_advance_record(6, 9) << '\n';
  WalFile wal = serve::read_wal(path);
  EXPECT_EQ(wal.header.after, 5u);
  ASSERT_EQ(wal.records.size(), 1u);
  EXPECT_EQ(wal.records[0].seq, 6u);
  std::ofstream(path, std::ios::trunc)
      << header << '\n' << serve::encode_advance_record(5, 9) << '\n';
  EXPECT_THROW(serve::read_wal(path), std::runtime_error);
  std::string v2 = header;
  v2.replace(v2.find("\"version\":3"), 11, "\"version\":2");
  std::ofstream(path, std::ios::trunc)
      << v2 << '\n' << serve::encode_advance_record(1, 9) << '\n';
  wal = serve::read_wal(path);
  EXPECT_EQ(wal.header.after, 0u);
  EXPECT_EQ(wal.records.size(), 1u);
  ::unlink(path.c_str());
}

TEST(ServeWal, RecordsDoubleAsDecisionTrace) {
  // The journal's place/retire lines must stay loadable by the *real*
  // decision-trace loader, with last-write-wins resolving a retired VM to
  // kNoServer — the WAL is also a decision trace of the ops it holds.
  const std::string path = temp_path("wal_trace.wal");
  {
    serve::WalWriter writer(path, test_header(), 1);
    PlacementDecision placed;
    placed.server = 1;
    PlacementDecision rejected;
    rejected.server = kNoServer;
    rejected.reject = PlacementReject::kNoCapacity;
    writer.append(serve::encode_place_record(1, "min-incremental",
                                             testing::vm(0, 1, 5), placed,
                                             10.0));
    writer.append(serve::encode_place_record(2, "min-incremental",
                                             testing::vm(1, 2, 6), rejected,
                                             10.0));
    writer.append(serve::encode_place_record(3, "min-incremental",
                                             testing::vm(2, 3, 7), placed,
                                             20.0));
    writer.append(serve::encode_retire_record(4, 0, 1));
  }
  // Every line past the header, through the trace loader itself.
  std::ifstream journal(path);
  std::string header;
  ASSERT_TRUE(std::getline(journal, header));
  ASSERT_NE(header.find("\"op\":\"hdr\""), std::string::npos) << header;
  const std::vector<VmDecisionTrace> decisions = load_trace_jsonl(journal);
  ASSERT_EQ(decisions.size(), 4u);
  EXPECT_EQ(decisions[0].vm, 0);
  EXPECT_EQ(decisions[0].chosen, 1);
  EXPECT_EQ(decisions[1].chosen, kNoServer);  // rejected pins to -1
  const std::vector<ServerId> assignment =
      assignment_from_trace(decisions, /*num_vms=*/3);
  EXPECT_EQ(assignment[0], kNoServer);  // retire wins over the earlier place
  EXPECT_EQ(assignment[1], kNoServer);
  EXPECT_EQ(assignment[2], 1);
  ::unlink(path.c_str());
}

// --- snapshot ---------------------------------------------------------------

TEST(ServeSnapshot, RoundTripsEngineState) {
  serve::SnapshotData snap;
  snap.allocator = "ffps";
  snap.seed = 7;
  snap.num_servers = 2;
  snap.wal_seq = 31;
  snap.engine.frontier = 12;
  snap.engine.horizon = 40;
  snap.engine.requests = 9;
  snap.engine.placed = 8;
  snap.engine.energy = 0.1 + 0.2;  // famously inexact
  snap.engine.peak_resident = 77;
  snap.engine.fault_cursor = 2;
  snap.engine.retry_seq = 5;
  snap.engine.servers.resize(2);
  snap.engine.servers[0].health = ServerHealth::kUp;
  snap.engine.servers[0].retired_hi = 11;
  snap.engine.servers[0].active.push_back(awkward_vm());
  snap.engine.servers[1].health = ServerHealth::kDrained;
  PendingRequest pending;
  pending.vm = testing::vm(9, 14, 20);
  pending.not_before = 16;
  pending.attempts = 1;
  pending.displaced = true;
  pending.waiting_since = 13;
  pending.seq = 4;
  snap.engine.retry_queue.push_back(pending);
  std::int64_t count = 3;  // a distinct value in every counter
  for (const auto& field : kFaultStatsFields)
    snap.engine.fault_stats.*field.second = count++;
  snap.rng = {1, 2, 3, 4};
  snap.assignment = {{0, 1}, {5, 1}, {7, 0}, {9, kNoServer}};

  const std::string path = temp_path("snap_roundtrip.snap");
  serve::write_snapshot_atomic(path, snap);
  bool found = false;
  const serve::SnapshotData back = serve::load_snapshot(path, &found);
  ASSERT_TRUE(found);
  EXPECT_EQ(back.allocator, "ffps");
  EXPECT_EQ(back.seed, 7u);
  EXPECT_EQ(back.wal_seq, 31u);
  EXPECT_EQ(back.engine.frontier, 12);
  EXPECT_EQ(back.engine.energy, snap.engine.energy);  // bit-exact
  ASSERT_EQ(back.engine.servers.size(), 2u);
  EXPECT_EQ(back.engine.servers[0].retired_hi, 11);
  ASSERT_EQ(back.engine.servers[0].active.size(), 1u);
  EXPECT_EQ(back.engine.servers[0].active[0].demand.cpu, 0.1);
  EXPECT_EQ(back.engine.servers[1].health, ServerHealth::kDrained);
  ASSERT_EQ(back.engine.retry_queue.size(), 1u);
  EXPECT_EQ(back.engine.retry_queue[0].vm.id, 9);
  EXPECT_EQ(back.engine.retry_queue[0].not_before, 16);
  EXPECT_TRUE(back.engine.retry_queue[0].displaced);
  for (const auto& [key, member] : kFaultStatsFields)
    EXPECT_EQ(back.engine.fault_stats.*member, snap.engine.fault_stats.*member)
        << key;
  EXPECT_EQ(back.rng, (std::array<std::uint64_t, 4>{1, 2, 3, 4}));
  ASSERT_EQ(back.assignment.size(), 4u);
  EXPECT_EQ(back.assignment[3].second, kNoServer);

  // Version 3 carries no resolution log. A version 2 document, which wrote
  // one after the fault counters, still loads to the same state.
  const std::string text = serve::encode_snapshot(snap);
  EXPECT_NE(text.find("\"version\":3"), std::string::npos) << text;
  EXPECT_EQ(text.find("resolutions"), std::string::npos) << text;
  std::string v2 = text;
  v2.replace(v2.find("\"version\":3"), 11, "\"version\":2");
  const std::size_t stats_end = v2.find('}', v2.find("\"fault_stats\":{"));
  ASSERT_NE(stats_end, std::string::npos) << v2;
  v2.insert(stats_end + 1, ",\"resolutions\":[[5,1],[9,-1]]");
  const serve::SnapshotData old = serve::decode_snapshot(v2);
  EXPECT_EQ(serve::encode_snapshot(old), text);
  ::unlink(path.c_str());
}

TEST(ServeSnapshot, AbsentFileReportsNotFound) {
  bool found = true;
  serve::load_snapshot(temp_path("never_written.snap"), &found);
  EXPECT_FALSE(found);
}

TEST(ServeSnapshot, UnknownVersionsAreRefused) {
  serve::SnapshotData snap;
  snap.allocator = "min-incremental";
  const std::string text = serve::encode_snapshot(snap);
  ASSERT_NE(text.find("\"version\":3"), std::string::npos) << text;
  for (const std::string version : {"0", "1", "2", "3", "4"}) {
    std::string doc = text;
    doc.replace(doc.find("\"version\":3"), 11, "\"version\":" + version);
    if (version == "1" || version == "2" || version == "3") {
      EXPECT_EQ(serve::decode_snapshot(doc).allocator, "min-incremental");
    } else {
      EXPECT_THROW(serve::decode_snapshot(doc), std::runtime_error) << version;
    }
  }
}

// --- daemon vs replay_stream equivalence ------------------------------------

struct Workload {
  std::vector<VmSpec> vms;
  std::vector<ServerSpec> servers;
  std::vector<FaultEvent> fault_events;  // in time order
};

Workload make_workload(std::uint64_t seed, bool with_faults) {
  Rng rng(seed);
  ProblemInstance problem = testing::random_problem(rng, /*num_vms=*/40,
                                                    /*num_servers=*/5);
  Workload w;
  w.vms = problem.vms;
  w.servers = problem.servers;
  if (with_faults) {
    Time last_start = 1;
    for (const VmSpec& vm : w.vms) last_start = std::max(last_start, vm.start);
    // Mid-stream chaos, then a failure and recovery past the last arrival
    // that a client sends after every place. The recovery comes after the
    // first retry of a VM the failure displaces would be due.
    const Time t1 = std::max<Time>(1, last_start / 3);
    const Time t2 = std::max<Time>(1, last_start / 2);
    w.fault_events.push_back({t1, FaultKind::kFail, 1});
    w.fault_events.push_back({t2, FaultKind::kRecover, 1});
    w.fault_events.push_back({t2, FaultKind::kDrain, 2});
    w.fault_events.push_back({last_start + 1, FaultKind::kFail, 0});
    w.fault_events.push_back({last_start + 8, FaultKind::kRecover, 0});
  }
  return w;
}

RetryPolicy test_retry() {
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.base_delay = 4;
  retry.backoff = 2.0;
  retry.queue_capacity = 16;
  return retry;
}

/// The reference run: the exact same workload through replay_stream.
ReplayReport reference_run(const Workload& w, const std::string& allocator,
                           std::uint64_t seed, const RetryPolicy& retry) {
  AllocatorPtr alloc = make_allocator(allocator);
  std::unique_ptr<PlacementPolicy> policy = alloc->make_policy();
  Rng rng(seed);
  VectorArrivalStream arrivals(w.vms);
  ReplayOptions options;
  options.retry = retry;
  FaultPlan plan{std::vector<FaultEvent>(w.fault_events)};
  if (!w.fault_events.empty()) options.faults = &plan;
  return replay_stream(arrivals, w.servers, *policy, rng, options);
}

/// The request lines `esva client` would send for `w`: places in start-time
/// order, each fault event before the first arrival at or after it.
std::vector<std::string> request_lines(const Workload& w) {
  std::vector<std::string> lines;
  std::size_t next_fault = 0;
  const auto fault_line = [&](const FaultEvent& event) {
    Request req;
    req.op = OpKind::kFault;
    req.fault = event;
    lines.push_back(serve::encode_request(req));
  };
  for (const std::size_t j : order_by_start(w.vms)) {
    while (next_fault < w.fault_events.size() &&
           w.fault_events[next_fault].at <= w.vms[j].start)
      fault_line(w.fault_events[next_fault++]);
    Request req;
    req.op = OpKind::kPlace;
    req.vm = w.vms[j];
    lines.push_back(serve::encode_request(req));
  }
  while (next_fault < w.fault_events.size())
    fault_line(w.fault_events[next_fault++]);
  return lines;
}

/// Sends lines [from, to) to `daemon`; each must be acked.
void send_lines(Daemon& daemon, const std::vector<std::string>& lines,
                std::size_t from, std::size_t to) {
  for (std::size_t k = from; k < to; ++k) {
    const std::string response = daemon.handle_line(lines[k]);
    ASSERT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;
  }
}

/// Feeds the workload to `daemon` the way `esva client` would.
void feed_daemon(Daemon& daemon, const Workload& w) {
  const std::vector<std::string> lines = request_lines(w);
  send_lines(daemon, lines, 0, lines.size());
}

void expect_matches_reference(const Daemon& daemon,
                              const ReplayReport& reference) {
  EXPECT_EQ(daemon.engine().total_energy(), reference.total_energy)
      << "energy must be byte-identical to esva stream";
  EXPECT_EQ(static_cast<std::size_t>(daemon.engine().requests()),
            reference.requests);
  EXPECT_EQ(static_cast<std::size_t>(daemon.engine().placed()),
            reference.placed);
  for (std::size_t id = 0; id < reference.assignment.size(); ++id) {
    const auto it = daemon.assignment().find(static_cast<VmId>(id));
    const ServerId daemon_server =
        it == daemon.assignment().end() ? kNoServer : it->second;
    EXPECT_EQ(daemon_server, reference.assignment[id]) << "vm " << id;
  }
  for (const auto& [key, member] : kFaultStatsFields)
    EXPECT_EQ(daemon.engine().fault_stats().*member, reference.faults.*member)
        << key;
  EXPECT_EQ(daemon.engine().cluster().frontier(), reference.final_frontier);
}

/// A stats line without the counters of the daemon's own restart
/// (wal_fsyncs, replayed): the state any restart must reproduce.
std::string stats_state(const std::string& line) {
  return line.substr(0, line.find(",\"wal_fsyncs\"")) +
         line.substr(line.find(",\"torn_tail_recovered\""));
}

DaemonOptions daemon_options(const std::string& allocator, std::uint64_t seed,
                             const RetryPolicy& retry, const std::string& tag,
                             bool with_snapshot = false) {
  DaemonOptions options;
  options.allocator = allocator;
  options.seed = seed;
  options.retry = retry;
  options.wal_path = temp_path(tag + ".wal");
  if (with_snapshot) options.snapshot_path = temp_path(tag + ".snap");
  testing::remove_journal(options.wal_path);
  if (with_snapshot) ::unlink(options.snapshot_path.c_str());
  return options;
}

TEST(ServeEquivalence, DaemonMatchesReplayStreamAcrossAllocators) {
  for (const std::string allocator :
       {"min-incremental", "ffps", "best-fit-cpu", "random-fit"}) {
    const Workload w = make_workload(0x5eed, /*with_faults=*/false);
    const ReplayReport reference =
        reference_run(w, allocator, 42, RetryPolicy{});
    Daemon daemon(w.servers,
                  daemon_options(allocator, 42, RetryPolicy{},
                                 "equiv_" + allocator));
    feed_daemon(daemon, w);
    daemon.drain();
    expect_matches_reference(daemon, reference);
    testing::remove_journal(temp_path("equiv_" + allocator + ".wal"));
  }
}

TEST(ServeEquivalence, DaemonMatchesReplayStreamUnderFaultsAndRetries) {
  for (const std::string allocator : {"min-incremental", "ffps"}) {
    const Workload w = make_workload(0xfa017, /*with_faults=*/true);
    const ReplayReport reference =
        reference_run(w, allocator, 42, test_retry());
    Daemon daemon(w.servers,
                  daemon_options(allocator, 42, test_retry(),
                                 "equivf_" + allocator));
    feed_daemon(daemon, w);
    daemon.drain();
    EXPECT_GT(daemon.engine().fault_stats().fault_events, 0);
    expect_matches_reference(daemon, reference);
    testing::remove_journal(temp_path("equivf_" + allocator + ".wal"));
  }
}

// Two 4-CPU servers; VMs 0 and 1 fill them over [1,100], VM 2 arrives at 2
// and waits in the retry queue. Server 0 fails at 10 and recovers at 20,
// both past the last arrival while that retry is queued. The plan-driven
// drain fires both events before it steps through the queue, as a daemon
// does when a client sends the plan's tail and then drains: VM 2 is given
// up at 20, and VM 0 waits from 10 until its retry at 28.
TEST(ServeEquivalence, DaemonMatchesReplayStreamWithFaultsPastTheLastArrival) {
  Workload w;
  for (ServerId i = 0; i < 2; ++i)
    w.servers.push_back(testing::server(i, 4.0, 8.0, 100.0, 200.0, 1.0));
  w.vms = {testing::vm(0, 1, 100, 4.0, 4.0), testing::vm(1, 1, 100, 4.0, 4.0),
           testing::vm(2, 2, 50, 4.0, 4.0)};
  w.fault_events = {{10, FaultKind::kFail, 0}, {20, FaultKind::kRecover, 0}};
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.base_delay = 4;
  const ReplayReport reference =
      reference_run(w, "min-incremental", 42, retry);
  EXPECT_EQ(reference.total_energy, 55300.0);
  EXPECT_EQ(reference.faults.downtime_units, 18);
  EXPECT_EQ(reference.final_frontier, 28);
  EXPECT_EQ(reference.assignment, (std::vector<ServerId>{0, 1, kNoServer}));

  Daemon daemon(w.servers,
                daemon_options("min-incremental", 42, retry, "equiv_tail"));
  feed_daemon(daemon, w);
  daemon.drain();
  expect_matches_reference(daemon, reference);
  testing::remove_journal(temp_path("equiv_tail.wal"));
}

// The daemon folds each op's resolutions into its assignment map and then
// drops them from the engine's log. Driven through a fail and a recover of
// some server every few time units, it holds an empty log after every op,
// still matches esva stream (whose engine keeps its whole log), and a
// restart replays its journal to the same stats line.
TEST(ServeEquivalence, ResolutionLogIsEmptyAfterEveryOp) {
  Workload w = make_workload(0xe7ac, /*with_faults=*/false);
  Time last_start = 1;
  for (const VmSpec& vm : w.vms) last_start = std::max(last_start, vm.start);
  for (Time t = 2; t + 1 <= last_start + 8; t += 3) {
    const ServerId server = static_cast<ServerId>(t % 5);
    w.fault_events.push_back({t, FaultKind::kFail, server});
    w.fault_events.push_back({t + 1, FaultKind::kRecover, server});
  }
  const ReplayReport reference =
      reference_run(w, "min-incremental", 42, test_retry());
  const DaemonOptions options =
      daemon_options("min-incremental", 42, test_retry(), "resolution_log");
  std::string stats;
  {
    Daemon daemon(w.servers, options);
    for (const std::string& line : request_lines(w)) {
      const std::string response = daemon.handle_line(line);
      ASSERT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;
      ASSERT_TRUE(daemon.engine().resolutions().empty()) << line;
    }
    daemon.drain();
    EXPECT_TRUE(daemon.engine().resolutions().empty());
    EXPECT_GT(daemon.engine().fault_stats().evacuated, 10);
    expect_matches_reference(daemon, reference);
    stats = daemon.stats_json(/*with_assignment=*/true);
  }
  Daemon restarted(w.servers, options);
  EXPECT_TRUE(restarted.engine().resolutions().empty());
  EXPECT_EQ(stats_state(restarted.stats_json(/*with_assignment=*/true)),
            stats_state(stats));
  testing::remove_journal(options.wal_path);
}

// --- crash recovery ---------------------------------------------------------

/// Splits the client-visible op sequence at `cut`, runs the first part in one
/// daemon, abandons it (no checkpoint — the WAL is all that survives, as
/// after a SIGKILL), restarts on the same journal and finishes the stream.
void crash_and_recover(const std::string& allocator, bool with_snapshot,
                       bool with_faults) {
  const std::string tag = std::string("crash_") + allocator +
                          (with_snapshot ? "_snap" : "") +
                          (with_faults ? "_faults" : "");
  const Workload w = make_workload(0xcafe, with_faults);
  const RetryPolicy retry = with_faults ? test_retry() : RetryPolicy{};
  const ReplayReport reference = reference_run(w, allocator, 42, retry);

  const DaemonOptions options =
      daemon_options(allocator, 42, retry, tag, with_snapshot);
  const std::vector<std::size_t> order = order_by_start(w.vms);
  const std::size_t cut = order.size() / 2;

  std::uint64_t seq_at_cut = 0;
  {
    Daemon first(w.servers, options);
    Workload head = w;
    head.vms.clear();
    for (std::size_t k = 0; k < cut; ++k) head.vms.push_back(w.vms[order[k]]);
    // Keep only faults that the head would have sent.
    Time head_last = 0;
    for (const VmSpec& vm : head.vms)
      head_last = std::max(head_last, vm.start);
    head.fault_events.clear();
    for (const FaultEvent& e : w.fault_events)
      if (e.at <= head_last) head.fault_events.push_back(e);
    feed_daemon(first, head);
    if (with_snapshot) first.checkpoint();
    if (with_snapshot && with_faults) {
      // The snapshot must hold a drained or failed server, so the restart
      // restores a frontier stub and not only rebuilt timelines.
      bool found = false;
      const serve::SnapshotData snap =
          serve::load_snapshot(options.snapshot_path, &found);
      ASSERT_TRUE(found);
      EXPECT_TRUE(std::any_of(snap.engine.servers.begin(),
                              snap.engine.servers.end(),
                              [](const ServerStateSnapshot& server) {
                                return server.health != ServerHealth::kUp;
                              }));
    }
    seq_at_cut = first.last_seq();
    // `first` goes out of scope without drain or checkpoint: everything it
    // acked is on disk via the WAL appends; nothing else survives.
  }

  Daemon second(w.servers, options);
  EXPECT_EQ(second.recovered_from_snapshot(), with_snapshot);
  if (with_snapshot)
    EXPECT_EQ(second.replayed_records(), 0u);  // snapshot covers everything
  else
    EXPECT_EQ(second.replayed_records(), seq_at_cut);
  EXPECT_EQ(second.last_seq(), seq_at_cut);

  Workload tail = w;
  tail.vms.clear();
  for (std::size_t k = cut; k < order.size(); ++k)
    tail.vms.push_back(w.vms[order[k]]);
  Time head_last = 0;
  for (std::size_t k = 0; k < cut; ++k)
    head_last = std::max(head_last, w.vms[order[k]].start);
  tail.fault_events.clear();
  for (const FaultEvent& e : w.fault_events)
    if (e.at > head_last) tail.fault_events.push_back(e);
  feed_daemon(second, tail);
  second.drain();
  expect_matches_reference(second, reference);

  testing::remove_journal(options.wal_path);
  if (with_snapshot) ::unlink(options.snapshot_path.c_str());
}

TEST(ServeRecovery, CrashMidStreamReplaysToIdenticalState) {
  crash_and_recover("min-incremental", /*with_snapshot=*/false,
                    /*with_faults=*/false);
}

TEST(ServeRecovery, CrashMidStreamWithSnapshotBoundsReplay) {
  crash_and_recover("min-incremental", /*with_snapshot=*/true,
                    /*with_faults=*/false);
}

TEST(ServeRecovery, CrashMidStreamUnderFaultsAndRetries) {
  crash_and_recover("ffps", /*with_snapshot=*/false, /*with_faults=*/true);
}

TEST(ServeRecovery, CrashMidStreamWithSnapshotUnderFaults) {
  crash_and_recover("min-incremental", /*with_snapshot=*/true,
                    /*with_faults=*/true);
}

// Every boundary value the daemon accepts is one it can restart on: the
// journal header reads the configuration back unchanged. Two servers make
// requests defer, so the delay and backoff extremes run through the retry
// queue (saturating, never overflowing Time).
TEST(ServeRecovery, AcceptedBoundaryOptionsRestartOnTheirOwnWal) {
  Workload w = make_workload(0xb0b, /*with_faults=*/false);
  w.servers.resize(2);
  const std::vector<std::function<void(DaemonOptions&)>> edits = {
      [](DaemonOptions& o) { o.retry.max_attempts = 0; },
      [](DaemonOptions& o) {
        o.retry.max_attempts = std::numeric_limits<int>::max();
      },
      [](DaemonOptions& o) { o.retry.base_delay = 0; },
      [](DaemonOptions& o) {
        o.retry.base_delay = std::numeric_limits<Time>::max();
      },
      [](DaemonOptions& o) {
        o.retry.backoff = std::numeric_limits<double>::denorm_min();
      },
      [](DaemonOptions& o) {
        o.retry.backoff = std::numeric_limits<double>::max();
      },
      [](DaemonOptions& o) { o.retry.queue_capacity = 0; },
      [](DaemonOptions& o) { o.retry.queue_capacity = kMaxRetryQueue; },
      [](DaemonOptions& o) {
        o.wal_sync_every = std::numeric_limits<int>::max();
      },
      [](DaemonOptions& o) {
        o.snapshot_path = temp_path("bound.snap");
        o.snapshot_every = std::numeric_limits<std::uint64_t>::max();
      },
  };
  for (std::size_t k = 0; k < edits.size(); ++k) {
    DaemonOptions options =
        daemon_options("min-incremental", 42, test_retry(), "bound");
    edits[k](options);
    std::uint64_t acked = 0;
    {
      Daemon first(w.servers, options);
      feed_daemon(first, w);
      acked = first.last_seq();
      if (options.retry.enabled()) {
        EXPECT_GT(first.engine().fault_stats().deferred, 0) << "case " << k;
      }
    }
    try {
      Daemon second(w.servers, options);
      EXPECT_EQ(second.last_seq(), acked) << "case " << k;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << k << ": " << e.what();
    }
    testing::remove_journal(options.wal_path);
    ::unlink(temp_path("bound.snap").c_str());
  }
}

// Out-of-range options fail in the Daemon constructor itself — the path
// every caller goes through — before any journal is written.
TEST(ServeRecovery, OutOfRangeOptionsThrowBeforeWritingAWal) {
  const Workload w = make_workload(0xbad, /*with_faults=*/false);
  const std::vector<std::function<void(DaemonOptions&)>> edits = {
      [](DaemonOptions& o) { o.retry.max_attempts = -1; },
      [](DaemonOptions& o) { o.retry.base_delay = -1; },
      [](DaemonOptions& o) {
        o.retry.backoff = std::numeric_limits<double>::quiet_NaN();
      },
      [](DaemonOptions& o) { o.retry.backoff = 0.0; },
      [](DaemonOptions& o) {
        o.retry.queue_capacity = static_cast<std::size_t>(-1);
      },
      [](DaemonOptions& o) { o.retry.queue_capacity = kMaxRetryQueue + 1; },
      [](DaemonOptions& o) { o.wal_sync_every = 0; },
      [](DaemonOptions& o) { o.scan.threads = 2; },
      [](DaemonOptions& o) { o.scan.shards = 2; },
  };
  for (std::size_t k = 0; k < edits.size(); ++k) {
    DaemonOptions options =
        daemon_options("min-incremental", 42, test_retry(), "reject");
    edits[k](options);
    EXPECT_THROW(Daemon(w.servers, options), std::invalid_argument)
        << "case " << k;
    EXPECT_FALSE(std::ifstream(options.wal_path).good()) << "case " << k;
  }
}

TEST(ServeRecovery, TornTailIsDroppedAndFlagged) {
  const Workload w = make_workload(0x70a2, false);
  const DaemonOptions options =
      daemon_options("min-incremental", 42, RetryPolicy{}, "torn");
  std::uint64_t acked = 0;
  {
    Daemon daemon(w.servers, options);
    feed_daemon(daemon, w);
    acked = daemon.last_seq();
  }
  {
    // Simulate a crash mid-append: a truncated line at the tail.
    std::ofstream out(options.wal_path, std::ios::app);
    out << R"({"op":"place","seq":")" << acked + 1 << R"(","vm":123,"cho)";
  }
  Daemon recovered(w.servers, options);
  EXPECT_TRUE(recovered.recovered_torn_tail());
  EXPECT_EQ(recovered.last_seq(), acked);
  EXPECT_EQ(recovered.replayed_records(), acked);
  testing::remove_journal(options.wal_path);
}

TEST(ServeRecovery, TornTailIsTruncatedSoLaterAppendsStayParseable) {
  // Recovery must cut the torn bytes off the file before reopening it for
  // append: otherwise the next record is concatenated onto the torn line,
  // and the following restart either hard-errors on mid-file corruption or
  // silently drops an acked+fsynced record as a new torn tail.
  const Workload w = make_workload(0x7041, false);
  const DaemonOptions options =
      daemon_options("min-incremental", 42, RetryPolicy{}, "torn_trunc");
  std::uint64_t acked = 0;
  {
    Daemon daemon(w.servers, options);
    feed_daemon(daemon, w);
    acked = daemon.last_seq();
  }
  {
    std::ofstream out(options.wal_path, std::ios::app);
    out << R"({"op":"place","seq":")" << acked + 1 << R"(","vm":123,"cho)";
  }
  std::uint64_t after = 0;
  {
    Daemon recovered(w.servers, options);
    EXPECT_TRUE(recovered.recovered_torn_tail());
    EXPECT_EQ(recovered.last_seq(), acked);
    // Journal one more op onto the recovered (truncated) file.
    Request retire;
    retire.op = OpKind::kRetire;
    retire.vm_id = w.vms.front().id;
    EXPECT_EQ(recovered.handle_line(serve::encode_request(retire))
                  .rfind("{\"ok\":true", 0),
              0u);
    after = recovered.last_seq();
    EXPECT_EQ(after, acked + 1);
  }
  // A third recovery sees a clean journal including the post-torn append —
  // nothing merged, nothing dropped.
  Daemon third(w.servers, options);
  EXPECT_FALSE(third.recovered_torn_tail());
  EXPECT_EQ(third.last_seq(), after);
  EXPECT_EQ(third.replayed_records(), after);
  EXPECT_EQ(third.assignment().at(w.vms.front().id), kNoServer);
  testing::remove_journal(options.wal_path);
}

TEST(ServeRecovery, JournalOfBlankLinesIsCreatedAfresh) {
  // A journal of blank lines has no header, so recovery reads it as fresh.
  // It must then be written as one too: a writer that appended records to
  // the blank lines would ack them into a journal the next restart refuses
  // ("journal does not start with a header").
  const Workload w = make_workload(0xb1a4, false);
  for (const std::string blank : {"\n", "\r\n", " \t\n\n"}) {
    SCOPED_TRACE(::testing::PrintToString(blank));
    const DaemonOptions options =
        daemon_options("min-incremental", 42, RetryPolicy{}, "blank");
    std::ofstream(options.wal_path, std::ios::binary) << blank;
    std::uint64_t acked = 0;
    std::map<VmId, ServerId> assignment;
    Energy energy = 0.0;
    {
      Daemon daemon(w.servers, options);
      feed_daemon(daemon, w);
      acked = daemon.last_seq();
      assignment = daemon.assignment();
      energy = daemon.engine().total_energy();
    }  // destroyed without a checkpoint
    Daemon recovered(w.servers, options);
    EXPECT_EQ(recovered.replayed_records(), acked);
    EXPECT_EQ(recovered.assignment(), assignment);
    EXPECT_EQ(recovered.engine().total_energy(), energy);
    testing::remove_journal(options.wal_path);
  }
}

TEST(ServeRecovery, ConfigMismatchRefusesToServe) {
  const Workload w = make_workload(0x3141, false);
  const DaemonOptions options =
      daemon_options("min-incremental", 42, RetryPolicy{}, "mismatch");
  {
    Daemon daemon(w.servers, options);
    feed_daemon(daemon, w);
  }
  DaemonOptions other = options;
  other.allocator = "ffps";
  EXPECT_THROW(Daemon(w.servers, other), std::runtime_error);
  DaemonOptions reseeded = options;
  reseeded.seed = 43;
  EXPECT_THROW(Daemon(w.servers, reseeded), std::runtime_error);
  testing::remove_journal(options.wal_path);
}

TEST(ServeRecovery, ChecksumDivergenceIsFatal) {
  const std::string path = temp_path("diverge.wal");
  ::unlink(path.c_str());
  const Workload w = make_workload(0x2718, false);
  WalHeader header;
  header.allocator = "min-incremental";
  header.seed = 42;
  header.num_servers = w.servers.size();
  {
    serve::WalWriter writer(path, header, 1);
    // Claim the engine placed this VM on server 3; the deterministic replay
    // will disagree, and recovery must refuse rather than diverge silently.
    PlacementDecision lie;
    lie.server = static_cast<ServerId>(w.servers.size() - 1);
    VmSpec vm = w.vms.front();
    vm.start = std::max<Time>(1, vm.start);
    writer.append(serve::encode_place_record(1, "min-incremental", vm, lie,
                                             -1.0));
  }
  DaemonOptions options;
  options.allocator = "min-incremental";
  options.seed = 42;
  options.wal_path = path;
  EXPECT_THROW(Daemon(w.servers, options), std::runtime_error);
  testing::remove_journal(path);
}

// A fault record dated before 1 reads like the wire op it came from (the
// journal reader shares decode_request), and replay refuses it with the
// engine's frontier check, naming the record.
TEST(ServeRecovery, FaultRecordBeforeTheFrontierFailsAtReplay) {
  const std::string path = temp_path("early_fault.wal");
  ::unlink(path.c_str());
  const Workload w = make_workload(0x2719, false);
  WalHeader header;
  header.allocator = "min-incremental";
  header.seed = 42;
  header.num_servers = w.servers.size();
  {
    serve::WalWriter writer(path, header, 1);
    writer.append(serve::encode_advance_record(1, 5));
    writer.append(serve::encode_fault_record(2, {0, FaultKind::kFail, 0}));
  }
  const WalFile wal = serve::read_wal(path);
  ASSERT_EQ(wal.records.size(), 2u);
  EXPECT_EQ(wal.records[1].req.op, OpKind::kFault);
  EXPECT_EQ(wal.records[1].req.fault.at, 0);
  DaemonOptions options;
  options.allocator = "min-incremental";
  options.seed = 42;
  options.wal_path = path;
  try {
    Daemon daemon(w.servers, options);
    ADD_FAILURE() << "replayed a fault before the frontier";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("wal replay (seq 2)"), std::string::npos) << what;
    EXPECT_NE(what.find("precedes the frontier"), std::string::npos) << what;
  }
  testing::remove_journal(path);
}

// --- compaction -------------------------------------------------------------

// A compacted journal's records before its start are only in the snapshot
// that compacted it. Recovery refuses the journal, naming both files and
// changing neither, when that snapshot is missing, when an older one stands
// in its place, and when the daemon runs without --snapshot; with the
// snapshot back, it recovers.
TEST(ServeRecovery, CompactedJournalWithoutItsSnapshotIsRefused) {
  const Workload w = make_workload(0xc0de, /*with_faults=*/false);
  const std::vector<std::string> lines = request_lines(w);
  const DaemonOptions options =
      daemon_options("min-incremental", 42, RetryPolicy{}, "compacted",
                     /*with_snapshot=*/true);
  const std::string wal_tmp = options.wal_path + ".tmp";
  std::string older;
  std::string stats;
  {
    Daemon daemon(w.servers, options);
    send_lines(daemon, lines, 0, 10);
    daemon.checkpoint();
    older = file_bytes(options.snapshot_path);
    send_lines(daemon, lines, 10, 20);
    daemon.checkpoint();
    send_lines(daemon, lines, 20, 25);
    stats = daemon.stats_json(/*with_assignment=*/true);
  }
  const std::string journal = file_bytes(options.wal_path);
  const std::string newer = file_bytes(options.snapshot_path);
  ASSERT_EQ(serve::read_wal(options.wal_path).header.after, 20u);
  DaemonOptions without = options;
  without.snapshot_path.clear();
  const std::string snap = "snapshot '" + options.snapshot_path + "'";
  struct Refused {
    const char* name;
    const DaemonOptions* options;
    std::string snapshot;  // empty: none
    std::string error;
  };
  const std::vector<Refused> cases = {
      {"missing snapshot", &options, "", snap + " is missing"},
      {"older snapshot", &options, older, snap + " holds only seq 10"},
      {"no --snapshot", &without, newer, "the daemon runs without --snapshot"},
  };
  for (const Refused& c : cases) {
    ::unlink(options.snapshot_path.c_str());
    if (!c.snapshot.empty())
      std::ofstream(options.snapshot_path, std::ios::binary) << c.snapshot;
    std::string error;
    try {
      Daemon refused(w.servers, *c.options);
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
    EXPECT_NE(error.find("wal '" + options.wal_path + "' starts after seq 20"),
              std::string::npos)
        << c.name << ": " << error;
    EXPECT_NE(error.find(c.error), std::string::npos)
        << c.name << ": " << error;
    EXPECT_EQ(file_bytes(options.wal_path), journal) << c.name;
    EXPECT_EQ(file_bytes(options.snapshot_path), c.snapshot) << c.name;
    EXPECT_FALSE(std::ifstream(wal_tmp).good()) << c.name;
  }
  std::ofstream(options.snapshot_path, std::ios::binary | std::ios::trunc)
      << newer;
  Daemon recovered(w.servers, options);
  EXPECT_EQ(recovered.last_seq(), 25u);
  EXPECT_EQ(recovered.replayed_records(), 5u);
  EXPECT_EQ(stats_state(recovered.stats_json(/*with_assignment=*/true)),
            stats_state(stats));
  testing::remove_journal(options.wal_path);
  ::unlink(options.snapshot_path.c_str());
}

// With a snapshot every K ops the journal never holds K records: each
// periodic snapshot compacts it, whatever the fsync schedule, and a restart
// reads only the records past the last snapshot to the same state.
TEST(ServeRecovery, PeriodicSnapshotsKeepTheJournalUnderTheirPeriod) {
  const Workload w = make_workload(0xb0d, /*with_faults=*/true);
  const std::vector<std::string> lines = request_lines(w);
  constexpr std::uint64_t kEvery = 4;
  ASSERT_GE(lines.size(), 8 * kEvery);
  for (const int sync_every : {1, 32}) {
    DaemonOptions options = daemon_options(
        "min-incremental", 42, test_retry(),
        "bounded_" + std::to_string(sync_every), /*with_snapshot=*/true);
    options.snapshot_every = kEvery;
    options.wal_sync_every = sync_every;
    std::string stats;
    {
      Daemon daemon(w.servers, options);
      for (const std::string& line : lines) {
        const std::string response = daemon.handle_line(line);
        ASSERT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;
        const WalFile wal = serve::read_wal(options.wal_path);
        EXPECT_LT(wal.records.size(), kEvery) << "seq " << daemon.last_seq();
        EXPECT_EQ(wal.header.after + wal.records.size(), daemon.last_seq());
      }
      stats = daemon.stats_json(/*with_assignment=*/true);
    }
    Daemon restarted(w.servers, options);
    EXPECT_TRUE(restarted.recovered_from_snapshot());
    EXPECT_LT(restarted.recovery().records_read, kEvery);
    EXPECT_EQ(restarted.recovery().records_read, restarted.replayed_records());
    EXPECT_EQ(stats_state(restarted.stats_json(/*with_assignment=*/true)),
              stats_state(stats));
    testing::remove_journal(options.wal_path);
    ::unlink(options.snapshot_path.c_str());
  }
}

// The records a restart replays count toward --snapshot-every, so a daemon
// restarted more often than its period still snapshots and compacts: at
// snapshot_every = 4 and a restart after every 3 ops, the snapshots fall on
// seqs 4, 8 and 12 (the first, second and third op after a restart), as
// they would without the restarts.
TEST(ServeRecovery, ReplayedRecordsCountTowardTheSnapshotPeriod) {
  const Workload w = make_workload(0x5e7, /*with_faults=*/false);
  const std::vector<std::string> lines = request_lines(w);
  constexpr std::uint64_t kEvery = 4;
  constexpr std::size_t kOpsPerRun = 3;
  ASSERT_GE(lines.size(), 4 * kOpsPerRun);
  DaemonOptions options = daemon_options("min-incremental", 42, RetryPolicy{},
                                         "restart_period",
                                         /*with_snapshot=*/true);
  options.snapshot_every = kEvery;
  for (std::size_t from = 0; from < 4 * kOpsPerRun; from += kOpsPerRun) {
    Daemon daemon(w.servers, options);
    for (std::size_t k = from; k < from + kOpsPerRun; ++k) {
      send_lines(daemon, lines, k, k + 1);
      const std::uint64_t seq = daemon.last_seq();
      const WalFile wal = serve::read_wal(options.wal_path);
      EXPECT_EQ(wal.header.after, seq - seq % kEvery) << "seq " << seq;
      EXPECT_EQ(wal.records.size(), seq % kEvery) << "seq " << seq;
    }
  }
  testing::remove_journal(options.wal_path);
  ::unlink(options.snapshot_path.c_str());
}

// --- retire and handle_line surface ----------------------------------------

// Places whose VMs end at the largest Time, as raw request lines: two
// identical stable VMs (one busy interval on the one server) and a profiled
// one whose runs end there. Each is acked and placed, stats answers, and a
// restart on the journal replays all three to the same state.
TEST(ServeDaemon, PlacesEndingAtTheLargestTimeAreAckedAndRecovered) {
  const std::vector<ServerSpec> servers{testing::basic_server(0)};
  const DaemonOptions options =
      daemon_options("min-incremental", 42, RetryPolicy{}, "end_of_time");
  const std::vector<std::string> lines = {
      R"({"op":"place","vm":{"id":1,"cpu":1,"mem":1,"start":2147483600,)"
      R"("end":2147483647}})",
      R"({"op":"place","vm":{"id":2,"cpu":1,"mem":1,"start":2147483600,)"
      R"("end":2147483647}})",
      R"({"op":"place","vm":{"id":3,"cpu":1,"mem":1,"start":2147483640,)"
      R"("end":2147483647,"profile":[[4,1,1],[4,0.5,1]]}})",
  };
  const std::map<VmId, ServerId> placed{{1, 0}, {2, 0}, {3, 0}};
  Energy energy = 0.0;
  {
    Daemon daemon(servers, options);
    for (const std::string& line : lines) {
      const std::string response = daemon.handle_line(line);
      EXPECT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;
      EXPECT_NE(response.find("\"server\":0"), std::string::npos) << response;
    }
    EXPECT_EQ(daemon.assignment(), placed);
    const std::string stats = daemon.handle_line(R"({"op":"stats"})");
    EXPECT_EQ(stats.rfind("{\"ok\":true", 0), 0u) << stats;
    EXPECT_NE(stats.find("\"active_vms\":3"), std::string::npos) << stats;
    energy = daemon.engine().total_energy();
    EXPECT_GT(energy, 0.0);
  }
  Daemon recovered(servers, options);
  EXPECT_EQ(recovered.last_seq(), lines.size());
  EXPECT_EQ(recovered.replayed_records(), lines.size());
  EXPECT_EQ(recovered.assignment(), placed);
  EXPECT_EQ(recovered.engine().total_energy(), energy);
  EXPECT_EQ(recovered.engine().cluster().active_vms(), 3u);
  testing::remove_journal(options.wal_path);
}

TEST(ServeDaemon, RetireFreesCapacityAndPinsAssignment) {
  std::vector<ServerSpec> servers{testing::basic_server(0)};
  DaemonOptions options =
      daemon_options("min-incremental", 42, RetryPolicy{}, "retire");
  // The journal is locked while a daemon holds it, so the live daemon is
  // closed before the recovery below; its seq and energy are kept.
  std::uint64_t acked = 0;
  Energy energy = 0;
  {
    Daemon daemon(servers, options);

    // The server fits exactly one 10-CPU VM at a time.
    Request big;
    big.op = OpKind::kPlace;
    big.vm = testing::vm(0, 1, 50, 10.0, 1.0);
    ASSERT_EQ(daemon.handle_line(serve::encode_request(big))
                  .rfind("{\"ok\":true", 0),
              0u);
    EXPECT_EQ(daemon.assignment().at(0), 0);

    Request blocked;
    blocked.op = OpKind::kPlace;
    blocked.vm = testing::vm(1, 5, 20, 10.0, 1.0);
    const std::string rejected =
        daemon.handle_line(serve::encode_request(blocked));
    EXPECT_NE(rejected.find("\"server\":null"), std::string::npos) << rejected;

    Request retire;
    retire.op = OpKind::kRetire;
    retire.vm_id = 0;
    const std::string response =
        daemon.handle_line(serve::encode_request(retire));
    EXPECT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;
    EXPECT_EQ(daemon.assignment().at(0), kNoServer);

    // Capacity is free again from the current frontier on.
    Request after;
    after.op = OpKind::kPlace;
    after.vm = testing::vm(2, 6, 20, 10.0, 1.0);
    const std::string placed = daemon.handle_line(serve::encode_request(after));
    EXPECT_NE(placed.find("\"server\":0"), std::string::npos) << placed;

    // Retiring an unknown VM is a no-op with a null host, not an error.
    Request unknown;
    unknown.op = OpKind::kRetire;
    unknown.vm_id = 999;
    const std::string noop = daemon.handle_line(serve::encode_request(unknown));
    EXPECT_EQ(noop.rfind("{\"ok\":true", 0), 0u) << noop;
    EXPECT_NE(noop.find("\"server\":null"), std::string::npos) << noop;
    acked = daemon.last_seq();
    energy = daemon.engine().total_energy();
  }

  // Retire survives recovery: the journal replays to the same state.
  {
    Daemon recovered(servers, options);
    EXPECT_EQ(recovered.replayed_records(), acked);
    EXPECT_EQ(recovered.assignment().at(0), kNoServer);
    EXPECT_EQ(recovered.assignment().at(2), 0);
    EXPECT_EQ(recovered.engine().total_energy(), energy);
  }
  testing::remove_journal(options.wal_path);
}

TEST(ServeDaemon, StatsEchoesRequestId) {
  const Workload w = make_workload(0x51a7, false);
  DaemonOptions options =
      daemon_options("min-incremental", 42, RetryPolicy{}, "stats_id");
  Daemon daemon(w.servers, options);
  // Like every other op, stats must echo the client's correlation token.
  const std::string with_id = daemon.handle_line(R"({"op":"stats","id":7})");
  EXPECT_EQ(with_id.rfind("{\"ok\":true,\"id\":7,\"op\":\"stats\"", 0), 0u)
      << with_id;
  const std::string without = daemon.handle_line(R"({"op":"stats"})");
  EXPECT_EQ(without.rfind("{\"ok\":true,\"op\":\"stats\"", 0), 0u) << without;
  testing::remove_journal(options.wal_path);
}

TEST(ServeDaemon, LongLongRequestIdsEchoExactly) {
  const Workload w = make_workload(0x1d5, false);
  DaemonOptions options =
      daemon_options("min-incremental", 42, RetryPolicy{}, "long_ids");
  Daemon daemon(w.servers, options);
  for (const std::string id :
       {"9007199254740993", "9223372036854775807", "-9223372036854775808"}) {
    const std::string response =
        daemon.handle_line(R"({"op":"stats","id":)" + id + "}");
    EXPECT_EQ(response.rfind("{\"ok\":true,\"id\":" + id + ",", 0), 0u)
        << response;
  }
  const std::string refused =
      daemon.handle_line(R"({"op":"stats","id":9223372036854775808})");
  EXPECT_EQ(refused.rfind("{\"ok\":false,\"error\":", 0), 0u) << refused;
  EXPECT_NE(refused.find("'id'"), std::string::npos) << refused;
  testing::remove_journal(options.wal_path);
}

TEST(ServeDaemon, HandleLineTurnsFailuresIntoStructuredErrors) {
  const Workload w = make_workload(0xbead, false);
  DaemonOptions options =
      daemon_options("min-incremental", 42, RetryPolicy{}, "errors");
  Daemon daemon(w.servers, options);
  EXPECT_EQ(daemon.handle_line("not json").rfind("{\"ok\":false", 0), 0u);
  EXPECT_EQ(daemon.handle_line("{}").rfind("{\"ok\":false", 0), 0u);
  // Snapshot without a configured path is an op-level error, echoed with id.
  const std::string response =
      daemon.handle_line(R"({"op":"snapshot","id":7})");
  EXPECT_EQ(response.rfind("{\"ok\":false,\"id\":7", 0), 0u) << response;
  // A fault targeting a server outside the fleet must not mutate anything.
  const std::string bad_fault = daemon.handle_line(
      R"({"op":"fault","at":5,"kind":"fail","server":999})");
  EXPECT_EQ(bad_fault.rfind("{\"ok\":false", 0), 0u) << bad_fault;
  EXPECT_EQ(daemon.last_seq(), 0u);  // nothing journaled
  testing::remove_journal(options.wal_path);
}

/// The "energy_hex" field of a stats response.
std::string energy_hex_of(const std::string& stats) {
  const std::string key = "\"energy_hex\":\"";
  const std::size_t at = stats.find(key);
  if (at == std::string::npos) return "";
  const std::size_t from = at + key.size();
  return stats.substr(from, stats.find('"', from) - from);
}

// A fault dated before the frontier is refused: the frontier has passed its
// instant, so the VM it would displace could only be re-placed starting in
// the past, charged again for the units it already ran. Nothing moves and
// nothing is journaled; the same fault at the frontier is acked.
TEST(ServeDaemon, FaultBeforeTheFrontierIsRefused) {
  const std::vector<ServerSpec> servers{testing::basic_server(0),
                                        testing::basic_server(1)};
  const DaemonOptions options =
      daemon_options("min-incremental", 42, RetryPolicy{}, "past_fault");
  Daemon daemon(servers, options);
  Request place;
  place.op = OpKind::kPlace;
  place.vm = testing::vm(0, 100, 2000, 4.0, 4.0);
  ASSERT_EQ(daemon.handle_line(serve::encode_request(place))
                .rfind("{\"ok\":true", 0),
            0u);
  ASSERT_EQ(daemon.handle_line(R"({"op":"advance","to":1000})")
                .rfind("{\"ok\":true", 0),
            0u);
  const std::string stats = R"({"op":"stats"})";
  const std::string before = daemon.handle_line(stats);

  Request fault;
  fault.op = OpKind::kFault;
  fault.fault = {10, FaultKind::kFail, daemon.assignment().at(0)};
  const std::string refused = daemon.handle_line(serve::encode_request(fault));
  EXPECT_EQ(refused.rfind("{\"ok\":false", 0), 0u) << refused;
  EXPECT_NE(refused.find("event time 10 precedes the frontier 1000"),
            std::string::npos)
      << refused;
  const std::string after = daemon.handle_line(stats);
  EXPECT_EQ(energy_hex_of(after), energy_hex_of(before));
  EXPECT_EQ(after, before) << "wal_seq, counters and energy must not move";
  EXPECT_EQ(daemon.last_seq(), 2u);

  fault.fault.at = 1000;
  const std::string acked = daemon.handle_line(serve::encode_request(fault));
  EXPECT_EQ(acked.rfind("{\"ok\":true", 0), 0u) << acked;
  EXPECT_EQ(daemon.last_seq(), 3u);
  EXPECT_EQ(daemon.engine().fault_stats().displaced, 1);
  testing::remove_journal(options.wal_path);
}

// One far-future place must not wedge the daemon. It is refused before the
// engine sees it (kMaxPlaceDuration), so nothing moves — not the request
// count, the frontier or the horizon — and nothing is journaled; later VMs
// still land on the idle fleet, and the daemon restarts on its own journal
// to the same energy bits.
TEST(ServeDaemon, OverlongPlaceIsRefusedBeforeTheEngine) {
  const std::vector<ServerSpec> servers{testing::basic_server(0),
                                        testing::basic_server(1),
                                        testing::basic_server(2)};
  DaemonOptions options =
      daemon_options("min-incremental", 42, RetryPolicy{}, "overlong");
  std::string energy_hex;
  {
    Daemon daemon(servers, options);
    const std::string stats_before = daemon.handle_line(R"({"op":"stats"})");
    const Time horizon_before = daemon.engine().cluster().horizon();

    Request far;
    far.op = OpKind::kPlace;
    far.vm = testing::vm(0, 2, 2000000000, 1.0, 1.0);
    const std::string refused = daemon.handle_line(serve::encode_request(far));
    EXPECT_EQ(refused.rfind("{\"ok\":false", 0), 0u) << refused;
    EXPECT_NE(refused.find("limit"), std::string::npos) << refused;
    EXPECT_EQ(daemon.handle_line(R"({"op":"stats"})"), stats_before);
    EXPECT_EQ(daemon.engine().cluster().horizon(), horizon_before);
    EXPECT_EQ(daemon.last_seq(), 0u);

    // Extreme times the wire accepts are refused without overflow.
    far.vm.start = std::numeric_limits<Time>::min();
    far.vm.end = std::numeric_limits<Time>::max();
    EXPECT_EQ(daemon.handle_line(serve::encode_request(far))
                  .rfind("{\"ok\":false", 0),
              0u);

    for (const VmSpec& vm : {testing::vm(1, 400, 450, 2.0, 2.0),
                             testing::vm(2, 600, 640, 2.0, 2.0)}) {
      Request place;
      place.op = OpKind::kPlace;
      place.vm = vm;
      const std::string placed =
          daemon.handle_line(serve::encode_request(place));
      EXPECT_EQ(placed.rfind("{\"ok\":true", 0), 0u) << placed;
      EXPECT_NE(placed.find("\"reject\":\"none\""), std::string::npos)
          << placed;
      EXPECT_NE(daemon.assignment().at(vm.id), kNoServer) << vm.id;
    }
    EXPECT_EQ(daemon.last_seq(), 2u);
    energy_hex = energy_hex_of(daemon.handle_line(R"({"op":"stats"})"));
    EXPECT_FALSE(energy_hex.empty());
  }
  Daemon recovered(servers, options);
  EXPECT_EQ(recovered.replayed_records(), 2u);
  EXPECT_EQ(energy_hex_of(recovered.handle_line(R"({"op":"stats"})")),
            energy_hex);
  testing::remove_journal(options.wal_path);
}

// A place exactly at the duration limit is accepted.
TEST(ServeDaemon, PlaceAtTheDurationLimitIsAccepted) {
  const std::vector<ServerSpec> servers{testing::basic_server(0)};
  DaemonOptions options =
      daemon_options("min-incremental", 42, RetryPolicy{}, "at_limit");
  Daemon daemon(servers, options);
  Request place;
  place.op = OpKind::kPlace;
  place.vm = testing::vm(0, 5, 5 + serve::kMaxPlaceDuration - 1, 1.0, 1.0);
  ASSERT_EQ(place.vm.duration(), serve::kMaxPlaceDuration);
  const std::string placed = daemon.handle_line(serve::encode_request(place));
  EXPECT_NE(placed.find("\"server\":0"), std::string::npos) << placed;
  testing::remove_journal(options.wal_path);
}

// A periodic snapshot that cannot be written (here <snapshot>.tmp is a
// directory) does not fail the op that triggered it: the op was applied and
// its record is committed with the round, so a client retrying an ok:false
// place would place it twice. Every op is acked, the journal recovers all
// of them at the live energy, and the explicit snapshot op still reports
// the failure.
TEST(ServeDaemon, FailedPeriodicSnapshotStillAcksTheOp) {
  const Workload w = make_workload(0x5a7, /*with_faults=*/false);
  const std::vector<std::string> lines = request_lines(w);
  DaemonOptions options = daemon_options("min-incremental", 42, RetryPolicy{},
                                         "snapfail", /*with_snapshot=*/true);
  options.snapshot_every = 2;
  const std::string tmp = options.snapshot_path + ".tmp";
  ::rmdir(tmp.c_str());
  ASSERT_EQ(::mkdir(tmp.c_str(), 0755), 0) << std::strerror(errno);
  std::string energy_hex;
  {
    Daemon daemon(w.servers, options);
    for (std::size_t k = 0; k < 6; ++k) {
      const std::string response = daemon.handle_line(lines[k]);
      EXPECT_EQ(response.rfind("{\"ok\":true", 0), 0u)
          << "op " << k << ": " << response;
    }
    EXPECT_EQ(daemon.last_seq(), 6u);
    energy_hex = energy_hex_of(daemon.handle_line(R"({"op":"stats"})"));
    const std::string snapshot =
        daemon.handle_line(R"({"op":"snapshot","id":3})");
    EXPECT_EQ(snapshot.rfind("{\"ok\":false,\"id\":3", 0), 0u) << snapshot;
  }
  EXPECT_FALSE(std::ifstream(options.snapshot_path).good());
  {
    Daemon recovered(w.servers, options);
    EXPECT_FALSE(recovered.recovered_from_snapshot());
    EXPECT_EQ(recovered.last_seq(), 6u);
    EXPECT_EQ(energy_hex_of(recovered.handle_line(R"({"op":"stats"})")),
              energy_hex);
  }
  testing::remove_journal(options.wal_path);
  ::rmdir(tmp.c_str());
}

// Each failed periodic snapshot logs one warning naming its file and
// restarts the --snapshot-every count: four ops at snapshot_every = 2 make
// two attempts, and once the obstruction is gone the next snapshot comes
// two ops after the last failure, not on the very next op.
TEST(ServeDaemon, FailedPeriodicSnapshotRestartsTheCount) {
  const Workload w = make_workload(0x5a8, /*with_faults=*/false);
  const std::vector<std::string> lines = request_lines(w);
  DaemonOptions options = daemon_options("min-incremental", 42, RetryPolicy{},
                                         "snapcount", /*with_snapshot=*/true);
  options.snapshot_every = 2;
  const std::string tmp = options.snapshot_path + ".tmp";
  ::rmdir(tmp.c_str());
  ASSERT_EQ(::mkdir(tmp.c_str(), 0755), 0) << std::strerror(errno);
  const LogLevel level = log_level();
  set_log_level(LogLevel::Warn);
  std::string energy_hex;
  {
    Daemon daemon(w.servers, options);
    ::testing::internal::CaptureStderr();
    send_lines(daemon, lines, 0, 4);
    const std::string log = ::testing::internal::GetCapturedStderr();
    std::size_t warnings = 0;
    for (std::size_t at = log.find(tmp); at != std::string::npos;
         at = log.find(tmp, at + 1))
      ++warnings;
    EXPECT_EQ(warnings, 2u) << log;
    EXPECT_NE(log.find("periodic snapshot failed"), std::string::npos) << log;
    ASSERT_EQ(::rmdir(tmp.c_str()), 0) << std::strerror(errno);
    send_lines(daemon, lines, 4, 5);
    EXPECT_FALSE(std::ifstream(options.snapshot_path).good());
    send_lines(daemon, lines, 5, 6);
    EXPECT_TRUE(std::ifstream(options.snapshot_path).good());
    energy_hex = energy_hex_of(daemon.handle_line(R"({"op":"stats"})"));
  }
  set_log_level(level);
  Daemon recovered(w.servers, options);
  EXPECT_TRUE(recovered.recovered_from_snapshot());
  EXPECT_EQ(recovered.last_seq(), 6u);
  EXPECT_EQ(energy_hex_of(recovered.handle_line(R"({"op":"stats"})")),
            energy_hex);
  testing::remove_journal(options.wal_path);
  ::unlink(options.snapshot_path.c_str());
}

// An explicit drain still reports a snapshot it cannot write, but the
// failure is the snapshot file's, not the journal's: the drain record is
// durable, the daemon keeps serving, and once the obstruction is gone a
// snapshot op covers the drain and a restart resumes from it.
TEST(ServeDaemon, DrainReportsAFailedSnapshot) {
  const Workload w = make_workload(0xd7a, /*with_faults=*/false);
  const std::vector<std::string> lines = request_lines(w);
  DaemonOptions options = daemon_options("min-incremental", 42, RetryPolicy{},
                                         "drainfail", /*with_snapshot=*/true);
  const std::string tmp = options.snapshot_path + ".tmp";
  ::rmdir(tmp.c_str());
  ASSERT_EQ(::mkdir(tmp.c_str(), 0755), 0) << std::strerror(errno);
  std::string energy_hex;
  {
    Daemon daemon(w.servers, options);
    send_lines(daemon, lines, 0, 4);
    const std::string drain = daemon.handle_line(R"({"op":"drain","id":5})");
    EXPECT_EQ(drain.rfind("{\"ok\":false,\"id\":5", 0), 0u) << drain;
    EXPECT_NE(drain.find(tmp), std::string::npos) << drain;
    EXPECT_FALSE(daemon.halted());
    EXPECT_EQ(daemon.last_seq(), 5u);
    ASSERT_EQ(::rmdir(tmp.c_str()), 0) << std::strerror(errno);
    const std::string snapshot = daemon.handle_line(R"({"op":"snapshot"})");
    EXPECT_NE(snapshot.find("\"wal_seq\":\"5\""), std::string::npos)
        << snapshot;
    energy_hex = energy_hex_of(daemon.handle_line(R"({"op":"stats"})"));
  }
  Daemon recovered(w.servers, options);
  EXPECT_TRUE(recovered.recovered_from_snapshot());
  EXPECT_EQ(recovered.last_seq(), 5u);
  EXPECT_EQ(energy_hex_of(recovered.handle_line(R"({"op":"stats"})")),
            energy_hex);
  testing::remove_journal(options.wal_path);
  ::unlink(options.snapshot_path.c_str());
}

// checkpoint() (the SIGINT/SIGTERM path) throws on a snapshot it cannot
// write, without halting: later ops are acked, and the next checkpoint
// writes the snapshot once the obstruction is gone.
TEST(ServeDaemon, CheckpointReportsAFailedSnapshot) {
  const Workload w = make_workload(0xc4e, /*with_faults=*/false);
  const std::vector<std::string> lines = request_lines(w);
  DaemonOptions options = daemon_options("min-incremental", 42, RetryPolicy{},
                                         "ckptfail", /*with_snapshot=*/true);
  const std::string tmp = options.snapshot_path + ".tmp";
  ::rmdir(tmp.c_str());
  ASSERT_EQ(::mkdir(tmp.c_str(), 0755), 0) << std::strerror(errno);
  Daemon daemon(w.servers, options);
  send_lines(daemon, lines, 0, 3);
  EXPECT_THROW(daemon.checkpoint(), std::runtime_error);
  EXPECT_FALSE(daemon.halted());
  send_lines(daemon, lines, 3, 6);
  EXPECT_EQ(daemon.last_seq(), 6u);
  EXPECT_FALSE(std::ifstream(options.snapshot_path).good());
  ASSERT_EQ(::rmdir(tmp.c_str()), 0) << std::strerror(errno);
  EXPECT_NO_THROW(daemon.checkpoint());
  EXPECT_TRUE(std::ifstream(options.snapshot_path).good());
  testing::remove_journal(options.wal_path);
  ::unlink(options.snapshot_path.c_str());
}

// --- format versions 1 and 2 -------------------------------------------------

/// make_workload with each VM's demand held in three constant phases (full,
/// then 0.3x, then 0.65x), so its spec encodes as up to three runs.
Workload make_profiled_workload(std::uint64_t seed) {
  Workload w = make_workload(seed, /*with_faults=*/true);
  for (VmSpec& vm : w.vms) {
    const auto units = static_cast<std::size_t>(vm.duration());
    std::vector<Resources> profile(units, vm.demand);
    for (std::size_t k = units / 3; k < units; ++k)
      profile[k] = vm.demand * (k < 2 * units / 3 ? 0.3 : 0.65);
    vm.set_profile(std::move(profile));
  }
  return w;
}

/// Replaces every occurrence of `from`; false when there was none.
bool replace_all(std::string& text, const std::string& from,
                 const std::string& to) {
  bool found = false;
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
    found = true;
  }
  return found;
}

/// Copies an uncompacted journal and a snapshot as an older daemon wrote
/// them: a header of `version` (which has no "after"), and for version 1
/// every profiled VM with one entry per unit, in the snapshot too, which
/// then reads version 1 as well.
void write_old_version(int version, const std::string& wal_from,
                       const std::string& snapshot_from,
                       const DaemonOptions& to) {
  const WalFile wal = serve::read_wal(wal_from);
  ASSERT_EQ(wal.header.after, 0u);
  std::string header = serve::encode_wal_header(wal.header);
  ASSERT_TRUE(replace_all(header, "\"version\":3",
                          "\"version\":" + std::to_string(version)));
  ASSERT_TRUE(replace_all(header, ",\"after\":\"0\"", ""));
  std::ofstream out(to.wal_path, std::ios::trunc);
  out << header << '\n';
  // The daemon writes one line per record after its header line.
  std::ifstream in(wal_from);
  std::string line;
  std::getline(in, line);
  for (const WalRecord& rec : wal.records) {
    ASSERT_TRUE(std::getline(in, line));
    if (version == 1 && rec.req.op == OpKind::kPlace) {
      ASSERT_TRUE(replace_all(line, serve::encode_vm(rec.req.vm),
                              per_unit_vm(rec.req.vm)));
    }
    out << line << '\n';
  }
  bool found = false;
  const serve::SnapshotData snap = serve::load_snapshot(snapshot_from, &found);
  ASSERT_TRUE(found);
  std::string text = serve::encode_snapshot(snap);
  if (version == 1) {
    ASSERT_TRUE(replace_all(text, "\"version\":3", "\"version\":1"));
    std::size_t profiled = 0;
    const auto rewrite = [&](const VmSpec& vm) {
      if (!vm.has_profile()) return;
      ++profiled;
      replace_all(text, serve::encode_vm(vm), per_unit_vm(vm));
    };
    for (const ServerStateSnapshot& server : snap.engine.servers)
      for (const VmSpec& vm : server.active) rewrite(vm);
    for (const PendingRequest& pending : snap.engine.retry_queue)
      rewrite(pending.vm);
    EXPECT_GT(profiled, 0u) << "the snapshot must hold profiled VMs";
  }
  std::ofstream(to.snapshot_path, std::ios::trunc) << text << '\n';
}

void expect_same_state(Daemon& got, Daemon& want) {
  EXPECT_EQ(got.last_seq(), want.last_seq());
  EXPECT_EQ(got.assignment(), want.assignment());
  const std::string stats = R"({"op":"stats"})";
  EXPECT_EQ(energy_hex_of(got.handle_line(stats)),
            energy_hex_of(want.handle_line(stats)));
}

/// An older daemon's files — a journal that holds every record since the
/// first, and a snapshot a third of the way in — recover to the state a
/// daemon reached through the current codec. The recovered daemon appends
/// records to the old journal, keeping its header; a restart on that file
/// reaches the same state again, and its next snapshot compacts the
/// journal into a version 3 one that starts after it.
void expect_old_version_recovers(int version) {
  const Workload w = make_profiled_workload(0x01d);
  const std::vector<std::string> lines = request_lines(w);
  const std::size_t third = lines.size() / 3;
  const std::string tag = "v" + std::to_string(version);
  const DaemonOptions full_options =
      daemon_options("min-incremental", 42, test_retry(), tag + "_full");
  const DaemonOptions live_options =
      daemon_options("min-incremental", 42, test_retry(), tag + "_live",
                     /*with_snapshot=*/true);
  const DaemonOptions old_options =
      daemon_options("min-incremental", 42, test_retry(), tag + "_old",
                     /*with_snapshot=*/true);

  // The live daemon compacts its journal at the snapshot; one without a
  // snapshot path keeps every record, as an older daemon did.
  {
    Daemon full(w.servers, full_options);
    send_lines(full, lines, 0, 2 * third);
  }
  Daemon live(w.servers, live_options);
  send_lines(live, lines, 0, third);
  live.checkpoint();
  send_lines(live, lines, third, 2 * third);
  write_old_version(version, full_options.wal_path, live_options.snapshot_path,
                    old_options);
  const std::regex per_unit_entry(R"("profile":\[\["0x)");
  const std::regex run_entry(R"("profile":\[\[[0-9]+,")");
  EXPECT_EQ(std::regex_search(file_bytes(old_options.wal_path), run_entry),
            version > 1);
  {
    Daemon old(w.servers, old_options);
    EXPECT_TRUE(old.recovered_from_snapshot());
    EXPECT_GT(old.replayed_records(), 0u);
    expect_same_state(old, live);
    send_lines(old, lines, 2 * third, lines.size());
  }
  send_lines(live, lines, 2 * third, lines.size());

  const std::string mixed = file_bytes(old_options.wal_path);
  EXPECT_EQ(mixed.rfind("{\"op\":\"hdr\",\"format\":\"esva-wal\",\"version\":" +
                            std::to_string(version) + ',',
                        0),
            0u);
  EXPECT_EQ(std::regex_search(mixed, per_unit_entry), version == 1);
  EXPECT_TRUE(std::regex_search(mixed, run_entry));
  {
    Daemon restarted(w.servers, old_options);
    expect_same_state(restarted, live);
    restarted.checkpoint();
  }
  const WalFile compacted = serve::read_wal(old_options.wal_path);
  EXPECT_EQ(file_bytes(old_options.wal_path)
                .rfind("{\"op\":\"hdr\",\"format\":\"esva-wal\",\"version\":3,",
                       0),
            0u);
  EXPECT_EQ(compacted.header.after, live.last_seq());
  EXPECT_TRUE(compacted.records.empty());
  Daemon again(w.servers, old_options);
  expect_same_state(again, live);

  for (const DaemonOptions* o : {&full_options, &live_options, &old_options}) {
    testing::remove_journal(o->wal_path);
    ::unlink(o->snapshot_path.c_str());
  }
}

// Version 1 files hold per-unit profiles; the recovered daemon appends
// run-form records to the version 1 journal.
TEST(ServeRecovery, VersionOneFilesRecoverAndTakeRunFormAppends) {
  expect_old_version_recovers(1);
}

TEST(ServeRecovery, VersionTwoJournalsRecoverAndCompactToVersionThree) {
  expect_old_version_recovers(2);
}

// --- crash-point sweep ------------------------------------------------------

// A crash can cut the journal at any byte. Recovery from every cut of a
// daemon's journal — faults, evacuations and retries included — never
// throws, recovers exactly the records whose newline lies before the cut, at
// the energy the live daemon had after that seq, and appends one more op
// that reads back whole. ESVA_FUZZ_QUICK keeps only the cuts within 2 bytes
// of a newline.
TEST(ServeCrashSweep, EveryWalCutRecoversTheRecordsBeforeIt) {
  // Three servers, one of them failed and one drained mid-stream, keep
  // requests waiting in the retry queue.
  Workload w = make_workload(0xc07, /*with_faults=*/true);
  w.servers.resize(3);
  const std::vector<std::string> lines = request_lines(w);
  const DaemonOptions live_options =
      daemon_options("min-incremental", 42, test_retry(), "sweep_live");
  std::vector<Energy> energy_at;  // [seq]: every line journals one record
  {
    Daemon live(w.servers, live_options);
    energy_at.push_back(live.engine().total_energy());
    for (const std::string& line : lines) {
      ASSERT_EQ(live.handle_line(line).rfind("{\"ok\":true", 0), 0u) << line;
      ASSERT_EQ(live.last_seq(), energy_at.size());
      energy_at.push_back(live.engine().total_energy());
    }
    EXPECT_GT(live.engine().fault_stats().evacuated, 0);
    EXPECT_GT(live.engine().fault_stats().retries, 0);
  }
  const std::string wal = file_bytes(live_options.wal_path);
  std::vector<std::size_t> ends;  // past each line's '\n'; [0] is the header
  for (std::size_t at = wal.find('\n'); at != std::string::npos;
       at = wal.find('\n', at + 1))
    ends.push_back(at + 1);
  ASSERT_EQ(ends.size(), lines.size() + 1);

  std::vector<std::size_t> cuts;
  for (std::size_t cut = 0; cut <= wal.size(); ++cut) {
    const bool near_newline = std::any_of(
        ends.begin(), ends.end(), [cut](std::size_t end) {
          return cut + 2 >= end && cut <= end + 2;
        });
    if (!testing::fuzz_quick() || cut == 0 || near_newline)
      cuts.push_back(cut);
  }

  // The appended op is checked by reading it back, not for durability, so
  // the cut daemons skip its fsync.
  DaemonOptions options =
      daemon_options("min-incremental", 42, test_retry(), "sweep_cut");
  options.wal_sync_every = 64;
  Request retire;
  retire.op = OpKind::kRetire;
  retire.vm_id = w.vms.front().id;
  const std::string retire_line = serve::encode_request(retire);
  for (const std::size_t cut : cuts) {
    std::ofstream(options.wal_path, std::ios::binary | std::ios::trunc)
        << wal.substr(0, cut);
    std::size_t records = 0;
    std::size_t whole = 0;
    for (std::size_t k = 0; k < ends.size() && ends[k] <= cut; ++k) {
      records = k;
      whole = ends[k];
    }
    try {
      Daemon recovered(w.servers, options);
      ASSERT_EQ(recovered.last_seq(), records) << "cut " << cut;
      EXPECT_EQ(recovered.engine().total_energy(), energy_at[records])
          << "cut " << cut;
      EXPECT_EQ(recovered.recovered_torn_tail(), cut > whole) << "cut " << cut;
      EXPECT_EQ(recovered.handle_line(retire_line).rfind("{\"ok\":true", 0),
                0u)
          << "cut " << cut;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "cut " << cut << ": " << e.what();
      continue;
    }
    const WalFile appended = serve::read_wal(options.wal_path);
    EXPECT_FALSE(appended.torn_tail) << "cut " << cut;
    ASSERT_EQ(appended.records.size(), records + 1) << "cut " << cut;
    EXPECT_EQ(appended.records.back().seq, records + 1) << "cut " << cut;
  }
  testing::remove_journal(options.wal_path);
  testing::remove_journal(live_options.wal_path);
}

// A checkpoint writes the snapshot to <snapshot>.tmp, fsyncs it and renames
// it over <snapshot>; then it writes a fresh journal, only a header naming
// the snapshot's seq, to <wal>.tmp, fsyncs it and renames it over <wal>. A
// crash can stop it after part or all of either .tmp, or after either
// rename, at the first checkpoint (the journal holds every record) or at a
// later one (it starts after the earlier snapshot). Recovery from each
// reaches the state of the daemon that was not interrupted, leaves a stale
// <wal>.tmp unread, and can snapshot again, after which a restart reads no
// record.
TEST(ServeCrashSweep, InterruptedSnapshotsRecoverTheUninterruptedState) {
  const Workload w = make_workload(0x5a9, /*with_faults=*/true);
  const std::vector<std::string> lines = request_lines(w);
  const std::size_t half = lines.size() / 2;
  // `first` stands for the live daemon before its first checkpoint.
  const DaemonOptions first_options = daemon_options(
      "min-incremental", 42, test_retry(), "snapcut_first");
  Daemon first(w.servers, first_options);
  send_lines(first, lines, 0, half);
  const std::string uncompacted = file_bytes(first_options.wal_path);
  const DaemonOptions live_options = daemon_options(
      "min-incremental", 42, test_retry(), "snapcut_live", true);
  Daemon live(w.servers, live_options);
  send_lines(live, lines, 0, half);
  ASSERT_EQ(file_bytes(live_options.wal_path), uncompacted);
  live.checkpoint();
  const std::string older = file_bytes(live_options.snapshot_path);
  const std::string first_fresh = file_bytes(live_options.wal_path);
  send_lines(live, lines, half, lines.size());
  const std::string tail = file_bytes(live_options.wal_path);
  live.checkpoint();
  const std::string newer = file_bytes(live_options.snapshot_path);
  const std::string fresh = file_bytes(live_options.wal_path);
  ASSERT_NE(older, newer);
  ASSERT_EQ(serve::read_wal(live_options.wal_path).header.after,
            live.last_seq());

  struct Interrupted {
    const char* name;
    Daemon* want;
    std::string snapshot;      // empty: none
    std::string snapshot_tmp;  // empty: none
    std::string wal;
    std::string wal_tmp;  // empty: none
  };
  const std::vector<Interrupted> cases = {
      {"first: partial snapshot tmp", &first, "",
       older.substr(0, older.size() / 2), uncompacted, ""},
      {"first: snapshot renamed", &first, older, "", uncompacted, ""},
      {"first: partial journal tmp", &first, older, "", uncompacted,
       first_fresh.substr(0, first_fresh.size() / 2)},
      {"first: journal renamed", &first, older, "", first_fresh, ""},
      {"partial snapshot tmp", &live, older, newer.substr(0, newer.size() / 2),
       tail, ""},
      {"complete snapshot tmp", &live, older, newer, tail, ""},
      {"snapshot renamed", &live, newer, "", tail, ""},
      {"partial journal tmp", &live, newer, "", tail,
       fresh.substr(0, fresh.size() / 2)},
      {"complete journal tmp", &live, newer, "", tail, fresh},
      {"journal renamed", &live, newer, "", fresh, ""},
  };
  for (const Interrupted& c : cases) {
    const DaemonOptions options = daemon_options(
        "min-incremental", 42, test_retry(), "snapcut", true);
    const std::string snapshot_tmp = options.snapshot_path + ".tmp";
    const std::string wal_tmp = options.wal_path + ".tmp";
    const auto put = [](const std::string& path, const std::string& bytes) {
      ::unlink(path.c_str());
      if (!bytes.empty()) std::ofstream(path, std::ios::binary) << bytes;
    };
    put(options.wal_path, c.wal);
    put(wal_tmp, c.wal_tmp);
    put(options.snapshot_path, c.snapshot);
    put(snapshot_tmp, c.snapshot_tmp);
    {
      Daemon recovered(w.servers, options);
      EXPECT_EQ(recovered.recovered_from_snapshot(), !c.snapshot.empty())
          << c.name;
      expect_same_state(recovered, *c.want);
      EXPECT_EQ(file_bytes(wal_tmp), c.wal_tmp) << c.name;
      recovered.checkpoint();
      EXPECT_FALSE(std::ifstream(wal_tmp).good()) << c.name;
    }
    Daemon again(w.servers, options);
    EXPECT_TRUE(again.recovered_from_snapshot()) << c.name;
    EXPECT_EQ(again.recovery().records_read, 0u) << c.name;
    expect_same_state(again, *c.want);
    for (const std::string& f : {options.snapshot_path, snapshot_tmp, wal_tmp})
      ::unlink(f.c_str());
    testing::remove_journal(options.wal_path);
  }
  testing::remove_journal(first_options.wal_path);
  testing::remove_journal(live_options.wal_path);
  ::unlink(live_options.snapshot_path.c_str());
}

// A fresh journal appears as a compacted one does: its header is written to
// <wal>.tmp, fsynced and renamed over <wal>. A crash can stop that after
// part or all of the .tmp, with no <wal> yet or an empty one; the next start
// creates the journal whole in its place, leaving no .tmp, and serves.
// Beside an existing journal a stale <wal>.tmp is never read: recovery
// reaches the journal's state and leaves the .tmp as it was.
TEST(ServeCrashSweep, InterruptedJournalCreationStartsAFreshJournal) {
  const Workload w = make_workload(0xc4e, /*with_faults=*/false);
  const std::vector<std::string> lines = request_lines(w);
  const DaemonOptions options =
      daemon_options("min-incremental", 42, test_retry(), "create_cut");
  const std::string wal_tmp = options.wal_path + ".tmp";
  const auto put = [](const std::string& path, const std::string& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  };
  std::string header;
  {
    Daemon fresh(w.servers, options);
    header = file_bytes(options.wal_path);
  }
  ASSERT_EQ(header.find('\n'), header.size() - 1) << header;
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{1}, header.size() / 2, header.size() - 1,
        header.size()}) {
    for (const bool empty_wal : {false, true}) {
      testing::remove_journal(options.wal_path);
      if (empty_wal) put(options.wal_path, "");
      put(wal_tmp, header.substr(0, cut));
      {
        Daemon created(w.servers, options);
        EXPECT_EQ(created.last_seq(), 0u) << "cut " << cut;
        EXPECT_EQ(file_bytes(options.wal_path), header) << "cut " << cut;
        EXPECT_FALSE(std::ifstream(wal_tmp).good()) << "cut " << cut;
        send_lines(created, lines, 0, 1);
      }
      Daemon again(w.servers, options);
      EXPECT_EQ(again.replayed_records(), 1u) << "cut " << cut;
    }
  }

  testing::remove_journal(options.wal_path);
  std::string journal;
  std::string stats;
  {
    Daemon live(w.servers, options);
    send_lines(live, lines, 0, 3);
    journal = file_bytes(options.wal_path);
    stats = live.stats_json(/*with_assignment=*/true);
  }
  for (const std::string& stale :
       {header.substr(0, header.size() / 2), header,
        std::string("not a journal\n")}) {
    put(wal_tmp, stale);
    {
      Daemon recovered(w.servers, options);
      EXPECT_EQ(recovered.replayed_records(), 3u) << stale;
      EXPECT_EQ(stats_state(recovered.stats_json(/*with_assignment=*/true)),
                stats_state(stats));
    }
    EXPECT_EQ(file_bytes(wal_tmp), stale);
    EXPECT_EQ(file_bytes(options.wal_path), journal) << stale;
  }
  ::unlink(wal_tmp.c_str());
  testing::remove_journal(options.wal_path);
}

// --- socket loop ------------------------------------------------------------

/// Raw client socket (no protocol): tests that need to vanish mid-exchange
/// or hold a connection idle, which serve::Client's call/response shape
/// can't express.
int raw_connect(const std::string& socket_path) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_line(int fd, const std::string& line) {
  const std::string buf = line + "\n";
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::send(fd, buf.data() + off, buf.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

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

TEST(ServeSocket, ServesLineProtocolOverUnixSocket) {
  const Workload w = make_workload(0x50c, false);
  DaemonOptions options =
      daemon_options("min-incremental", 42, RetryPolicy{}, "socket");
  Daemon daemon(w.servers, options);

  const std::string socket_path = temp_path("socket.sock");
  ::unlink(socket_path.c_str());
  std::atomic<bool> stop{false};
  std::atomic<bool> listening{false};
  std::thread server([&] {
    daemon.serve_loop(socket_path, stop, [&] { listening.store(true); });
  });
  while (!listening.load()) std::this_thread::yield();

  {
    serve::Client client(socket_path);
    Request place;
    place.op = OpKind::kPlace;
    place.vm = w.vms.front();
    place.vm.start = std::max<Time>(1, place.vm.start);
    place.has_id = true;
    place.id = 1;
    const std::string response = client.call(serve::encode_request(place));
    EXPECT_EQ(response.rfind("{\"ok\":true,\"id\":1", 0), 0u) << response;

    const std::string stats = client.call(R"({"op":"stats"})");
    EXPECT_NE(stats.find("\"requests\":1"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"energy_hex\":"), std::string::npos) << stats;

    EXPECT_EQ(client.call("garbage").rfind("{\"ok\":false", 0), 0u);
    // The connection survives a bad request; the next one still works.
    EXPECT_EQ(client.call(R"({"op":"stats"})").rfind("{\"ok\":true", 0), 0u);
  }

  stop.store(true);
  server.join();
  struct stat st{};
  EXPECT_NE(::stat(socket_path.c_str(), &st), 0) << "socket not cleaned up";
  testing::remove_journal(options.wal_path);
}

TEST(ServeSocket, SurvivesClientVanishingBeforeResponse) {
  const Workload w = make_workload(0xdead, false);
  DaemonOptions options =
      daemon_options("min-incremental", 42, RetryPolicy{}, "vanish");
  Daemon daemon(w.servers, options);

  const std::string socket_path = temp_path("vanish.sock");
  ::unlink(socket_path.c_str());
  std::atomic<bool> stop{false};
  std::atomic<bool> listening{false};
  std::thread server([&] {
    daemon.serve_loop(socket_path, stop, [&] { listening.store(true); });
  });
  while (!listening.load()) std::this_thread::yield();

  {
    // Send a place and hang up without reading the response: the daemon's
    // write to the dead peer must surface as EPIPE (reaped connection),
    // not SIGPIPE (dead daemon).
    const int fd = raw_connect(socket_path);
    ASSERT_GE(fd, 0);
    Request req;
    req.op = OpKind::kPlace;
    req.vm = w.vms.front();
    req.vm.start = std::max<Time>(1, req.vm.start);
    ASSERT_TRUE(send_line(fd, serve::encode_request(req)));
    ::close(fd);
  }

  // The daemon is still serving and applied the op it never got to ack.
  bool applied = false;
  for (int i = 0; i < 500 && !applied; ++i) {
    serve::Client client(socket_path);
    const std::string stats = client.call(R"({"op":"stats"})");
    ASSERT_EQ(stats.rfind("{\"ok\":true", 0), 0u) << stats;
    applied = stats.find("\"requests\":1") != std::string::npos;
    if (!applied) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(applied) << "daemon never processed the vanished client's op";

  stop.store(true);
  server.join();
  testing::remove_journal(options.wal_path);
}

TEST(ServeSocket, ConnectionsStayAlignedAcrossCloseAndAcceptInOneRound) {
  // One poll round can deliver a hangup, a request, and a brand-new
  // connection together; the loop must keep each surviving connection
  // paired with its own pollfd (a misalignment reads the wrong revents and
  // can block on an idle socket).
  const Workload w = make_workload(0xa119, false);
  DaemonOptions options =
      daemon_options("min-incremental", 42, RetryPolicy{}, "align");
  Daemon daemon(w.servers, options);

  const std::string socket_path = temp_path("align.sock");
  ::unlink(socket_path.c_str());
  std::atomic<bool> stop{false};
  std::atomic<bool> listening{false};
  std::thread server([&] {
    daemon.serve_loop(socket_path, stop, [&] { listening.store(true); });
  });
  while (!listening.load()) std::this_thread::yield();

  const int a = raw_connect(socket_path);
  const int b = raw_connect(socket_path);
  const int c = raw_connect(socket_path);
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  ASSERT_GE(c, 0);
  // Prime each connection so all three are accepted and polled.
  for (const int fd : {a, b, c}) {
    ASSERT_TRUE(send_line(fd, R"({"op":"stats"})"));
    ASSERT_EQ(read_line(fd).rfind("{\"ok\":true", 0), 0u);
  }

  // Back-to-back while the daemon sits in poll: hang up a, request on b,
  // and a new connection d — likely the same round; c stays idle.
  ::close(a);
  ASSERT_TRUE(send_line(b, R"({"op":"stats","id":9})"));
  const int d = raw_connect(socket_path);
  ASSERT_GE(d, 0);

  const std::string from_b = read_line(b);
  EXPECT_EQ(from_b.rfind("{\"ok\":true,\"id\":9", 0), 0u) << from_b;
  ASSERT_TRUE(send_line(d, R"({"op":"stats","id":10})"));
  const std::string from_d = read_line(d);
  EXPECT_EQ(from_d.rfind("{\"ok\":true,\"id\":10", 0), 0u) << from_d;
  // The idle connection is untouched and still responsive.
  ASSERT_TRUE(send_line(c, R"({"op":"stats","id":11})"));
  const std::string from_c = read_line(c);
  EXPECT_EQ(from_c.rfind("{\"ok\":true,\"id\":11", 0), 0u) << from_c;

  ::close(b);
  ::close(c);
  ::close(d);
  stop.store(true);
  server.join();
  testing::remove_journal(options.wal_path);
}

/// Bounds every blocking read and send on `fd`, so a daemon that stops
/// answering or reading fails the test instead of hanging it.
void set_io_timeout(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Reads newline-terminated lines through a buffer: the pipelining tests
/// read megabytes, which read_line's one read() per byte would crawl
/// through.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// The next line without its newline; empty at EOF or on an error.
  std::string next() {
    for (;;) {
      const std::size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        std::string line = buf_.substr(pos_, nl - pos_);
        pos_ = nl + 1;
        return line;
      }
      buf_.erase(0, pos_);
      pos_ = 0;
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;
};

/// A daemon serving on its own socket from a thread, stopped on scope exit.
class ServingDaemon {
 public:
  ServingDaemon(const Workload& w, const std::string& tag)
      : options_(daemon_options("min-incremental", 42, RetryPolicy{}, tag)),
        daemon_(w.servers, options_),
        socket_(temp_path(tag + ".sock")) {
    ::unlink(socket_.c_str());
    thread_ = std::thread([this] {
      try {
        daemon_.serve_loop(socket_, stop_, [this] { listening_.store(true); });
      } catch (const std::exception& e) {
        ADD_FAILURE() << "serve_loop: " << e.what();
        listening_.store(true);
      }
    });
    while (!listening_.load()) std::this_thread::yield();
  }
  ~ServingDaemon() {
    stop_.store(true);
    thread_.join();
    testing::remove_journal(options_.wal_path);
  }
  ServingDaemon(const ServingDaemon&) = delete;
  ServingDaemon& operator=(const ServingDaemon&) = delete;

  const std::string& socket() const { return socket_; }
  const std::string& wal() const { return options_.wal_path; }

 private:
  DaemonOptions options_;
  Daemon daemon_;
  std::string socket_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> listening_{false};
  std::thread thread_;
};

// A line that grows past kMaxRequestBytes without a newline is refused with
// an error line and its connection closed, while another connection keeps
// being served and the daemon's state does not move.
TEST(ServeSocket, OverlongLineIsRefusedAndDisconnected) {
  ServingDaemon serving(make_workload(0x10a6, false), "overlong_line");
  const int bystander = raw_connect(serving.socket());
  ASSERT_GE(bystander, 0);
  set_io_timeout(bystander, 30);
  ASSERT_TRUE(send_line(bystander, R"({"op":"stats"})"));
  const std::string stats_before = read_line(bystander);
  ASSERT_EQ(stats_before.rfind("{\"ok\":true", 0), 0u) << stats_before;

  const int flood = raw_connect(serving.socket());
  ASSERT_GE(flood, 0);
  set_io_timeout(flood, 30);
  std::thread sender([flood] {
    const std::string chunk(std::size_t{1} << 16, 'x');
    std::size_t left = serve::kMaxRequestBytes + 1;
    while (left > 0) {
      const ssize_t n = ::send(flood, chunk.data(),
                               std::min(left, chunk.size()), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      left -= static_cast<std::size_t>(n);
    }
  });
  for (int k = 0; k < 20; ++k) {
    EXPECT_TRUE(send_line(bystander, R"({"op":"stats"})"));
    EXPECT_EQ(read_line(bystander), stats_before);
  }
  sender.join();

  const std::string refusal = read_line(flood);
  EXPECT_EQ(refusal.rfind("{\"ok\":false,\"error\":", 0), 0u) << refusal;
  EXPECT_NE(refusal.find(std::to_string(serve::kMaxRequestBytes)),
            std::string::npos)
      << refusal;
  char byte = 0;
  ssize_t n = 0;
  do {
    n = ::read(flood, &byte, 1);
  } while (n < 0 && errno == EINTR);
  EXPECT_TRUE(n == 0 || (n < 0 && errno == ECONNRESET))
      << "expected EOF after the refusal, read returned " << n;

  ASSERT_TRUE(send_line(bystander, R"({"op":"stats"})"));
  EXPECT_EQ(read_line(bystander), stats_before);
  ::close(flood);
  ::close(bystander);
}

// A line over the value limit gets an error line, and the connection that
// sent it stays open: its next request is answered.
TEST(ServeSocket, OverValueLimitLineIsRefusedAndItsConnectionServed) {
  ServingDaemon serving(make_workload(0x5a1e, false), "value_limit");
  const int fd = raw_connect(serving.socket());
  ASSERT_GE(fd, 0);
  set_io_timeout(fd, 30);
  LineReader reader(fd);
  ASSERT_TRUE(send_line(fd, R"({"op":"stats"})"));
  const std::string stats_before = reader.next();
  ASSERT_EQ(stats_before.rfind("{\"ok\":true", 0), 0u) << stats_before;

  ASSERT_TRUE(send_line(fd, empty_arrays(serve::kMaxRequestValues)));
  const std::string refusal = reader.next();
  EXPECT_EQ(refusal.rfind("{\"ok\":false,\"error\":", 0), 0u) << refusal;
  EXPECT_NE(refusal.find("more than " +
                         std::to_string(serve::kMaxRequestValues) + " values"),
            std::string::npos)
      << refusal;

  ASSERT_TRUE(send_line(fd, R"({"op":"stats"})"));
  EXPECT_EQ(reader.next(), stats_before);
  ::close(fd);
}

// A pipelining client: 10,000 lines in one write, answered in order.
TEST(ServeSocket, TenThousandPipelinedLinesAreAnsweredInOrder) {
  ServingDaemon serving(make_workload(0x9193, false), "pipelined");
  const int fd = raw_connect(serving.socket());
  ASSERT_GE(fd, 0);
  set_io_timeout(fd, 30);
  constexpr int kLines = 10000;
  std::string batch;
  for (int k = 0; k < kLines; ++k)
    batch += R"({"op":"stats","id":)" + std::to_string(k) + "}\n";
  // The answers outgrow the socket buffers, so the write runs beside the
  // reads.
  std::thread sender([&batch, fd] {
    std::size_t off = 0;
    while (off < batch.size()) {
      const ssize_t n = ::send(fd, batch.data() + off, batch.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  });
  LineReader reader(fd);
  int answered = 0;
  for (; answered < kLines; ++answered) {
    const std::string response = reader.next();
    if (response.rfind(
            "{\"ok\":true,\"id\":" + std::to_string(answered) + ",", 0) != 0) {
      ADD_FAILURE() << "answer " << answered << ": " << response;
      break;
    }
  }
  ::shutdown(fd, SHUT_RDWR);  // frees the sender if answers stopped early
  sender.join();
  EXPECT_EQ(answered, kLines);
  ::close(fd);
}

// --- group commit -----------------------------------------------------------

/// A stats response's integer field.
long long stats_field(const std::string& stats, const std::string& key) {
  return json::require_integer(json::parse(stats), key, 0,
                               std::numeric_limits<long long>::max(), "stats");
}

/// A stats response's wal_seq (a decimal string: u64 fields ride as text).
std::uint64_t stats_seq(const std::string& stats) {
  return std::stoull(
      json::require_string(json::parse(stats), "wal_seq", "stats"));
}

/// `count` places in start order, request k carrying id k, over a fleet of
/// `servers`.
std::pair<std::vector<ServerSpec>, std::vector<std::string>> place_lines(
    std::uint64_t seed, int count, int servers) {
  Rng rng(seed);
  const ProblemInstance problem =
      testing::random_problem(rng, count, servers);
  std::vector<std::string> lines;
  for (const std::size_t j : order_by_start(problem.vms)) {
    Request req;
    req.op = OpKind::kPlace;
    req.vm = problem.vms[j];
    req.has_id = true;
    req.id = static_cast<long long>(lines.size());
    lines.push_back(serve::encode_request(req));
  }
  return {problem.servers, lines};
}

/// Sends `text` from a thread, so the caller can read answers that outgrow
/// the socket buffers meanwhile; join() waits for the last byte.
class Sender {
 public:
  Sender(int fd, std::string text)
      : text_(std::move(text)), thread_([this, fd] {
          std::size_t off = 0;
          while (off < text_.size()) {
            const ssize_t n = ::send(fd, text_.data() + off,
                                     text_.size() - off, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) return;
            off += static_cast<std::size_t>(n);
          }
        }) {}
  ~Sender() { join(); }
  Sender(const Sender&) = delete;
  Sender& operator=(const Sender&) = delete;
  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::string text_;
  std::thread thread_;
};

// --wal-sync-every 1: 256 places pipelined in one write are answered in
// order, all journaled, and the acks of each poll round share one fsync —
// far fewer fsyncs than places.
TEST(ServeGroupCommit, PipelinedPlacesShareFsyncsAtSyncEveryOne) {
  const auto [servers, lines] = place_lines(0x6c0, 256, 20);
  Workload w;
  w.servers = servers;
  ServingDaemon serving(w, "group_commit");
  const int fd = raw_connect(serving.socket());
  ASSERT_GE(fd, 0);
  set_io_timeout(fd, 30);
  LineReader reader(fd);
  ASSERT_TRUE(send_line(fd, R"({"op":"stats"})"));
  const long long fsyncs_before = stats_field(reader.next(), "wal_fsyncs");

  std::string batch;
  for (const std::string& line : lines) batch += line + "\n";
  Sender sender(fd, batch);
  for (std::size_t k = 0; k < lines.size(); ++k) {
    const std::string response = reader.next();
    ASSERT_EQ(response.rfind("{\"ok\":true,\"id\":" + std::to_string(k) + ",",
                             0),
              0u)
        << response;
  }
  sender.join();
  ASSERT_TRUE(send_line(fd, R"({"op":"stats"})"));
  const std::string stats = reader.next();
  EXPECT_EQ(stats_seq(stats), 256u);
  EXPECT_LT(stats_field(stats, "wal_fsyncs") - fsyncs_before, 64) << stats;
  const WalFile wal = serve::read_wal(serving.wal());
  EXPECT_FALSE(wal.torn_tail);
  EXPECT_EQ(wal.records.size(), 256u);
  ::close(fd);
}

// A round ends early once a connection's pending responses pass
// kMaxRoundOutputBytes: it commits, flushes and goes on with the lines it
// already read. The stats responses of one pipelined read show it — at
// --wal-sync-every 1 the early commit fsyncs the place before them, so
// wal_fsyncs steps up right after the response that crossed the bound, and
// not before.
TEST(ServeGroupCommit, LargeResponsesEndTheRoundEarly) {
  const auto [servers, lines] = place_lines(0xb16, 2002, 10);
  Workload w;
  w.servers = servers;
  ServingDaemon serving(w, "round_bound");
  const int fd = raw_connect(serving.socket());
  ASSERT_GE(fd, 0);
  set_io_timeout(fd, 30);
  LineReader reader(fd);
  {
    // 2000 VMs make a stats response with the assignment about 18 KB.
    std::string batch;
    for (std::size_t k = 0; k < 2000; ++k) batch += lines[k] + "\n";
    Sender sender(fd, batch);
    for (std::size_t k = 0; k < 2000; ++k)
      ASSERT_EQ(reader.next().rfind("{\"ok\":true", 0), 0u) << k;
  }
  // One read's worth: a place, 100 large stats, a place.
  constexpr int kStats = 100;
  std::string pipeline = lines[2000] + "\n";
  for (int k = 0; k < kStats; ++k)
    pipeline += R"({"op":"stats","assignment":true})" "\n";
  pipeline += lines[2001] + "\n";
  ASSERT_LE(pipeline.size(), 4096u);
  ASSERT_TRUE(send_line(fd, pipeline.substr(0, pipeline.size() - 1)));

  std::size_t pending = reader.next().size() + 1;  // the first place's ack
  std::size_t crossed_at = 0;  // the stats response that crossed the bound
  std::vector<long long> fsyncs;
  for (int k = 0; k < kStats; ++k) {
    const std::string stats = reader.next();
    ASSERT_EQ(stats.rfind("{\"ok\":true", 0), 0u) << k;
    fsyncs.push_back(stats_field(stats, "wal_fsyncs"));
    pending += stats.size() + 1;
    if (crossed_at == 0 && pending > serve::kMaxRoundOutputBytes)
      crossed_at = static_cast<std::size_t>(k);
  }
  EXPECT_EQ(reader.next().rfind("{\"ok\":true,\"id\":2001,", 0), 0u);
  ASSERT_GT(crossed_at, 0u) << "the pipeline never passed the bound";
  ASSERT_LT(crossed_at + 1, fsyncs.size());
  EXPECT_EQ(fsyncs[crossed_at], fsyncs.front());
  EXPECT_EQ(fsyncs[crossed_at + 1], fsyncs.front() + 1);
  EXPECT_EQ(fsyncs.back(), fsyncs.front() + 1);
  ::close(fd);
}

// wal_fsyncs counts the journal's fsyncs, and the journal is fsynced only
// when there is something to flush. Creating a fresh journal is one fsync at
// any schedule; a drain journals its record and syncs once, through its
// snapshot; a snapshot op with nothing staged since the last fsync adds
// none. A restarted daemon's writer, which has not fsynced the journal it
// opened (a killed predecessor may have left records written but not
// fsynced), still fsyncs at its first snapshot.
TEST(ServeFsyncs, TheJournalIsFsyncedOnlyWithSomethingToFlush) {
  const Workload w = make_workload(0xf5c, /*with_faults=*/false);
  const std::vector<std::string> lines = request_lines(w);
  const auto fsyncs = [](Daemon& daemon, const std::string& line) {
    const std::string response = daemon.handle_line(line);
    EXPECT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;
    return stats_field(daemon.handle_line(R"({"op":"stats"})"), "wal_fsyncs");
  };
  for (const int sync_every : {1, 32}) {
    DaemonOptions options = daemon_options(
        "min-incremental", 42, RetryPolicy{},
        "fsyncs_" + std::to_string(sync_every), /*with_snapshot=*/true);
    options.wal_sync_every = sync_every;
    const std::string at = "N = " + std::to_string(sync_every);
    {
      Daemon daemon(w.servers, options);
      EXPECT_EQ(fsyncs(daemon, R"({"op":"stats"})"), 1) << at;
      const long long placed = fsyncs(daemon, lines[0]);
      EXPECT_EQ(placed, sync_every == 1 ? 2 : 1) << at;
      EXPECT_EQ(fsyncs(daemon, R"({"op":"drain"})"), placed + 1) << at;
      EXPECT_EQ(fsyncs(daemon, R"({"op":"snapshot"})"), placed + 1) << at;
    }
    {
      Daemon restarted(w.servers, options);
      EXPECT_EQ(fsyncs(restarted, R"({"op":"stats"})"), 0) << at;
      EXPECT_EQ(fsyncs(restarted, R"({"op":"snapshot"})"), 1) << at;
      EXPECT_EQ(fsyncs(restarted, R"({"op":"snapshot"})"), 1) << at;
    }
    testing::remove_journal(options.wal_path);
    ::unlink(options.snapshot_path.c_str());
  }
}

// --- one daemon per socket and per journal --------------------------------

bool error_names(const std::function<void()>& call, const std::string& what) {
  try {
    call();
  } catch (const std::runtime_error& e) {
    return std::string(e.what()).find(what) != std::string::npos;
  }
  return false;
}

TEST(ServeExclusive, RegularFileAtTheSocketPathIsLeftAlone) {
  const Workload w = make_workload(0xf11e, false);
  const DaemonOptions options =
      daemon_options("min-incremental", 42, RetryPolicy{}, "precious");
  Daemon daemon(w.servers, options);
  const std::string path = temp_path("precious.txt");
  std::ofstream(path) << "precious\n";
  // Already stopped: a loop that wrongly took the path over returns at once.
  const std::atomic<bool> stop{true};
  EXPECT_TRUE(error_names([&] { daemon.serve_loop(path, stop); }, path));
  EXPECT_EQ(file_bytes(path), "precious\n");
  ::unlink(path.c_str());
  testing::remove_journal(options.wal_path);
}

TEST(ServeExclusive, LiveSocketKeepsItsDaemon) {
  const Workload w = make_workload(0x11fe, false);
  ServingDaemon first(w, "live_first");
  const DaemonOptions options =
      daemon_options("min-incremental", 42, RetryPolicy{}, "live_second");
  Daemon second(w.servers, options);
  const std::atomic<bool> stop{true};
  EXPECT_TRUE(error_names([&] { second.serve_loop(first.socket(), stop); },
                          first.socket()));
  try {
    serve::Client client(first.socket());
    EXPECT_EQ(client.call(R"({"op":"stats"})").rfind("{\"ok\":true", 0),
              0u);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "the first daemon lost its socket: " << e.what();
  }
  testing::remove_journal(options.wal_path);
}

TEST(ServeExclusive, StaleSocketIsReplaced) {
  const Workload w = make_workload(0x57a1e, false);
  const DaemonOptions options =
      daemon_options("min-incremental", 42, RetryPolicy{}, "stale");
  const std::string path = temp_path("stale.sock");
  ::unlink(path.c_str());
  {
    // What a killed daemon leaves behind: a bound socket nobody listens on.
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ::close(fd);
    struct stat st{};
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    ASSERT_TRUE(S_ISSOCK(st.st_mode));
  }
  Daemon daemon(w.servers, options);
  std::atomic<bool> stop{false};
  std::atomic<bool> listening{false};
  std::atomic<bool> served{false};
  std::thread server([&] {
    try {
      daemon.serve_loop(path, stop, [&] { listening.store(true); });
      served.store(true);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "serve_loop: " << e.what();
      listening.store(true);
    }
  });
  while (!listening.load()) std::this_thread::yield();
  std::string stats;
  try {
    serve::Client client(path);
    stats = client.call(R"({"op":"stats"})");
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }
  stop.store(true);
  server.join();
  EXPECT_TRUE(served.load());
  EXPECT_EQ(stats.rfind("{\"ok\":true", 0), 0u) << stats;
  testing::remove_journal(options.wal_path);
}

// Two daemons on one journal would both ack seq 1; the second one refuses
// the journal before it reads, truncates or appends anything.
TEST(ServeExclusive, SecondDaemonOnAHeldWalThrowsAndLeavesItAlone) {
  const Workload w = make_workload(0x10c, false);
  const DaemonOptions options =
      daemon_options("min-incremental", 42, RetryPolicy{}, "held");
  const std::vector<std::string> lines = request_lines(w);
  Daemon first(w.servers, options);
  send_lines(first, lines, 0, 5);
  {
    // A torn tail the second daemon must not truncate.
    std::ofstream out(options.wal_path, std::ios::app);
    out << R"({"op":"place","seq":"6","vm":1)";
  }
  const std::string before = file_bytes(options.wal_path);
  EXPECT_TRUE(error_names([&] { Daemon second(w.servers, options); },
                          options.wal_path));
  EXPECT_EQ(file_bytes(options.wal_path), before);
  testing::remove_journal(options.wal_path);
}

// Each compaction renames a fresh journal over the path, but the lock is on
// `<wal>.lock`, which no compaction replaces, so a second daemon is still
// refused after any number of them, and changes neither file.
TEST(ServeExclusive, SecondDaemonIsRefusedAfterCompactions) {
  const Workload w = make_workload(0x10d, false);
  const DaemonOptions options = daemon_options(
      "min-incremental", 42, RetryPolicy{}, "held_compacted", true);
  const std::vector<std::string> lines = request_lines(w);
  Daemon first(w.servers, options);
  for (std::size_t k = 0; k < 3; ++k) {
    send_lines(first, lines, 5 * k, 5 * k + 5);
    const std::string snapshot = first.handle_line(R"({"op":"snapshot"})");
    ASSERT_EQ(snapshot.rfind("{\"ok\":true", 0), 0u) << snapshot;
    ASSERT_EQ(serve::read_wal(options.wal_path).header.after, 5 * k + 5);
    const std::string journal = file_bytes(options.wal_path);
    const std::string snap = file_bytes(options.snapshot_path);
    EXPECT_TRUE(error_names([&] { Daemon second(w.servers, options); },
                            "wal '" + options.wal_path +
                                "' is locked by another daemon"))
        << "after " << k + 1 << " compactions";
    EXPECT_EQ(file_bytes(options.wal_path), journal);
    EXPECT_EQ(file_bytes(options.snapshot_path), snap);
  }
  send_lines(first, lines, 15, 16);
  EXPECT_EQ(first.last_seq(), 16u);
  testing::remove_journal(options.wal_path);
  ::unlink(options.snapshot_path.c_str());
}

// --- end-to-end: real process, SIGKILL mid-stream ---------------------------

#ifdef ESVA_BIN_PATH

pid_t spawn_serve(const std::string& servers_csv, const std::string& socket,
                  const std::string& wal,
                  const std::vector<std::string>& extra = {}) {
  std::vector<std::string> args = {"esva",      "serve",   "--servers",
                                   servers_csv, "--socket", socket,
                                   "--wal",     wal,       "--seed",
                                   "42",        "--allocator",
                                   "min-incremental"};
  args.insert(args.end(), extra.begin(), extra.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  ::execv(ESVA_BIN_PATH, argv.data());
  ::_exit(127);
}

bool wait_for_socket(const std::string& path) {
  for (int i = 0; i < 300; ++i) {
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0 && S_ISSOCK(st.st_mode)) {
      // The file can exist before listen(); probe with a real connect.
      try {
        serve::Client probe(path);
        return true;
      } catch (const std::exception&) {
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

TEST(ServeEndToEnd, SigkilledDaemonRecoversToByteIdenticalStream) {
  struct stat st{};
  if (::stat(ESVA_BIN_PATH, &st) != 0)
    GTEST_SKIP() << "esva binary not built at " << ESVA_BIN_PATH;

  const Workload w = make_workload(0xe2e, false);
  const ReplayReport reference =
      reference_run(w, "min-incremental", 42, RetryPolicy{});

  const std::string servers_csv = temp_path("e2e_servers.csv");
  save_server_trace(servers_csv, w.servers);
  const std::string socket_path = temp_path("e2e.sock");
  const std::string wal_path = temp_path("e2e.wal");
  ::unlink(socket_path.c_str());
  testing::remove_journal(wal_path);

  const std::vector<std::size_t> order = order_by_start(w.vms);
  const std::size_t cut = order.size() / 2;

  // Phase 1: place the first half through a real daemon process, then
  // SIGKILL it — no destructors, no checkpoint; the fsynced WAL is all that
  // survives.
  pid_t pid = spawn_serve(servers_csv, socket_path, wal_path);
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(wait_for_socket(socket_path)) << "daemon never listened";
  {
    serve::Client client(socket_path);
    for (std::size_t k = 0; k < cut; ++k) {
      Request req;
      req.op = OpKind::kPlace;
      req.vm = w.vms[order[k]];
      ASSERT_EQ(client.call(serve::encode_request(req))
                    .rfind("{\"ok\":true", 0),
                0u);
    }
  }
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ::unlink(socket_path.c_str());

  // Phase 2: a fresh process recovers from the journal and finishes the
  // stream; the final state must be byte-identical to the batch replay.
  pid = spawn_serve(servers_csv, socket_path, wal_path);
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(wait_for_socket(socket_path)) << "restart never listened";
  std::string stats;
  {
    serve::Client client(socket_path);
    for (std::size_t k = cut; k < order.size(); ++k) {
      Request req;
      req.op = OpKind::kPlace;
      req.vm = w.vms[order[k]];
      ASSERT_EQ(client.call(serve::encode_request(req))
                    .rfind("{\"ok\":true", 0),
                0u);
    }
    ASSERT_EQ(client.call(R"({"op":"drain"})").rfind("{\"ok\":true", 0), 0u);
    stats = client.call(R"({"op":"stats","assignment":true})");
  }
  ::kill(pid, SIGTERM);
  ::waitpid(pid, &status, 0);

  const json::Value parsed = json::parse(stats);
  EXPECT_EQ(json::require_integer(parsed, "requests", 0, 1 << 30, "stats"),
            static_cast<long long>(reference.requests));
  EXPECT_EQ(json::require_integer(parsed, "placed", 0, 1 << 30, "stats"),
            static_cast<long long>(reference.placed));
  EXPECT_EQ(
      serve::require_number_or_hex(parsed, "energy_hex", "stats"),
      reference.total_energy)
      << "energy must be byte-identical across SIGKILL + restart";
  const json::Value* assignment = parsed.find("assignment");
  ASSERT_NE(assignment, nullptr);
  ASSERT_EQ(assignment->kind, json::Value::Kind::Array);
  std::map<VmId, ServerId> final_hosting;
  for (const json::Value& pair : assignment->array) {
    ASSERT_EQ(pair.kind, json::Value::Kind::Array);
    ASSERT_EQ(pair.array.size(), 2u);
    final_hosting[static_cast<VmId>(pair.array[0].number)] =
        static_cast<ServerId>(pair.array[1].number);
  }
  for (std::size_t id = 0; id < reference.assignment.size(); ++id) {
    const auto it = final_hosting.find(static_cast<VmId>(id));
    const ServerId daemon_server =
        it == final_hosting.end() ? kNoServer : it->second;
    EXPECT_EQ(daemon_server, reference.assignment[id]) << "vm " << id;
  }

  ::unlink(servers_csv.c_str());
  ::unlink(socket_path.c_str());
  testing::remove_journal(wal_path);
}

// --wal-sync-every 32: every ack follows the write() of its record, so a
// SIGKILL right after the acks loses none of them, although the last
// records were never fsynced. The restart on the killed daemon's stale
// socket recovers every acked op at the live energy.
TEST(ServeAckContract, SigkillAfterTheAcksLosesNoneAtSyncEvery32) {
  struct stat st{};
  if (::stat(ESVA_BIN_PATH, &st) != 0)
    GTEST_SKIP() << "esva binary not built at " << ESVA_BIN_PATH;
  const auto [servers, lines] = place_lines(0xac7, 100, 8);
  const std::string servers_csv = temp_path("acks_servers.csv");
  save_server_trace(servers_csv, servers);
  const std::string socket_path = temp_path("acks.sock");
  const std::string wal_path = temp_path("acks.wal");
  ::unlink(socket_path.c_str());
  testing::remove_journal(wal_path);
  const std::vector<std::string> extra = {"--wal-sync-every", "32"};

  pid_t pid = spawn_serve(servers_csv, socket_path, wal_path, extra);
  ASSERT_GT(pid, 0);
  // A failed assertion must not leave a daemon running.
  struct Reaper {
    pid_t& pid;
    ~Reaper() {
      if (pid <= 0) return;
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  } reaper{pid};
  ASSERT_TRUE(wait_for_socket(socket_path)) << "daemon never listened";
  std::string live_energy;
  {
    const int fd = raw_connect(socket_path);
    ASSERT_GE(fd, 0);
    set_io_timeout(fd, 30);
    LineReader reader(fd);
    std::string batch;
    for (const std::string& line : lines) batch += line + "\n";
    Sender sender(fd, batch);
    for (std::size_t k = 0; k < lines.size(); ++k)
      ASSERT_EQ(reader.next().rfind("{\"ok\":true", 0), 0u) << k;
    sender.join();
    ASSERT_TRUE(send_line(fd, R"({"op":"stats"})"));
    const std::string stats = reader.next();
    EXPECT_EQ(stats_seq(stats), 100u);
    live_energy = energy_hex_of(stats);
    ::close(fd);
  }
  int status = 0;
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  pid = 0;

  pid = spawn_serve(servers_csv, socket_path, wal_path, extra);
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(wait_for_socket(socket_path)) << "restart never listened";
  std::string recovered;
  {
    serve::Client client(socket_path);
    recovered = client.call(R"({"op":"stats"})");
  }
  ::kill(pid, SIGTERM);
  ::waitpid(pid, &status, 0);
  pid = 0;
  EXPECT_EQ(stats_seq(recovered), 100u) << recovered;
  EXPECT_EQ(energy_hex_of(recovered), live_energy);
  EXPECT_FALSE(live_energy.empty());
  for (const std::string& f : {servers_csv, socket_path})
    ::unlink(f.c_str());
  testing::remove_journal(wal_path);
}

#endif  // ESVA_BIN_PATH

}  // namespace
}  // namespace esva
