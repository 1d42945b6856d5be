// Robustness fuzzing for every text parser: random byte soup and structured
// mutations must either parse or throw std::runtime_error — never crash,
// hang, or return out-of-contract data.

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/fault_plan.h"
#include "counting_new.h"
#include "ilp/solution_io.h"
#include "obs/trace.h"
#include "serve/journal.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "test_util.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/parse.h"
#include "util/rng.h"
#include "workload/trace.h"

namespace esva {
namespace {

std::string random_bytes(Rng& rng, std::size_t max_len) {
  const std::size_t len = rng.index(max_len + 1);
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    // Printable-heavy mix with occasional control characters.
    if (rng.bernoulli(0.9))
      s.push_back(static_cast<char>(rng.uniform_int(32, 126)));
    else
      s.push_back(static_cast<char>(rng.uniform_int(0, 31)));
  }
  return s;
}

/// Characters the CSV layer treats specially, to bias mutations.
std::string random_csvish(Rng& rng, std::size_t max_len) {
  static const char kAlphabet[] = "abc123,\"\n\r.-";
  const std::size_t len = rng.index(max_len + 1);
  std::string s;
  for (std::size_t i = 0; i < len; ++i)
    s.push_back(kAlphabet[rng.index(sizeof(kAlphabet) - 1)]);
  return s;
}

TEST(FuzzParsers, CsvLineNeverCrashes) {
  Rng rng(0xc5f);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string line =
        rng.bernoulli(0.5) ? random_bytes(rng, 80) : random_csvish(rng, 80);
    try {
      const auto fields = parse_csv_line(line);
      // Contract: joined field lengths can't exceed input length.
      std::size_t total = 0;
      for (const auto& f : fields) total += f.size();
      ASSERT_LE(total, line.size() + 1);
    } catch (const std::runtime_error&) {
      // acceptable outcome
    }
  }
}

TEST(FuzzParsers, VmTraceNeverCrashes) {
  Rng rng(0xbee);
  const std::string header = "id,type,cpu,mem,start,end\n";
  for (int trial = 0; trial < 1500; ++trial) {
    std::string body = header;
    const int rows = static_cast<int>(rng.uniform_int(0, 5));
    for (int r = 0; r < rows; ++r) body += random_csvish(rng, 40) + "\n";
    std::istringstream in(body);
    try {
      const auto vms = read_vm_trace(in);
      for (const VmSpec& vm : vms) ASSERT_TRUE(vm.valid());
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(FuzzParsers, VmTraceFieldMutationsAreCaught) {
  // Start from a valid row and corrupt one field at a time.
  const std::string header = "id,type,cpu,mem,start,end\n";
  const std::vector<std::string> good{"0", "m1.small", "1", "1.7", "1", "5"};
  const std::vector<std::string> bad_values{"", "x", "1e999", "-3", "1.2.3",
                                            "NaN?", "\"", "9999999999999999999"};
  for (std::size_t field = 0; field < good.size(); ++field) {
    for (const std::string& bad : bad_values) {
      auto row = good;
      row[field] = bad;
      std::string body = header;
      for (std::size_t k = 0; k < row.size(); ++k)
        body += (k ? "," : "") + row[k];
      body += "\n";
      std::istringstream in(body);
      try {
        const auto vms = read_vm_trace(in);
        for (const VmSpec& vm : vms) ASSERT_TRUE(vm.valid());
      } catch (const std::runtime_error&) {
      }
    }
  }
}

TEST(FuzzParsers, ServerTraceNeverCrashes) {
  Rng rng(0xdad);
  const std::string header = "id,type,cpu,mem,p_idle,p_peak,transition_time\n";
  for (int trial = 0; trial < 1500; ++trial) {
    std::string body = header;
    const int rows = static_cast<int>(rng.uniform_int(0, 4));
    for (int r = 0; r < rows; ++r) body += random_csvish(rng, 50) + "\n";
    std::istringstream in(body);
    try {
      const auto servers = read_server_trace(in);
      for (const ServerSpec& s : servers) ASSERT_TRUE(s.valid());
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(FuzzParsers, AssignmentNeverCrashes) {
  Rng rng(0xace);
  for (int trial = 0; trial < 1500; ++trial) {
    std::string body = "vm_id,server_id\n";
    const int rows = static_cast<int>(rng.uniform_int(0, 6));
    for (int r = 0; r < rows; ++r) body += random_csvish(rng, 20) + "\n";
    std::istringstream in(body);
    const std::size_t num_vms = rng.index(5);
    try {
      const Allocation alloc = read_assignment(in, num_vms);
      ASSERT_EQ(alloc.assignment.size(), num_vms);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(FuzzParsers, SolutionReaderNeverCrashes) {
  Rng rng(0xf00);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string body;
    const int lines = static_cast<int>(rng.uniform_int(0, 8));
    for (int l = 0; l < lines; ++l) {
      switch (rng.index(4)) {
        case 0: body += random_bytes(rng, 40); break;
        case 1: body += "x_" + std::to_string(rng.index(9)) + "_" +
                        std::to_string(rng.index(9)) + " " +
                        std::to_string(rng.next_double());
                break;
        case 2: body += "Objective " + random_csvish(rng, 10); break;
        default: body += random_csvish(rng, 40); break;
      }
      body += "\n";
    }
    std::istringstream in(body);
    try {
      const SolverSolution solution = read_solution(in);
      for (const auto& [name, value] : solution.values)
        ASSERT_FALSE(name.empty());
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(FuzzParsers, FaultPlanNeverCrashes) {
  Rng rng(0xfa0);
  const std::string header = "time,event,server\n";
  for (int trial = 0; trial < 1500; ++trial) {
    std::string body = rng.bernoulli(0.8) ? header : random_csvish(rng, 30);
    const int rows = static_cast<int>(rng.uniform_int(0, 5));
    for (int r = 0; r < rows; ++r) body += random_csvish(rng, 30) + "\n";
    std::istringstream in(body);
    try {
      const FaultPlan plan = read_fault_plan(in);
      Time prev = 0;
      for (const FaultEvent& e : plan.events()) {
        ASSERT_GE(e.at, prev);  // contract: sorted by time
        prev = e.at;
      }
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(FuzzParsers, FaultPlanFieldMutationsAreCaught) {
  // Every corruption of a valid row must raise a structured runtime_error or
  // parse to an in-contract event — never crash, hang, or wrap silently.
  const std::string header = "time,event,server\n";
  const std::vector<std::string> good{"10", "fail", "2"};
  const std::vector<std::string> bad_values{
      "",     "x",   "1e999", "-3",        "1.5",
      "NaN",  "\"",  "inf",   "权限",      "9999999999999999999",
      "0x10", "+ 1", "fail2", "1 000 000", "2,"};
  for (std::size_t field = 0; field < good.size(); ++field) {
    for (const std::string& bad : bad_values) {
      auto row = good;
      row[field] = bad;
      std::string body = header;
      for (std::size_t k = 0; k < row.size(); ++k)
        body += (k ? "," : "") + row[k];
      body += "\n";
      std::istringstream in(body);
      try {
        const FaultPlan plan = read_fault_plan(in);
        for (const FaultEvent& e : plan.events()) {
          ASSERT_GE(e.at, 1);
          ASSERT_GE(e.server, 0);
        }
      } catch (const std::runtime_error& e) {
        // Structured: either line-numbered (field parsers) or the CSV
        // layer's own message; never empty.
        ASSERT_FALSE(std::string(e.what()).empty());
      }
    }
  }
}

TEST(FuzzParsers, CrlfLineEndingsParseCleanly) {
  // Windows-edited traces: a single trailing \r per line must not corrupt
  // the last field of any CSV parser.
  std::istringstream faults("time,event,server\r\n10,fail,2\r\n20,recover,2\r\n");
  const FaultPlan plan = read_fault_plan(faults);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.events()[0].at, 10);
  EXPECT_EQ(plan.events()[0].server, 2);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kRecover);

  std::istringstream vms("id,type,cpu,mem,start,end\r\n0,m1,1,1.5,1,5\r\n");
  const auto parsed = read_vm_trace(vms);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].end, 5);
  EXPECT_EQ(parsed[0].demand.mem, 1.5);

  std::istringstream profiled(
      "id,type,cpu,mem,start,end,profile\r\n0,b,2,1,1,2,1:1|2:0.5\r\n");
  const auto bursty = read_vm_trace(profiled);
  ASSERT_EQ(bursty.size(), 1u);
  EXPECT_EQ(bursty[0].demand_at(2).mem, 0.5);
}

TEST(FuzzParsers, TraceJsonlMutationsAreCaught) {
  // Structured mutations of a valid decision-trace line: every outcome is
  // either a loaded record honoring the schema bounds or a runtime_error.
  const std::vector<std::string> lines{
      R"({"vm":1e99,"chosen":0})",          // overflows VmId
      R"({"vm":-1,"chosen":0})",            // negative id
      R"({"vm":1.5,"chosen":0})",           // fractional id
      R"({"vm":0,"chosen":-5})",            // below kNoServer
      R"({"vm":0,"chosen":1e99})",          // overflows ServerId
      R"({"vm":0,"chosen":0,"candidates":[{"server":-7}]})",
      R"({"vm":0,"chosen":0,"at":1e999})",  // double overflow literal
      R"({"chosen":0})",                    // missing vm
      "[1,2,3]",                            // not an object
      "17",                                 // scalar root
      std::string(1000, '[') + std::string(1000, ']'),  // deep nesting
      R"({"vm":0,"chosen":0)",              // truncated
      R"({"vm":0,"chosen":0,"note":")" + std::string("\xff\xfe", 2) + "\"}",
  };
  for (const std::string& line : lines) {
    std::istringstream in(line + "\n");
    try {
      const auto decisions = load_trace_jsonl(in);
      for (const VmDecisionTrace& d : decisions) {
        ASSERT_GE(d.vm, 0);
        ASSERT_GE(d.chosen, kNoServer);
      }
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(FuzzParsers, TraceJsonlRandomSoupNeverCrashes) {
  Rng rng(0x15e);
  static const char kJsonish[] = "{}[]\":,0123456789.eE+-truefalsn\\vmchos";
  for (int trial = 0; trial < 3000; ++trial) {
    std::string line;
    const std::size_t len = rng.index(120);
    for (std::size_t i = 0; i < len; ++i)
      line.push_back(rng.bernoulli(0.9)
                         ? kJsonish[rng.index(sizeof(kJsonish) - 1)]
                         : static_cast<char>(rng.uniform_int(0, 255)));
    std::istringstream in(line + "\n");
    try {
      load_trace_jsonl(in);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(FuzzParsers, ServeRequestDecoderNeverCrashes) {
  Rng rng(0x5e12e);
  static const char kJsonish[] = "{}[]\":,0123456789.eE+-xp\\opplacevmidfault";
  for (int trial = 0; trial < 3000; ++trial) {
    std::string line;
    const std::size_t len = rng.index(150);
    for (std::size_t i = 0; i < len; ++i)
      line.push_back(rng.bernoulli(0.9)
                         ? kJsonish[rng.index(sizeof(kJsonish) - 1)]
                         : static_cast<char>(rng.uniform_int(0, 255)));
    try {
      const serve::Request req = serve::decode_request(line);
      if (req.op == serve::OpKind::kPlace) {
        ASSERT_TRUE(req.vm.valid());
      }
    } catch (const std::runtime_error&) {
    }
  }
}

/// A place line whose profile is `entries`, over [start, end].
std::string run_place(const std::string& entries, long long start = 5,
                      long long end = 16) {
  return R"({"op":"place","vm":{"id":3,"cpu":2,"mem":4,"start":)" +
         std::to_string(start) + R"(,"end":)" + std::to_string(end) +
         R"(,"profile":[)" + entries + "]}}";
}

/// Decodes one line the way the daemon does, with allocations counted.
/// The decoder may only throw std::runtime_error; an accepted place must be
/// a valid VM with one profile unit per time unit; and a line under 1 KB
/// may not make it allocate more than 2 MiB. Returns whether it decoded.
bool decode_checked(const std::string& line) {
  testing::allocations = {};
  testing::counting_allocations = true;
  bool accepted = false;
  try {
    const serve::Request req = serve::decode_request(line);
    testing::counting_allocations = false;
    accepted = true;
    EXPECT_EQ(req.op, serve::OpKind::kPlace) << line;
    EXPECT_TRUE(req.vm.valid()) << line;
    EXPECT_EQ(static_cast<Time>(req.vm.profile.size()), req.vm.duration())
        << line;
  } catch (const std::runtime_error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-runtime_error " << e.what() << " for " << line;
  }
  testing::counting_allocations = false;
  if (line.size() < 1024) {
    EXPECT_LE(testing::allocations.bytes, std::size_t{2} << 20) << line;
  }
  return accepted;
}

TEST(FuzzParsers, RunFormPlaceMutationsAreCaught) {
  // Each profile covers the 12 units of [5, 16] unless the comment says
  // otherwise.
  const std::vector<std::pair<std::string, bool>> cases = {
      {R"([4,2,1],[5,1,4],[3,1.5,2])", true},
      {R"([2,1],[3,2,1],["0x1p+0",4],[6,1.5,2],[1,1])", true},  // mixed
      {R"([1e1,2,1],[2,1,4])", true},  // an exponent that names an integer
      {R"([0,2,1],[9,1,4],[3,1.5,2])", false},   // len 0
      {R"([-1,2,1],[10,1,4],[3,1.5,2])", false},  // len -1
      {R"([1.5,2,1],[7.5,1,4],[3,1.5,2])", false},  // fractional len
      {R"([9007199254740992,2,1])", false},     // 2^53
      {R"([9223372036854775807,2,1])", false},  // 2^63 - 1
      {R"([9223372036854775808,2,1])", false},  // 2^63
      {R"([18446744073709551628,2,1])", false},  // 2^64 + 12
      // Two lengths whose sum would overflow a signed 64-bit running total.
      {R"([9223372036854775807,2,1],[9223372036854775807,2,1])", false},
      {R"([4,2,1],[5,1,4],[2,1.5,2])", false},  // one short
      {R"([4,2,1],[5,1,4],[4,1.5,2])", false},  // one long
      {R"([12],[1,1])", false},                 // one element
      {R"([4,2,1,7],[8,1,4])", false},          // four elements
      {R"(["4",2,1],[8,1,4])", false},          // a string len
      {R"([null,2,1],[8,1,4])", false},
      {R"([4,2,1],5,[3,1.5,2])", false},        // a bare number
      {R"([4,2,1],[5,1,4],[3,1.5,-2])", false},  // negative demand
      {R"([4,2,1],[5,1,4],[3,1.5,"x"])", false},
      {R"([1000000000000,2,1])", false},        // 10^12 units
      {"", false},                              // no units at all
  };
  for (const auto& [entries, valid] : cases)
    EXPECT_EQ(decode_checked(run_place(entries)), valid) << entries;

  // The claimed length is checked against the interval before anything is
  // sized by it: 10^12 units fail on the interval or the duration limit,
  // and the longest legal run allocates its 1.6 MB and no more.
  EXPECT_FALSE(decode_checked(run_place("[1000000000000,2,1]", 1,
                                        1000000000000LL)));
  EXPECT_FALSE(decode_checked(run_place("[100001,2,1]", 1, 100001)));
  EXPECT_TRUE(decode_checked(run_place("[100000,2,1]", 1, 100000)));
  EXPECT_GE(testing::allocations.bytes, 100000 * sizeof(Resources))
      << "counter is live";
  EXPECT_FALSE(decode_checked(run_place("[1,2,1]", 3, 2)));  // inverted
}

TEST(FuzzParsers, RunFormPlaceRandomMutationsNeverCrash) {
  Rng rng(0x5e125);
  static const std::vector<std::string> kTokens = {
      "0",     "1",      "-1",   "1.5",  "12",  "9007199254740992",
      "9223372036854775808", "1e12", "-0",   "1e308", R"("4")",
      R"("0x1p+0")",         "null", "[]",   "true", "100000", "0.1"};
  std::size_t accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    // Between one and four entries, each a run or a unit, every field drawn
    // from a valid value or a hostile token.
    std::string entries;
    const int count = static_cast<int>(rng.uniform_int(1, 4));
    for (int e = 0; e < count; ++e) {
      if (e > 0) entries += ',';
      const int fields = static_cast<int>(rng.uniform_int(1, 4));
      entries += '[';
      for (int f = 0; f < fields; ++f) {
        if (f > 0) entries += ',';
        entries += rng.bernoulli(0.7)
                       ? std::to_string(rng.uniform_int(1, 6))
                       : kTokens[rng.index(kTokens.size())];
      }
      entries += ']';
    }
    const long long start = rng.uniform_int(1, 4);
    const long long end = rng.bernoulli(0.9)
                              ? start + rng.uniform_int(0, 11)
                              : start + rng.uniform_int(-2, 200000);
    if (decode_checked(run_place(entries, start, end))) ++accepted;
  }
  EXPECT_GT(accepted, 0u) << "the mutator should also produce valid lines";
}

// --- durable formats ----------------------------------------------------

/// One random edit of `text`: a byte replaced by any byte, a JSON-ish byte
/// (or a newline) inserted, or a run of one to four bytes deleted.
void mutate(std::string& text, Rng& rng) {
  static const char kInserts[] = "{}[]\":,0123456789.-xp\n\r ";
  const std::size_t at = rng.index(text.size() + 1);
  switch (rng.index(3)) {
    case 0:
      if (at < text.size())
        text[at] = static_cast<char>(rng.uniform_int(0, 255));
      break;
    case 1:
      text.insert(at, 1, kInserts[rng.index(sizeof(kInserts) - 1)]);
      break;
    default:
      if (at < text.size()) text.erase(at, 1 + rng.index(4));
      break;
  }
}

std::string mutated(const std::string& text, Rng& rng) {
  std::string out = text;
  for (std::size_t edits = 1 + rng.index(3); edits > 0; --edits)
    mutate(out, rng);
  return out;
}

/// A profiled VM whose demand changes phase twice.
VmSpec phased_vm(VmId id, Time start) {
  VmSpec vm = testing::vm(id, start, start + 9, 2.0, 4.0);
  std::vector<Resources> units(10, Resources{2.0, 4.0});
  for (std::size_t k = 4; k < units.size(); ++k)
    units[k] = {k < 7 ? 0.5 : 1.25, 3.0};
  vm.set_profile(units);
  return vm;
}

/// A journal holding every record kind: a profiled place, a plain place, a
/// rejected one, a retire, an advance, a fault and a drain.
std::string every_record_journal() {
  serve::WalHeader header;
  header.allocator = "min-incremental";
  header.seed = 42;
  header.num_servers = 3;
  header.retry.max_attempts = 2;
  header.retry.base_delay = 8;
  header.retry.backoff = 2.5;
  header.retry.queue_capacity = 16;
  PlacementDecision placed;
  placed.server = 1;
  PlacementDecision rejected;
  rejected.reject = PlacementReject::kNoCapacity;
  std::string out = serve::encode_wal_header(header) + '\n';
  for (const std::string& line :
       {serve::encode_place_record(1, "min-incremental", phased_vm(0, 2),
                                   placed, 12.5),
        serve::encode_place_record(2, "min-incremental", testing::vm(1, 3, 8),
                                   placed, 0.1 + 0.2),
        serve::encode_place_record(3, "min-incremental", testing::vm(2, 3, 9),
                                   rejected, 0.1 + 0.2),
        serve::encode_retire_record(4, 1, 1),
        serve::encode_advance_record(5, 12),
        serve::encode_fault_record(6, {13, FaultKind::kFail, 2}),
        serve::encode_drain_record(7)})
    out += line + '\n';
  return out;
}

// Every mutant of a journal either reads or throws std::runtime_error. One
// that reads has strictly increasing seqs, valid places, and a valid_bytes
// on a line boundary within the file — the offset recovery truncates to.
TEST(FuzzParsers, JournalMutationsReadOrThrow) {
  const std::string journal = every_record_journal();
  const std::string path = ::testing::TempDir() + "/esva_fuzz_" +
                           std::to_string(::getpid()) + ".wal";
  {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << journal;
    const serve::WalFile wal = serve::read_wal(path);
    ASSERT_EQ(wal.records.size(), 7u);
    ASSERT_EQ(wal.valid_bytes, journal.size());
  }
  Rng rng(0x3a1);
  std::size_t read = 0;
  const int trials = testing::fuzz_quick() ? 600 : 4000;
  for (int trial = 0; trial < trials; ++trial) {
    const std::string text = mutated(journal, rng);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
    try {
      const serve::WalFile wal = serve::read_wal(path);
      ++read;
      ASSERT_LE(wal.valid_bytes, text.size()) << text;
      if (wal.valid_bytes > 0) {
        ASSERT_EQ(text[wal.valid_bytes - 1], '\n') << text;
      }
      for (std::size_t k = 0; k < wal.records.size(); ++k) {
        if (k > 0) {
          ASSERT_LT(wal.records[k - 1].seq, wal.records[k].seq) << text;
        }
        if (wal.records[k].req.op == serve::OpKind::kPlace) {
          ASSERT_TRUE(wal.records[k].req.vm.valid()) << text;
        }
      }
    } catch (const std::runtime_error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-runtime_error " << e.what() << " for " << text;
    }
  }
  EXPECT_GT(read, 0u) << "the mutator should also leave readable journals";
  ::unlink(path.c_str());
}

/// A snapshot with profiled active and queued VMs and a failed server.
std::string mixed_snapshot() {
  serve::SnapshotData snap;
  snap.allocator = "min-incremental";
  snap.seed = 42;
  snap.num_servers = 2;
  snap.wal_seq = 9;
  snap.engine.frontier = 4;
  snap.engine.horizon = 20;
  snap.engine.requests = 3;
  snap.engine.placed = 2;
  snap.engine.energy = 0.1 + 0.2;
  snap.engine.servers.resize(2);
  snap.engine.servers[0].active = {phased_vm(0, 2), testing::vm(1, 3, 8)};
  snap.engine.servers[1].health = ServerHealth::kFailed;
  PendingRequest pending;
  pending.vm = phased_vm(2, 5);
  pending.not_before = 9;
  pending.attempts = 1;
  pending.displaced = true;
  pending.seq = 1;
  snap.engine.retry_queue.push_back(pending);
  snap.rng = {1, 2, 3, 4};
  snap.assignment = {{0, 0}, {1, 0}, {2, kNoServer}};
  return serve::encode_snapshot(snap);
}

// Every mutant of a snapshot either decodes or throws std::runtime_error;
// one that decodes holds the declared fleet and valid VMs.
TEST(FuzzParsers, SnapshotMutationsDecodeOrThrow) {
  const std::string text = mixed_snapshot();
  ASSERT_EQ(serve::encode_snapshot(serve::decode_snapshot(text)), text);

  Rng rng(0x5a9);
  std::size_t decoded = 0;
  const int trials = testing::fuzz_quick() ? 600 : 4000;
  for (int trial = 0; trial < trials; ++trial) {
    const std::string doc = mutated(text, rng);
    try {
      const serve::SnapshotData back = serve::decode_snapshot(doc);
      ++decoded;
      ASSERT_EQ(back.engine.servers.size(), back.num_servers) << doc;
      for (const ServerStateSnapshot& server : back.engine.servers)
        for (const VmSpec& vm : server.active) ASSERT_TRUE(vm.valid()) << doc;
      for (const PendingRequest& p : back.engine.retry_queue)
        ASSERT_TRUE(p.vm.valid()) << doc;
    } catch (const std::runtime_error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-runtime_error " << e.what() << " for " << doc;
    }
  }
  EXPECT_GT(decoded, 0u) << "the mutator should also leave decodable ones";
}

/// Mutants of a request line of every op, of each line of the every-record
/// journal, and of the snapshot, with their unmutated sources first.
std::vector<std::string> mutation_corpus() {
  std::vector<std::string> sources;
  serve::Request req;
  req.has_id = true;
  req.id = -7;
  for (const serve::OpKind op :
       {serve::OpKind::kPlace, serve::OpKind::kRetire, serve::OpKind::kAdvance,
        serve::OpKind::kFault, serve::OpKind::kStats, serve::OpKind::kSnapshot,
        serve::OpKind::kDrain}) {
    req.op = op;
    req.vm = phased_vm(4, 3);
    req.vm_id = 4;
    req.to = 12;
    req.fault = {13, FaultKind::kRecover, 2};
    req.with_assignment = true;
    sources.push_back(serve::encode_request(req));
  }
  const std::string journal = every_record_journal();
  for (std::size_t pos = 0, nl; (nl = journal.find('\n', pos)) !=
                                std::string::npos;
       pos = nl + 1)
    sources.push_back(journal.substr(pos, nl - pos));
  sources.push_back(mixed_snapshot());

  std::vector<std::string> corpus = sources;
  Rng rng(0x7e3);
  const int per_source = testing::fuzz_quick() ? 150 : 1000;
  for (const std::string& source : sources)
    for (int k = 0; k < per_source; ++k) corpus.push_back(mutated(source, rng));
  // Interleaved, so a tree meets every shape after every other.
  rng.shuffle(corpus);
  return corpus;
}

/// Equal bit for bit: kinds, booleans, number bits, strings (a number's
/// token text included) and every member and element in order.
::testing::AssertionResult same_tree(const json::Value& a,
                                     const json::Value& b) {
  if (a.kind != b.kind || a.boolean != b.boolean ||
      std::bit_cast<std::uint64_t>(a.number) !=
          std::bit_cast<std::uint64_t>(b.number) ||
      a.string != b.string || a.array.size() != b.array.size() ||
      a.object.size() != b.object.size())
    return ::testing::AssertionFailure()
           << "node differs at token '" << a.string << "' / '" << b.string
           << "'";
  for (std::size_t k = 0; k < a.array.size(); ++k)
    if (auto r = same_tree(a.array[k], b.array[k]); !r) return r;
  for (std::size_t k = 0; k < a.object.size(); ++k) {
    if (a.object[k].first != b.object[k].first)
      return ::testing::AssertionFailure()
             << "key '" << a.object[k].first << "' / '" << b.object[k].first
             << "'";
    if (auto r = same_tree(a.object[k].second, b.object[k].second); !r)
      return r;
  }
  return ::testing::AssertionSuccess();
}

// One tree carried through every document of the request, journal and
// snapshot mutation corpora, a throwing parse's half-written tree included,
// reads each document exactly as a fresh tree does, or throws its message.
TEST(FuzzParsers, OneReusedTreeParsesLikeAFreshOne) {
  json::Value reused;
  std::size_t parsed = 0, thrown = 0;
  for (const std::string& doc : mutation_corpus()) {
    std::string fresh_error, reused_error;
    json::Value fresh;
    try {
      fresh = json::parse(doc);
    } catch (const std::runtime_error& e) {
      fresh_error = e.what();
    }
    try {
      json::parse(doc, reused);
    } catch (const std::runtime_error& e) {
      reused_error = e.what();
    }
    ASSERT_EQ(reused_error, fresh_error) << doc;
    if (!fresh_error.empty()) {
      ++thrown;
      continue;
    }
    ++parsed;
    ASSERT_TRUE(same_tree(reused, fresh)) << doc;
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(thrown, 0u);
}

// Plain integer tokens of up to 15 digits skip strtod; the double is still
// the one strtod reads, negative zero and leading zeros included, and the
// token text is kept for exact_integer.
TEST(FuzzParsers, SmallIntegerTokensReadAsStrtodDoes) {
  Rng rng(0x1f7);
  std::vector<std::string> tokens = {"0",  "-0", "007", "-00",
                                     "999999999999999", "-999999999999999",
                                     "1000000000000000", "9007199254740993"};
  for (int k = 0; k < 20000; ++k) {
    std::string token = rng.bernoulli(0.5) ? "-" : "";
    const std::size_t digits = 1 + rng.index(17);
    for (std::size_t d = 0; d < digits; ++d)
      token += static_cast<char>('0' + rng.index(10));
    tokens.push_back(token);
  }
  for (const std::string& token : tokens) {
    const json::Value v = json::parse(token);
    ASSERT_EQ(v.kind, json::Value::Kind::Number) << token;
    EXPECT_EQ(v.string, token);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v.number),
              std::bit_cast<std::uint64_t>(std::strtod(token.c_str(), nullptr)))
        << token;
  }
}

// The hexfloat hex_double writes for every normal double and both zeros is
// read by its bits, to the bits strtod reads; subnormals, infinities and
// NaNs, which it writes through printf, are left to strtod.
TEST(FuzzParsers, CanonicalHexfloatsReadByBitsAsStrtodDoes) {
  Rng rng(0x4e7f);
  std::vector<std::uint64_t> patterns = {
      0, std::uint64_t{1} << 63,                      // +-0
      std::bit_cast<std::uint64_t>(1.0), std::bit_cast<std::uint64_t>(-2.5),
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::min()),
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::max()),
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::denorm_min()),
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity()),
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::quiet_NaN())};
  for (int k = 0; k < 1000000; ++k) patterns.push_back(rng.next_u64());
  std::size_t fast = 0;
  for (const std::uint64_t bits : patterns) {
    const double value = std::bit_cast<double>(bits);
    const std::string quoted = serve::hex_double(value);
    const std::string text = quoted.substr(1, quoted.size() - 2);
    double read = 0.0;
    const bool took = serve::read_hex_double(text, &read);
    const bool normal_or_zero =
        std::fpclassify(value) == FP_NORMAL || value == 0.0;
    ASSERT_EQ(took, normal_or_zero) << text;
    if (!took) continue;
    ++fast;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(read), bits) << text;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(std::strtod(text.c_str(), nullptr)),
              bits)
        << text;
  }
  EXPECT_GT(fast, 990000u);
}

// Every spelling but the canonical one goes to strtod, and the decoder
// accepts or refuses it, and reads its value, by parse_double_field's
// rules (one trailing '\r' stripped), whatever the fast path reads.
TEST(FuzzParsers, OtherHexfloatSpellingsKeepTheirAcceptReject) {
  const std::vector<std::string> spellings = {
      "0X1.8p+1", "0x1.8P+1", "0x1.ABp+1", "0x1.Abcp-3",   // uppercase
      "+0x1.8p+1", "+0x0p+0",                              // a + sign
      "0x18p-3", "0x3p+0", "0x10p-4", "0x1.p+0",          // no '.' + digits
      "0x1.00000000000000p+0", "0x1.fffffffffffff8p+0",   // 14 digits
      "0x1.000000000000001p+0",
      "0x0.0000000000001p-1022", "0x1p-1023", "0x1p-1074",  // subnormals
      "0x1p-1075", "0x1p+1024", "0x1.8p+99999",             // out of range
      "inf", "-inf", "nan", "infinity", "NaN",
      "0x1.8p+1\r", "0x0p+0\r",                            // a trailing \r
      " 0x1.8p+1", "\t0x1p+0", "  -0x0p+0",                // leading blanks
      "0x1.8p+1 ", "0x1.8p1", "0x0p-0", "0x0.8p+1", "0x1.8p+00001",
      "0x1.8q+1", "0x1.8p+", "0x1.8", "0x", "-", "1.5", "", "0x1.g",
  };
  for (const std::string& text : spellings) {
    double ignored = 0.0;
    EXPECT_FALSE(serve::read_hex_double(text, &ignored)) << text;
    std::optional<double> want;
    try {
      want = parse_double_field(text, "x");
    } catch (const std::runtime_error&) {
    }
    const json::Value doc = json::parse("{\"x\":" + json::escape(text) + "}");
    std::optional<double> got;
    try {
      got = serve::require_number_or_hex(doc, "x", "test");
    } catch (const std::runtime_error&) {
    }
    ASSERT_EQ(got.has_value(), want.has_value()) << text;
    if (got) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(*got),
                std::bit_cast<std::uint64_t>(*want))
          << text;
    }
  }
}

TEST(FuzzParsers, JsonParserBoundsRecursionDepth) {
  // The depth guard must convert pathological nesting into a runtime_error
  // (stack exhaustion would be a crash under ASan).
  const std::string deep(100000, '[');
  EXPECT_THROW(json::parse(deep), std::runtime_error);
  const std::string mixed = std::string(50000, '[') + "{\"a\":" +
                            std::string(50000, '[');
  EXPECT_THROW(json::parse(mixed), std::runtime_error);
}

}  // namespace
}  // namespace esva
