// Robustness fuzzing for every text parser: random byte soup and structured
// mutations must either parse or throw std::runtime_error — never crash,
// hang, or return out-of-contract data.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/fault_plan.h"
#include "ilp/solution_io.h"
#include "obs/trace.h"
#include "serve/wire.h"
#include "util/csv.h"
#include "util/json.h"
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
