// End-to-end tests of the esva CLI subcommands (src/app/commands.h), run
// in-process against temp files.

#include "app/commands.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ilp/model.h"
#include "ilp/validate.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "serve/daemon.h"
#include "test_util.h"
#include "util/json.h"
#include "util/logging.h"
#include "workload/trace.h"

namespace esva {
namespace {

class AppTest : public ::testing::Test {
 protected:
  /// A file name under ::testing::TempDir(), private to this process.
  /// TearDown removes every name handed out, written or not.
  std::string path(const std::string& name) {
    paths_.push_back(::testing::TempDir() + "/esva_app_" +
                     std::to_string(::getpid()) + "_" + name);
    return paths_.back();
  }

  void TearDown() override {
    for (const std::string& p : paths_) std::remove(p.c_str());
  }

  int run(const std::string& command, std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    std::vector<const char*> argv{"esva", command.c_str()};
    std::vector<std::string> storage = std::move(args);
    for (const std::string& arg : storage) argv.push_back(arg.c_str());
    return app::esva_main(static_cast<int>(argv.size()), argv.data(), out_,
                          err_);
  }

  std::string out() const { return out_.str(); }
  std::string err() const { return err_.str(); }

 private:
  std::vector<std::string> paths_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(AppTest, HelpPrintsUsage) {
  EXPECT_EQ(run("help", {}), 0);
  EXPECT_NE(out().find("subcommands"), std::string::npos);
}

TEST_F(AppTest, UnknownSubcommandFails) {
  EXPECT_EQ(run("frobnicate", {}), 2);
  EXPECT_NE(err().find("unknown subcommand"), std::string::npos);
}

TEST_F(AppTest, MissingSubcommandFails) {
  const char* argv[] = {"esva"};
  std::ostringstream out_stream;
  std::ostringstream err_stream;
  EXPECT_EQ(app::esva_main(1, argv, out_stream, err_stream), 2);
}

TEST_F(AppTest, GenerateWritesTraces) {
  ASSERT_EQ(run("generate",
                {"--vms", "30", "--servers", "15", "--out-vms",
                 path("g_vms.csv"), "--out-servers", path("g_srv.csv")}),
            0)
      << err();
  EXPECT_EQ(load_vm_trace(path("g_vms.csv")).size(), 30u);
  EXPECT_EQ(load_server_trace(path("g_srv.csv")).size(), 15u);
  EXPECT_NE(out().find("wrote 30 VMs"), std::string::npos);
}

TEST_F(AppTest, GenerateStandardTypesOnly) {
  ASSERT_EQ(run("generate",
                {"--vms", "50", "--vm-types", "standard", "--server-types",
                 "1-3", "--out-vms", path("s_vms.csv"), "--out-servers",
                 path("s_srv.csv")}),
            0)
      << err();
  for (const VmSpec& vm : load_vm_trace(path("s_vms.csv")))
    EXPECT_EQ(vm.type_name.rfind("m1.", 0), 0u) << vm.type_name;
  for (const ServerSpec& s : load_server_trace(path("s_srv.csv")))
    EXPECT_NE(s.type_name, "server-type-4");
}

TEST_F(AppTest, GenerateRejectsBadTypeSet) {
  EXPECT_EQ(run("generate", {"--vm-types", "bogus", "--out-vms",
                             path("x.csv"), "--out-servers", path("y.csv")}),
            1);
  EXPECT_NE(err().find("unknown VM type set"), std::string::npos);
}

TEST_F(AppTest, GenerateDiurnalWorks) {
  ASSERT_EQ(run("generate",
                {"--vms", "40", "--diurnal", "--out-vms", path("d_vms.csv"),
                 "--out-servers", path("d_srv.csv")}),
            0)
      << err();
  EXPECT_EQ(load_vm_trace(path("d_vms.csv")).size(), 40u);
}

TEST_F(AppTest, FullPipelineGenerateAllocateEvaluateSimulate) {
  ASSERT_EQ(run("generate",
                {"--vms", "40", "--servers", "20", "--out-vms",
                 path("p_vms.csv"), "--out-servers", path("p_srv.csv")}),
            0);
  ASSERT_EQ(run("allocate",
                {"--vms", path("p_vms.csv"), "--servers", path("p_srv.csv"),
                 "--out-assignment", path("p_assign.csv")}),
            0)
      << err();
  EXPECT_NE(out().find("min-incremental"), std::string::npos);
  EXPECT_NE(out().find("total energy"), std::string::npos);

  ASSERT_EQ(run("evaluate",
                {"--vms", path("p_vms.csv"), "--servers", path("p_srv.csv"),
                 "--assignment", path("p_assign.csv"), "--timeout", "5"}),
            0)
      << err();
  EXPECT_NE(out().find("fixed timeout 5"), std::string::npos);

  ASSERT_EQ(run("simulate",
                {"--vms", path("p_vms.csv"), "--servers", path("p_srv.csv"),
                 "--assignment", path("p_assign.csv"), "--power-csv",
                 path("p_power.csv")}),
            0)
      << err();
  EXPECT_NE(out().find("simulated energy"), std::string::npos);
  std::ifstream power(path("p_power.csv"));
  ASSERT_TRUE(power.good());
  std::string header;
  std::getline(power, header);
  EXPECT_EQ(header, "t,total_power_w,active_servers,running_vms");
}

// The fleet is not sliced: --shards is a usage error on every command.
TEST_F(AppTest, ShardsFlagIsAUsageErrorOnEveryCommand) {
  ASSERT_EQ(run("generate",
                {"--vms", "10", "--servers", "4", "--out-vms",
                 path("so_vms.csv"), "--out-servers", path("so_srv.csv")}),
            0);
  for (const std::string shards : {"1", "2"}) {
    for (const std::string command : {"stream", "allocate"}) {
      EXPECT_EQ(run(command, {"--vms", path("so_vms.csv"), "--servers",
                              path("so_srv.csv"), "--shards", shards}),
                2)
          << command << " --shards " << shards;
    }
    EXPECT_EQ(run("serve", {"--servers", path("so_srv.csv"), "--socket",
                            path("so.sock"), "--shards", shards}),
              2)
        << "serve --shards " << shards;
  }
}

// The stream time series only observes: the assignment is the same with
// and without --timeseries-out, and every JSONL sample splits the fleet
// into busy, idle, drained and failed servers.
TEST_F(AppTest, StreamTimeSeriesJsonlChangesNoDecision) {
  ASSERT_EQ(run("generate",
                {"--vms", "80", "--servers", "12", "--seed", "5", "--out-vms",
                 path("ts_vms.csv"), "--out-servers", path("ts_srv.csv")}),
            0);
  const auto assignment = [&](std::vector<std::string> extra) {
    std::vector<std::string> args = {"--vms", path("ts_vms.csv"), "--servers",
                                     path("ts_srv.csv"), "--out-assignment",
                                     path("ts_assign.csv")};
    args.insert(args.end(), extra.begin(), extra.end());
    EXPECT_EQ(run("stream", args), 0) << err();
    std::stringstream body;
    body << std::ifstream(path("ts_assign.csv")).rdbuf();
    return body.str();
  };
  const std::string plain = assignment({});
  EXPECT_EQ(assignment({"--timeseries-out", path("ts.jsonl")}), plain);
  std::ifstream series(path("ts.jsonl"));
  std::size_t samples = 0;
  bool saw_load = false;
  for (std::string line; std::getline(series, line); ++samples) {
    const json::Value sample = json::parse(line);
    double servers = 0.0;
    for (const char* field : {"busy_servers", "idle_servers",
                              "drained_servers", "failed_servers"})
      servers += json::require_number(sample, field, "sample");
    EXPECT_EQ(servers, 12.0) << line;
    saw_load = saw_load ||
               json::require_number(sample, "busy_servers", "sample") > 0;
  }
  EXPECT_GT(samples, 0u);
  EXPECT_TRUE(saw_load);
}

// The candidate scan is serial: allocate and stream have no --threads, and
// serve keeps the flag (scripts pass --threads 1) but accepts only 1.
TEST_F(AppTest, ThreadsFlagAcceptsOnlyOneAndOnlyOnServe) {
  ASSERT_EQ(run("generate",
                {"--vms", "10", "--servers", "4", "--out-vms",
                 path("th_vms.csv"), "--out-servers", path("th_srv.csv")}),
            0);
  for (const std::string command : {"allocate", "stream"}) {
    EXPECT_EQ(run(command, {"--vms", path("th_vms.csv"), "--servers",
                            path("th_srv.csv"), "--threads", "1"}),
              2)
        << command;
  }
  const std::string wal = path("th.wal");
  for (const std::string threads : {"0", "2", "-3"}) {
    testing::remove_journal(wal);
    EXPECT_EQ(run("serve", {"--servers", path("th_srv.csv"), "--socket",
                            path("th.sock"), "--wal", wal, "--threads",
                            threads}),
              1)
        << threads;
    EXPECT_NE(err().find("--threads must be 1"), std::string::npos) << err();
    EXPECT_NE(err().find("serial"), std::string::npos) << err();
    EXPECT_FALSE(std::ifstream(wal).good()) << threads;
  }
  // --threads 1 passes: the daemon starts (journal written) and only the
  // unbindable socket stops it.
  testing::remove_journal(wal);
  EXPECT_EQ(run("serve", {"--servers", path("th_srv.csv"), "--socket",
                          path("no_such_dir/th.sock"), "--wal", wal,
                          "--threads", "1"}),
            1);
  EXPECT_NE(err().find("bind("), std::string::npos) << err();
  EXPECT_TRUE(std::ifstream(wal).good());
  testing::remove_journal(wal);
}

// One daemon per journal: `esva serve` on a journal another daemon holds
// exits 1 naming it, and leaves the file as it was. (Its socket is
// unbindable, so a daemon that wrongly took the journal exits too.)
TEST_F(AppTest, ServeRefusesAWalAnotherDaemonHolds) {
  ASSERT_EQ(run("generate",
                {"--vms", "10", "--servers", "4", "--out-vms",
                 path("ex_vms.csv"), "--out-servers", path("ex_srv.csv")}),
            0);
  const std::string wal = path("ex.wal");
  testing::remove_journal(wal);
  serve::DaemonOptions options;
  options.wal_path = wal;
  serve::Daemon holder(load_server_trace(path("ex_srv.csv")), options);
  const auto contents = [&wal] {
    std::ifstream in(wal, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string before = contents();
  EXPECT_EQ(run("serve", {"--servers", path("ex_srv.csv"), "--socket",
                          path("no_such_dir/ex.sock"), "--wal", wal}),
            1);
  EXPECT_NE(err().find("wal '" + wal + "' is locked"), std::string::npos)
      << err();
  EXPECT_EQ(contents(), before);
  testing::remove_journal(wal);
}

// A retry, WAL-sync or snapshot value the daemon could not restart on (the
// journal header would not read it back) or would silently clamp is an
// error naming the flag, raised before any journal is written; stream
// shares the retry flags and their checks.
TEST_F(AppTest, OutOfRangeDaemonFlagsFailBeforeWritingAWal) {
  ASSERT_EQ(run("generate",
                {"--vms", "10", "--servers", "4", "--out-vms",
                 path("rg_vms.csv"), "--out-servers", path("rg_srv.csv")}),
            0);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"retry-max", "-1"},        {"retry-max", "4294967297"},
      {"retry-delay", "-1"},      {"retry-delay", "2147483648"},
      {"retry-backoff", "nan"},   {"retry-backoff", "inf"},
      {"retry-backoff", "0"},     {"retry-backoff", "-2"},
      {"retry-queue", "-1"},      {"retry-queue", "9007199254740993"},
      {"wal-sync-every", "0"},    {"wal-sync-every", "2147483648"},
      {"snapshot-every", "-1"}};
  const std::string wal = path("rg.wal");
  for (const auto& [flag, value] : cases) {
    testing::remove_journal(wal);
    EXPECT_EQ(run("serve", {"--servers", path("rg_srv.csv"), "--socket",
                            path("rg.sock"), "--wal", wal, "--snapshot",
                            path("rg.snap"), "--" + flag, value}),
              1)
        << flag << " " << value;
    EXPECT_NE(err().find("--" + flag), std::string::npos) << err();
    EXPECT_EQ(err().find("serve: serve:"), std::string::npos) << err();
    EXPECT_FALSE(std::ifstream(wal).good()) << flag << " " << value;
    if (flag.rfind("retry-", 0) != 0) continue;
    EXPECT_EQ(run("stream", {"--vms", path("rg_vms.csv"), "--servers",
                             path("rg_srv.csv"), "--" + flag, value}),
              1)
        << flag << " " << value;
    EXPECT_NE(err().find("--" + flag), std::string::npos) << err();
  }
  EXPECT_EQ(run("serve", {"--servers", path("rg_srv.csv"), "--socket",
                          path("rg.sock")}),
            1);
  EXPECT_EQ(err(), "serve: a --wal path is required\n");
}

// The accepted end of every retry range, one flag at a time (--retry-max 4
// keeps the queue on for the others), on a two-server fleet where requests
// defer: the stream runs to completion, each request is placed or finally
// rejected exactly once, and retries run whenever the queue is on — at the
// largest delay they saturate and come due in the end-of-stream drain.
TEST_F(AppTest, StreamRunsAtEveryAcceptedRetryBoundary) {
  ASSERT_EQ(run("generate",
                {"--vms", "40", "--servers", "2", "--out-vms",
                 path("rb_vms.csv"), "--out-servers", path("rb_srv.csv")}),
            0);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"retry-max", "0"},
      {"retry-max", "2147483647"},
      {"retry-delay", "0"},
      {"retry-delay", "2147483647"},
      {"retry-backoff", "2.2250738585072014e-308"},
      {"retry-backoff", "1.7976931348623157e308"},
      {"retry-queue", "0"},
      {"retry-queue", "9007199254740992"}};
  for (const auto& [flag, value] : cases) {
    std::map<std::string, std::string> flags = {{"retry-max", "4"}};
    flags[flag] = value;
    std::vector<std::string> args = {"--vms", path("rb_vms.csv"), "--servers",
                                     path("rb_srv.csv"), "--latency-json",
                                     path("rb.json")};
    for (const auto& [name, v] : flags) {
      args.push_back("--" + name);
      args.push_back(v);
    }
    ASSERT_EQ(run("stream", args), 0) << flag << " " << value << ": " << err();
    std::stringstream text;
    text << std::ifstream(path("rb.json")).rdbuf();
    const json::Value report = json::parse(text.str());
    const json::Value* faults = report.find("faults");
    ASSERT_NE(faults, nullptr);
    const double requests = report.find("requests")->number;
    const double rejected = report.find("rejected")->number;
    EXPECT_EQ(requests, 40.0);
    EXPECT_EQ(report.find("placed")->number + rejected, requests)
        << flag << " " << value;
    EXPECT_EQ(faults->find("rejected_final")->number, rejected)
        << flag << " " << value;
    const bool queue_on = value != "0" || flag == "retry-delay";
    EXPECT_EQ(faults->find("retries")->number > 0.0, queue_on)
        << flag << " " << value;
  }
}

// serve starts at the accepted end of every range it checks — the journal
// header is written and only the unbindable socket stops it — and starts
// again on that same journal: the header reads the flags back unchanged.
TEST_F(AppTest, ServeRestartsOnItsOwnWalAtEveryAcceptedBoundary) {
  ASSERT_EQ(run("generate",
                {"--vms", "10", "--servers", "4", "--out-vms",
                 path("sb_vms.csv"), "--out-servers", path("sb_srv.csv")}),
            0);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"retry-max", "0"},
      {"retry-max", "2147483647"},
      {"retry-delay", "0"},
      {"retry-delay", "2147483647"},
      {"retry-backoff", "2.2250738585072014e-308"},
      {"retry-backoff", "1.7976931348623157e308"},
      {"retry-queue", "0"},
      {"retry-queue", "9007199254740992"},
      {"wal-sync-every", "1"},
      {"wal-sync-every", "2147483647"},
      {"snapshot-every", "0"},
      {"snapshot-every", "9223372036854775807"}};
  const std::string wal = path("sb.wal");
  const std::string snap = path("sb.snap");
  for (const auto& [flag, value] : cases) {
    testing::remove_journal(wal);
    std::remove(snap.c_str());
    for (const char* start : {"first", "restart"}) {
      EXPECT_EQ(run("serve", {"--servers", path("sb_srv.csv"), "--socket",
                              path("no_such_dir/sb.sock"), "--wal", wal,
                              "--snapshot", snap, "--" + flag, value}),
                1)
          << flag << " " << value << " " << start;
      EXPECT_NE(err().find("bind("), std::string::npos)
          << flag << " " << value << " " << start << ": " << err();
      EXPECT_TRUE(std::ifstream(wal).good()) << flag << " " << value;
    }
  }
  testing::remove_journal(wal);
  std::remove(snap.c_str());
}

// Numeric flags parse the whole token: "--vms 5x" or "--servers 3.9" used to
// run with 5 VMs on 3 servers. Each is a usage error now, and nothing is
// written.
TEST_F(AppTest, GenerateRejectsMalformedCounts) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--vms", "5x"}, {"--servers", "3.9"}, {"--vms", ""},
      {"--seed", "1e3"}, {"--interarrival", "2.0s"}};
  for (const auto& [flag, value] : cases) {
    std::remove(path("m_vms.csv").c_str());
    EXPECT_EQ(run("generate", {flag, value, "--out-vms", path("m_vms.csv"),
                               "--out-servers", path("m_srv.csv")}),
              2)
        << flag << " '" << value << "'";
    EXPECT_FALSE(std::ifstream(path("m_vms.csv")).good())
        << flag << " '" << value << "'";
  }
}

// Every workload number is range-checked before the library sees it: a
// value the option cannot mean exits 1 naming its flag before anything is
// written or sent — never a library assert (SIGABRT) in generate, stream or
// top, and never a wrap into an int32 (4294967298 VMs read as 2, a client
// advance to 4294967301 sent as 5).
TEST_F(AppTest, OutOfRangeWorkloadFlagsFailNamingTheFlag) {
  ASSERT_EQ(run("generate",
                {"--vms", "10", "--servers", "4", "--out-vms",
                 path("wf_vms.csv"), "--out-servers", path("wf_srv.csv")}),
            0);
  ASSERT_EQ(run("allocate", {"--vms", path("wf_vms.csv"), "--servers",
                             path("wf_srv.csv"), "--out-assignment",
                             path("wf_assign.csv")}),
            0);
  // {flag, value, whether the flag only counts with --diurnal}
  const std::vector<std::tuple<std::string, std::string, bool>> workload = {
      {"interarrival", "0", false}, {"interarrival", "nan", false},
      {"interarrival", "0", true},  {"duration", "0", false},
      {"duration", "-1", true},     {"duration", "inf", false},
      {"amplitude", "1.5", true},   {"amplitude", "-0.1", true}};
  const std::vector<std::pair<std::string, std::string>> fleet = {
      {"vms", "-3"},          {"vms", "4294967298"},
      {"servers", "-1"},      {"servers", "4294967299"},
      {"transition", "-1"},   {"transition", "inf"},
      {"server-types", "1-0"}, {"server-types", "1-99"},
      {"server-types", "1-x"}};
  const auto expect_flag_error = [&](const std::string& command,
                                     std::vector<std::string> args,
                                     const std::string& flag) {
    EXPECT_EQ(run(command, args), 1) << command << " " << flag << ": " << err();
    EXPECT_NE(err().find("--" + flag), std::string::npos) << err();
    EXPECT_EQ(out(), "") << command << " " << flag;
  };
  const std::string written = path("wf_out_vms.csv");
  const auto generate = [&](std::vector<std::string> flags) {
    flags.insert(flags.end(), {"--out-vms", written, "--out-servers",
                               path("wf_out_srv.csv")});
    return flags;
  };
  for (const auto& [flag, value, diurnal] : workload) {
    std::vector<std::string> flags = {"--" + flag, value};
    if (diurnal) flags.push_back("--diurnal");
    std::remove(written.c_str());
    expect_flag_error("generate", generate(flags), flag);
    EXPECT_FALSE(std::ifstream(written).good()) << flag << " " << value;
    flags.insert(flags.end(),
                 {"--generate", "5", "--servers", path("wf_srv.csv")});
    expect_flag_error("stream", flags, flag);
    expect_flag_error("top", flags, flag);
  }
  for (const auto& [flag, value] : fleet) {
    std::remove(written.c_str());
    expect_flag_error("generate", generate({"--" + flag, value}), flag);
    EXPECT_FALSE(std::ifstream(written).good()) << flag << " " << value;
  }
  for (const char* command : {"stream", "top"})
    expect_flag_error(command,
                      {"--generate", "4294967298", "--servers",
                       path("wf_srv.csv")},
                      "generate");
  for (const char* timeout : {"2147483648", "4294967296"})
    expect_flag_error("evaluate",
                      {"--vms", path("wf_vms.csv"), "--servers",
                       path("wf_srv.csv"), "--assignment",
                       path("wf_assign.csv"), "--timeout", timeout},
                      "timeout");
  // Checked before connecting: the socket does not exist.
  expect_flag_error("client",
                    {"--socket", path("wf_none.sock"), "--advance",
                     "4294967301"},
                    "advance");
  expect_flag_error("client",
                    {"--socket", path("wf_none.sock"), "--retire",
                     "4294967297"},
                    "retire");

  // The largest accepted timeout lingers every server to the horizon, as a
  // timeout of the horizon itself does.
  const auto timeout_energy = [&](const std::string& timeout) {
    EXPECT_EQ(run("evaluate", {"--vms", path("wf_vms.csv"), "--servers",
                               path("wf_srv.csv"), "--assignment",
                               path("wf_assign.csv"), "--timeout", timeout}),
              0)
        << err();
    const std::string text = out();
    return text.substr(text.find(" min: "));
  };
  const Time horizon = horizon_of(load_vm_trace(path("wf_vms.csv")));
  EXPECT_EQ(timeout_energy("2147483647"),
            timeout_energy(std::to_string(horizon)));

  // A sample interval past the time axis saturates, as a huge sparkline
  // width does: they mean "one sample" and "every sample", never a wrap to 1
  // and 8. (The dashboard up to its wall-clock latency line.)
  const auto dashboard = [&](const std::string& every,
                             const std::string& width) {
    EXPECT_EQ(run("top", {"--vms", path("wf_vms.csv"), "--servers",
                          path("wf_srv.csv"), "--every", every, "--width",
                          width}),
              0)
        << err();
    return out().substr(0, out().find("submit latency"));
  };
  EXPECT_EQ(dashboard("4294967297", "4294967304"),
            dashboard("2147483647", "2147483647"));
}

// Finite means can still push the arrival clock (a sum over every request)
// or a drawn duration past the largest Time. generate drains its stream
// before it writes, so such a workload exits 1 with no file written rather
// than wrapping every start into a short horizon.
TEST_F(AppTest, GenerateRefusesRequestsPastTheLargestTime) {
  const std::string vms = path("far_vms.csv");
  const std::string servers = path("far_srv.csv");
  for (const std::vector<std::string>& flags :
       {std::vector<std::string>{"--interarrival", "1e12"},
        {"--duration", "1e12"},
        {"--interarrival", "1e12", "--diurnal"},
        {"--duration", "1e12", "--diurnal"}}) {
    std::remove(vms.c_str());
    std::remove(servers.c_str());
    std::vector<std::string> args = flags;
    args.insert(args.end(), {"--out-vms", vms, "--out-servers", servers});
    EXPECT_EQ(run("generate", args), 1) << flags[0] << " " << err();
    EXPECT_NE(err().find("past the largest time 2147483647"),
              std::string::npos)
        << err();
    EXPECT_EQ(out(), "");
    EXPECT_FALSE(std::ifstream(vms).good()) << flags[0];
    EXPECT_FALSE(std::ifstream(servers).good()) << flags[0];
  }
}

// A server row with an infinite transition time used to load, and every VM
// then went unallocated at 0.0 W*min with exit 0.
TEST_F(AppTest, AllocateRefusesANonFiniteServerSpec) {
  ASSERT_EQ(run("generate", {"--vms", "10", "--servers", "3", "--out-vms",
                             path("inf_vms.csv"), "--out-servers",
                             path("inf_srv.csv")}),
            0)
      << err();
  std::ifstream in(path("inf_srv.csv"));
  std::string csv, line;
  for (int row = 0; std::getline(in, line); ++row)
    csv += (row == 2 ? line.substr(0, line.rfind(',')) + ",inf" : line) + '\n';
  std::ofstream(path("inf_srv.csv"), std::ios::trunc) << csv;
  EXPECT_EQ(run("allocate", {"--vms", path("inf_vms.csv"), "--servers",
                             path("inf_srv.csv")}),
            1);
  EXPECT_NE(err().find("trace line 3: invalid server spec"),
            std::string::npos)
      << err();
}

// allocate reads two CSVs; every loader error, a quoting error included,
// names the file at fault (both used to say only "trace line N").
TEST_F(AppTest, AllocateErrorsNameTheFileAtFault) {
  const std::string vms = path("nf_vms.csv");
  const std::string servers = path("nf_srv.csv");
  const std::string good_vms = "id,type,cpu,mem,start,end\n0,a,1,1,1,5\n";
  const std::string good_servers =
      "id,type,cpu,mem,p_idle,p_peak,transition_time\n0,s,8,16,100,200,1\n";
  const auto write = [](const std::string& file, const std::string& text) {
    std::ofstream(file, std::ios::trunc) << text;
  };
  write(vms, good_vms);
  write(servers, "id,type,cpu,mem,p_idle,p_peak,transition_time\n"
                 "0,s,x,16,100,200,1\n");
  EXPECT_EQ(run("allocate", {"--vms", vms, "--servers", servers}), 1);
  EXPECT_NE(err().find("allocate: " + servers +
                       ": trace line 2: expected a number, got 'x'"),
            std::string::npos)
      << err();

  write(servers, good_servers);
  write(vms, good_vms + "1,b,1,x,2,6\n");
  EXPECT_EQ(run("allocate", {"--vms", vms, "--servers", servers}), 1);
  EXPECT_NE(err().find("allocate: " + vms +
                       ": trace line 3: expected a number, got 'x'"),
            std::string::npos)
      << err();

  write(vms, good_vms + "1,\"b,1,1,2,6\n");
  EXPECT_EQ(run("allocate", {"--vms", vms, "--servers", servers}), 1);
  EXPECT_NE(err().find("allocate: " + vms +
                       ": CSV line 3: unterminated quoted field"),
            std::string::npos)
      << err();

  write(vms, good_vms);
  EXPECT_EQ(run("allocate", {"--vms", vms, "--servers", servers}), 0)
      << err();
}

// stream --faults reads a third CSV, and its errors name it too.
TEST_F(AppTest, StreamFaultPlanErrorsNameTheFile) {
  const std::string vms = path("nff_vms.csv");
  const std::string servers = path("nff_srv.csv");
  const std::string faults = path("nff_faults.csv");
  std::ofstream(vms) << "id,type,cpu,mem,start,end\n0,a,1,1,1,5\n";
  std::ofstream(servers) << "id,type,cpu,mem,p_idle,p_peak,transition_time\n"
                            "0,s,8,16,100,200,1\n";
  std::ofstream(faults) << "time,event,server\n3,fail,0\n4,nope,0\n";
  EXPECT_EQ(run("stream", {"--vms", vms, "--servers", servers, "--faults",
                           faults}),
            1);
  EXPECT_NE(err().find(faults + ": fault plan line 3: unknown event 'nope' "
                                "(fail|drain|recover)"),
            std::string::npos)
      << err();

  std::ofstream(faults, std::ios::trunc)
      << "time,event,server\n3,\"fail,0\n";
  EXPECT_EQ(run("stream", {"--vms", vms, "--servers", servers, "--faults",
                           faults}),
            1);
  EXPECT_NE(err().find(faults + ": CSV line 2: unterminated quoted field"),
            std::string::npos)
      << err();
}

TEST_F(AppTest, StreamReplaysTraceWithLatencyJsonIdenticalToBatch) {
  // The acceptance instance: 220 VMs on 44 servers, replayed end-to-end
  // through the streaming engine with per-request latency metrics.
  ASSERT_EQ(run("generate",
                {"--vms", "220", "--servers", "44", "--seed", "7", "--out-vms",
                 path("st_vms.csv"), "--out-servers", path("st_srv.csv")}),
            0);
  ASSERT_EQ(run("allocate",
                {"--vms", path("st_vms.csv"), "--servers", path("st_srv.csv"),
                 "--out-assignment", path("st_batch.csv")}),
            0)
      << err();
  ASSERT_EQ(run("stream",
                {"--vms", path("st_vms.csv"), "--servers", path("st_srv.csv"),
                 "--out-assignment", path("st_stream.csv"), "--latency-json",
                 path("st_latency.json"), "--stats", path("st_stats.json")}),
            0)
      << err();
  EXPECT_NE(out().find("requests/sec"), std::string::npos);
  EXPECT_NE(out().find("submit latency p99"), std::string::npos);

  // Streaming with rolling GC must reproduce the batch assignment exactly.
  std::ifstream batch(path("st_batch.csv"));
  std::ifstream stream(path("st_stream.csv"));
  std::stringstream batch_body, stream_body;
  batch_body << batch.rdbuf();
  stream_body << stream.rdbuf();
  EXPECT_EQ(batch_body.str(), stream_body.str());

  std::ifstream latency(path("st_latency.json"));
  ASSERT_TRUE(latency.good());
  std::stringstream latency_body;
  latency_body << latency.rdbuf();
  EXPECT_NE(latency_body.str().find("\"p50\""), std::string::npos);
  EXPECT_NE(latency_body.str().find("\"p99\""), std::string::npos);
  EXPECT_NE(latency_body.str().find("\"requests\": 220"), std::string::npos);

  std::ifstream stats(path("st_stats.json"));
  std::stringstream stats_body;
  stats_body << stats.rdbuf();
  EXPECT_NE(stats_body.str().find("engine.submit_ms"), std::string::npos);
  EXPECT_NE(stats_body.str().find("engine.requests"), std::string::npos);
}

TEST_F(AppTest, StreamGeneratesLazilyAndRejectsAmbiguousSource) {
  ASSERT_EQ(run("generate",
                {"--vms", "10", "--servers", "16", "--out-vms",
                 path("sg_vms.csv"), "--out-servers", path("sg_srv.csv")}),
            0);
  ASSERT_EQ(run("stream", {"--generate", "50", "--servers",
                           path("sg_srv.csv"), "--allocator", "ffps"}),
            0)
      << err();
  EXPECT_NE(out().find("ffps"), std::string::npos);

  // Neither or both of --vms/--generate is an error.
  EXPECT_EQ(run("stream", {"--servers", path("sg_srv.csv")}), 1);
  EXPECT_NE(err().find("exactly one"), std::string::npos);
  EXPECT_EQ(run("stream", {"--vms", path("sg_vms.csv"), "--generate", "5",
                           "--servers", path("sg_srv.csv")}),
            1);
}

TEST_F(AppTest, StreamAppliesFaultPlanWithRetries) {
  ASSERT_EQ(run("generate",
                {"--vms", "80", "--servers", "6", "--seed", "7", "--out-vms",
                 path("sf_vms.csv"), "--out-servers", path("sf_srv.csv")}),
            0);
  {
    std::ofstream plan(path("sf_faults.csv"));
    plan << "time,event,server\n20,fail,0\n40,recover,0\n30,drain,1\n";
  }
  ASSERT_EQ(run("stream",
                {"--vms", path("sf_vms.csv"), "--servers", path("sf_srv.csv"),
                 "--faults", path("sf_faults.csv"), "--retry-max", "3",
                 "--retry-delay", "4", "--latency-json",
                 path("sf_latency.json"), "--stats", path("sf_stats.json")}),
            0)
      << err();
  EXPECT_NE(out().find("fault events"), std::string::npos);
  EXPECT_NE(out().find("downtime (units)"), std::string::npos);

  std::ifstream latency(path("sf_latency.json"));
  std::stringstream latency_body;
  latency_body << latency.rdbuf();
  EXPECT_NE(latency_body.str().find("\"fault_events\": 3"), std::string::npos);
  EXPECT_NE(latency_body.str().find("\"downtime_units\""), std::string::npos);

  std::ifstream stats(path("sf_stats.json"));
  std::stringstream stats_body;
  stats_body << stats.rdbuf();
  EXPECT_NE(stats_body.str().find("engine.rejected_final"), std::string::npos);

  // A plan referencing a server outside the fleet is rejected up front.
  {
    std::ofstream plan(path("sf_bad.csv"));
    plan << "time,event,server\n20,fail,99\n";
  }
  EXPECT_EQ(run("stream",
                {"--vms", path("sf_vms.csv"), "--servers", path("sf_srv.csv"),
                 "--faults", path("sf_bad.csv")}),
            1);
  EXPECT_NE(err().find("outside the fleet"), std::string::npos);
}

// A plan without its header used to stream with its first event dropped.
TEST_F(AppTest, StreamRefusesAHeaderlessFaultPlan) {
  ASSERT_EQ(run("generate",
                {"--vms", "20", "--servers", "4", "--out-vms",
                 path("sh_vms.csv"), "--out-servers", path("sh_srv.csv")}),
            0);
  {
    std::ofstream plan(path("sh_faults.csv"));
    plan << "5,fail,0\n40,recover,0\n";
  }
  EXPECT_EQ(run("stream",
                {"--vms", path("sh_vms.csv"), "--servers", path("sh_srv.csv"),
                 "--faults", path("sh_faults.csv")}),
            1);
  EXPECT_NE(err().find("fault plan line 1: expected the header "
                       "'time,event,server'"),
            std::string::npos)
      << err();
}

TEST_F(AppTest, StreamRejectsBatchOnlyAllocators) {
  ASSERT_EQ(run("generate",
                {"--vms", "10", "--servers", "8", "--out-vms",
                 path("sb_vms.csv"), "--out-servers", path("sb_srv.csv")}),
            0);
  EXPECT_EQ(run("stream",
                {"--vms", path("sb_vms.csv"), "--servers", path("sb_srv.csv"),
                 "--allocator", "lookahead-8"}),
            1);
  EXPECT_NE(err().find("batch-only"), std::string::npos);
}

TEST_F(AppTest, AllocateAcceptsExtensionAllocators) {
  ASSERT_EQ(run("generate",
                {"--vms", "25", "--servers", "12", "--out-vms",
                 path("l_vms.csv"), "--out-servers", path("l_srv.csv")}),
            0);
  ASSERT_EQ(run("allocate",
                {"--vms", path("l_vms.csv"), "--servers", path("l_srv.csv"),
                 "--allocator", "lookahead-8"}),
            0)
      << err();
  EXPECT_NE(out().find("lookahead-8"), std::string::npos);
}

TEST_F(AppTest, AllocateFailsOnUnknownAllocator) {
  ASSERT_EQ(run("generate",
                {"--vms", "10", "--servers", "5", "--out-vms",
                 path("u_vms.csv"), "--out-servers", path("u_srv.csv")}),
            0);
  EXPECT_EQ(run("allocate",
                {"--vms", path("u_vms.csv"), "--servers", path("u_srv.csv"),
                 "--allocator", "does-not-exist"}),
            1);
  EXPECT_NE(err().find("unknown allocator"), std::string::npos);
}

TEST_F(AppTest, EvaluateRejectsInfeasibleAssignment) {
  // Build a trivially infeasible assignment by hand: both big VMs on one
  // tiny server.
  using testing::server;
  using testing::vm;
  const std::vector<VmSpec> vms{vm(0, 1, 10, 6.0, 6.0), vm(1, 3, 12, 6.0, 6.0)};
  const std::vector<ServerSpec> servers{server(0, 10, 10, 100, 200),
                                        server(1, 10, 10, 100, 200)};
  save_vm_trace(path("i_vms.csv"), vms);
  save_server_trace(path("i_srv.csv"), servers);
  Allocation bad;
  bad.assignment = {0, 0};
  save_assignment(path("i_assign.csv"), bad);

  EXPECT_EQ(run("evaluate",
                {"--vms", path("i_vms.csv"), "--servers", path("i_srv.csv"),
                 "--assignment", path("i_assign.csv")}),
            1);
  EXPECT_NE(err().find("infeasible"), std::string::npos);
}

TEST_F(AppTest, ExportLpAndImportSolutionRoundTrip) {
  ASSERT_EQ(run("generate",
                {"--vms", "6", "--servers", "3", "--interarrival", "3",
                 "--duration", "8", "--out-vms", path("e_vms.csv"),
                 "--out-servers", path("e_srv.csv")}),
            0);
  ASSERT_EQ(run("export-lp",
                {"--vms", path("e_vms.csv"), "--servers", path("e_srv.csv"),
                 "--out", path("e.lp")}),
            0)
      << err();
  std::ifstream lp(path("e.lp"));
  ASSERT_TRUE(lp.good());

  // Produce a "solver solution" with our own machinery: allocate, derive
  // states, dump name/value pairs, then import it.
  ASSERT_EQ(run("allocate",
                {"--vms", path("e_vms.csv"), "--servers", path("e_srv.csv"),
                 "--out-assignment", path("e_assign.csv")}),
            0);
  const auto vms = load_vm_trace(path("e_vms.csv"));
  const auto servers = load_server_trace(path("e_srv.csv"));
  const ProblemInstance problem = make_problem(vms, servers);
  const Allocation alloc =
      load_assignment(path("e_assign.csv"), problem.num_vms());
  const auto active = derive_active_sets(problem, alloc);
  const IlpModel model = build_ilp(problem);
  const auto values = to_variable_assignment(model, problem, alloc, active);
  {
    std::ofstream sol(path("e.sol"));
    sol << "Objective " << model.objective_value(values) << "\n";
    for (std::size_t v = 0; v < values.size(); ++v)
      if (values[v] != 0.0) sol << model.var_name(v) << ' ' << values[v] << '\n';
  }
  ASSERT_EQ(run("import-solution",
                {"--vms", path("e_vms.csv"), "--servers", path("e_srv.csv"),
                 "--solution", path("e.sol"), "--out-assignment",
                 path("e_assign2.csv")}),
            0)
      << err();
  EXPECT_NE(out().find("feasible"), std::string::npos);
  EXPECT_NE(out().find("(matches)"), std::string::npos);
  EXPECT_EQ(load_assignment(path("e_assign2.csv"), problem.num_vms()).assignment,
            alloc.assignment);
}

TEST_F(AppTest, MissingTraceFileGivesCleanError) {
  EXPECT_EQ(run("allocate", {"--vms", "/nonexistent/vms.csv"}), 1);
  EXPECT_NE(err().find("allocate:"), std::string::npos);
}

TEST_F(AppTest, AllocateWritesDecisionTraceAndStats) {
  ASSERT_EQ(run("generate",
                {"--vms", "20", "--servers", "10", "--out-vms",
                 path("t_vms.csv"), "--out-servers", path("t_srv.csv")}),
            0)
      << err();
  ASSERT_EQ(run("allocate",
                {"--vms", path("t_vms.csv"), "--servers", path("t_srv.csv"),
                 "--allocator", "min-incremental", "--out-assignment",
                 path("t_assign.csv"), "--trace", path("t_trace.jsonl"),
                 "--stats", path("t_stats.json")}),
            0)
      << err();
  EXPECT_NE(out().find("decision trace written to"), std::string::npos);
  EXPECT_NE(out().find("stats written to"), std::string::npos);

  // One decision per VM, replaying to the emitted assignment.
  const std::vector<VmDecisionTrace> decisions =
      load_trace_jsonl_file(path("t_trace.jsonl"));
  ASSERT_EQ(decisions.size(), 20u);
  const std::vector<VmSpec> vms = load_vm_trace(path("t_vms.csv"));
  const std::vector<ServerId> replayed = assignment_from_trace(decisions, 20);
  std::ifstream assign_file(path("t_assign.csv"));
  std::string header;
  std::getline(assign_file, header);
  std::string row;
  std::size_t rows = 0;
  while (std::getline(assign_file, row)) {
    const std::size_t comma = row.find(',');
    ASSERT_NE(comma, std::string::npos);
    const int vm_id = std::stoi(row.substr(0, comma));
    const int server = std::stoi(row.substr(comma + 1));
    EXPECT_EQ(replayed[static_cast<std::size_t>(vm_id)], server) << row;
    ++rows;
  }
  EXPECT_EQ(rows, 20u);

  // Stats JSON must carry nonzero timer aggregates.
  std::ifstream stats_file(path("t_stats.json"));
  std::stringstream stats;
  stats << stats_file.rdbuf();
  EXPECT_NE(stats.str().find("\"timers\""), std::string::npos);
  EXPECT_NE(stats.str().find("allocator.min-incremental.allocate_ms"),
            std::string::npos);
  EXPECT_NE(stats.str().find("\"count\": 1"), std::string::npos);
}

TEST_F(AppTest, EvaluateWritesTraceAndStats) {
  ASSERT_EQ(run("generate",
                {"--vms", "12", "--servers", "8", "--out-vms",
                 path("e_vms.csv"), "--out-servers", path("e_srv.csv")}),
            0)
      << err();
  ASSERT_EQ(run("allocate",
                {"--vms", path("e_vms.csv"), "--servers", path("e_srv.csv"),
                 "--out-assignment", path("e_assign.csv")}),
            0)
      << err();
  ASSERT_EQ(run("evaluate",
                {"--vms", path("e_vms.csv"), "--servers", path("e_srv.csv"),
                 "--assignment", path("e_assign.csv"), "--trace",
                 path("e_trace.jsonl"), "--stats", path("e_stats.json")}),
            0)
      << err();
  const std::vector<VmDecisionTrace> decisions =
      load_trace_jsonl_file(path("e_trace.jsonl"));
  ASSERT_EQ(decisions.size(), 12u);
  for (const VmDecisionTrace& d : decisions)
    EXPECT_EQ(d.allocator, "assignment");
  std::ifstream stats_file(path("e_stats.json"));
  std::stringstream stats;
  stats << stats_file.rdbuf();
  EXPECT_NE(stats.str().find("cost.total"), std::string::npos);
}

TEST_F(AppTest, StreamWritesTelemetryArtifacts) {
  ASSERT_EQ(run("generate",
                {"--vms", "60", "--servers", "12", "--seed", "7", "--out-vms",
                 path("tm_vms.csv"), "--out-servers", path("tm_srv.csv")}),
            0);
  ASSERT_EQ(run("stream",
                {"--vms", path("tm_vms.csv"), "--servers", path("tm_srv.csv"),
                 "--prom-out", path("tm.prom"), "--timeseries-out",
                 path("tm_series.csv"), "--timeseries-every", "2",
                 "--ledger-out", path("tm_ledger.jsonl"), "--latency-json",
                 path("tm_latency.json")}),
            0)
      << err();
  EXPECT_NE(out().find("prometheus metrics written to"), std::string::npos);
  EXPECT_NE(out().find("time series ("), std::string::npos);
  EXPECT_NE(out().find("energy ledger ("), std::string::npos);
  EXPECT_NE(out().find("ledger conserves energy"), std::string::npos);

  // Prometheus exposition: sanitized names, typed families, histogram-backed
  // submit latency as summary quantiles.
  std::stringstream prom;
  prom << std::ifstream(path("tm.prom")).rdbuf();
  EXPECT_NE(prom.str().find("# TYPE esva_engine_submit_ms summary"),
            std::string::npos);
  EXPECT_NE(prom.str().find("esva_engine_submit_ms{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(prom.str().find("esva_engine_requests_total 60"),
            std::string::npos);

  // Time series CSV: exact header + at least one sample row.
  std::ifstream series(path("tm_series.csv"));
  std::string header;
  ASSERT_TRUE(std::getline(series, header));
  EXPECT_EQ(header, TimeSeriesSampler::csv_header());
  std::string row;
  EXPECT_TRUE(std::getline(series, row));

  // Ledger JSONL: cause-tagged entries.
  std::stringstream ledger;
  ledger << std::ifstream(path("tm_ledger.jsonl")).rdbuf();
  EXPECT_NE(ledger.str().find("\"cause\":\"run\""), std::string::npos);

  // Latency JSON carries both the exact and the histogram percentiles.
  std::stringstream latency;
  latency << std::ifstream(path("tm_latency.json")).rdbuf();
  EXPECT_NE(latency.str().find("\"p50\""), std::string::npos);
  EXPECT_NE(latency.str().find("\"p50_hist\""), std::string::npos);
  EXPECT_NE(latency.str().find("\"p99_hist\""), std::string::npos);
}

TEST_F(AppTest, AllocateStatsCarriesSubmitHistogramPercentiles) {
  ASSERT_EQ(run("generate",
                {"--vms", "30", "--servers", "10", "--out-vms",
                 path("hp_vms.csv"), "--out-servers", path("hp_srv.csv")}),
            0);
  ASSERT_EQ(run("allocate",
                {"--vms", path("hp_vms.csv"), "--servers", path("hp_srv.csv"),
                 "--stats", path("hp_stats.json")}),
            0)
      << err();
  // The batch path drives the same engine, so engine.submit_ms is
  // histogram-backed and the stats JSON carries percentiles for it.
  std::stringstream stats;
  stats << std::ifstream(path("hp_stats.json")).rdbuf();
  EXPECT_NE(stats.str().find("\"engine.submit_ms\""), std::string::npos);
  EXPECT_NE(stats.str().find("\"p50_ms\""), std::string::npos);
  EXPECT_NE(stats.str().find("\"p99_ms\""), std::string::npos);
}

TEST_F(AppTest, TopRendersDashboardWithEnergyAttribution) {
  ASSERT_EQ(run("generate",
                {"--vms", "10", "--servers", "12", "--out-vms",
                 path("tp_vms.csv"), "--out-servers", path("tp_srv.csv")}),
            0);
  ASSERT_EQ(run("top", {"--generate", "60", "--servers", path("tp_srv.csv"),
                        "--seed", "7", "--every", "2"}),
            0)
      << err();
  EXPECT_NE(out().find("trend"), std::string::npos);
  EXPECT_NE(out().find("active VMs"), std::string::npos);
  EXPECT_NE(out().find("power (W)"), std::string::npos);
  EXPECT_NE(out().find("submit latency (ms)"), std::string::npos);
  EXPECT_NE(out().find("energy cause"), std::string::npos);
  EXPECT_NE(out().find("conserved"), std::string::npos);
  EXPECT_EQ(out().find("NOT CONSERVED"), std::string::npos);

  // Exactly one of --vms / --generate, same contract as stream.
  EXPECT_EQ(run("top", {"--servers", path("tp_srv.csv")}), 1);
  EXPECT_NE(err().find("exactly one"), std::string::npos);
  EXPECT_EQ(run("top", {"--vms", path("tp_vms.csv"), "--generate", "5",
                        "--servers", path("tp_srv.csv")}),
            1);
}

TEST_F(AppTest, GlobalLogLevelFlagIsAcceptedAnywhere) {
  const LogLevel before = log_level();
  std::ostringstream out_stream;
  std::ostringstream err_stream;
  const char* argv[] = {"esva", "--log-level", "debug", "help"};
  EXPECT_EQ(app::esva_main(4, argv, out_stream, err_stream), 0);
  EXPECT_EQ(log_level(), LogLevel::Debug);

  const char* argv2[] = {"esva", "help", "--log-level=off"};
  EXPECT_EQ(app::esva_main(3, argv2, out_stream, err_stream), 0);
  EXPECT_EQ(log_level(), LogLevel::Off);
  set_log_level(before);
}

TEST_F(AppTest, BadLogLevelIsRejected) {
  std::ostringstream out_stream;
  std::ostringstream err_stream;
  const char* argv[] = {"esva", "--log-level", "loud", "help"};
  EXPECT_EQ(app::esva_main(4, argv, out_stream, err_stream), 2);
  EXPECT_NE(err_stream.str().find("--log-level"), std::string::npos);
}

}  // namespace
}  // namespace esva
