// End-to-end tests of the esva CLI subcommands (src/app/commands.h), run
// in-process against temp files.

#include "app/commands.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "ilp/model.h"
#include "ilp/validate.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "test_util.h"
#include "util/json.h"
#include "util/logging.h"
#include "workload/trace.h"

namespace esva {
namespace {

class AppTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) const {
    return ::testing::TempDir() + "/esva_app_" + name;
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

TEST_F(AppTest, AllocateThreadsFlagPreservesTheAssignment) {
  ASSERT_EQ(run("generate",
                {"--vms", "60", "--servers", "24", "--out-vms",
                 path("t_vms.csv"), "--out-servers", path("t_srv.csv")}),
            0);
  ASSERT_EQ(run("allocate",
                {"--vms", path("t_vms.csv"), "--servers", path("t_srv.csv"),
                 "--out-assignment", path("t_serial.csv")}),
            0)
      << err();
  // --threads 0 resolves to hardware concurrency; the assignment must be
  // the serial one, byte for byte.
  ASSERT_EQ(run("allocate",
                {"--vms", path("t_vms.csv"), "--servers", path("t_srv.csv"),
                 "--threads", "0", "--out-assignment",
                 path("t_parallel.csv")}),
            0)
      << err();
  std::ifstream serial(path("t_serial.csv"));
  std::ifstream parallel(path("t_parallel.csv"));
  std::stringstream serial_body, parallel_body;
  serial_body << serial.rdbuf();
  parallel_body << parallel.rdbuf();
  EXPECT_EQ(serial_body.str(), parallel_body.str());
}

TEST_F(AppTest, ScanFlagsRejectOutOfRangeCounts) {
  ASSERT_EQ(run("generate",
                {"--vms", "10", "--servers", "4", "--out-vms",
                 path("r_vms.csv"), "--out-servers", path("r_srv.csv")}),
            0);
  for (const std::string command : {"allocate", "stream"}) {
    EXPECT_EQ(run(command, {"--vms", path("r_vms.csv"), "--servers",
                            path("r_srv.csv"), "--threads", "-1"}),
              1)
        << command;
    EXPECT_NE(err().find("--threads must be >= 0"), std::string::npos)
        << err();
  }
  for (const std::string shards : {"0", "-2"}) {
    EXPECT_EQ(run("stream", {"--vms", path("r_vms.csv"), "--servers",
                             path("r_srv.csv"), "--shards", shards}),
              1)
        << shards;
    EXPECT_NE(err().find("--shards must be >= 1"), std::string::npos)
        << err();
  }
  EXPECT_EQ(run("serve", {"--servers", path("r_srv.csv"), "--socket",
                          path("r.sock"), "--wal", path("r.wal"), "--threads",
                          "-3"}),
            1);
  EXPECT_NE(err().find("--threads must be >= 0"), std::string::npos) << err();
}

// --shards only slices the time series: 3 shards add a 3-element "shards"
// array summing to the fleet fields, 1 shard omits the key, and the
// assignment is the same either way.
TEST_F(AppTest, StreamShardsSliceTheTimeSeriesOnly) {
  ASSERT_EQ(run("generate",
                {"--vms", "80", "--servers", "12", "--seed", "5", "--out-vms",
                 path("sh_vms.csv"), "--out-servers", path("sh_srv.csv")}),
            0);
  const auto stream = [&](const std::string& shards) {
    EXPECT_EQ(run("stream", {"--vms", path("sh_vms.csv"), "--servers",
                             path("sh_srv.csv"), "--shards", shards,
                             "--timeseries-out",
                             path("sh_" + shards + ".jsonl"),
                             "--out-assignment",
                             path("sh_" + shards + ".csv")}),
              0)
        << err();
    std::vector<json::Value> samples;
    std::ifstream series(path("sh_" + shards + ".jsonl"));
    for (std::string line; std::getline(series, line);)
      samples.push_back(json::parse(line));
    std::stringstream assignment;
    assignment << std::ifstream(path("sh_" + shards + ".csv")).rdbuf();
    return std::make_pair(samples, assignment.str());
  };
  const auto [flat, flat_assignment] = stream("1");
  const auto [sliced, sliced_assignment] = stream("3");
  EXPECT_EQ(flat_assignment, sliced_assignment);
  ASSERT_FALSE(flat.empty());
  ASSERT_EQ(flat.size(), sliced.size());
  bool saw_load = false;
  for (std::size_t k = 0; k < sliced.size(); ++k) {
    EXPECT_EQ(flat[k].find("shards"), nullptr);
    const json::Value* shards = sliced[k].find("shards");
    ASSERT_NE(shards, nullptr);
    ASSERT_EQ(shards->array.size(), 3u);
    for (const char* field : {"active_vms", "busy_servers", "idle_servers"}) {
      double sum = 0.0;
      for (const json::Value& shard : shards->array)
        sum += json::require_number(shard, field, "shard");
      EXPECT_EQ(sum, json::require_number(sliced[k], field, "sample"))
          << field << " at sample " << k;
    }
    double power = 0.0;
    for (const json::Value& shard : shards->array)
      power += json::require_number(shard, "power_w", "shard");
    EXPECT_NEAR(power, json::require_number(sliced[k], "total_power_w", "sample"),
                1e-9 * std::max(1.0, power));
    saw_load = saw_load || json::require_number(sliced[k], "busy_servers",
                                                "sample") > 0;
  }
  EXPECT_TRUE(saw_load);
}

// A count larger than the fleet clamps to one shard per server.
TEST_F(AppTest, StreamShardsClampToFleetSize) {
  ASSERT_EQ(run("generate",
                {"--vms", "30", "--servers", "5", "--seed", "9", "--out-vms",
                 path("cl_vms.csv"), "--out-servers", path("cl_srv.csv")}),
            0);
  ASSERT_EQ(run("stream", {"--vms", path("cl_vms.csv"), "--servers",
                           path("cl_srv.csv"), "--shards", "64",
                           "--timeseries-out", path("cl.jsonl")}),
            0)
      << err();
  std::ifstream series(path("cl.jsonl"));
  std::size_t samples = 0;
  for (std::string line; std::getline(series, line); ++samples) {
    const json::Value sample = json::parse(line);
    const json::Value* shards = sample.find("shards");
    ASSERT_NE(shards, nullptr) << line;
    EXPECT_EQ(shards->array.size(), 5u) << line;
  }
  EXPECT_GT(samples, 0u);
}

TEST_F(AppTest, StreamThreadsFlagPreservesTheAssignment) {
  ASSERT_EQ(run("generate",
                {"--vms", "80", "--servers", "24", "--seed", "3", "--out-vms",
                 path("thr_vms.csv"), "--out-servers", path("thr_srv.csv")}),
            0);
  const auto stream = [&](const std::string& threads) {
    EXPECT_EQ(run("stream", {"--vms", path("thr_vms.csv"), "--servers",
                             path("thr_srv.csv"), "--threads", threads,
                             "--out-assignment",
                             path("thr_" + threads + ".csv")}),
              0)
        << err();
    std::stringstream body;
    body << std::ifstream(path("thr_" + threads + ".csv")).rdbuf();
    return body.str();
  };
  const std::string serial = stream("1");
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(stream("4"), serial);
  EXPECT_EQ(stream("0"), serial);
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

// --shards slices only the stream time series, so only stream takes it:
// on allocate and serve it is an unknown flag (a usage error).
TEST_F(AppTest, ShardsFlagExistsOnlyOnStream) {
  ASSERT_EQ(run("generate",
                {"--vms", "10", "--servers", "4", "--out-vms",
                 path("so_vms.csv"), "--out-servers", path("so_srv.csv")}),
            0);
  EXPECT_EQ(run("stream", {"--vms", path("so_vms.csv"), "--servers",
                           path("so_srv.csv"), "--shards", "2"}),
            0)
      << err();
  EXPECT_EQ(run("allocate", {"--vms", path("so_vms.csv"), "--servers",
                             path("so_srv.csv"), "--shards", "2"}),
            2);
  EXPECT_EQ(run("serve", {"--servers", path("so_srv.csv"), "--socket",
                          path("so.sock"), "--shards", "2"}),
            2);
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
