#include "workload/trace.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "test_util.h"
#include "workload/generator.h"

namespace esva {
namespace {

using testing::server;
using testing::vm;

TEST(VmTrace, RoundTripsThroughStreams) {
  std::vector<VmSpec> vms{vm(0, 1, 10, 2.0, 1.7), vm(1, 3, 12, 6.5, 17.1)};
  vms[0].type_name = "m1.small";
  vms[1].type_name = "m2.xlarge";

  std::stringstream buffer;
  write_vm_trace(buffer, vms);
  const auto loaded = read_vm_trace(buffer);

  ASSERT_EQ(loaded.size(), 2u);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_EQ(loaded[j].id, vms[j].id);
    EXPECT_EQ(loaded[j].type_name, vms[j].type_name);
    EXPECT_DOUBLE_EQ(loaded[j].demand.cpu, vms[j].demand.cpu);
    EXPECT_DOUBLE_EQ(loaded[j].demand.mem, vms[j].demand.mem);
    EXPECT_EQ(loaded[j].start, vms[j].start);
    EXPECT_EQ(loaded[j].end, vms[j].end);
  }
}

TEST(VmTrace, RoundTripsGeneratedWorkloadExactly) {
  WorkloadConfig config;
  config.num_vms = 200;
  config.mean_interarrival = 1.0;
  config.mean_duration = 30.0;
  config.vm_types = all_vm_types();
  Rng rng(5);
  const auto vms = generate_workload(config, rng);

  std::stringstream buffer;
  write_vm_trace(buffer, vms);
  const auto loaded = read_vm_trace(buffer);
  ASSERT_EQ(loaded.size(), vms.size());
  for (std::size_t j = 0; j < vms.size(); ++j) {
    ASSERT_DOUBLE_EQ(loaded[j].demand.cpu, vms[j].demand.cpu);
    ASSERT_EQ(loaded[j].start, vms[j].start);
    ASSERT_EQ(loaded[j].end, vms[j].end);
  }
}

TEST(ServerTrace, RoundTripsThroughStreams) {
  std::vector<ServerSpec> servers{
      server(0, 16, 32, 105, 210, 0.5, "server-type-1"),
      server(1, 64, 192, 210, 500, 3.0, "server-type-5")};
  std::stringstream buffer;
  write_server_trace(buffer, servers);
  const auto loaded = read_server_trace(buffer);
  ASSERT_EQ(loaded.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(loaded[i].id, servers[i].id);
    EXPECT_EQ(loaded[i].type_name, servers[i].type_name);
    EXPECT_DOUBLE_EQ(loaded[i].capacity.cpu, servers[i].capacity.cpu);
    EXPECT_DOUBLE_EQ(loaded[i].p_idle, servers[i].p_idle);
    EXPECT_DOUBLE_EQ(loaded[i].p_peak, servers[i].p_peak);
    EXPECT_DOUBLE_EQ(loaded[i].transition_time, servers[i].transition_time);
  }
}

TEST(VmTrace, RejectsWrongColumnCount) {
  std::istringstream in("id,type,cpu,mem,start,end\n0,m1.small,1,1.7,1\n");
  EXPECT_THROW(read_vm_trace(in), std::runtime_error);
}

TEST(VmTrace, RejectsNonNumericField) {
  std::istringstream in("id,type,cpu,mem,start,end\n0,m1.small,abc,1.7,1,5\n");
  EXPECT_THROW(read_vm_trace(in), std::runtime_error);
}

TEST(VmTrace, RejectsTrailingJunkInNumber) {
  std::istringstream in("id,type,cpu,mem,start,end\n0,m1.small,1x,1.7,1,5\n");
  EXPECT_THROW(read_vm_trace(in), std::runtime_error);
}

TEST(VmTrace, RejectsInvalidInterval) {
  std::istringstream in("id,type,cpu,mem,start,end\n0,m1.small,1,1.7,9,5\n");
  EXPECT_THROW(read_vm_trace(in), std::runtime_error);
}

TEST(VmTrace, RejectsNonDenseIds) {
  std::istringstream in(
      "id,type,cpu,mem,start,end\n0,a,1,1,1,5\n2,b,1,1,2,6\n");
  EXPECT_THROW(read_vm_trace(in), std::runtime_error);
}

TEST(VmTrace, RejectsEmptyFile) {
  std::istringstream in("");
  EXPECT_THROW(read_vm_trace(in), std::runtime_error);
}

/// The message read_* threw for `text`, or "" when it read.
template <typename Read>
std::string refusal(const std::string& text, Read read) {
  std::istringstream in(text);
  try {
    read(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// The first row is the header, checked by name: a trace written without
// one is refused instead of losing its first VM (esva client --place-vms
// reads with dense_ids = false and used to send 29 of 30 places).
TEST(VmTrace, HeaderlessTraceIsRefused) {
  std::string text;
  for (int j = 0; j < 30; ++j)
    text += std::to_string(j) + ",m1.small,1,1.7," + std::to_string(j + 1) +
            "," + std::to_string(j + 9) + "\n";
  const std::string what = refusal(text, [](std::istream& in) {
    return read_vm_trace(in, /*dense_ids=*/false);
  });
  EXPECT_EQ(what,
            "trace line 1: expected the header 'id,type,cpu,mem,start,end' "
            "or 'id,type,cpu,mem,start,end,profile', got "
            "'0,m1.small,1,1.7,1,9'");
}

// Errors count lines of the file, blank ones included.
TEST(VmTrace, ErrorsNameTheFileLine) {
  const std::string what = refusal(
      "id,type,cpu,mem,start,end\n\n0,a,1,1,1,5\n\r\n1,b,1,x,2,6\n",
      [](std::istream& in) { return read_vm_trace(in); });
  EXPECT_NE(what.find("trace line 5"), std::string::npos) << what;
}

// Every row has the header's width. Under the 6-column header a 7-field row
// used to be read as a profiled VM, and under the 7-column header a
// 6-field row as a stable one.
TEST(VmTrace, ProfileColumnUnderTheSixColumnHeaderIsRefused) {
  const std::string what = refusal(
      "id,type,cpu,mem,start,end\n0,a,2,1,1,2,1:1|2:0.5\n",
      [](std::istream& in) { return read_vm_trace(in); });
  EXPECT_EQ(what,
            "trace line 2: expected 6 columns, as in the header, got 7");
}

TEST(VmTrace, MissingProfileColumnUnderTheSevenColumnHeaderIsRefused) {
  const std::string what = refusal(
      "id,type,cpu,mem,start,end,profile\n0,a,2,1,1,2,2:1|1:1\n"
      "1,b,1,1,2,3\n",
      [](std::istream& in) { return read_vm_trace(in); });
  EXPECT_EQ(what,
            "trace line 3: expected 7 columns, as in the header, got 6");
  // A stable VM under that header carries an empty profile field.
  EXPECT_EQ(refusal("id,type,cpu,mem,start,end,profile\n0,a,2,1,1,2,\n",
                    [](std::istream& in) { return read_vm_trace(in); }),
            "");
}

// A profiled row's interval is checked before its duration is formed: with
// a start below 1, end - start + 1 overflowed Time.
TEST(VmTrace, ProfiledRowStartingBeforeOneIsRefused) {
  for (const std::string row :
       {"0,a,1,1,0,2147483647,1:1", "0,a,1,1,-5,3,1:1"}) {
    EXPECT_EQ(refusal("id,type,cpu,mem,start,end,profile\n" + row + "\n",
                      [](std::istream& in) { return read_vm_trace(in); }),
              "trace line 2: invalid vm interval")
        << row;
  }
}

// A server trace whose header and rows both put mem before cpu used to be
// read by position, as cpu 72 / mem 30.
TEST(ServerTrace, ReorderedColumnsAreRefused) {
  const std::string what = refusal(
      "id,type,mem,cpu,p_idle,p_peak,transition_time\n0,t,72,30,105,210,1\n",
      [](std::istream& in) { return read_server_trace(in); });
  EXPECT_EQ(what,
            "trace line 1: expected the header "
            "'id,type,cpu,mem,p_idle,p_peak,transition_time', got "
            "'id,type,mem,cpu,p_idle,p_peak,transition_time'");
}

TEST(AssignmentTrace, HeaderlessAssignmentIsRefused) {
  const std::string what =
      refusal("\n0,1\n1,0\n", [](std::istream& in) {
        return read_assignment(in, 2);
      });
  EXPECT_EQ(what,
            "trace line 2: expected the header 'vm_id,server_id', got '0,1'");
}

TEST(ServerTrace, RejectsInvalidSpec) {
  // p_idle > p_peak.
  std::istringstream in(
      "id,type,cpu,mem,p_idle,p_peak,transition_time\n0,t,16,32,300,210,1\n");
  EXPECT_THROW(read_server_trace(in), std::runtime_error);
}

// A non-finite number passes every ordering test valid() makes (inf >= 0),
// so each field is checked finite: a server with an infinite transition
// time would otherwise load, cost infinity to wake, and host nothing.
TEST(ServerTrace, RejectsNonFiniteFieldsNamingTheLine) {
  const std::vector<std::string> good = {"0", "t", "16", "32", "105", "210",
                                         "1"};
  for (std::size_t field = 2; field < good.size(); ++field) {
    for (const char* value : {"inf", "-inf", "nan"}) {
      std::vector<std::string> row = good;
      row[field] = value;
      std::string csv = "id,type,cpu,mem,p_idle,p_peak,transition_time\n";
      for (std::size_t k = 0; k < row.size(); ++k)
        csv += (k ? "," : "") + row[k];
      std::istringstream in(csv + "\n");
      try {
        read_server_trace(in);
        ADD_FAILURE() << "accepted " << value << " in field " << field;
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("trace line 2"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(TraceFiles, SaveAndLoadRoundTrip) {
  const std::string prefix =
      ::testing::TempDir() + "/esva_" + std::to_string(::getpid());
  const std::string vm_path = prefix + "_vms.csv";
  const std::string server_path = prefix + "_servers.csv";

  std::vector<VmSpec> vms{vm(0, 2, 9, 4.0, 7.5)};
  vms[0].type_name = "m1.large";
  std::vector<ServerSpec> servers{server(0, 40, 96, 155, 340, 1.0)};

  save_vm_trace(vm_path, vms);
  save_server_trace(server_path, servers);
  EXPECT_EQ(load_vm_trace(vm_path).size(), 1u);
  EXPECT_EQ(load_server_trace(server_path).size(), 1u);
  EXPECT_DOUBLE_EQ(load_server_trace(server_path)[0].p_peak, 340.0);
  std::remove(vm_path.c_str());
  std::remove(server_path.c_str());
}

TEST(AssignmentTrace, RoundTrips) {
  Allocation alloc;
  alloc.assignment = {2, kNoServer, 0, 1};
  std::stringstream buffer;
  write_assignment(buffer, alloc);
  const Allocation loaded = read_assignment(buffer, 4);
  EXPECT_EQ(loaded.assignment, alloc.assignment);
}

TEST(AssignmentTrace, RejectsMissingVm) {
  std::istringstream in("vm_id,server_id\n0,1\n");
  EXPECT_THROW(read_assignment(in, 2), std::runtime_error);
}

TEST(AssignmentTrace, RejectsDuplicateVm) {
  std::istringstream in("vm_id,server_id\n0,1\n0,2\n");
  EXPECT_THROW(read_assignment(in, 1), std::runtime_error);
}

TEST(AssignmentTrace, RejectsOutOfRangeVm) {
  std::istringstream in("vm_id,server_id\n5,1\n");
  EXPECT_THROW(read_assignment(in, 2), std::runtime_error);
}

TEST(AssignmentTrace, RejectsInvalidServerId) {
  std::istringstream in("vm_id,server_id\n0,-2\n");
  EXPECT_THROW(read_assignment(in, 1), std::runtime_error);
}

TEST(AssignmentTrace, AcceptsRowsInAnyOrder) {
  std::istringstream in("vm_id,server_id\n1,0\n0,-1\n");
  const Allocation loaded = read_assignment(in, 2);
  EXPECT_EQ(loaded.assignment, (std::vector<ServerId>{kNoServer, 0}));
}

TEST(AssignmentTrace, FileRoundTrip) {
  const std::string p = ::testing::TempDir() + "/esva_assign_" +
                        std::to_string(::getpid()) + ".csv";
  Allocation alloc;
  alloc.assignment = {1, 0};
  save_assignment(p, alloc);
  EXPECT_EQ(load_assignment(p, 2).assignment, alloc.assignment);
  std::remove(p.c_str());
}

TEST(TraceFiles, MissingFileThrows) {
  EXPECT_THROW(load_vm_trace("/nonexistent/path/vms.csv"), std::runtime_error);
  EXPECT_THROW(save_vm_trace("/nonexistent/path/vms.csv", {}),
               std::runtime_error);
}

}  // namespace
}  // namespace esva
