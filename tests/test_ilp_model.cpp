#include "ilp/model.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/power_model.h"
#include "ilp/lp_export.h"
#include "ilp/validate.h"
#include "test_util.h"

namespace esva {
namespace {

using testing::basic_server;
using testing::vm;

ProblemInstance small_problem() {
  // 2 VMs, 2 servers, horizon 6.
  return make_problem({vm(0, 1, 3, 2.0, 1.0), vm(1, 4, 6, 3.0, 2.0)},
                      {basic_server(0), basic_server(1)});
}

TEST(IlpModel, VariableCounts) {
  const IlpModel model = build_ilp(small_problem());
  EXPECT_EQ(model.num_x(), 4u);        // 2 servers × 2 VMs
  EXPECT_EQ(model.num_y(), 12u);       // 2 servers × horizon 6
  EXPECT_EQ(model.num_z(), 12u);
  EXPECT_EQ(model.num_vars(), 28u);
}

TEST(IlpModel, VariableIndexingIsBijective) {
  const IlpModel model = build_ilp(small_problem());
  std::vector<bool> seen(model.num_vars(), false);
  for (int i = 0; i < model.num_servers; ++i) {
    for (int j = 0; j < model.num_vms; ++j) {
      ASSERT_FALSE(seen[model.x_index(i, j)]);
      seen[model.x_index(i, j)] = true;
    }
    for (Time t = 1; t <= model.horizon; ++t) {
      ASSERT_FALSE(seen[model.y_index(i, t)]);
      seen[model.y_index(i, t)] = true;
      ASSERT_FALSE(seen[model.z_index(i, t)]);
      seen[model.z_index(i, t)] = true;
    }
  }
  for (bool b : seen) EXPECT_TRUE(b);
}

TEST(IlpModel, VariableNames) {
  const IlpModel model = build_ilp(small_problem());
  EXPECT_EQ(model.var_name(model.x_index(1, 0)), "x_1_0");
  EXPECT_EQ(model.var_name(model.y_index(0, 3)), "y_0_3");
  EXPECT_EQ(model.var_name(model.z_index(1, 6)), "z_1_6");
}

TEST(IlpModel, ObjectiveCoefficientsMatchPaper) {
  const ProblemInstance p = small_problem();
  const IlpModel model = build_ilp(p);
  // x coefficients are W_ij (Eq. 3).
  EXPECT_DOUBLE_EQ(model.objective[model.x_index(0, 0)],
                   run_cost(p.servers[0], p.vms[0]));
  EXPECT_DOUBLE_EQ(model.objective[model.x_index(1, 1)],
                   run_cost(p.servers[1], p.vms[1]));
  // y coefficients are P_idle; z coefficients are alpha.
  EXPECT_DOUBLE_EQ(model.objective[model.y_index(0, 1)], 100.0);
  EXPECT_DOUBLE_EQ(model.objective[model.z_index(0, 1)], 200.0);
}

TEST(IlpModel, BinaryClassification) {
  const IlpModel model = build_ilp(small_problem());
  EXPECT_TRUE(model.is_binary(model.x_index(0, 0)));
  EXPECT_TRUE(model.is_binary(model.y_index(1, 6)));
  EXPECT_FALSE(model.is_binary(model.z_index(0, 1)));
}

TEST(IlpModel, FeasibleAssignmentSatisfiesAllRows) {
  const ProblemInstance p = small_problem();
  const IlpModel model = build_ilp(p);
  Allocation alloc;
  alloc.assignment = {0, 1};
  const auto active = derive_active_sets(p, alloc);
  const auto values = to_variable_assignment(model, p, alloc, active);
  EXPECT_EQ(model.first_violation(values), "");
}

TEST(IlpModel, MissingAssignmentViolatesConstraint11) {
  const ProblemInstance p = small_problem();
  const IlpModel model = build_ilp(p);
  Allocation alloc;
  alloc.assignment = {0, kNoServer};
  const auto active = derive_active_sets(p, alloc);
  const auto values = to_variable_assignment(model, p, alloc, active);
  EXPECT_NE(model.first_violation(values).find("assign_1"), std::string::npos);
}

TEST(IlpModel, PoweredDownHostViolatesCoupling) {
  const ProblemInstance p = small_problem();
  const IlpModel model = build_ilp(p);
  Allocation alloc;
  alloc.assignment = {0, 0};
  auto active = derive_active_sets(p, alloc);
  // Sabotage: claim server 0 is never active.
  active[0].clear();
  const auto values = to_variable_assignment(model, p, alloc, active);
  const std::string violation = model.first_violation(values);
  EXPECT_FALSE(violation.empty());
}

TEST(IlpModel, ObjectiveValueMatchesCostModel) {
  const ProblemInstance p = small_problem();
  const IlpModel model = build_ilp(p);
  for (const std::vector<ServerId>& assignment :
       {std::vector<ServerId>{0, 0}, {0, 1}, {1, 0}, {1, 1}}) {
    Allocation alloc;
    alloc.assignment = assignment;
    const auto active = derive_active_sets(p, alloc);
    const auto values = to_variable_assignment(model, p, alloc, active);
    EXPECT_NEAR(model.objective_value(values), evaluate_cost(p, alloc).total(),
                1e-9);
  }
}

TEST(IlpModel, CapacityRowViolationDetected) {
  // Two overlapping 6-CPU VMs forced on one 10-CPU server.
  const ProblemInstance p = make_problem(
      {vm(0, 1, 4, 6.0, 1.0), vm(1, 2, 5, 6.0, 1.0)}, {basic_server(0), basic_server(1)});
  const IlpModel model = build_ilp(p);
  Allocation alloc;
  alloc.assignment = {0, 0};
  const auto active = derive_active_sets(p, alloc);
  const auto values = to_variable_assignment(model, p, alloc, active);
  EXPECT_NE(model.first_violation(values).find("cap_cpu_0"),
            std::string::npos);
}

TEST(LpExport, ContainsAllSections) {
  std::ostringstream out;
  write_lp(out, build_ilp(small_problem()));
  const std::string lp = out.str();
  for (const char* section :
       {"Minimize", "Subject To", "Bounds", "Binary", "End"})
    EXPECT_NE(lp.find(section), std::string::npos) << section;
}

TEST(LpExport, MentionsVariablesAndConstraints) {
  std::ostringstream out;
  write_lp(out, build_ilp(small_problem()));
  const std::string lp = out.str();
  EXPECT_NE(lp.find("x_0_0"), std::string::npos);
  EXPECT_NE(lp.find("y_1_6"), std::string::npos);
  EXPECT_NE(lp.find("assign_0:"), std::string::npos);
  EXPECT_NE(lp.find("switch_0_1:"), std::string::npos);
  EXPECT_NE(lp.find(" = 1"), std::string::npos);   // assignment equality
  EXPECT_NE(lp.find(" <= 0"), std::string::npos);  // coupling rows
}

TEST(LpExport, SaveLpWritesFile) {
  const std::string path = ::testing::TempDir() + "/esva_test_" +
                           std::to_string(::getpid()) + ".lp";
  save_lp(path, build_ilp(small_problem()));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_NE(first_line.find("esva"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace esva
