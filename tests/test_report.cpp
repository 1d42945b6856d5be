#include "sim/report.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/csv.h"

namespace esva {
namespace {

Series linear_series() {
  Series s;
  s.label = "ours";
  s.xs = {1, 2, 3, 4};
  s.ys = {0.10, 0.20, 0.30, 0.40};
  return s;
}

FigureSpec basic_spec() {
  FigureSpec spec;
  spec.title = "Fig. T — test figure";
  spec.x_label = "x";
  spec.y_label = "ratio";
  spec.fit = FitModel::Linear;
  return spec;
}

TEST(Report, PrintsTitleHeaderAndFit) {
  std::ostringstream out;
  print_figure(out, basic_spec(), {linear_series()});
  const std::string text = out.str();
  EXPECT_NE(text.find("Fig. T"), std::string::npos);
  EXPECT_NE(text.find("ours"), std::string::npos);
  EXPECT_NE(text.find("fit[ours]"), std::string::npos);
  EXPECT_NE(text.find("Adj.R2"), std::string::npos);
}

TEST(Report, PercentModeScalesValues) {
  FigureSpec spec = basic_spec();
  spec.y_as_percent = true;
  spec.fit.reset();
  std::ostringstream out;
  print_figure(out, spec, {linear_series()});
  EXPECT_NE(out.str().find("10.00%"), std::string::npos);
  EXPECT_NE(out.str().find("40.00%"), std::string::npos);
}

TEST(Report, ErrorColumnsRendered) {
  Series s = linear_series();
  s.errs = {0.01, 0.01, 0.02, 0.02};
  FigureSpec spec = basic_spec();
  spec.fit.reset();
  std::ostringstream out;
  print_figure(out, spec, {s});
  EXPECT_NE(out.str().find("±"), std::string::npos);
}

TEST(Report, MultipleSeriesShareXGrid) {
  Series a = linear_series();
  Series b = linear_series();
  b.label = "ffps";
  b.ys = {0.0, 0.0, 0.0, 0.0};
  std::ostringstream out;
  print_figure(out, basic_spec(), {a, b});
  EXPECT_NE(out.str().find("ffps"), std::string::npos);
  EXPECT_NE(out.str().find("fit[ffps]"), std::string::npos);
}

TEST(Report, NoFitWhenUnset) {
  FigureSpec spec = basic_spec();
  spec.fit.reset();
  std::ostringstream out;
  print_figure(out, spec, {linear_series()});
  EXPECT_EQ(out.str().find("fit["), std::string::npos);
}

TEST(Report, CsvExportRoundTrips) {
  const std::string path = ::testing::TempDir() + "/esva_fig_" +
                           std::to_string(::getpid()) + ".csv";
  Series s = linear_series();
  s.errs = {0.01, 0.02, 0.03, 0.04};
  export_figure_csv(path, basic_spec(), {s});

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const auto rows = read_csv(in);
  ASSERT_EQ(rows.size(), 5u);  // header + 4 points
  EXPECT_EQ(rows[0].fields,
            (std::vector<std::string>{"x", "ours", "ours_err"}));
  EXPECT_EQ(rows[1].fields[0], "1");
  EXPECT_DOUBLE_EQ(std::stod(rows[4].fields[1]), 0.40);
  EXPECT_DOUBLE_EQ(std::stod(rows[4].fields[2]), 0.04);
  std::remove(path.c_str());
}

TEST(Report, CsvExportFailsOnBadPath) {
  EXPECT_THROW(
      export_figure_csv("/nonexistent/dir/fig.csv", basic_spec(), {}),
      std::runtime_error);
}

}  // namespace
}  // namespace esva
