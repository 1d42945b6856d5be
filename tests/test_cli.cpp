#include "util/cli.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

namespace esva {
namespace {

CliParser make_parser() {
  CliParser parser("test program");
  parser.add_int("vms", 100, "number of VMs");
  parser.add_double("interarrival", 1.5, "mean inter-arrival");
  parser.add_string("csv", "", "csv output path");
  parser.add_bool("verbose", "enable verbose logging");
  return parser;
}

TEST(CliParser, DefaultsWithNoArgs) {
  auto parser = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_EQ(parser.get_int("vms"), 100);
  EXPECT_DOUBLE_EQ(parser.get_double("interarrival"), 1.5);
  EXPECT_EQ(parser.get_string("csv"), "");
  EXPECT_FALSE(parser.get_bool("verbose"));
}

TEST(CliParser, ParsesSeparatedValues) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--vms", "250", "--interarrival", "4.0"};
  ASSERT_TRUE(parser.parse(5, argv));
  EXPECT_EQ(parser.get_int("vms"), 250);
  EXPECT_DOUBLE_EQ(parser.get_double("interarrival"), 4.0);
}

TEST(CliParser, ParsesEqualsForm) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--vms=7", "--csv=out.csv"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.get_int("vms"), 7);
  EXPECT_EQ(parser.get_string("csv"), "out.csv");
}

TEST(CliParser, BoolSwitchAndExplicitFalse) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(parser.parse(2, argv));
  EXPECT_TRUE(parser.get_bool("verbose"));

  auto parser2 = make_parser();
  const char* argv2[] = {"prog", "--verbose=false"};
  ASSERT_TRUE(parser2.parse(2, argv2));
  EXPECT_FALSE(parser2.get_bool("verbose"));
}

TEST(CliParser, UnknownFlagFails) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(parser.parse(3, argv));
  EXPECT_TRUE(parser.parse_error());
}

TEST(CliParser, MissingValueFails) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--vms"};
  EXPECT_FALSE(parser.parse(2, argv));
  EXPECT_TRUE(parser.parse_error());
}

TEST(CliParser, MalformedNumberFails) {
  // Whole-token parsing: a numeric prefix ("5x"), a fraction on an int flag
  // ("3.9") and an empty value are all errors, never truncated values.
  for (const char* value : {"not-a-number", "5x", "3.9", ""}) {
    auto parser = make_parser();
    const char* argv[] = {"prog", "--vms", value};
    EXPECT_FALSE(parser.parse(3, argv)) << "'" << value << "'";
    EXPECT_TRUE(parser.parse_error()) << "'" << value << "'";
  }
  auto parser = make_parser();
  const char* argv[] = {"prog", "--interarrival", "1.5x"};
  EXPECT_FALSE(parser.parse(3, argv));
  EXPECT_TRUE(parser.parse_error());
}

TEST(CliParser, SignedNumbersParseAsWholeTokens) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--vms", "-3", "--interarrival=-0.25"};
  ASSERT_TRUE(parser.parse(4, argv));
  EXPECT_EQ(parser.get_int("vms"), -3);
  EXPECT_DOUBLE_EQ(parser.get_double("interarrival"), -0.25);

  auto plus = make_parser();
  const char* argv2[] = {"prog", "--vms=+12"};
  ASSERT_TRUE(plus.parse(2, argv2));
  EXPECT_EQ(plus.get_int("vms"), 12);
}

TEST(CliParser, DoubleFlagAcceptsExponentAndHexfloatForms) {
  const std::pair<const char*, double> cases[] = {
      {"1e3", 1000.0}, {"2.5E-1", 0.25}, {".5", 0.5}, {"7", 7.0},
      {"0x1.8p1", 3.0}};
  for (const auto& [value, expected] : cases) {
    auto parser = make_parser();
    const char* argv[] = {"prog", "--interarrival", value};
    ASSERT_TRUE(parser.parse(3, argv)) << value;
    EXPECT_EQ(parser.get_double("interarrival"), expected) << value;
  }
}

TEST(CliParser, OutOfRangeNumbersFail) {
  auto max = make_parser();
  const char* argv[] = {"prog", "--vms", "9223372036854775807"};
  ASSERT_TRUE(max.parse(3, argv));
  EXPECT_EQ(max.get_int("vms"), INT64_MAX);

  for (const char* value : {"9223372036854775808", "-99999999999999999999"}) {
    auto parser = make_parser();
    const char* argv2[] = {"prog", "--vms", value};
    EXPECT_FALSE(parser.parse(3, argv2)) << value;
    EXPECT_TRUE(parser.parse_error()) << value;
  }
  auto parser = make_parser();
  const char* argv3[] = {"prog", "--interarrival", "1e999"};
  EXPECT_FALSE(parser.parse(3, argv3));
  EXPECT_TRUE(parser.parse_error());
}

TEST(CliParser, EqualsFormParsesStrictly) {
  for (const char* arg : {"--vms=5x", "--vms=", "--vms=3.9",
                          "--interarrival=1.5.2", "--interarrival="}) {
    auto parser = make_parser();
    const char* argv[] = {"prog", arg};
    EXPECT_FALSE(parser.parse(2, argv)) << arg;
    EXPECT_TRUE(parser.parse_error()) << arg;
  }
}

TEST(CliParser, MalformedNumberErrorNamesTheFlagAndValue) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--vms", "5x"};
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(parser.parse(3, argv));
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--vms"), std::string::npos) << err;
  EXPECT_NE(err.find("'5x'"), std::string::npos) << err;
}

TEST(CliParser, HelpReturnsFalseWithoutError) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(parser.parse(2, argv));
  EXPECT_FALSE(parser.parse_error());
}

TEST(CliParser, PositionalArgsCollected) {
  auto parser = make_parser();
  const char* argv[] = {"prog", "trace.csv", "--vms", "5", "other"};
  ASSERT_TRUE(parser.parse(5, argv));
  EXPECT_EQ(parser.positional(),
            (std::vector<std::string>{"trace.csv", "other"}));
}

TEST(CliParser, TypeMismatchThrows) {
  auto parser = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_THROW(parser.get_double("vms"), std::logic_error);
  EXPECT_THROW(parser.get_int("nonexistent"), std::logic_error);
}

TEST(CliParser, UsageMentionsEveryFlag) {
  auto parser = make_parser();
  const std::string usage = parser.usage();
  for (const char* flag : {"--vms", "--interarrival", "--csv", "--verbose"})
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
}

}  // namespace
}  // namespace esva
