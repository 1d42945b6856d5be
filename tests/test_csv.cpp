#include "util/csv.h"

#include <gtest/gtest.h>

#include <sstream>

namespace esva {
namespace {

std::string write_rows(const std::vector<std::vector<std::string>>& rows) {
  std::ostringstream out;
  CsvWriter csv(out);
  for (const auto& row : rows) csv.row(row);
  return out.str();
}

TEST(CsvWriter, PlainFields) {
  EXPECT_EQ(write_rows({{"a", "b", "c"}}), "a,b,c\n");
}

TEST(CsvWriter, QuotesFieldsWithCommas) {
  EXPECT_EQ(write_rows({{"a,b", "c"}}), "\"a,b\",c\n");
}

TEST(CsvWriter, EscapesEmbeddedQuotes) {
  EXPECT_EQ(write_rows({{"say \"hi\""}}), "\"say \"\"hi\"\"\"\n");
}

TEST(CsvWriter, QuotesNewlines) {
  EXPECT_EQ(write_rows({{"two\nlines"}}), "\"two\nlines\"\n");
}

TEST(CsvWriter, TypedRowFormatsNumbers) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.typed_row("name", 42, 2.5);
  EXPECT_EQ(out.str(), "name,42,2.5\n");
}

TEST(CsvWriter, DoubleRoundTripPrecision) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.typed_row(0.1 + 0.2);
  const double parsed = std::stod(out.str());
  EXPECT_EQ(parsed, 0.1 + 0.2);  // to_chars round-trips exactly
}

TEST(ParseCsvLine, PlainFields) {
  EXPECT_EQ(parse_csv_line("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ParseCsvLine, EmptyFields) {
  EXPECT_EQ(parse_csv_line(",,"), (std::vector<std::string>{"", "", ""}));
}

TEST(ParseCsvLine, QuotedFieldWithComma) {
  EXPECT_EQ(parse_csv_line("\"a,b\",c"),
            (std::vector<std::string>{"a,b", "c"}));
}

TEST(ParseCsvLine, EscapedQuote) {
  EXPECT_EQ(parse_csv_line("\"say \"\"hi\"\"\""),
            (std::vector<std::string>{"say \"hi\""}));
}

TEST(ParseCsvLine, ToleratesCarriageReturn) {
  EXPECT_EQ(parse_csv_line("a,b\r"), (std::vector<std::string>{"a", "b"}));
}

TEST(ParseCsvLine, ThrowsOnUnterminatedQuote) {
  EXPECT_THROW(parse_csv_line("\"oops"), std::runtime_error);
}

TEST(ParseCsvLine, ThrowsOnQuoteInsideUnquotedField) {
  EXPECT_THROW(parse_csv_line("ab\"cd"), std::runtime_error);
}

TEST(ReadCsv, SkipsBlankLines) {
  std::istringstream in("a,b\n\nc,d\n\r\ne,f\r\n");
  const auto rows = read_csv(in);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].fields, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1].fields, (std::vector<std::string>{"c", "d"}));
  EXPECT_EQ(rows[2].fields, (std::vector<std::string>{"e", "f"}));
  EXPECT_EQ(rows[0].line, 1u);
  EXPECT_EQ(rows[1].line, 3u);
  EXPECT_EQ(rows[2].line, 5u);
}

TEST(ReadCsv, QuotingErrorsNameTheFileLine) {
  std::istringstream in("a,b\n\n\"c,d\n");
  try {
    read_csv(in);
    FAIL() << "read an unterminated quote";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "CSV line 3: unterminated quoted field");
  }
}

TEST(ReadCsv, RoundTripsWriter) {
  const std::vector<std::vector<std::string>> rows = {
      {"id", "name", "note"},
      {"1", "with,comma", "with \"quote\""},
      {"2", "plain", ""},
  };
  std::istringstream in(write_rows(rows));
  const auto read = read_csv(in);
  ASSERT_EQ(read.size(), rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(read[r].fields, rows[r]);
    EXPECT_EQ(read[r].line, r + 1);
  }
}

TEST(ReadCsv, HeaderCheckNamesTheExpectedHeader) {
  const CsvRow good{4, {"a", "b", "c"}};
  EXPECT_NO_THROW(require_csv_header(good, {"a", "b", "c"}, false, "t"));
  EXPECT_NO_THROW(require_csv_header(good, {"a", "b", "c", "d"}, true, "t"));
  EXPECT_THROW(require_csv_header(good, {"a", "b", "c", "d"}, false, "t"),
               std::runtime_error);
  EXPECT_THROW(require_csv_header(good, {"a", "b"}, true, "t"),
               std::runtime_error);
  try {
    require_csv_header(CsvRow{4, {"a", "c", "b"}}, {"a", "b", "c"}, false,
                       "table line 4");
    ADD_FAILURE() << "accepted a reordered header";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "table line 4: expected the header 'a,b,c', got 'a,c,b'");
  }
  try {
    require_csv_header(CsvRow{1, {"x"}}, {"a", "b"}, true, "t");
    ADD_FAILURE() << "accepted a wrong header";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "t: expected the header 'a' or 'a,b', got 'x'");
  }
}

}  // namespace
}  // namespace esva
