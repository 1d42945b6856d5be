#include "util/csv.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <stdexcept>

namespace esva {

namespace {

bool needs_quoting(std::string_view field) {
  return field.find_first_of(",\"\n\r") != std::string_view::npos;
}

std::string quote(std::string_view field) {
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

template <typename T>
std::string number_to_string(T v) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc{}) throw std::runtime_error("number formatting failed");
  return std::string(buf, ptr);
}

}  // namespace

void CsvWriter::row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    if (needs_quoting(fields[i]))
      out_ << quote(fields[i]);
    else
      out_ << fields[i];
  }
  out_ << '\n';
}

std::string CsvWriter::field_to_string(double v) {
  return number_to_string(v);
}
std::string CsvWriter::field_to_string(int v) { return number_to_string(v); }
std::string CsvWriter::field_to_string(long v) { return number_to_string(v); }
std::string CsvWriter::field_to_string(long long v) {
  return number_to_string(v);
}
std::string CsvWriter::field_to_string(unsigned long long v) {
  return number_to_string(v);
}

std::vector<std::string> parse_csv_line(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  std::size_t i = 0;
  while (i < line.size()) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      if (!current.empty())
        throw std::runtime_error("quote inside unquoted field");
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r') {
      // tolerate CRLF
    } else {
      current.push_back(c);
    }
    ++i;
  }
  if (in_quotes) throw std::runtime_error("unterminated quoted field");
  fields.push_back(std::move(current));
  return fields;
}

std::vector<CsvRow> read_csv(std::istream& in) {
  std::vector<CsvRow> rows;
  std::string text;
  for (std::size_t line = 1; std::getline(in, text); ++line) {
    if (text.empty() || text == "\r") continue;
    try {
      rows.push_back(CsvRow{line, parse_csv_line(text)});
    } catch (const std::runtime_error& e) {
      throw std::runtime_error("CSV line " + std::to_string(line) + ": " +
                               e.what());
    }
  }
  return rows;
}

void require_csv_header(const CsvRow& header,
                        std::initializer_list<std::string_view> columns,
                        bool optional_last, const std::string& context) {
  const std::size_t n = header.fields.size();
  const bool sized =
      n == columns.size() || (optional_last && n + 1 == columns.size());
  if (sized && std::equal(header.fields.begin(), header.fields.end(),
                          columns.begin()))
    return;
  const auto join = [](auto first, auto last) {
    std::string out;
    for (auto it = first; it != last; ++it) {
      if (it != first) out += ',';
      out += *it;
    }
    return out;
  };
  std::string expected = "'" + join(columns.begin(), columns.end()) + "'";
  if (optional_last)
    expected = "'" + join(columns.begin(), columns.end() - 1) + "' or " +
               expected;
  throw std::runtime_error(
      context + ": expected the header " + expected + ", got '" +
      join(header.fields.begin(), header.fields.end()) + "'");
}

}  // namespace esva
