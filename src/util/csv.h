// Minimal CSV writing/reading used by the benchmark harness (raw series
// export) and the workload trace format.

#pragma once

#include <cstddef>
#include <fstream>
#include <initializer_list>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace esva {

/// Streams one CSV row at a time; fields containing separators, quotes or
/// newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Writes to `out`; the stream must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Writes a header/data row of raw string fields.
  void row(const std::vector<std::string>& fields);

  /// Convenience: formats arithmetic fields with max round-trip precision.
  template <typename... Ts>
  void typed_row(const Ts&... fields) {
    row(std::vector<std::string>{field_to_string(fields)...});
  }

  static std::string field_to_string(const std::string& s) { return s; }
  static std::string field_to_string(const char* s) { return s; }
  static std::string field_to_string(std::string_view s) {
    return std::string(s);
  }
  static std::string field_to_string(double v);
  static std::string field_to_string(int v);
  static std::string field_to_string(long v);
  static std::string field_to_string(long long v);
  static std::string field_to_string(unsigned long long v);

 private:
  std::ostream& out_;
};

/// Parses one CSV line into fields (RFC 4180 quoting). Throws
/// std::runtime_error on malformed quoting.
std::vector<std::string> parse_csv_line(std::string_view line);

/// One CSV row and the 1-based line of the stream it was read from.
struct CsvRow {
  std::size_t line = 0;
  std::vector<std::string> fields;
};

/// Reads all rows from a CSV stream, skipping blank lines. Each row keeps
/// its line number, so a reader's errors name the line an editor shows;
/// malformed quoting throws std::runtime_error("CSV line N: ...").
std::vector<CsvRow> read_csv(std::istream& in);

/// Checks a header row against `columns`, the names its format gives, in
/// order; with `optional_last` the last column may be left out. Throws
/// std::runtime_error("<context>: expected the header 'a,b,c', got '...'")
/// on any other header.
void require_csv_header(const CsvRow& header,
                        std::initializer_list<std::string_view> columns,
                        bool optional_last, const std::string& context);

/// Opens the file at `path` and returns read(stream), where `read` parses a
/// CSV stream. Any std::runtime_error it throws, a quoting error included,
/// comes back with "<path>: " in front, so a command that reads several
/// files names the one at fault. Throws std::runtime_error("cannot open for
/// reading: <path>") when the file cannot be opened.
template <typename Read>
auto read_csv_file(const std::string& path, Read&& read) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  try {
    return read(in);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace esva
