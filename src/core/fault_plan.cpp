#include "core/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/csv.h"
#include "util/parse.h"

namespace esva {

namespace {

[[noreturn]] void fail_line(std::size_t line, const std::string& message) {
  throw std::runtime_error("fault plan line " + std::to_string(line) + ": " +
                           message);
}

std::string line_context(std::size_t line) {
  return "fault plan line " + std::to_string(line);
}

}  // namespace

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kFail:
      return "fail";
    case FaultKind::kDrain:
      return "drain";
    case FaultKind::kRecover:
      return "recover";
  }
  return "?";
}

std::optional<FaultKind> parse_fault_kind(const std::string& text) {
  if (text == "fail") return FaultKind::kFail;
  if (text == "drain") return FaultKind::kDrain;
  if (text == "recover") return FaultKind::kRecover;
  return std::nullopt;
}

FaultPlan::FaultPlan(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  std::stable_sort(
      events_.begin(), events_.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
}

void FaultPlan::validate(std::size_t num_servers) const {
  for (const FaultEvent& e : events_) {
    if (e.at < 1)
      throw std::invalid_argument("fault plan: event at time " +
                                  std::to_string(e.at) + " precedes time 1");
    if (e.server < 0 ||
        static_cast<std::size_t>(e.server) >= num_servers)
      throw std::invalid_argument(
          "fault plan: server " + std::to_string(e.server) +
          " outside the fleet of " + std::to_string(num_servers));
  }
}

void write_fault_plan(std::ostream& out, const FaultPlan& plan) {
  CsvWriter csv(out);
  csv.row({"time", "event", "server"});
  for (const FaultEvent& e : plan.events())
    csv.typed_row(static_cast<int>(e.at), to_string(e.kind), e.server);
}

FaultPlan read_fault_plan(std::istream& in) {
  const auto rows = read_csv(in);
  if (rows.empty()) throw std::runtime_error("fault plan: empty file");
  require_csv_header(rows[0], {"time", "event", "server"},
                     /*optional_last=*/false, line_context(rows[0].line));
  std::vector<FaultEvent> events;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r].fields;
    const std::size_t line = rows[r].line;
    if (row.size() != 3) fail_line(line, "expected 3 columns");
    FaultEvent e;
    // parse_field_as range-checks the narrowing into Time/ServerId: an
    // overflowing field is a structured parse error, never a silent
    // truncation or an uncaught std::out_of_range (util/parse.h).
    e.at = parse_field_as<Time>(row[0], line_context(line));
    const std::optional<FaultKind> kind = parse_fault_kind(row[1]);
    if (!kind)
      fail_line(line, "unknown event '" + row[1] + "' (fail|drain|recover)");
    e.kind = *kind;
    e.server = parse_field_as<ServerId>(row[2], line_context(line));
    if (e.at < 1) fail_line(line, "event time must be >= 1");
    if (e.server < 0) fail_line(line, "server id must be >= 0");
    events.push_back(e);
  }
  return FaultPlan(std::move(events));
}

FaultPlan load_fault_plan(const std::string& path) {
  return read_csv_file(path, read_fault_plan);
}

FaultPlan random_fault_plan(const ChaosConfig& config, Rng& rng) {
  std::vector<FaultEvent> events;
  events.reserve(static_cast<std::size_t>(config.failures) * 2);
  for (int k = 0; k < config.failures; ++k) {
    FaultEvent fail;
    fail.at = static_cast<Time>(
        rng.uniform_int(config.window_lo, config.window_hi));
    fail.kind = FaultKind::kFail;
    fail.server =
        static_cast<ServerId>(rng.index(std::max<std::size_t>(1, config.num_servers)));
    events.push_back(fail);

    FaultEvent recover = fail;
    recover.kind = FaultKind::kRecover;
    const double repair =
        std::max(1.0, std::round(rng.exponential(
                          static_cast<double>(config.mean_repair))));
    recover.at = fail.at + static_cast<Time>(repair);
    events.push_back(recover);
  }
  return FaultPlan(std::move(events));
}

}  // namespace esva
