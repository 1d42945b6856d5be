#include "workload/trace.h"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "util/csv.h"
#include "util/parse.h"

namespace esva {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw std::runtime_error("trace line " + std::to_string(line) + ": " +
                           message);
}

std::string line_context(std::size_t line) {
  return "trace line " + std::to_string(line);
}

// Shared hardened field parsers (util/parse.h): overflow, trailing garbage,
// and the narrowing into Time/VmId/ServerId are all structured errors.
double parse_double(const std::string& field, std::size_t line) {
  return parse_double_field(field, line_context(line));
}

}  // namespace

namespace {

std::string encode_profile(const VmSpec& vm) {
  std::string encoded;
  for (std::size_t k = 0; k < vm.profile.size(); ++k) {
    if (k > 0) encoded.push_back('|');
    encoded += CsvWriter::field_to_string(vm.profile[k].cpu);
    encoded.push_back(':');
    encoded += CsvWriter::field_to_string(vm.profile[k].mem);
  }
  return encoded;
}

std::vector<Resources> decode_profile(const std::string& encoded,
                                      std::size_t line) {
  std::vector<Resources> profile;
  std::size_t pos = 0;
  while (pos < encoded.size()) {
    std::size_t bar = encoded.find('|', pos);
    if (bar == std::string::npos) bar = encoded.size();
    const std::string entry = encoded.substr(pos, bar - pos);
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos)
      fail(line, "profile entry missing ':' in '" + entry + "'");
    profile.push_back(Resources{parse_double(entry.substr(0, colon), line),
                                parse_double(entry.substr(colon + 1), line)});
    pos = bar + 1;
  }
  return profile;
}

}  // namespace

void write_vm_trace(std::ostream& out, const std::vector<VmSpec>& vms) {
  CsvWriter csv(out);
  bool any_profiled = false;
  for (const VmSpec& vm : vms) any_profiled = any_profiled || vm.has_profile();
  if (any_profiled) {
    // Extended 7-column format: the last column encodes R_jt as
    // "cpu:mem|cpu:mem|..." (empty for stable VMs).
    csv.row({"id", "type", "cpu", "mem", "start", "end", "profile"});
    for (const VmSpec& vm : vms) {
      csv.typed_row(vm.id, vm.type_name, vm.demand.cpu, vm.demand.mem,
                    static_cast<int>(vm.start), static_cast<int>(vm.end),
                    encode_profile(vm));
    }
    return;
  }
  csv.row({"id", "type", "cpu", "mem", "start", "end"});
  for (const VmSpec& vm : vms) {
    csv.typed_row(vm.id, vm.type_name, vm.demand.cpu, vm.demand.mem,
                  static_cast<int>(vm.start), static_cast<int>(vm.end));
  }
}

void write_server_trace(std::ostream& out,
                        const std::vector<ServerSpec>& servers) {
  CsvWriter csv(out);
  csv.row({"id", "type", "cpu", "mem", "p_idle", "p_peak", "transition_time"});
  for (const ServerSpec& s : servers) {
    csv.typed_row(s.id, s.type_name, s.capacity.cpu, s.capacity.mem, s.p_idle,
                  s.p_peak, s.transition_time);
  }
}

std::vector<VmSpec> read_vm_trace(std::istream& in, bool dense_ids) {
  const auto rows = read_csv(in);
  if (rows.empty()) throw std::runtime_error("vm trace: empty file");
  require_csv_header(rows[0],
                     {"id", "type", "cpu", "mem", "start", "end", "profile"},
                     /*optional_last=*/true, line_context(rows[0].line));
  // Every row has the header's width: a profile column under the 6-column
  // header, or a missing one under the 7-column header, is a mis-edit.
  const std::size_t width = rows[0].fields.size();
  std::vector<VmSpec> vms;
  std::unordered_set<VmId> seen_ids;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r].fields;
    const std::size_t line = rows[r].line;
    if (row.size() != width)
      fail(line, "expected " + std::to_string(width) +
                     " columns, as in the header, got " +
                     std::to_string(row.size()));
    VmSpec vm;
    vm.id = parse_field_as<VmId>(row[0], line_context(line));
    vm.type_name = row[1];
    vm.demand.cpu = parse_double(row[2], line);
    vm.demand.mem = parse_double(row[3], line);
    vm.start = parse_field_as<Time>(row[4], line_context(line));
    vm.end = parse_field_as<Time>(row[5], line_context(line));
    if (row.size() == 7 && !row[6].empty()) {
      // Checked before duration() is formed, which overflows Time for a
      // start below 1.
      if (vm.start < 1 || vm.end < vm.start)
        fail(line, "invalid vm interval");
      std::vector<Resources> profile = decode_profile(row[6], line);
      if (static_cast<Time>(profile.size()) != vm.duration())
        fail(line, "profile length != duration");
      vm.set_profile(std::move(profile));
    }
    if (!vm.valid()) fail(line, "invalid vm spec");
    if (dense_ids) {
      if (vm.id != static_cast<VmId>(vms.size()))
        fail(line, "vm ids must be dense and in order");
    } else if (!seen_ids.insert(vm.id).second) {
      fail(line, "duplicate vm id " + std::to_string(vm.id));
    }
    vms.push_back(std::move(vm));
  }
  return vms;
}

std::vector<ServerSpec> read_server_trace(std::istream& in) {
  const auto rows = read_csv(in);
  if (rows.empty()) throw std::runtime_error("server trace: empty file");
  require_csv_header(rows[0],
                     {"id", "type", "cpu", "mem", "p_idle", "p_peak",
                      "transition_time"},
                     /*optional_last=*/false, line_context(rows[0].line));
  std::vector<ServerSpec> servers;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r].fields;
    const std::size_t line = rows[r].line;
    if (row.size() != 7) fail(line, "expected 7 columns");
    ServerSpec s;
    s.id = parse_field_as<ServerId>(row[0], line_context(line));
    s.type_name = row[1];
    s.capacity.cpu = parse_double(row[2], line);
    s.capacity.mem = parse_double(row[3], line);
    s.p_idle = parse_double(row[4], line);
    s.p_peak = parse_double(row[5], line);
    s.transition_time = parse_double(row[6], line);
    if (!s.valid()) fail(line, "invalid server spec");
    if (s.id != static_cast<ServerId>(servers.size()))
      fail(line, "server ids must be dense and in order");
    servers.push_back(std::move(s));
  }
  return servers;
}

void write_assignment(std::ostream& out, const Allocation& alloc) {
  CsvWriter csv(out);
  csv.row({"vm_id", "server_id"});
  for (std::size_t j = 0; j < alloc.assignment.size(); ++j)
    csv.typed_row(static_cast<int>(j), static_cast<int>(alloc.assignment[j]));
}

Allocation read_assignment(std::istream& in, std::size_t num_vms) {
  const auto rows = read_csv(in);
  if (rows.empty()) throw std::runtime_error("assignment trace: empty file");
  require_csv_header(rows[0], {"vm_id", "server_id"}, /*optional_last=*/false,
                     line_context(rows[0].line));
  Allocation alloc;
  alloc.assignment.assign(num_vms, kNoServer);
  std::vector<bool> seen(num_vms, false);
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r].fields;
    const std::size_t line = rows[r].line;
    if (row.size() != 2) fail(line, "expected 2 columns");
    const long long vm = parse_field_as<VmId>(row[0], line_context(line));
    const long long server =
        parse_field_as<ServerId>(row[1], line_context(line));
    if (vm < 0 || static_cast<std::size_t>(vm) >= num_vms)
      fail(line, "vm_id out of range");
    if (seen[static_cast<std::size_t>(vm)])
      fail(line, "duplicate vm_id " + std::to_string(vm));
    seen[static_cast<std::size_t>(vm)] = true;
    if (server < -1) fail(line, "invalid server_id");
    alloc.assignment[static_cast<std::size_t>(vm)] =
        static_cast<ServerId>(server);
  }
  for (std::size_t j = 0; j < num_vms; ++j)
    if (!seen[j])
      throw std::runtime_error("assignment trace: vm " + std::to_string(j) +
                               " missing");
  return alloc;
}

namespace {

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  return out;
}

}  // namespace

void save_vm_trace(const std::string& path, const std::vector<VmSpec>& vms) {
  auto out = open_out(path);
  write_vm_trace(out, vms);
}

void save_server_trace(const std::string& path,
                       const std::vector<ServerSpec>& servers) {
  auto out = open_out(path);
  write_server_trace(out, servers);
}

std::vector<VmSpec> load_vm_trace(const std::string& path, bool dense_ids) {
  return read_csv_file(
      path, [&](std::istream& in) { return read_vm_trace(in, dense_ids); });
}

std::vector<ServerSpec> load_server_trace(const std::string& path) {
  return read_csv_file(path, read_server_trace);
}

void save_assignment(const std::string& path, const Allocation& alloc) {
  auto out = open_out(path);
  write_assignment(out, alloc);
}

Allocation load_assignment(const std::string& path, std::size_t num_vms) {
  return read_csv_file(
      path, [&](std::istream& in) { return read_assignment(in, num_vms); });
}

}  // namespace esva
