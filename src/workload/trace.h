// Trace persistence: save/load a workload (VM requests), a server fleet and
// an assignment as CSV, so experiments can be re-run bit-identically,
// shared, or driven from externally produced traces
// (examples/trace_driven.cpp, the esva CLI tool).
//
// VM trace columns:     id,type,cpu,mem,start,end
// Server trace columns: id,type,cpu,mem,p_idle,p_peak,transition_time
// Assignment columns:   vm_id,server_id   (server_id -1 = unallocated)

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "cluster/server_spec.h"
#include "cluster/vm.h"
#include "core/allocation.h"

namespace esva {

void write_vm_trace(std::ostream& out, const std::vector<VmSpec>& vms);
void write_server_trace(std::ostream& out,
                        const std::vector<ServerSpec>& servers);

/// Parse traces; throws std::runtime_error with a line-numbered message on
/// malformed input (wrong column count, non-numeric fields, invalid specs,
/// non-dense ids). The batch pipeline indexes assignments by VM position, so
/// it keeps `dense_ids` on; `esva client` feeds arbitrary trace slices to a
/// running daemon and passes false (ids must then only be unique).
std::vector<VmSpec> read_vm_trace(std::istream& in, bool dense_ids = true);
std::vector<ServerSpec> read_server_trace(std::istream& in);

/// Assignment persistence. `num_vms` fixes the assignment vector size; rows
/// may arrive in any order but every vm_id in [0, num_vms) must appear
/// exactly once.
void write_assignment(std::ostream& out, const Allocation& alloc);
Allocation read_assignment(std::istream& in, std::size_t num_vms);

/// File-path convenience wrappers; throw std::runtime_error if the file
/// cannot be opened. The loaders put "<path>: " in front of every error
/// their reader throws (util/csv.h, read_csv_file).
void save_vm_trace(const std::string& path, const std::vector<VmSpec>& vms);
void save_server_trace(const std::string& path,
                       const std::vector<ServerSpec>& servers);
void save_assignment(const std::string& path, const Allocation& alloc);
std::vector<VmSpec> load_vm_trace(const std::string& path,
                                  bool dense_ids = true);
std::vector<ServerSpec> load_server_trace(const std::string& path);
Allocation load_assignment(const std::string& path, std::size_t num_vms);

}  // namespace esva
