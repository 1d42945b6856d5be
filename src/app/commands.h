// The `esva` command-line tool, as a library so every subcommand is unit
// testable through esva_main. Subcommands operate on the CSV trace formats
// (workload/trace.h) and the LP/solution formats (ilp/), so a full workflow
// can be scripted:
//
//   esva generate  --vms 200 --out-vms vms.csv --out-servers servers.csv
//   esva allocate  --vms vms.csv --servers servers.csv
//                  --allocator min-incremental --out-assignment assign.csv
//                  --trace decisions.jsonl --stats stats.json
//   esva stream    --vms vms.csv --servers servers.csv
//                  --allocator min-incremental --latency-json latency.json
//   esva top       --vms vms.csv --servers servers.csv --every 2
//   esva serve     --servers servers.csv --socket esva.sock --wal esva.wal
//   esva client    --socket esva.sock --place-vms vms.csv --drain --stats
//   esva evaluate  --vms vms.csv --servers servers.csv --assignment assign.csv
//   esva simulate  --vms vms.csv --servers servers.csv --assignment assign.csv
//                  --power-csv power.csv
//   esva export-lp --vms vms.csv --servers servers.csv --out instance.lp
//   esva import-solution --vms vms.csv --servers servers.csv
//                  --solution instance.sol --out-assignment assign.csv
//
// One table in commands.cpp names the subcommands; it drives the dispatch,
// the usage text and the error report. Every subcommand returns a process
// exit code (0 = success, 1 = runtime error, 2 = usage error) and writes its
// human-readable report to `out` and errors to `err`.

#pragma once

#include <iosfwd>

namespace esva::app {

/// Dispatches argv[1] to a subcommand; prints usage on unknown/missing
/// subcommands and on `esva help`.
int esva_main(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err);

}  // namespace esva::app
