// Forwarding header: the instance builders moved to
// testsupport/instance_builders.h so tests/ and bench/ share one copy.
// Existing tests keep using esva::testing unchanged.

#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "testsupport/instance_builders.h"

namespace esva::testing {

using esva::testsupport::basic_server;
using esva::testsupport::make_fleet;
using esva::testsupport::random_problem;
using esva::testsupport::server;
using esva::testsupport::vm;

/// True when ESVA_FUZZ_QUICK is set to anything non-empty except "0" — the
/// Debug-CI and sanitizer budget (tests/CMakeLists.txt wires it through
/// ctest). The properties checked are identical; only iteration counts and
/// sweep widths shrink.
inline bool fuzz_quick() {
  const char* env = std::getenv("ESVA_FUZZ_QUICK");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

/// Removes a serve daemon's journal and the lock file it leaves beside it
/// (`<wal>.lock`).
inline void remove_journal(const std::string& wal) {
  std::remove(wal.c_str());
  std::remove((wal + ".lock").c_str());
}

}  // namespace esva::testing
