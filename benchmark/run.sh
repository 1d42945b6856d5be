#!/usr/bin/env bash
# Builds esva-bench (Release, into benchmark/build-bench) and runs it from the
# repository root.
#
#   benchmark/run.sh [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]
#                    [--traced] [--out results.json] [--trace-out trace.json]
#                    [--smoke]
#   benchmark/run.sh --test      # the benchmark's own ctest suite
#
# Without --workload every workload runs in turn. Prints one
# `workload  name  value  unit` line per metric, then one JSON object. Exits
# nonzero on a build failure or a failed correctness check; a run whose
# measurements are suspect is flagged on stderr and in --out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$here/build-bench"
cd "$root"

# Build output goes to stderr: stdout carries only the metrics.
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" --target esva_bench esva_cli >&2

if [[ "${1:-}" == "--test" ]]; then
  exec ctest --test-dir "$build" -L esva_bench --output-on-failure >&2
fi

# Only a git checkout has a commit; elsewhere git would search the parent
# directories, outside the tree being measured.
commit=unknown
if [[ -e "$root/.git" ]]; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
exec "$build/esva_bench" --run-dir benchmark/build-bench/run \
  --git-commit "$commit" "$@"
