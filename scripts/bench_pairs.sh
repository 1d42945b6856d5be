#!/usr/bin/env bash
# Compares a change against its parent with esva-bench, the way
# benchmark/README.md ("Comparing a change against its parent") asks:
# alternating parent/change runs with a fresh seed per pair, then, for each
# workload and end-to-end metric, each side's median and quartiles,
# change/parent, wins out of N and whether the change stays within the
# metric's bound in BENCHMARK.json.
#
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR [--workloads "W1 W2 ..."]
#                          [--pairs N] [--seconds S] [--seed-base B]
#                          [--out-dir DIR]
#
# PARENT_DIR and CHANGE_DIR are checkouts; each builds its own
# benchmark/build-bench/ on first use (benchmark/run.sh). Pair k runs seed
# B+k on both sides, the parent first when k is even and the change first
# when k is odd; every run is `benchmark/run.sh --trace 0`. Defaults: every
# workload in BENCHMARK.json, 10 pairs, 25 s, seed base 1000, and a fresh
# temporary output directory that keeps each run's JSON and log.
#
# Per workload it also prints each side's median [min, max] of the runs'
# `rounds` and of their timed restarts (`samples.recovery_s`): recovery_s is
# the fastest restart and ops_rps sums each slice's fastest time across
# rounds, so a side that fits more rounds into its budget takes more samples.
#
# Verdicts per metric: "gain" when at least 10 pairs ran, the change won at
# least 9 in 10 of them, and its median beats the parent's by more than the
# parent's interquartile range. Otherwise "unresolved" when either side's
# spread (interquartile range over median) is wider than the bound, so the
# runs cannot tell, or "better" if even then every change run beats every
# parent run. Otherwise "within" when the change's median is no worse than
# the bound allows, and "WORSE" when it is. energy_total reads "identical"
# or "DIFFERS".
#
# Exit status: 0 when every run passed its correctness checks; 1 when a run
# failed, reported failed requests, or energy_total differed between the
# sides for one seed; 2 on usage errors. Timing verdicts are printed, never
# turned into an exit status: on a shared host they need a reader.
set -euo pipefail

usage() {
  echo "usage: scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR" \
    "[--workloads \"W1 W2 ...\"] [--pairs N] [--seconds S]" \
    "[--seed-base B] [--out-dir DIR]" >&2
  exit 2
}

[[ $# -ge 2 ]] || usage
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
shift 2

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
bench_json="$root/BENCHMARK.json"
workloads=""
pairs=10
seconds=25
seed_base=1000
out_dir=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workloads) workloads="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --seed-base) seed_base="$2"; shift 2 ;;
    --out-dir) out_dir="$2"; shift 2 ;;
    *) usage ;;
  esac
done
[[ "$pairs" =~ ^[1-9][0-9]*$ && "$seed_base" =~ ^[0-9]+$ ]] || usage
if [[ -z "$workloads" ]]; then
  workloads="$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$bench_json")"
fi
if [[ -z "$out_dir" ]]; then
  out_dir="$(mktemp -d -t bench-pairs.XXXXXX)"
fi
mkdir -p "$out_dir"
out_dir="$(cd "$out_dir" && pwd)"
echo "bench_pairs: results in $out_dir" >&2

status=0
run_side() {  # side dir workload seed
  local json="$out_dir/$3/$1-$4.json" log="$out_dir/$3/$1-$4.log"
  echo "bench_pairs: $3 seed $4 $1" >&2
  if ! (cd "$2" && bash benchmark/run.sh --workload "$3" --seed "$4" \
          --seconds "$seconds" --trace 0 --out "$json") >"$log" 2>&1; then
    echo "bench_pairs: $3 seed $4 $1 failed (see $log)" >&2
    status=1
  fi
}

seeds=""
for ((k = 0; k < pairs; ++k)); do seeds+="$((seed_base + k)) "; done
for w in $workloads; do
  mkdir -p "$out_dir/$w"
  for ((k = 0; k < pairs; ++k)); do
    seed=$((seed_base + k))
    if ((k % 2 == 0)); then
      run_side parent "$parent" "$w" "$seed"
      run_side change "$change" "$w" "$seed"
    else
      run_side change "$change" "$w" "$seed"
      run_side parent "$parent" "$w" "$seed"
    fi
  done
done

python3 - "$bench_json" "$out_dir" "$workloads" "$seeds" <<'EOF' || status=1
import json
import math
import statistics
import sys

bench = json.load(open(sys.argv[1]))
out_dir, workloads, seeds = sys.argv[2], sys.argv[3].split(), sys.argv[4].split()
failures = []
counts = {}  # (workload, side) -> [(rounds, recovery_s samples), ...]


def load(workload, side, seed):
    path = f"{out_dir}/{workload}/{side}-{seed}.json"
    try:
        with open(path) as f:
            entry = json.load(f)[0]
    except (OSError, ValueError, IndexError) as e:
        failures.append(f"{workload} seed {seed} {side}: no result ({e})")
        return None
    if not entry.get("correct", False) or entry.get("failed", 1) != 0:
        failures.append(f"{workload} seed {seed} {side}: correct="
                        f"{entry.get('correct')} failed={entry.get('failed')}")
    counts.setdefault((workload, side), []).append(
        (entry.get("rounds", 0), entry.get("samples", {}).get("recovery_s", 0)))
    return {name: m["value"] for name, m in entry["metrics"].items()}


def count_cell(xs):
    return f"{statistics.median(xs):g} [{min(xs)}, {max(xs)}]" if xs else "-"


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def spread(q):
    return (q[2] - q[0]) / q[1] if q[1] else math.inf


print(f"{'workload':<16}{'metric':<14}{'parent median [q1, q3]':>38}"
      f"{'change median [q1, q3]':>38}{'ratio':>8}{'wins':>8}"
      f"{'bound':>6}  verdict")
for w in workloads:
    runs = {s: (load(w, "parent", s), load(w, "change", s)) for s in seeds}
    runs = {s: r for s, r in runs.items() if r[0] is not None and r[1] is not None}
    for s, (p, c) in runs.items():
        if p["energy_total"] != c["energy_total"]:
            failures.append(f"{w} seed {s}: energy_total {p['energy_total']!r}"
                            f" (parent) != {c['energy_total']!r} (change)")
    if not runs:
        continue
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        higher = metric["better"] == "higher"
        ps = [r[0][name] for r in runs.values()]
        cs = [r[1][name] for r in runs.values()]
        pq, cq = quartiles(ps), quartiles(cs)
        better = [(c > p) if higher else (c < p) for p, c in zip(ps, cs)]
        wins = sum(better)
        gain = cq[1] - pq[1] if higher else pq[1] - cq[1]
        if name == "energy_total":
            verdict = "identical" if ps == cs else "DIFFERS"
        elif (len(ps) >= 10 and wins >= math.ceil(0.9 * len(ps))
              and gain > pq[2] - pq[0]):
            verdict = "gain"
        elif pq[1] == 0 or max(spread(pq), spread(cq)) > bound:
            # Too noisy to bound, unless the change is better on every run.
            all_better = (min(cs) > max(ps)) if higher else (max(cs) < min(ps))
            verdict = "better" if all_better else "unresolved"
        else:
            verdict = "within" if -gain / pq[1] <= bound else "WORSE"
        ratio = cq[1] / pq[1] if pq[1] else math.inf
        p_cell = f"{pq[1]:.5g} [{pq[0]:.5g}, {pq[2]:.5g}]"
        c_cell = f"{cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}]"
        print(f"{w:<16}{name:<14}{p_cell:>38}{c_cell:>38}{ratio:>8.3f}"
              f"{wins:>4}/{len(ps):<3}{bound:>6.2f}  {verdict}")
    for i, what in enumerate(("rounds", "restarts")):
        p_cell, c_cell = (count_cell([c[i] for c in counts.get((w, side), [])])
                          for side in ("parent", "change"))
        print(f"{w:<16}{what:<14}{p_cell:>38}{c_cell:>38}")

for f in failures:
    print(f"bench_pairs: CORRECTNESS: {f}", file=sys.stderr)
sys.exit(1 if failures else 0)
EOF
exit "$status"
