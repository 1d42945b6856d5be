#!/usr/bin/env bash
# The growth run of ROADMAP item 9: one `esva serve` takes a VM trace in
# chunks through `esva client --place-vms`, and is SIGKILLed and restarted
# after each chunk, so each restart recovers a longer history.
#
#   scripts/growth_run.sh ESVA [--vms N] [--chunk K] [--out-dir D]
#
# ESVA is the esva binary. The trace is `esva generate --vms N --servers 500
# --seed 7`, and the daemon runs `--wal-sync-every 32 --snapshot-every 2048`,
# the period of esva-bench's fig2-durable. Defaults: 200,000 VMs in
# 25,000-VM chunks, and a fresh temporary directory, which is removed at the
# end; with --out-dir the trace, journal, snapshot and daemon logs are kept
# there.
#
# One row per chunk: the records journaled after it, the journal's and the
# snapshot's bytes at the kill, the phases of the restart that follows it
# (from its `recovered:` banner: total, setup, snapshot, read_wal, replay,
# in ms), the records that restart read, and the peak RSS (VmHWM) of the
# daemon that served the chunk.
#
# Exit status: 0 when every restart read fewer than 2,048 records, as it
# does when the journal is compacted at each snapshot; 1 when one read
# 2,048 or more, or a step failed or printed no number where one was
# expected; 2 on usage errors.
set -euo pipefail

usage() {
  echo "usage: scripts/growth_run.sh ESVA [--vms N] [--chunk K]" \
    "[--out-dir D]" >&2
  exit 2
}

[[ $# -ge 1 ]] || usage
esva="$1"
shift
[[ -x "$esva" ]] || { echo "growth_run: '$esva' is not executable" >&2; exit 2; }
vms=200000
chunk=25000
every=2048  # the daemon's --snapshot-every, and the bound on a restart's reads
out_dir=""
while [[ $# -gt 0 ]]; do
  [[ $# -ge 2 ]] || usage
  case "$1" in
    --vms) vms="$2" ;;
    --chunk) chunk="$2" ;;
    --out-dir) out_dir="$2" ;;
    *) usage ;;
  esac
  shift 2
done
for n in "$vms" "$chunk"; do
  [[ "$n" =~ ^[1-9][0-9]*$ ]] || usage
done

pid=""
stop_daemon() {
  if [[ -n "$pid" ]]; then
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    pid=""
  fi
}
if [[ -z "$out_dir" ]]; then
  dir="$(mktemp -d)"
  trap 'stop_daemon; rm -rf "$dir"' EXIT
else
  mkdir -p "$out_dir"
  dir="$(cd "$out_dir" && pwd)"
  trap 'stop_daemon' EXIT
fi
socket="$dir/d.sock"
wal="$dir/serve.wal"
snap="$dir/serve.snap"
rm -f "$wal" "$wal.tmp" "$snap" "$snap.tmp" "$socket" "$dir"/chunk.*

"$esva" generate --vms "$vms" --servers 500 --seed 7 \
  --out-vms "$dir/vms.csv" --out-servers "$dir/servers.csv" >/dev/null
# The trace is in start order, so consecutive rows make consecutive chunks.
tail -n +2 "$dir/vms.csv" | split -l "$chunk" -d -a 4 - "$dir/chunk."

# Starts a daemon logging to $1 and waits until it listens.
start_daemon() {
  "$esva" serve --servers "$dir/servers.csv" --socket "$socket" \
    --wal "$wal" --snapshot "$snap" --wal-sync-every 32 \
    --snapshot-every "$every" >"$1" 2>&1 &
  pid=$!
  for _ in $(seq 1 600); do
    grep -q '^listening on' "$1" && return 0
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  echo "growth_run: the daemon never listened; its log:" >&2
  cat "$1" >&2
  exit 1
}

size() { if [[ -e "$1" ]]; then stat -c %s "$1"; else echo 0; fi; }

# The number after `name=` or `name ` in the restart's banner.
banner=""
field() { sed -n "s/.*$1[= ]\([0-9.]*\).*/\1/p" <<<"$banner"; }

# Fails the run unless $2 is a number (digits, with a point when $3 is
# "decimal"): a renamed or missing field must not pass the bound below.
number() {
  local pattern='^[0-9]+$'
  [[ "${3:-}" == decimal ]] && pattern='^[0-9]+(\.[0-9]+)?$'
  [[ "$2" =~ $pattern ]] && return 0
  echo "growth_run: restart $k: no number for $1 (read '$2')" >&2
  exit 1
}

printf '%6s %8s %11s %11s %9s %8s %9s %9s %8s %7s %9s\n' chunk records \
  wal_bytes snap_bytes restart setup snapshot read_wal replay read \
  rss_mib
status=0
k=0
start_daemon "$dir/daemon.0.log"
for part in "$dir"/chunk.*; do
  k=$((k + 1))
  { head -n 1 "$dir/vms.csv"; cat "$part"; } >"$dir/place.csv"
  "$esva" client --socket "$socket" --place-vms "$dir/place.csv" >/dev/null
  stats="$("$esva" client --socket "$socket" --stats)"
  records="$(sed -n 's/.*"wal_seq":"\([0-9]*\)".*/\1/p' <<<"$stats")"
  rss_kib="$(awk '/^VmHWM:/ { print $2 }' "/proc/$pid/status")"
  stop_daemon
  wal_bytes="$(size "$wal")"
  snap_bytes="$(size "$snap")"
  start_daemon "$dir/daemon.$k.log"
  banner="$(grep '^recovered:' "$dir/daemon.$k.log" || true)"
  if [[ -z "$banner" ]]; then
    echo "growth_run: restart $k printed no recovered: banner" >&2
    exit 1
  fi
  read_records="$(field read)"
  total="$(field total_ms)"
  setup="$(field '(setup')"
  snapshot="$(field snapshot)"
  read_wal="$(field read_wal)"
  replay="$(field replay)"
  number records "$records"
  number VmHWM "$rss_kib"
  number read "$read_records"
  for ms in total setup snapshot read_wal replay; do
    number "$ms" "${!ms}" decimal
  done
  printf '%6s %8s %11s %11s %9s %8s %9s %9s %8s %7s %9.1f\n' "$k" \
    "$records" "$wal_bytes" "$snap_bytes" "$total" "$setup" "$snapshot" \
    "$read_wal" "$replay" "$read_records" \
    "$(awk -v k="$rss_kib" 'BEGIN { print k / 1024 }')"
  if ((read_records >= every)); then
    echo "growth_run: restart $k read $read_records records," \
      "not fewer than the snapshot period $every" >&2
    status=1
  fi
done
stop_daemon
rm -f "$dir"/chunk.* "$dir/place.csv"
exit "$status"
