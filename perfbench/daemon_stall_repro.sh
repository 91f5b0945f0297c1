#!/usr/bin/env bash
# Reproducer for a known defect: iec104d stalls under a full-speed replay.
#
#   bash perfbench/daemon_stall_repro.sh [PACE]
#
# Builds iec104d and iec104_fleet into .bench_build/repro, starts the
# daemon expecting the 91 streams of a 1200 s Y1 fleet, and replays that
# fleet at PACE (default 0 = full speed). It prints the fleet's exit code,
# the daemon's final stats line and how long the fleet ran. See
# perfbench/README.md, "Known defect", for the numbers it gave; it is not
# a benchmark workload.
set -euo pipefail

pace="${1:-0}"
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build/repro"
work="$build/run"
mkdir -p "$work"

if ! { cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
       cmake --build "$build" -j "$(nproc)" --target iec104d iec104_fleet; } \
     >"$build/build.log" 2>&1; then
  cat "$build/build.log" >&2
  exit 1
fi

daemon_log="$work/daemon.log"
"$build/examples/iec104d" --port 0 --expect-streams 91 --drain-when-done \
  --run-for 300 >"$work/daemon.out" 2>"$daemon_log" &
daemon=$!
trap 'kill "$daemon" 2>/dev/null || true; wait "$daemon" 2>/dev/null || true' EXIT

port=""
for _ in $(seq 100); do
  port="$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$work/daemon.out")"
  [ -n "$port" ] && break
  sleep 0.1
done
[ -n "$port" ] || { echo "daemon did not start" >&2; exit 1; }

start=$(date +%s)
set +e
"$build/examples/iec104_fleet" --connect "127.0.0.1:$port" --year 1 \
  --duration 1200 --pace "$pace"
fleet_rc=$?
set -e
echo "fleet exit code $fleet_rc after $(( $(date +%s) - start )) s at pace $pace"
kill -TERM "$daemon" 2>/dev/null || true
wait "$daemon" 2>/dev/null || true
trap - EXIT
grep -E "draining:|condemn|watchdog|recovery" "$daemon_log" | tail -n 20 || true
