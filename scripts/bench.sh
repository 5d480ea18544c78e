#!/usr/bin/env bash
# bench.sh — run a benchmark suite and emit a machine-readable BENCH_*.json
# so the perf trajectory is tracked PR-over-PR (CI uploads the files as
# non-gating artifacts).
#
# Usage: scripts/bench.sh [suite] [output.json]
#
# Suites:
#   simcore (default) — simulator-core hot-path benchmarks:
#     internal/sim:    BenchmarkSimRun            (fresh engine vs reused Runner)
#     internal/eventq: BenchmarkEventQueue        (steady-state Push+Pop)
#     internal/model:  BenchmarkCPAQuery          (Remaining / ExpectedUtility)
#     internal/model:  BenchmarkOnlineSimTick     (per-tick online prediction)
#     root:            BenchmarkSimulatorThroughput (job F, 6139 vertices;
#                      one-shot, reused traced Runner, completion-only)
#     root:            BenchmarkCPABuild/guard-rebuild (one guard re-profile:
#                      16-allocation grid x 8 runs, one worker, job E)
#   grid — experiment-executor benchmarks (run once each; a single grid
#   iteration already replays dozens of cluster simulations):
#     internal/cluster:     BenchmarkEngineFresh/Reuse (arena reuse win)
#     internal/experiments: BenchmarkGridSerial/Parallel (robustness grid)
#   fleet — fleet-arbiter benchmarks (one full multi-job replay per
#   iteration, models and engine warmed outside the timed loop):
#     internal/fleet: BenchmarkFleetReplay
#   largecluster — cosmos-scale engine benchmarks (the PR-9 scale contract;
#   one iteration replays a full multi-hour horizon, so counts are fixed):
#     internal/cluster: BenchmarkEngineLargeCluster (10k machines, ≥1e5 tasks)
#     internal/cluster: BenchmarkEngineMidCluster   (1/10 scale trend line)
#   fleetscale — thousands-of-jobs arbitration + arrival-wave batching (the
#   fleet-scale contract, DESIGN.md §15) and the incremental scheduling pass
#   (§14):
#     internal/fleet:   BenchmarkFleetScaleReplay (2,400-offer replay)
#     internal/eventq:  BenchmarkArrivalWaveSingle/Batch (5e5-event wave)
#     internal/cluster: BenchmarkReschedulePerEvent (10/100/1,000 live jobs)
#
# Output files may carry hand-added "baseline_*" blocks recording pre-change
# numbers (BENCH_largecluster.json, BENCH_fleetscale.json and
# BENCH_simcore.json do); those are history, so the script
# refuses to clobber such a file unless BENCH_FORCE=1 is set — re-point the
# output or merge the fresh "benchmarks" array by hand instead.
set -euo pipefail

cd "$(dirname "$0")/.."
SUITE="${1:-simcore}"
OUT="${2:-BENCH_${SUITE}.json}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

if [ -e "$OUT" ] && grep -q '"baseline' "$OUT" && [ "${BENCH_FORCE:-0}" != "1" ]; then
  echo "bench.sh: $OUT holds a hand-added baseline block; refusing to overwrite it." >&2
  echo "bench.sh: pass a different output path, or set BENCH_FORCE=1 and re-add the baseline." >&2
  exit 3
fi

run() { # run <package> <bench regex> [benchtime]
  go test -run NONE -bench "$2" -benchmem -benchtime "${3:-${BENCHTIME:-1s}}" -count 1 "$1" | tee -a "$TMP"
}

: >"$TMP"
case "$SUITE" in
simcore)
  run ./internal/sim 'BenchmarkSimRun'
  run ./internal/eventq 'BenchmarkEventQueue'
  run ./internal/model 'BenchmarkCPAQuery|BenchmarkOnlineSimTick'
  run . 'BenchmarkSimulatorThroughput'
  run . 'BenchmarkCPABuild/guard-rebuild'
  ;;
grid)
  run ./internal/cluster 'BenchmarkEngine(Fresh|Reuse)$' "${BENCHTIME:-1x}"
  run ./internal/experiments 'BenchmarkGrid' "${BENCHTIME:-1x}"
  ;;
fleet)
  run ./internal/fleet 'BenchmarkFleet' "${BENCHTIME:-5x}"
  ;;
largecluster)
  run ./internal/cluster 'BenchmarkEngineMidCluster$' "${BENCHTIME:-3x}"
  run ./internal/cluster 'BenchmarkEngineLargeCluster$' "${BENCHTIME:-3x}"
  ;;
fleetscale)
  run ./internal/fleet 'BenchmarkFleetScaleReplay$' "${BENCHTIME:-3x}"
  run ./internal/eventq 'BenchmarkArrivalWave' "${BENCHTIME:-5x}"
  run ./internal/cluster 'BenchmarkReschedulePerEvent' "${BENCHTIME:-3x}"
  ;;
*)
  echo "bench.sh: unknown suite '$SUITE' (want simcore, grid, fleet, largecluster or fleetscale)" >&2
  exit 2
  ;;
esac

# Parse `BenchmarkName-N  iters  X ns/op  Y B/op  Z allocs/op [extra metrics]`
# into JSON. awk keeps the script dependency-free (no jq in the container).
# Every suite gets the same metadata header — suite, timestamp, toolchain,
# benchtime — so files are comparable PR-over-PR without guessing how they
# were produced.
GOVER="$(go env GOVERSION)"
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v suite="$SUITE" \
  -v gover="$GOVER" -v benchtime="${BENCHTIME:-suite-default}" '
BEGIN { n = 0 }
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name) # strip GOMAXPROCS suffix
  ns = ""; bytes = ""; allocs = ""; nsev = ""
  for (i = 2; i < NF; i++) {
    if ($(i + 1) == "ns/op") ns = $i
    if ($(i + 1) == "B/op") bytes = $i
    if ($(i + 1) == "allocs/op") allocs = $i
    if ($(i + 1) == "ns/event") nsev = $i
  }
  if (ns == "") next
  line = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s", name, ns)
  if (nsev != "") line = line sprintf(", \"ns_per_event\": %s", nsev)
  if (bytes != "") line = line sprintf(", \"bytes_per_op\": %s", bytes)
  if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
  line = line "}"
  rows[n++] = line
}
END {
  printf "{\n  \"suite\": \"%s\",\n  \"generated\": \"%s\",\n  \"go\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n", suite, date, gover, benchtime
  for (i = 0; i < n; i++) printf "%s%s\n", rows[i], (i < n - 1 ? "," : "")
  printf "  ]\n}\n"
}' "$TMP" >"$OUT"

echo "wrote $OUT ($(grep -c '"name"' "$OUT") benchmarks)"
