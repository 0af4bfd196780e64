#!/usr/bin/env bash
# bench.sh — run the simulator throughput benchmark and record the results
# as BENCH_sim.json, so the perf trajectory is visible across PRs.
#
# Usage:
#   scripts/bench.sh            # full run (benchtime 3x, written to BENCH_sim.json)
#   scripts/bench.sh -short     # quick smoke run (1 iteration, no file written)
#
# Each JSON entry records the benchmark case, simulated memory cycles per
# wall-clock second, ns per run, bytes and allocations per run, and the
# steady-state allocation count (heap allocations inside the simulation
# loop, excluding system construction — a few hundred pool warm-up
# allocations per run when the allocation-free hot path holds, so growth
# here means a per-cycle allocation crept in).
#
# Full runs also record burstlint's wall time over ./... as a "burstlint"
# entry (with the shared call-graph/summary build as "burstlint_interproc"):
# the analyzers build per-function CFGs and run worklist solvers, and this
# keeps their cost on the same trajectory chart as the simulator itself.
set -euo pipefail
cd "$(dirname "$0")/.."

# 10 iterations per case: the 1-CPU container swings ±20% run to run, and
# 3x samples were dominated by that noise.
BENCHTIME=10x
OUT=BENCH_sim.json
if [[ "${1:-}" == "-short" ]]; then
    BENCHTIME=1x
    OUT=""
fi

RAW=$(go test -run '^$' -bench 'BenchmarkSimThroughput' -benchmem -benchtime "$BENCHTIME" .)
echo "$RAW"

[[ -z "$OUT" ]] && exit 0

# Event-queue microbenchmarks: the per-operation cost of the hierarchical
# bitmap queue and the wheel underpinning every next-event lookup. These run
# at a fixed benchtime (they are nanosecond-scale; 3 iterations would be
# meaningless) and land in the same JSON so a queue regression is as visible
# as a simulator one.
QRAW=$(go test -run '^$' -bench 'BenchmarkEventQueue|BenchmarkEventWheel' -benchtime 2s ./internal/eventq/)
echo "$QRAW"

# Wall time of the full static-analysis suite (build of burstlint itself
# excluded: compile first, then time the lint run). -timing reports how
# long the shared interprocedural build — the CHA call graph plus effect
# summaries ("burstlint_interproc"), computed once and cached across the
# whole-program analyzers — took inside that total; it lands as its own
# entry so the interprocedural tier's cost is tracked separately from
# load/typecheck.
go build -o /tmp/burstlint.$$ ./cmd/burstlint
LINT_NS_START=$(date +%s%N)
LINT_TIMING=$(/tmp/burstlint.$$ -timing ./... 2>&1 >/dev/null)
LINT_NS_END=$(date +%s%N)
rm -f /tmp/burstlint.$$
LINT_MS=$(( (LINT_NS_END - LINT_NS_START) / 1000000 ))
INTERPROC_MS=$(echo "$LINT_TIMING" | awk '/^timing (callgraph|summary) /{ms += $3} END {print ms + 0}')
echo "burstlint ./...: ${LINT_MS} ms (interprocedural build: ${INTERPROC_MS} ms)"

{ echo "$RAW"; echo "$QRAW"; } | awk -v lint_ms="$LINT_MS" -v interproc_ms="$INTERPROC_MS" '
BEGIN { print "["; first = 1 }
/^BenchmarkEventQueue|^BenchmarkEventWheel/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)
    nsop = ""
    for (i = 2; i <= NF; i++) if ($(i+1) == "ns/op") nsop = $i
    if (nsop == "") next
    if (!first) print ","
    first = 0
    printf "  {\"case\": \"eventq/%s\", \"ns_per_op\": %s}", name, nsop
}
/^BenchmarkSimThroughput\// {
    name = $1
    sub(/^BenchmarkSimThroughput\//, "", name)
    sub(/-[0-9]+$/, "", name)
    nsop = ""; cyc = ""; bop = ""; aop = ""; hot = ""
    for (i = 2; i <= NF; i++) {
        if ($(i+1) == "ns/op") nsop = $i
        if ($(i+1) == "simcycles/s") cyc = $i
        if ($(i+1) == "B/op") bop = $i
        if ($(i+1) == "allocs/op") aop = $i
        if ($(i+1) == "hotallocs/op") hot = $i
    }
    if (!first) print ","
    first = 0
    printf "  {\"case\": \"%s\", \"simcycles_per_sec\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"steady_state_allocs_per_op\": %s}", name, cyc, nsop, bop, aop, hot
}
END {
    if (!first) print ","
    printf "  {\"case\": \"burstlint\", \"wall_ms\": %s},\n", lint_ms
    printf "  {\"case\": \"burstlint_interproc\", \"wall_ms\": %s}\n", interproc_ms
    print "]"
}
' > "$OUT"

echo "wrote $OUT"
