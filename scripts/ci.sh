#!/usr/bin/env bash
# ci.sh — the full verification gate: static checks, build, race-enabled
# tests, and a short throughput benchmark smoke run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
# Any file gofmt would rewrite fails the gate (analyzer testdata excluded:
# some of it is unformatted on purpose).
unformatted=$(gofmt -l . | grep -v '/testdata/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt would reformat:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== burstlint =="
go run ./cmd/burstlint ./...

echo "== interprocedural tier (call graph, effect summaries) =="
# The burstlint stage above already fails if detflow/goroutcheck/leakcheck
# find anything on the tree; this stage runs the tier's own corpus tests so
# a regression in the machinery is caught even when the tree happens to
# give it nothing to report.
go test -count=1 \
    ./internal/analysis/callgraph/ ./internal/analysis/summary/ \
    ./internal/analysis/detflow/ ./internal/analysis/goroutcheck/ \
    ./internal/analysis/leakcheck/

echo "== burstlint golden (CLI output/exit-code contract) =="
go test -count=1 -run 'TestGolden|TestExitCode' ./cmd/burstlint/

echo "== go test -race (full tree; covers the sim/profiling/experiments concurrency set) =="
go test -race ./...

echo "== go test -tags invariants (protocol sanitizer armed) =="
go test -tags invariants ./internal/mctest/ ./internal/sim/ ./internal/dram/ ./internal/memctrl/ ./internal/cpu/

echo "== engine-bounds gate (cached-bound differential + shadow checks, eventq fuzz seeds) =="
# The controller engine answers "which banks can issue now" and "when is
# the next event" from cached issue bounds. The differential test compares
# both answers with CanIssue/EarliestIssue on every cycle of random traffic
# under every Table 4 mechanism; the invariants build arms the same
# comparison inside the engine (next event must equal the linear scan,
# readiness must equal CanIssue) on a live skipping simulation, and the
# trigger tests prove those checks fire. The eventq fuzz seeds replay the
# recorded operation sequences against the naive reference queue.
go test -count=1 -run 'TestEngineQueriesDifferential|TestEngineClearOngoing' ./internal/memctrl/
go test -count=1 -tags invariants -run 'TestEngineShadow|TestEngineQueriesDifferential' ./internal/memctrl/
go test -count=1 -tags invariants -run 'TestTraceSkipEquivalence' ./internal/sim/
go test -count=1 -run 'FuzzQueueDifferential|TestQueueDifferential|TestWheel' ./internal/eventq/

echo "== traced simulation (memsim -trace, exported JSON must parse) =="
tracetmp="$(mktemp -d)"
trap 'rm -rf "$tracetmp"' EXIT
go run ./cmd/memsim -bench swim -mech Burst_TH -n 50000 -warmup 20000 \
    -trace "$tracetmp/trace.json" -trace-interval 500 >/dev/null
go run ./scripts/jsoncheck "$tracetmp/trace.json"

echo "== invariants grid (DDR2 sanitizer over every experiment, output unchanged) =="
# The reduced full grid — every mechanism on every benchmark profile — runs
# once with the DDR2 protocol sanitizer and the engine/parking shadows armed
# and once without. Any timing violation panics the tagged run, and the two
# stdouts must be byte-identical: the checks only observe.
go run -tags invariants ./cmd/experiments -exp all -n 20000 -warmup 20000 > "$tracetmp/grid_invariants.txt"
go run ./cmd/experiments -exp all -n 20000 -warmup 20000 > "$tracetmp/grid_plain.txt"
cmp "$tracetmp/grid_invariants.txt" "$tracetmp/grid_plain.txt"

echo "== serial perf gate (swim/Burst_TH, same-host A/B against the parent) =="
# The baseline is measured on this host, in this run: the parent of the
# change under test and the working tree are built into two test binaries,
# which then run swim/Burst_TH one -benchtime 1x iteration at a time,
# alternately (the side that goes first swaps every pair), 9 times. The
# parent is HEAD when the working tree has uncommitted changes, else the
# merge-base with origin/main, else HEAD~1. The gate fails if the working
# tree's median simcycles/s is more than 10% below the base's median.
# Alternating keeps host drift out of the comparison; the median absorbs
# single noisy runs. The gate still targets structural regressions (an
# accidental O(n) scan, a lost fast path), not single-digit drift.
if ! git diff --quiet HEAD; then
    perf_base=HEAD
else
    perf_base=$(git merge-base HEAD origin/main 2>/dev/null || true)
    if [ -z "$perf_base" ] || [ "$(git rev-parse "$perf_base")" = "$(git rev-parse HEAD)" ]; then
        perf_base=HEAD~1
    fi
fi
perf_pairs=9
mkdir -p "$tracetmp/base"
git archive "$perf_base" | tar -x -C "$tracetmp/base"
(cd "$tracetmp/base" && go test -c -o "$tracetmp/base.test" .)
go test -c -o "$tracetmp/head.test" .
perf_run() { # $1 = base|head, $2 = its package dir; appends one simcycles/s sample to $tracetmp/$1.txt
    (cd "$2" && "$tracetmp/$1.test" -test.run '^$' -test.timeout 5m \
        -test.bench 'BenchmarkSimThroughput/swim/Burst_TH$' -test.benchtime 1x) \
        | awk '{ for (i = 2; i <= NF; i++) if ($i == "simcycles/s") v = $(i-1) } END { print v + 0 }' \
        >> "$tracetmp/$1.txt"
}
for i in $(seq "$perf_pairs"); do
    if (( i % 2 )); then
        perf_run base "$tracetmp/base"; perf_run head .
    else
        perf_run head .; perf_run base "$tracetmp/base"
    fi
done
median() { sort -n "$1" | awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'; }
baseline=$(median "$tracetmp/base.txt")
current=$(median "$tracetmp/head.txt")
printf '[\n  {"case": "swim/Burst_TH@%s", "simcycles_per_sec": %.0f},\n  {"case": "swim/Burst_TH", "simcycles_per_sec": %.0f}\n]\n' \
    "$(git rev-parse --short "$perf_base")" "$baseline" "$current" > "$tracetmp/perfgate.json"
go run ./scripts/jsoncheck -bench "$tracetmp/perfgate.json"
go run ./scripts/jsoncheck -bench BENCH_sim.json
awk -v cur="$current" -v base="$baseline" -v n="$perf_pairs" 'BEGIN {
    if (base + 0 <= 0) { print "FAIL: no swim/Burst_TH baseline measured"; exit 1 }
    if (cur + 0 < 0.9 * base) {
        printf "FAIL: swim/Burst_TH median %d simcycles/s is >10%% below the base median %d (floor %.0f, %d pairs)\n", cur, base, 0.9 * base, n
        exit 1
    }
    printf "ok: swim/Burst_TH median %d simcycles/s (base median %d, floor %.0f, %d pairs)\n", cur, base, 0.9 * base, n
}'

echo "== throughput bench (short) =="
scripts/bench.sh -short

echo "CI OK"
