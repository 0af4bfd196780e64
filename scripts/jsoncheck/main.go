// jsoncheck validates JSON artifacts exported from CI.
//
// The default mode checks an exported Chrome trace file: the file must be
// well-formed JSON with a non-empty traceEvents array where every entry
// carries the mandatory trace_event fields. It is a build-free stand-in
// for loading the file in ui.perfetto.dev.
//
// With -bench the file is instead checked against the BENCH_sim.json
// shape: a non-empty JSON array of objects, each carrying a non-empty
// "case" string (the key every consumer joins on). Files that record lint
// timings (a "burstlint" entry is present) must carry the full family —
// burstlint and burstlint_interproc — each with a numeric wall_ms.
//
//	go run ./scripts/jsoncheck trace.json
//	go run ./scripts/jsoncheck -bench BENCH_sim.json
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func main() {
	args := os.Args[1:]
	bench := false
	if len(args) > 0 && args[0] == "-bench" {
		bench = true
		args = args[1:]
	}
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: jsoncheck [-bench] <file.json>")
		os.Exit(2)
	}
	data, err := os.ReadFile(args[0])
	fatal(err)
	if bench {
		checkBench(args[0], data)
		return
	}
	checkTrace(args[0], data)
}

func checkTrace(path string, data []byte) {
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	fatal(json.Unmarshal(data, &doc))
	if len(doc.TraceEvents) == 0 {
		fatal(fmt.Errorf("%s: empty traceEvents", path))
	}
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph == "" {
			fatal(fmt.Errorf("%s: event %d missing ph", path, i))
		}
		if _, ok := ev["pid"]; !ok {
			fatal(fmt.Errorf("%s: event %d missing pid", path, i))
		}
		if _, ok := ev["ts"]; ph != "M" && !ok {
			fatal(fmt.Errorf("%s: event %d (ph %q) missing ts", path, i, ph))
		}
	}
	fmt.Printf("%s: %d trace events OK\n", path, len(doc.TraceEvents))
}

func checkBench(path string, data []byte) {
	var entries []map[string]any
	fatal(json.Unmarshal(data, &entries))
	if len(entries) == 0 {
		fatal(fmt.Errorf("%s: empty benchmark entry array", path))
	}
	cases := map[string]map[string]any{}
	for i, e := range entries {
		name, _ := e["case"].(string)
		if name == "" {
			fatal(fmt.Errorf("%s: entry %d missing case", path, i))
		}
		cases[name] = e
	}
	// Files carrying lint timings (full bench.sh output, as opposed to the
	// one-entry CI perf gate) must carry the whole family, each with a
	// numeric wall_ms: a bench.sh edit that drops one silently would
	// otherwise erase its trajectory.
	if _, ok := cases["burstlint"]; ok {
		for _, name := range []string{"burstlint", "burstlint_interproc"} {
			e, ok := cases[name]
			if !ok {
				fatal(fmt.Errorf("%s: %q entry present but %q missing", path, "burstlint", name))
			}
			if _, ok := e["wall_ms"].(float64); !ok {
				fatal(fmt.Errorf("%s: %q entry has no numeric wall_ms", path, name))
			}
		}
	}
	fmt.Printf("%s: %d benchmark entries OK\n", path, len(entries))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "jsoncheck:", err)
		os.Exit(1)
	}
}
