package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// reference holds the digests of every simulation's statistics for the
// default seed, recorded with -record at the commit that defined the
// benchmark. A change that alters any simulated statistic fails the
// default-seed check until the reference is recorded again.
type reference struct {
	Seed      int64                        `json:"seed"`
	Workloads map[string]map[string]string `json:"workloads"`
}

func loadReference(data []byte) (reference, error) {
	var r reference
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("reference.json: %w", err)
	}
	return r, nil
}

// forWorkload returns the expected digests, or nil when the seed has no
// reference.
func (r reference) forWorkload(name string, seed int64) map[string]string {
	if seed != r.Seed {
		return nil
	}
	return r.Workloads[name]
}

// record runs one pass of every workload at the default seed and writes
// their digests to path.
func record(path string, log io.Writer) error {
	r := reference{Seed: defaultSeed, Workloads: map[string]map[string]string{}}
	for _, name := range workloadNames {
		b, err := newBench(name, defaultSeed, fullSize)
		if err != nil {
			return err
		}
		p, err := b.pass()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if len(p.failures) > 0 {
			return fmt.Errorf("%s: %d simulations failed their checks, first: %s", name, len(p.failures), p.failures[0])
		}
		r.Workloads[name] = p.digests
		fmt.Fprintf(log, "%s: %d digests\n", name, len(p.digests))
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
