package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// shareGroups are the layer_share.<pkg> metrics: burstmem's internal
// packages that the workloads run, the Go runtime, and everything else.
var shareGroups = []string{
	"addrmap", "bus", "cache", "core", "cpu", "deque", "dram", "eventq", "memctrl",
	"sched", "sim", "stats", "u64map", "workload", "xrand", "runtime", "other",
}

// layerGroup maps each traced layer onto the coarse group it is compared
// under; packageGroup does the same for profiled packages.
var layerGroup = [numLayers]string{
	lSim: "sim", lGen: "sim", lWorkload: "workload", lCPU: "cpu",
	lL1: "cache", lL2: "cache", lBus: "bus", lMemctrl: "memctrl",
}

var layerGroupOrder = []string{"sim", "workload", "cpu", "cache", "bus", "memctrl"}

var packageGroup = map[string]string{
	"workload": "workload", "xrand": "workload",
	"cpu":   "cpu",
	"cache": "cache", "u64map": "cache", "deque": "cache",
	"bus":     "bus",
	"memctrl": "memctrl", "core": "memctrl", "sched": "memctrl", "dram": "memctrl",
	"addrmap": "memctrl", "eventq": "memctrl", "stats": "memctrl",
	"sim": "sim", "runtime": "sim", "other": "sim",
}

// disagreementLimit is the largest share difference between the
// wrapper-timed and the profiled split that passes without a warning.
const disagreementLimit = 0.10

// groupShare sums the profiled package shares of one coarse group.
func groupShare(shares map[string]float64, group string) float64 {
	var s float64
	for pkg, v := range shares {
		if packageGroup[pkg] == group {
			s += v
		}
	}
	return s
}

// profileShares runs fn under the CPU profiler and returns each package
// group's share of the flat (leaf-function) CPU time.
func profileShares(fn func() error) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	flat, err := flatByFunction(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var total float64
	shares := map[string]float64{}
	for name, v := range flat {
		shares[shareGroup(name)] += v
		total += v
	}
	for g := range shares {
		shares[g] /= total
	}
	return shares, nil
}

// shareGroup names the group of a fully qualified function name such as
// "burstmem/internal/cache.(*Cache).AccessLoad".
func shareGroup(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") {
		return "runtime"
	}
	if short, ok := strings.CutPrefix(pkg, "burstmem/internal/"); ok {
		if _, known := packageGroup[short]; known {
			return short
		}
	}
	return "other"
}

// flatByFunction decodes a gzipped pprof CPU profile and sums the last
// sample value (CPU nanoseconds) by leaf function. It reads only the
// profile.proto fields it needs: samples, locations, functions and the
// string table.
func flatByFunction(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		loc   uint64
		value int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{} // location id -> innermost function id
	funcName := map[uint64]int64{} // function id -> string index
	var strs []string
	err = eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var locs []uint64
			var vals []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				s.loc, s.value = locs[0], int64(vals[len(vals)-1])
				samples = append(samples, s)
			}
		case 4: // Location
			var id, fn uint64
			seenLine := false
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					// The first Line is the innermost inlined function.
					if !seenLine {
						seenLine = true
						return eachField(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	flat := map[string]float64{}
	for _, s := range samples {
		name := "?"
		if idx, ok := funcName[locFunc[s.loc]]; ok && idx >= 0 && idx < int64(len(strs)) {
			name = strs[idx]
		}
		flat[name] += float64(s.value)
	}
	if len(flat) == 0 {
		return nil, errors.New("no samples")
	}
	return flat, nil
}

// appendPacked appends a repeated varint field's values, whether encoded
// one per field (b nil) or packed into one length-delimited field.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks a protobuf message, calling fn with each field number
// and either its varint value (b nil) or its length-delimited bytes.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
