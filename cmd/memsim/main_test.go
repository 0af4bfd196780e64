package main

import (
	"math"
	"strings"
	"testing"

	"burstmem/internal/workload"
)

func TestProfileMemFrac(t *testing.T) {
	def, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		memfrac float64
		want    float64 // resulting MemFraction; negative = error expected
	}{
		{0, def.MemFraction},
		{0.25, 0.25},
		{1, 1},
		{-0.1, -1},
		{1.5, -1},
		{math.NaN(), -1},
	} {
		prof, err := profile("swim", 0, tc.memfrac)
		if tc.want < 0 {
			if err == nil || !strings.Contains(err.Error(), "-memfrac") {
				t.Errorf("memfrac %v: got %v, want a -memfrac range error", tc.memfrac, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("memfrac %v: %v", tc.memfrac, err)
		} else if prof.MemFraction != tc.want {
			t.Errorf("memfrac %v: MemFraction %v, want %v", tc.memfrac, prof.MemFraction, tc.want)
		}
	}
	if prof, err := profile("swim", 7, 0); err != nil || prof.Seed != 7 {
		t.Errorf("seed override: %+v, %v", prof, err)
	}
}
