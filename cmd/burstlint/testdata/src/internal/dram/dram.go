// Package dram is burstlint golden-test data for the interprocedural
// tier: its import path ends in internal/dram, putting it in the detflow
// simulation scope.
package dram

import "burstmem/cmd/burstlint/testdata/src/helpers"

// boundary crosses into the out-of-scope helpers package, which reaches
// the wall clock (detflow).
func boundary() int64 {
	return helpers.Stamp()
}
