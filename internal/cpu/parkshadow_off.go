//go:build !invariants

package cpu

// parkShadow is the disabled build of the parked-load shadow checker: a
// zero-size field on CPU whose no-op method inlines away. Build with
// -tags invariants to enable the cross-check in parkshadow_on.go.
type parkShadow struct{}

func (parkShadow) checkParked(c *CPU, idxs []int) {}
