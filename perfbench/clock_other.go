//go:build !amd64

package main

import "time"

var clockBase = time.Now()

// ticks reads the monotonic clock, in nanoseconds since start-up.
func ticks() int64 { return int64(time.Since(clockBase)) }
