//go:build !unix

package main

import "time"

var processStart = time.Now()

// cpuTime falls back to wall time where getrusage is missing, so the CPU
// metrics stay non-zero (and read as one busy core).
func cpuTime() time.Duration { return time.Since(processStart) }
