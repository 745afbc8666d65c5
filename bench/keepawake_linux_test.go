package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestKeepAwakeStops: stop returns only once every spinner has ended, so
// a run leaves no process behind.
func TestKeepAwakeStops(t *testing.T) {
	if !virtualised() {
		t.Skip("spinners only start on a virtual machine")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	spinners := func() (n int) {
		procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
		for _, p := range procs {
			b, err := os.ReadFile(p)
			if err == nil && strings.Contains(string(b), "\x00"+keepAwakeArg+"\x00") && strings.HasPrefix(string(b), exe+"\x00") {
				n++
			}
		}
		return n
	}
	stop := startKeepAwake()
	if got := spinners(); got != runtime.NumCPU() {
		t.Errorf("%d spinners running, want one per CPU (%d)", got, runtime.NumCPU())
	}
	stop()
	if got := spinners(); got != 0 {
		t.Errorf("%d spinners still running after stop", got)
	}
}
