package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Keep-awake. On a virtual machine an idle vCPU halts, and waking it goes
// through the hypervisor: how long that takes depends on what the host's
// other tenants are doing. The codec's one caller spends most of a frame on
// one core and wakes the other for each short parallel section, so that
// wake-up is on the blocking path thousands of times a second. Sizing on
// the reference VM: dense-inter ran whole minutes at 34 frames/s, then
// minutes at 43, the same binary on the same inputs; at GOMAXPROCS=1 the
// two modes vanish, and with the vCPUs kept out of halt every run is the
// fast one (cycle times within 4 %). So, while it measures, the harness
// runs one idle-priority spinner per CPU, each a process of its own: any
// runnable thread of the benchmark preempts it at once, its CPU time is
// not the benchmark's (getrusage), and the program under test is untouched.
// Off a hypervisor nothing is started: there a spinner would only take
// execution units from a hyper-thread sibling.

const keepAwakeArg = "keep-awake"

// schedIdle is SCHED_IDLE with SCHED_RESET_ON_FORK, so a thread the Go
// runtime clones from the spinner does not inherit the policy.
const schedIdle = 5 | 0x40000000

func virtualised() bool {
	info, err := os.ReadFile("/proc/cpuinfo")
	return err == nil && bytes.Contains(info, []byte(" hypervisor"))
}

// startKeepAwake starts the spinners and returns the function that stops
// them and waits until each has ended.
func startKeepAwake() (stop func()) {
	if !virtualised() {
		return func() {}
	}
	exe, err := os.Executable()
	if err != nil {
		return func() {}
	}
	type child struct {
		cmd   *exec.Cmd
		stdin io.WriteCloser
	}
	var children []child
	for k := 0; k < runtime.NumCPU(); k++ {
		cmd := exec.Command(exe, keepAwakeArg, strconv.Itoa(k))
		stdin, err := cmd.StdinPipe()
		if err != nil {
			continue
		}
		if err := cmd.Start(); err != nil {
			stdin.Close()
			fmt.Fprintln(os.Stderr, "bench: keep-awake:", err)
			continue
		}
		children = append(children, child{cmd, stdin})
	}
	return func() {
		for _, c := range children {
			c.stdin.Close()
			// Kill as well: an idle-priority process may wait long for the
			// CPU it needs to notice the closed pipe.
			_ = c.cmd.Process.Kill()
			_ = c.cmd.Wait()
		}
	}
}

// keepAwakeMain is the spinner process: pinned to the k-th CPU it may run
// on, at idle priority, until its standard input closes — which it does
// when the benchmark stops it or dies.
func keepAwakeMain(arg string) {
	k, err := strconv.Atoi(arg)
	if err != nil {
		os.Exit(2)
	}
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	runtime.LockOSThread()
	var mask [16]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))); e != 0 {
		os.Exit(1)
	}
	cpu := -1
	for i := 0; i < len(mask)*64; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			if k == 0 {
				cpu = i
				break
			}
			k--
		}
	}
	if cpu < 0 {
		os.Exit(1)
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))); e != 0 {
		os.Exit(1)
	}
	// Without idle priority the spinner would compete with the benchmark.
	var prio int32 // struct sched_param
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); e != 0 {
		os.Exit(1)
	}
	for {
	}
}
