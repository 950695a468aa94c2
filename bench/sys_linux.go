//go:build linux

package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// processCPU returns this process's cumulative user+system CPU time in
// microseconds.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	us := func(tv syscall.Timeval) int64 { return int64(tv.Sec)*1e6 + int64(tv.Usec) }
	return us(ru.Utime) + us(ru.Stime)
}

// peakRSSKB returns this process's peak resident set size in KiB. It reads
// VmHWM rather than getrusage's ru_maxrss: Linux carries ru_maxrss across
// exec, so a child's figure starts at whatever its parent had resident
// when it forked, which hides any child smaller than the generator.
func peakRSSKB() int64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// cpuMask is a sched_setaffinity bit mask (1024 CPUs).
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func setAffinity(tid int, m *cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// splitCPUs divides the CPUs this process may run on: the first for the
// load generator, the rest for the server child. ok is false when there is
// nothing to divide (one CPU, or the mask cannot be read).
func splitCPUs() (gen, server cpuMask, ok bool) {
	var allowed cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return gen, server, false
	}
	n := 0
	for cpu := 0; cpu < len(allowed)*64; cpu++ {
		if !allowed.has(cpu) {
			continue
		}
		if n == 0 {
			gen.set(cpu)
		} else {
			server.set(cpu)
		}
		n++
	}
	return gen, server, n >= 2
}

// pinProcess confines every thread of this process to m. Threads started
// later inherit the mask of the thread that starts them. Best effort: a
// sandbox that forbids it just leaves the kernel to place threads.
func pinProcess(m *cpuMask) {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			_ = setAffinity(tid, m)
		}
	}
}

// startPinned starts cmd confined to m: the child inherits the affinity of
// the thread that forks it, so this thread borrows the mask for the fork
// and takes restore back afterwards.
func startPinned(cmd *exec.Cmd, m, restore *cpuMask) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, m); err != nil {
		return cmd.Start()
	}
	defer func() { _ = setAffinity(0, restore) }()
	return cmd.Start()
}
