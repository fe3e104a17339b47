package main

// Host-side measurements: the host clock, hypervisor steal, process CPU
// time and resident memory.  None of them reaches a simulation.

import (
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostNow reads the host clock.  The benchmark times the simulator from
// outside; no value it reads reaches a simulation.
func hostNow() time.Time {
	return time.Now() //detlint:allow wallclock: the benchmark measures host time, outside any simulation
}

// stopwatch measures host time net of hypervisor steal.  On a shared VM
// the host deschedules the guest's CPUs at will, and the stolen time lands
// in wall time at random; it is no cost of the program.  The kernel counts
// it per CPU in /proc/stat, and process CPU time excludes it.  While the
// process keeps p = cpu/wall CPUs busy, stolen CPU time s costs it s/p of
// wall time (all of s when p < 1), which elapsed subtracts.  Where the
// counters are missing the raw wall time stands.
type stopwatch struct {
	t0         time.Time
	steal, cpu float64
}

func startStopwatch() stopwatch {
	return stopwatch{t0: hostNow(), steal: stealSeconds(), cpu: cpuSeconds()}
}

// elapsed returns the host time since start net of steal, and raw.
func (s stopwatch) elapsed() (net, raw time.Duration) {
	raw = hostNow().Sub(s.t0)
	stolen, cpu := stealSeconds()-s.steal, cpuSeconds()-s.cpu
	if stolen <= 0 || cpu <= 0 {
		return raw, raw
	}
	lost := stolen * min(1, raw.Seconds()/cpu)
	return raw - time.Duration(lost*float64(time.Second)), raw
}

// userHZ is the tick rate of /proc/stat's counters (USER_HZ), 100 on
// every Linux platform Go supports.
const userHZ = 100

// stealSeconds returns the steal time of all CPUs from /proc/stat's
// summary line (0 if unavailable).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / userHZ
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS frees what earlier work left behind and restarts the
// kernel's peak-RSS count.  Where the kernel does not support the reset,
// the peak includes earlier work.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// Writing "5" to clear_refs resets VmHWM to the current RSS.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's VmHWM in MB (0 if unavailable).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
