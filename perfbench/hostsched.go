package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// userHZ is the unit of the CPU times in /proc/stat: USER_HZ, which is 100
// on every architecture Linux and Go support together.
const userHZ = 100

// simThread is the OS thread that runs every simulation cell, pinned to one
// CPU so that the hypervisor's steal time on that CPU is time taken from the
// simulation and from nothing else of this process.
type simThread struct {
	tid int
	cpu int
}

// pinSimThread locks the calling goroutine to its OS thread and that thread
// to the highest-numbered CPU it may run on, which takes the fewest device
// interrupts. It reads the lost time once, so that a host without the
// counters fails here rather than in the middle of a run.
func pinSimThread() (simThread, error) {
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return simThread{}, fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu := -1
	for i := len(mask)*64 - 1; i >= 0 && cpu < 0; i-- {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return simThread{}, fmt.Errorf("sched_getaffinity: empty CPU set")
	}
	var one [16]uint64
	one[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 {
		return simThread{}, fmt.Errorf("sched_setaffinity: %w", e)
	}
	t := simThread{tid: syscall.Gettid(), cpu: cpu}
	if _, err := t.lostNs(); err != nil {
		return simThread{}, err
	}
	return t, nil
}

// lostNs is the time so far that the simulation thread was ready to run but
// did not: its wait in this machine's run queue (schedstat run_delay), plus
// the steal time of its CPU, during which the hypervisor ran another
// tenant's work there. Neither is work the simulator did or caused.
func (t simThread) lostNs() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/self/task/%d/schedstat", t.tid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("schedstat %q: no run_delay field", data)
	}
	wait, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat run_delay: %w", err)
	}
	steal, err := stealNs(t.cpu)
	if err != nil {
		return 0, err
	}
	return wait + steal, nil
}

// stealNs reads one CPU's steal time from /proc/stat.
func stealNs(cpu int) (int64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	label := "cpu" + strconv.Itoa(cpu)
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != label {
			continue
		}
		// cpuN user nice system idle iowait irq softirq steal ...
		if len(f) < 9 {
			return 0, fmt.Errorf("/proc/stat %s line has no steal field", label)
		}
		ticks, err := strconv.ParseInt(f[8], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/stat %s steal: %w", label, err)
		}
		return ticks * (1e9 / userHZ), nil
	}
	return 0, fmt.Errorf("/proc/stat has no %s line", label)
}
