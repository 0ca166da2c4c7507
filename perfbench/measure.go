package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// mark is one reading of the process counters the untraced run reports.
type mark struct {
	wallNs     int64
	cpuNs      int64 // user + system, whole process
	lostNs     int64 // simulation thread ready but not running
	mallocs    uint64
	allocBytes uint64
	numGC      uint32
	gcPauseNs  uint64
	gcCPU      float64 // runtime estimate, /cpu/classes/gc/total
	totalCPU   float64 // runtime estimate, /cpu/classes/total
}

var cpuClassMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

// readMark samples every counter. It stops the world briefly for
// ReadMemStats; the untraced run calls it only at the two ends of each cell.
func readMark(base time.Time, thr simThread) (mark, error) {
	lost, err := thr.lostNs()
	if err != nil {
		return mark{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := make([]metrics.Sample, len(cpuClassMetrics))
	for i, name := range cpuClassMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	m := mark{
		wallNs:     int64(time.Since(base)),
		cpuNs:      processCPUNs(),
		lostNs:     lost,
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		numGC:      ms.NumGC,
		gcPauseNs:  ms.PauseTotalNs,
	}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		m.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		m.totalCPU = samples[1].Value.Float64()
	}
	return m, nil
}

func processCPUNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// probe is the Clock an untraced RunPolicy call receives. RunPolicy reads it
// exactly twice, before fleet construction and after the report fold, so
// the two marks bracket precisely the phase RunPolicy times.
type probe struct {
	base  time.Time
	thr   simThread
	marks []mark
	err   error // the first failed reading
}

func (p *probe) clock() int64 {
	m, err := readMark(p.base, p.thr)
	if err != nil && p.err == nil {
		p.err = err
	}
	p.marks = append(p.marks, m)
	return m.wallNs
}

// heapAfterGC reads the live-heap shape the last GC left behind: scannable
// heap bytes and live objects. Read right after RunPolicy returns, the last
// GC is the one RunPolicy forced with the simulation still reachable.
func heapAfterGC() (scanBytes, objects uint64) {
	samples := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}, {Name: "/gc/heap/objects:objects"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindUint64 {
		scanBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		objects = samples[1].Value.Uint64()
	}
	return scanBytes, objects
}

// liveHeap forces a collection and returns the live heap.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// resetPeakRSS starts a new peak-resident-set window: VmHWM drops to the
// current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) since the last
// resetPeakRSS.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// cpuModel names the host CPU for the provenance record.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return fmt.Sprintf("unknown (%v)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
