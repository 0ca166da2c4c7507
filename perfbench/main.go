// Command perfbench is the repository benchmark: host cost per simulated
// VM-hour on three workloads, each driven through the simulator's public
// entry points, with every cell's simulated output checked.
//
//	perfbench --workload fleet-steady|paper-figures|storm-chaos
//	          [--seed 42] [--seconds 35] [--trace 0|1]
//
// With --trace 0 it reports the end-to-end metrics of an untraced run. With
// --trace 1 it alternates untraced and traced repetitions and reports the
// per-layer metrics; the traced run's report must equal the untraced one.
// The last line of standard output is the JSON result; the lines before it
// are the provenance record, the per-cell digests and the layer table.
// perfbench/run.py builds this program and runs it from the repository
// root; NOTES.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/experiments"
)

// setupRuns is how many times set-up runs; setup_s is their median.
const setupRuns = 51

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	spansDir   string
	commit     string
	sourceHash string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts options
	var traceFlag int
	fs.StringVar(&opts.workload, "workload", "", "fleet-steady, paper-figures or storm-chaos")
	fs.Int64Var(&opts.seed, "seed", 42, "input seed")
	fs.Float64Var(&opts.seconds, "seconds", 35, "measured phase length in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&opts.spansDir, "spans", filepath.Join(".bench_build", "spans"), "directory for the raw span sample")
	fs.StringVar(&opts.commit, "commit", "none", "source commit, for the provenance record")
	fs.StringVar(&opts.sourceHash, "source-sha256", "none", "source tree hash, for the provenance record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	opts.trace = traceFlag == 1
	w, err := workloadByName(opts.workload)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := bench(w, opts, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// cellOut is one untraced cell.
type cellOut struct {
	res     experiments.PolicyRunResult
	digest  string
	failure string
	vmHours float64
	start   mark
	end     mark
	// liveBytes is the simulation's post-GC live heap; scanBytes and
	// objects the heap shape at that same collection.
	liveBytes          float64
	scanBytes, objects uint64
}

// wallNs, cpuNs and allocs measure the cell's timed phase. wallNs leaves
// out lostNs, the time the simulation thread was ready to run while the
// host ran something else (see simThread.lostNs); rawWallNs keeps it.
func (c cellOut) wallNs() float64    { return c.rawWallNs() - c.lostNs() }
func (c cellOut) rawWallNs() float64 { return float64(c.end.wallNs - c.start.wallNs) }
func (c cellOut) lostNs() float64    { return float64(c.end.lostNs - c.start.lostNs) }
func (c cellOut) cpuNs() float64     { return float64(c.end.cpuNs - c.start.cpuNs) }
func (c cellOut) allocs() float64    { return float64(c.end.mallocs - c.start.mallocs) }

// repOut is one untraced repetition of the workload's cells.
type repOut struct {
	cells  []cellOut
	digest string
	// peakRSSMB is the process's peak resident set during the repetition.
	peakRSSMB float64
	rssErr    error
}

func (r repOut) sum(f func(c cellOut) float64) float64 {
	s := 0.0
	for _, c := range r.cells {
		s += f(c)
	}
	return s
}

func (r repOut) max(f func(c cellOut) float64) float64 {
	m := 0.0
	for _, c := range r.cells {
		m = math.Max(m, f(c))
	}
	return m
}

func (r repOut) vmHours() float64 { return r.sum(func(c cellOut) float64 { return c.vmHours }) }

func (r repOut) perVMHour(f func(c cellOut) float64) float64 { return r.sum(f) / r.vmHours() }

// medianOverReps is the median of a per-repetition value.
func medianOverReps(reps []repOut, f func(r repOut) float64) float64 {
	vals := make([]float64, len(reps))
	for i, r := range reps {
		vals[i] = f(r)
	}
	return median(vals)
}

// runUntraced runs every cell through experiments.RunPolicy with the probe
// as its Clock.
func runUntraced(in *inputs, base time.Time, thr simThread) repOut {
	var rep repOut
	rep.rssErr = resetPeakRSS()
	digests := make([]string, 0, len(in.cells))
	for _, cfg := range in.cells {
		baseline := liveHeap()
		p := &probe{base: base, thr: thr}
		cfg.Clock = p.clock
		res, err := experiments.RunPolicy(cfg)
		c := cellOut{res: res, failure: checkCell(res, err)}
		if c.failure == "" && p.err != nil {
			c.failure = fmt.Sprintf("reading the host counters: %v", p.err)
		}
		c.scanBytes, c.objects = heapAfterGC()
		c.vmHours = float64(res.VMs) * res.Horizon.Hours()
		if c.failure == "" && len(p.marks) != 2 {
			c.failure = fmt.Sprintf("RunPolicy read the clock %d times, want 2", len(p.marks))
		}
		if c.failure == "" {
			c.start, c.end = p.marks[0], p.marks[1]
			if res.LiveHeapBytes > baseline {
				c.liveBytes = float64(res.LiveHeapBytes - baseline)
			}
		}
		c.digest = cellDigest(res)
		digests = append(digests, c.digest)
		rep.cells = append(rep.cells, c)
	}
	rep.digest = digestAll(digests)
	if rep.rssErr == nil {
		rep.peakRSSMB, rep.rssErr = peakRSSMB()
	}
	return rep
}

// tracedRep is one traced repetition: its wall time, less the time the
// simulation thread lost to the host as in cellOut.wallNs, and its per-cell
// outputs.
type tracedRep struct {
	wallNs  int64
	vmHours float64
	cells   []tracedCell
	fails   []string
}

func runTracedRep(in *inputs, tr *tracer, thr simThread) tracedRep {
	var rep tracedRep
	for _, cfg := range in.cells {
		liveHeap() // same starting heap state as an untraced cell
		lost0, err0 := thr.lostNs()
		start := tr.now()
		tc, err := runTraced(cfg, tr)
		end := tr.now()
		lost1, err1 := thr.lostNs()
		rep.wallNs += end - start - (lost1 - lost0)
		rep.vmHours += float64(tc.res.VMs) * tc.res.Horizon.Hours()
		rep.cells = append(rep.cells, tc)
		why := checkCell(tc.res, err)
		if why == "" {
			if err := errors.Join(err0, err1); err != nil {
				why = fmt.Sprintf("reading the host counters: %v", err)
			}
		}
		rep.fails = append(rep.fails, why)
	}
	return rep
}

func bench(w workload, opts options, stdout io.Writer) (result, error) {
	prov := map[string]any{
		"workload":      w.name,
		"seed":          opts.seed,
		"seconds":       opts.seconds,
		"trace":         opts.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"cpu":           cpuModel(),
		"commit":        opts.commit,
		"source_sha256": opts.sourceHash,
	}
	provLine, err := json.Marshal(prov)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "provenance %s\n", provLine)

	// Every cell runs on this goroutine's thread, pinned to one CPU.
	thr, err := pinSimThread()
	if err != nil {
		return result{}, err
	}

	// Set-up: generate the inputs several times, keep the last.
	var in *inputs
	var setupS, genS, compileS []float64
	for i := 0; i < setupRuns; i++ {
		in = nil
		runtime.GC()
		start := time.Now()
		in, err = w.setup(opts.seed)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		genS = append(genS, in.genS)
		compileS = append(compileS, in.compileS)
	}
	if opts.trace && in.compileS > 0 {
		// Scenario set-up folds generation into compilation; time it alone.
		genS = genS[:0]
		for i := 0; i < setupRuns; i++ {
			runtime.GC()
			s, err := timeTraceGen(in.cells[0].Horizon)
			if err != nil {
				return result{}, err
			}
			genS = append(genS, s)
		}
	}

	// One untimed repetition first: the first run in a fresh process pays
	// for growing the heap from the OS, which no later repetition does.
	runUntraced(in, time.Now(), thr)

	// Measured phase: repeat the workload while one more repetition, as
	// long as the last, still ends within --seconds; there is always at
	// least one. Traced repetitions alternate with untraced ones, so both
	// see the same machine conditions.
	base := time.Now()
	var reps []repOut
	var traced []tracedRep
	tr := newTracer()
	var last float64
	for len(reps) == 0 || time.Since(base).Seconds()+last <= opts.seconds {
		start := time.Now()
		reps = append(reps, runUntraced(in, base, thr))
		if opts.trace {
			traced = append(traced, runTracedRep(in, tr, thr))
		}
		last = time.Since(start).Seconds()
	}

	// Output checks: every cell's accounting, run-to-run determinism, and
	// traced-run fidelity.
	attempted, failed := 0, 0
	for ri, rep := range reps {
		for ci, c := range rep.cells {
			attempted++
			switch {
			case c.failure != "":
				failed++
				fmt.Fprintf(stdout, "FAIL %s rep %d cell %d (%s/%v): %s\n", w.name, ri, ci, c.res.Policy, c.res.Mechanism, c.failure)
			case c.digest != reps[0].cells[ci].digest:
				failed++
				fmt.Fprintf(stdout, "FAIL %s rep %d cell %d: digest %s differs from rep 0's %s\n", w.name, ri, ci, c.digest, reps[0].cells[ci].digest)
			}
		}
	}
	for ri, rep := range traced {
		for ci, tc := range rep.cells {
			attempted++
			why := rep.fails[ci]
			if why == "" {
				why = sameOutput(reps[0].cells[ci].res, tc.res)
			}
			if why != "" {
				failed++
				fmt.Fprintf(stdout, "FAIL %s traced rep %d cell %d: %s\n", w.name, ri, ci, why)
			}
		}
	}
	printDigest(stdout, w.name, opts.seed, reps[0])
	for i, rep := range reps {
		fmt.Fprintf(stdout, "rep %d ns_per_vm_hour=%.3f raw_wall_ns_per_vm_hour=%.3f lost_ns_per_vm_hour=%.3f cpu_ns_per_vm_hour=%.3f allocs_per_vm_hour=%.6f\n", i,
			rep.perVMHour(cellOut.wallNs), rep.perVMHour(cellOut.rawWallNs), rep.perVMHour(cellOut.lostNs),
			rep.perVMHour(cellOut.cpuNs), rep.perVMHour(cellOut.allocs))
	}
	fmt.Fprintf(stdout, "host cpu=%d median raw_wall_ns_per_vm_hour=%.3f lost_ns_per_vm_hour=%.3f\n", thr.cpu,
		medianOverReps(reps, func(r repOut) float64 { return r.perVMHour(cellOut.rawWallNs) }),
		medianOverReps(reps, func(r repOut) float64 { return r.perVMHour(cellOut.lostNs) }))

	out := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if opts.trace {
		layers := layerMetrics(in, reps, traced, tr, genS, compileS, float64(failed)/float64(attempted))
		out.add(layers)
		printLayerTable(stdout, w.name, reps, traced, tr)
		if err := tr.writeSample(filepath.Join(opts.spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, opts.seed))); err != nil {
			return result{}, fmt.Errorf("writing span sample: %w", err)
		}
		return out, nil
	}
	for _, rep := range reps {
		if rep.rssErr != nil {
			return result{}, rep.rssErr
		}
	}
	out.add(endToEndMetrics(reps, median(setupS)))
	return out, nil
}

// add records metrics. A value that is not a finite number (a cell that
// failed before it measured anything) is recorded as 0 and fails the run.
func (r *result) add(ms []named) {
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			r.Correct = false
		}
		r.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
}

type named struct {
	name, unit string
	value      float64
}

// endToEndMetrics are the untraced run's metrics: medians over
// repetitions.
func endToEndMetrics(reps []repOut, setupS float64) []named {
	perRep := func(f func(r repOut) float64) float64 { return medianOverReps(reps, f) }
	return []named{
		{"ns_per_vm_hour", "ns/vm-h", perRep(func(r repOut) float64 { return r.perVMHour(cellOut.wallNs) })},
		{"cpu_ns_per_vm_hour", "ns/vm-h", perRep(func(r repOut) float64 { return r.perVMHour(cellOut.cpuNs) })},
		{"setup_s", "s", setupS},
		{"bytes_per_vm", "B/vm", perRep(func(r repOut) float64 {
			return r.max(func(c cellOut) float64 { return c.liveBytes / float64(c.res.VMs) })
		})},
		{"peak_rss_mb", "MB", perRep(func(r repOut) float64 { return r.peakRSSMB })},
		{"allocs_per_vm_hour", "allocs/vm-h", perRep(func(r repOut) float64 {
			return r.perVMHour(cellOut.allocs)
		})},
		{"alloc_bytes_per_vm_hour", "B/vm-h", perRep(func(r repOut) float64 {
			return r.perVMHour(func(c cellOut) float64 { return float64(c.end.allocBytes - c.start.allocBytes) })
		})},
	}
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printDigest prints the simulated statistics of one repetition: a digest
// over every cell's report, storm sizes and snapshot counters, and a few
// of them in the clear. A speed-only change leaves every line unchanged.
func printDigest(w io.Writer, name string, seed int64, rep repOut) {
	var cost, hours float64
	avail, maxStorm := 1.0, 0
	for _, c := range rep.cells {
		r := c.res.Report
		fmt.Fprintf(w, "cell %-8s %-20v digest=%s cost_per_vm_hour=%.6f availability=%.8f degraded=%.8f migrations=%d max_storm=%d storms=%d backups=%d\n",
			c.res.Policy, c.res.Mechanism, c.digest[:16], float64(r.CostPerVMHour), r.Availability,
			r.DegradedFraction, c.res.Migrations(), r.MaxStorm, len(r.StormSizes), r.BackupServers)
		cost += float64(r.TotalCost)
		hours += r.VMHours
		avail = math.Min(avail, r.Availability)
		if r.MaxStorm > maxStorm {
			maxStorm = r.MaxStorm
		}
	}
	info, err := json.Marshal(map[string]any{
		"workload":         name,
		"seed":             seed,
		"digest":           rep.digest,
		"cost_per_vm_hour": cost / hours,
		"availability_min": avail,
		"max_storm":        maxStorm,
	})
	if err == nil {
		fmt.Fprintf(w, "digest %s\n", info)
	}
}
