package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// uncalledOps are the Provider methods no workload calls: the controller
// never calls Now or Instance, and no workload releases a VM, the only
// path to DeleteVolume. Their per-op metrics would read 0 on every run; a
// change that starts calling them still shows in the layer table.
var uncalledOps = map[string]bool{"Now": true, "Instance": true, "DeleteVolume": true}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics. Span-based numbers come from
// the traced repetitions, normalised by their VM-hours; runtime.* numbers
// come from the untraced repetitions, read between the same two clock
// marks as the end-to-end metrics.
func layerMetrics(in *inputs, reps []repOut, traced []tracedRep, tr *tracer, genS, compileS []float64, failedFrac float64) []named {
	var vmh float64
	var fired, traceEvents uint64
	var pendingMax int
	var ok, calls int64
	var started, aborted, ticks, injected float64
	var backups, fanin, series int
	for _, rep := range traced {
		vmh += rep.vmHours
		for _, tc := range rep.cells {
			fired += tc.fired
			traceEvents += tc.traceEvents
			pendingMax = max(pendingMax, tc.pendingMax)
			ok += tc.ok
			calls += tc.calls
			started += tc.res.Metric("spotcheck_migrations_started_total")
			aborted += tc.res.Metric("spotcheck_migrations_aborted_total")
			ticks += tc.res.Metric("spotcheck_monitor_ticks_total")
			injected += tc.res.Metric("spotcheck_chaos_injected_total")
			backups = max(backups, tc.res.Report.BackupServers)
			fanin = max(fanin, tc.res.Report.BackupVMsMax)
			if tc.res.Snapshot != nil {
				series = max(series, len(tc.res.Snapshot.Metrics))
			}
		}
	}
	nTraced := float64(len(traced))
	span := func(name string) *spanAgg { return tr.agg(name) }
	selfSum := func(prefix string) (selfNs, count float64) {
		for name, a := range tr.aggs {
			if strings.HasPrefix(name, prefix) {
				selfNs += float64(a.selfNs)
				count += float64(a.count)
			}
		}
		return selfNs, count
	}
	perCall := func(a *spanAgg) float64 { return ratio(float64(a.totalNs), float64(a.count)) }

	simSelf, simCalls := selfSum("cloudsim.")
	chaosSelf, _ := selfSum("cloudchaos.")
	out := []named{
		{"cells_failed_frac", "frac", failedFrac},
		{"simkit.events_per_vm_hour", "events/vm-h", ratio(float64(fired), vmh)},
		{"simkit.pending_max", "events", float64(pendingMax)},
		{"simkit.loop_self_ns_per_vm_hour", "ns/vm-h", ratio(float64(span("simkit.loop").selfNs), vmh)},
		{"cloudsim.calls_per_vm_hour", "calls/vm-h", ratio(simCalls, vmh)},
		{"cloudsim.self_ns_per_vm_hour", "ns/vm-h", ratio(simSelf, vmh)},
		{"cloudsim.ok_ratio", "ratio", ratio(float64(ok), float64(calls))},
	}
	for _, op := range providerOps {
		if uncalledOps[op] {
			continue
		}
		a := span("cloudsim." + op)
		out = append(out,
			named{"cloudsim." + op + ".calls", "calls", float64(a.count) / nTraced},
			named{"cloudsim." + op + ".ns_per_call", "ns/call", perCall(a)})
	}
	revocation := span("core.revocation")
	placement := span("core.placement")
	completed := 1.0
	if started > 0 {
		completed = (started - aborted) / started
	}
	out = append(out,
		named{"cloudchaos.self_ns_per_vm_hour", "ns/vm-h", ratio(chaosSelf, vmh)},
		named{"cloudchaos.injected", "faults", injected / nTraced},
		named{"core.callback_self_ns_per_vm_hour", "ns/vm-h",
			ratio(float64(span("core.callback").selfNs+revocation.selfNs), vmh)},
		named{"core.revocation_warnings", "warnings", float64(revocation.count) / nTraced},
		named{"core.revocation_ns_per_warning", "ns/warning", perCall(revocation)},
		named{"core.placement_calls", "calls", float64(placement.count) / nTraced},
		named{"core.placement_ns_per_call", "ns/call", perCall(placement)},
		named{"core.report_ns", "ns", perCall(span("core.report"))},
		named{"core.migrations_per_vm_hour", "migrations/vm-h", ratio(started, vmh)},
		named{"core.migration_completed_ratio", "ratio", completed},
		named{"core.monitor_ticks", "ticks", ticks / nTraced},
		named{"backup.servers", "servers", float64(backups)},
		named{"backup.fanin_max", "vms", float64(fanin)},
		named{"obs.trace_events_per_vm_hour", "events/vm-h", ratio(float64(traceEvents), vmh)},
		named{"obs.snapshot_ns", "ns", perCall(span("obs.snapshot"))},
		named{"obs.series", "series", float64(series)},
		named{"spotmarket.gen_s", "s", median(genS)},
		named{"spotmarket.points", "points", float64(tracePoints(in))},
		named{"scenario.compile_s", "s", median(compileS)},
	)

	// Per-cell wall time over every untraced repetition.
	var cellS []float64
	for _, rep := range reps {
		for _, c := range rep.cells {
			cellS = append(cellS, c.wallNs()/1e9)
		}
	}
	sort.Float64s(cellS)
	out = append(out,
		named{"experiments.cell_s_p50", "s", median(cellS)},
		named{"experiments.cell_s_max", "s", cellS[len(cellS)-1]})

	// runtime.*: medians over untraced repetitions.
	perRep := func(f func(r repOut) float64) float64 { return medianOverReps(reps, f) }
	out = append(out,
		named{"runtime.gc_cycles", "cycles", perRep(func(r repOut) float64 {
			return r.sum(func(c cellOut) float64 { return float64(c.end.numGC - c.start.numGC) })
		})},
		named{"runtime.gc_pause_s", "s", perRep(func(r repOut) float64 {
			return r.sum(func(c cellOut) float64 { return float64(c.end.gcPauseNs-c.start.gcPauseNs) / 1e9 })
		})},
		named{"runtime.gc_cpu_frac", "frac", perRep(func(r repOut) float64 {
			return ratio(r.sum(func(c cellOut) float64 { return c.end.gcCPU - c.start.gcCPU }),
				r.sum(func(c cellOut) float64 { return c.end.totalCPU - c.start.totalCPU }))
		})},
		named{"runtime.heap_scan_bytes", "B", perRep(func(r repOut) float64 {
			return r.max(func(c cellOut) float64 { return float64(c.scanBytes) })
		})},
		named{"runtime.heap_objects", "objects", perRep(func(r repOut) float64 {
			return r.max(func(c cellOut) float64 { return float64(c.objects) })
		})},
	)
	return out
}

func tracePoints(in *inputs) int {
	n := 0
	for _, tr := range in.traces {
		n += tr.Len()
	}
	return n
}

// printLayerTable prints the span aggregates and the tracing overhead:
// traced minus untraced ns per VM-hour, both as medians over repetitions.
func printLayerTable(w io.Writer, name string, reps []repOut, traced []tracedRep, tr *tracer) {
	var vmh float64
	for _, rep := range traced {
		vmh += rep.vmHours
	}
	fmt.Fprintf(w, "layer spans for %s over %d traced repetitions (%.0f VM-hours):\n", name, len(traced), vmh)
	fmt.Fprintf(w, "  %-34s %12s %14s %14s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_ns/vm-h", "max_us")
	for _, a := range tr.sorted() {
		if a.count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-34s %12d %14.3f %14.3f %12.3f %12.1f\n", a.name, a.count,
			float64(a.totalNs)/1e6, float64(a.selfNs)/1e6, ratio(float64(a.selfNs), vmh), float64(a.max)/1e3)
	}
	tracedNs := make([]float64, len(traced))
	for i, r := range traced {
		tracedNs[i] = ratio(float64(r.wallNs), r.vmHours)
	}
	u := medianOverReps(reps, func(r repOut) float64 { return r.perVMHour(cellOut.wallNs) })
	t := median(tracedNs)
	fmt.Fprintf(w, "tracing overhead %s: traced %.3f - untraced %.3f = %.3f ns/vm-h (%+.1f%%)\n",
		name, t, u, t-u, 100*ratio(t-u, u))
}
