package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/simkit"
)

// smokeWorkloads are the three workloads at a size a test can afford.
func smokeWorkloads() []workload {
	return []workload{
		fleetSteady(200, 7*simkit.Day),
		paperFigures(4, 7*simkit.Day),
		stormChaos(100, 72),
	}
}

// TestTimingProviderForwardsEveryMethod checks that the wrapper's op table
// names every cloud.Provider method (the compile-time assertion in
// trace.go checks it implements them), and that a traced run — with and
// without the chaos layer between the two wrappers — reproduces the
// unwrapped run's output exactly.
func TestTimingProviderForwardsEveryMethod(t *testing.T) {
	iface := reflect.TypeOf((*cloud.Provider)(nil)).Elem()
	var want []string
	for i := 0; i < iface.NumMethod(); i++ {
		want = append(want, iface.Method(i).Name)
	}
	got := append([]string(nil), providerOps[:]...)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("providerOps = %v, want the Provider methods %v", got, want)
	}

	for _, w := range []workload{paperFigures(4, 3*simkit.Day), stormChaos(60, 48)} {
		in, err := w.setup(3)
		if err != nil {
			t.Fatal(err)
		}
		cfg := in.cells[len(in.cells)-1]
		plain, err := experiments.RunPolicy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		tc, err := runTraced(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if why := sameOutput(plain, tc.res); why != "" {
			t.Errorf("%s: %s", w.name, why)
		}
		if tc.calls == 0 || tr.agg("cloudsim.RequestSpot").count == 0 {
			t.Errorf("%s: traced run recorded no cloudsim calls", w.name)
		}
	}
}

// TestFleetSteadyMatchesRunScale pins the fleet-steady cell to the
// configuration experiments.RunScale builds.
func TestFleetSteadyMatchesRunScale(t *testing.T) {
	const vms, seed = 200, 5
	horizon := 7 * simkit.Day
	in, err := fleetSteady(vms, horizon).setup(seed)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := experiments.RunPolicy(in.cells[0])
	if err != nil {
		t.Fatal(err)
	}
	scale, err := experiments.RunScale(experiments.ScaleConfig{
		VMs:     vms,
		Horizon: horizon,
		Seed:    seed,
		Traces:  in.traces,
		Clock:   func() int64 { return time.Now().UnixNano() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := float64(cell.Report.CostPerVMHour), scale.CostPerVMHour; got != want {
		t.Errorf("cost per VM-hour %v, RunScale %v", got, want)
	}
	if got, want := cell.Report.Availability, scale.Availability; got != want {
		t.Errorf("availability %v, RunScale %v", got, want)
	}
}

// TestRepeatRunSameDigest checks that a repeat of one seed prints the same
// digest, and that another seed changes it.
func TestRepeatRunSameDigest(t *testing.T) {
	w := stormChaos(60, 48)
	thr, err := pinSimThread()
	if err != nil {
		t.Fatal(err)
	}
	digest := func(seed int64) string {
		in, err := w.setup(seed)
		if err != nil {
			t.Fatal(err)
		}
		rep := runUntraced(in, time.Now(), thr)
		if rep.cells[0].failure != "" {
			t.Fatal(rep.cells[0].failure)
		}
		return rep.digest
	}
	a, b, c := digest(4), digest(4), digest(5)
	if a != b {
		t.Errorf("seed 4 digests differ: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 4 and 5 give the same digest %s", a)
	}
}

func TestCheckCellRejectsBrokenAccounting(t *testing.T) {
	good := experiments.PolicyRunResult{Report: core.Report{
		VMHours: 10, HostCost: 1, BackupCost: 0.5, SpareCost: 0.25, TotalCost: 1.75,
		CostPerVMHour: 0.175, Availability: 0.99, DegradedFraction: 0.01,
	}}
	if why := checkCell(good, nil); why != "" {
		t.Fatalf("good report failed: %s", why)
	}
	for name, mutate := range map[string]func(r *core.Report){
		"billing error": func(r *core.Report) { r.BillingErrors = 1 },
		"availability":  func(r *core.Report) { r.Availability = 1.5 },
		"degraded":      func(r *core.Report) { r.DegradedFraction = -0.1 },
		"total cost":    func(r *core.Report) { r.TotalCost = 1.8 },
		"cost per hour": func(r *core.Report) { r.CostPerVMHour = 0.2 },
		"no service":    func(r *core.Report) { r.VMHours = 0 },
		"NaN availability": func(r *core.Report) {
			zero := 0.0
			r.Availability = zero / zero
		},
	} {
		bad := good
		mutate(&bad.Report)
		if checkCell(bad, nil) == "" {
			t.Errorf("%s: broken report passed", name)
		}
	}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestWorkloadSmoke runs every workload shrunk, on a seed other than the
// default, untraced and traced: all cells pass their checks and the result
// carries exactly the metrics BENCHMARK.json declares.
func TestWorkloadSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range smokeWorkloads() {
		for _, trace := range []bool{false, true} {
			res, err := bench(w, options{seed: 7, trace: trace, spansDir: t.TempDir()}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json declares %v", w.name, trace, got, want)
			}
		}
	}
}
