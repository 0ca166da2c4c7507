package experiments

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/migration"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// TestRunScaleSmoke runs one small rung end to end and checks every
// capacity metric is populated and sane.
func TestRunScaleSmoke(t *testing.T) {
	res, err := RunScale(ScaleConfig{
		VMs:     200,
		Horizon: 4 * simkit.Day,
		Seed:    1,
		Clock:   func() int64 { return time.Now().UnixNano() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.VMs != 200 {
		t.Errorf("VMs = %d, want 200", res.VMs)
	}
	if want := 200 * (4 * simkit.Day).Hours(); res.VMHours != want {
		t.Errorf("VMHours = %v, want %v", res.VMHours, want)
	}
	if res.WallNs <= 0 || res.NsPerVMHour <= 0 {
		t.Errorf("wall-clock metrics not populated: WallNs=%d NsPerVMHour=%v", res.WallNs, res.NsPerVMHour)
	}
	if res.LiveHeapBytes == 0 || res.BytesPerVM <= 0 {
		t.Errorf("heap metrics not populated: LiveHeapBytes=%d BytesPerVM=%v", res.LiveHeapBytes, res.BytesPerVM)
	}
	if res.Availability <= 0 || res.Availability > 1 {
		t.Errorf("availability out of range: %v", res.Availability)
	}
	if res.CostPerVMHour <= 0 {
		t.Errorf("cost per VM-hour = %v, want > 0", res.CostPerVMHour)
	}
}

// TestRunScaleRequiresClock pins the deterministic-package contract: the
// wall clock must be injected, never read.
func TestRunScaleRequiresClock(t *testing.T) {
	if _, err := RunScale(ScaleConfig{VMs: 10, Horizon: simkit.Day}); err == nil {
		t.Error("RunScale accepted a nil Clock")
	}
}

// TestScaleLadderSharesTraces climbs a two-rung mini ladder and checks the
// rendered capacity table carries one row per rung.
func TestScaleLadderSharesTraces(t *testing.T) {
	rows, err := ScaleLadder([]int{50, 100}, 2*simkit.Day, 7,
		func() int64 { return time.Now().UnixNano() }, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].VMs != 50 || rows[1].VMs != 100 {
		t.Fatalf("ladder rungs = %+v", rows)
	}
	table := ScaleTable(rows)
	if got := len(table.Rows()); got != 2 {
		t.Errorf("capacity table has %d rows, want 2", got)
	}
}

// rentRecorder is a cloud.Provider that records every instance the
// controller rents, so a test can bill them without the platform's ledger.
type rentRecorder struct {
	cloud.Provider
	rented []*cloud.Instance
}

func (r *rentRecorder) RunOnDemand(typ string, zone cloud.Zone, cb cloud.InstanceCallback) {
	r.Provider.RunOnDemand(typ, zone, r.record(cb))
}

func (r *rentRecorder) RequestSpot(typ string, zone cloud.Zone, bid cloud.USD, cb cloud.InstanceCallback) {
	r.Provider.RequestSpot(typ, zone, bid, r.record(cb))
}

func (r *rentRecorder) record(cb cloud.InstanceCallback) cloud.InstanceCallback {
	return func(inst *cloud.Instance, err error) {
		if err == nil {
			r.rented = append(r.rented, inst)
		}
		cb(inst, err)
	}
}

// TestReportCostMatchesInstanceOracle bills every instance a paper-scale run
// rents with an independent oracle — Trace.Integrate over the instance's
// life for spot, rate × hours for on-demand — and holds the report's bill
// to it. The report reaches those bills through prefix-integral billing,
// the final bills compaction keeps for terminated instances, and the
// rental ledger's scrub folds, so drift in any of them shows here. Prefix
// integrals and folds re-associate float sums, hence the 1e-9 relative
// tolerance.
func TestReportCostMatchesInstanceOracle(t *testing.T) {
	const horizon = 45 * simkit.Day
	traces, err := EvalTraces(horizon, 42)
	if err != nil {
		t.Fatal(err)
	}
	sched := simkit.NewScheduler()
	plat, err := cloudsim.New(sched, cloudsim.Config{Traces: traces, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rec := &rentRecorder{Provider: plat}
	ctrl, err := core.New(core.Config{
		Scheduler: sched,
		Provider:  rec,
		Mechanism: migration.SpotCheckLazy,
		// The stormiest policy spreads the fleet across all four markets,
		// so revocation churn terminates (and compacts) many instances.
		Placement: NamedPolicyFactories()[2].New(), // 4P-ED
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		if _, err := ctrl.RequestServer(fmt.Sprintf("customer-%d", i%4), cloud.M3Medium); err != nil {
			t.Fatal(err)
		}
	}
	sched.RunUntil(horizon)
	rep := ctrl.Report()

	var oracle float64
	terminated := 0
	for _, inst := range rec.rented {
		end := sched.Now()
		if inst.State == cloud.StateTerminated {
			end = inst.Ended
			terminated++
		}
		switch inst.Market {
		case cloud.MarketSpot:
			tr := traces[spotmarket.MarketKey{Type: inst.Type.Name, Zone: inst.Zone}]
			oracle += float64(tr.Integrate(inst.Launched, end))
		case cloud.MarketOnDemand:
			oracle += float64(inst.Type.OnDemand) * end.Sub(inst.Launched).Hours()
		}
	}
	// The ledger scrub needs 64 rentals before it folds anything.
	if len(rec.rented) < 128 || terminated < len(rec.rented)/2 {
		t.Fatalf("%d rentals, %d terminated: too little churn to exercise compaction and the scrub", len(rec.rented), terminated)
	}
	if rep.BillingErrors != 0 {
		t.Fatalf("%d billing errors: %s", rep.BillingErrors, rep.BillingErrSample)
	}
	got := float64(rep.HostCost + rep.BackupCost + rep.SpareCost)
	if !closeRel(got, oracle, 1e-9) {
		t.Errorf("report bills %.15g, per-instance oracle %.15g (beyond 1e-9 relative)", got, oracle)
	}
}

// TestFleetAccountingSurvivesInt64Overflow pins the durAcc fix: a fleet's
// total service time outgrows int64 nanoseconds at ~292 VM-years, so 1000
// VMs over six months (~500 VM-years) used to wrap VMHours negative and
// zero out CostPerVMHour; 10k and 100k rungs wrapped several times and
// reported garbage positive costs. The widened accumulators must report
// the true totals.
func TestFleetAccountingSurvivesInt64Overflow(t *testing.T) {
	res, err := RunPolicy(PolicyRunConfig{
		Policy:    PolicyFactory{Name: "1P-M", New: core.Policy1PM},
		Mechanism: migration.SpotCheckLazy,
		VMs:       1000,
		Horizon:   SixMonths,
		Seed:      0,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	wantHours := 1000 * SixMonths.Hours()
	// Provisioning latency shaves a few hours off the ideal total.
	if rep.VMHours < 0.99*wantHours || rep.VMHours > wantHours {
		t.Errorf("VMHours = %v, want ~%v", rep.VMHours, wantHours)
	}
	if cost := float64(rep.CostPerVMHour); cost <= 0 || cost >= 0.07 {
		t.Errorf("CostPerVMHour = %v, want in (0, 0.07) — spot savings vs on-demand", cost)
	}
	if rep.Availability <= 0.99 || rep.Availability > 1 {
		t.Errorf("Availability = %v, want (0.99, 1]", rep.Availability)
	}
}

// closeRel reports whether a and b agree to relative tolerance tol.
func closeRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*scale
}
