// Package repro_test holds the benchmark harness: one testing.B per table
// and figure in the paper's evaluation (§6). Each benchmark regenerates its
// artifact end-to-end and reports the headline quantity as a custom metric,
// so `go test -bench=. -benchmem` reproduces the entire evaluation.
//
// Benchmarks use reduced horizons/fleets to keep iterations fast; the cmd
// tools (pricestats, microbench, spotsim) run the full six-month versions.
package repro_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/migration"
	"repro/internal/simkit"
)

const (
	benchHorizon = 45 * simkit.Day
	benchVMs     = 16
	benchSeed    = 42
)

// BenchmarkFig1PriceTrace regenerates Figure 1's spot price timeseries.
func BenchmarkFig1PriceTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Fig1(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(s.X) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkFig6aAvailabilityCDF regenerates Figure 6a's availability-vs-bid
// curves and reports availability at the on-demand bid for m3.medium.
func BenchmarkFig6aAvailabilityCDF(b *testing.B) {
	var avail float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6a(benchHorizon, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for j, r := range rows[0].Ratios {
			if r >= 1.0 {
				avail = rows[0].Avail[j]
				break
			}
		}
	}
	b.ReportMetric(avail, "availability@od-bid")
}

// BenchmarkFig6bPriceJumps regenerates Figure 6b's hourly jump CDFs.
func BenchmarkFig6bPriceJumps(b *testing.B) {
	var maxInc float64
	for i := 0; i < b.N; i++ {
		inc, _, err := experiments.Fig6b(benchHorizon, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		maxInc = inc.Max()
	}
	b.ReportMetric(maxInc, "max-jump-%")
}

// BenchmarkFig6cZoneCorrelation regenerates Figure 6c's 18-zone matrix.
func BenchmarkFig6cZoneCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := experiments.Fig6c(18, benchHorizon, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(m) != 18 {
			b.Fatal("bad matrix")
		}
	}
}

// BenchmarkFig6dTypeCorrelation regenerates Figure 6d's 15-type matrix.
func BenchmarkFig6dTypeCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := experiments.Fig6d(15, benchHorizon, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(m) != 15 {
			b.Fatal("bad matrix")
		}
	}
}

// BenchmarkTable1OperationLatency regenerates Table 1 (20 samples per
// control-plane operation).
func BenchmarkTable1OperationLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table1(20, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows()) != 7 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig7BackupScaling regenerates Figure 7's backup multiplexing
// sweep.
func BenchmarkFig7BackupScaling(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7(nil)
		last = rows[len(rows)-1].TPCWMs
	}
	b.ReportMetric(last, "tpcw-ms@50vms")
}

// BenchmarkFig8ConcurrentRestore regenerates Figure 8's restore windows.
func BenchmarkFig8ConcurrentRestore(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8(nil)
		if err != nil {
			b.Fatal(err)
		}
		worst = rows[len(rows)-1].UnoptLazyDegradedSec
	}
	b.ReportMetric(worst, "unopt-lazy-sec@10")
}

// BenchmarkFig9LazyRestoreImpact regenerates Figure 9.
func BenchmarkFig9LazyRestoreImpact(b *testing.B) {
	var rt float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig9(nil)
		rt = rows[len(rows)-1].TPCWMs
	}
	b.ReportMetric(rt, "tpcw-ms-restoring")
}

// benchPolicyRun runs one policy simulation for the Figure 10-12 benches.
func benchPolicyRun(b *testing.B, factory experiments.PolicyFactory, mech migration.Mechanism) experiments.PolicyRunResult {
	b.Helper()
	res, err := experiments.RunPolicy(experiments.PolicyRunConfig{
		Policy:    factory,
		Mechanism: mech,
		VMs:       benchVMs,
		Horizon:   benchHorizon,
		Seed:      benchSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig10PolicyCost regenerates Figure 10's cost comparison (1P-M
// under the full system) and reports $/VM-hour.
func BenchmarkFig10PolicyCost(b *testing.B) {
	var cost float64
	for i := 0; i < b.N; i++ {
		res := benchPolicyRun(b, experiments.NamedPolicyFactories()[0], migration.SpotCheckLazy)
		cost = res.CostPerHour()
	}
	b.ReportMetric(cost, "$/vm-hour")
}

// BenchmarkFig11Unavailability regenerates Figure 11's availability
// comparison (4P-ED, the stormiest policy) and reports unavailability %.
func BenchmarkFig11Unavailability(b *testing.B) {
	var unavail float64
	for i := 0; i < b.N; i++ {
		res := benchPolicyRun(b, experiments.NamedPolicyFactories()[2], migration.SpotCheckLazy)
		unavail = res.UnavailabilityPct()
	}
	b.ReportMetric(unavail, "unavail-%")
}

// BenchmarkFig12Degradation regenerates Figure 12's degradation comparison
// and reports degraded-time %.
func BenchmarkFig12Degradation(b *testing.B) {
	var degr float64
	for i := 0; i < b.N; i++ {
		res := benchPolicyRun(b, experiments.NamedPolicyFactories()[2], migration.SpotCheckLazy)
		degr = res.DegradationPct()
	}
	b.ReportMetric(degr, "degraded-%")
}

// BenchmarkTable3RevocationStorms regenerates Table 3's storm-probability
// comparison across 1/2/4 pools.
func BenchmarkTable3RevocationStorms(b *testing.B) {
	var pFull float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(benchVMs, benchHorizon, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		pFull = rows[0].Probs[3] // 1-pool P(all N at once)
	}
	b.ReportMetric(pFull, "1pool-P(N)/hr")
}

// BenchmarkChooseCompatibleLargeCatalog measures one cheapest-compatible
// placement decision over the full generated catalog (18 HVM types × 3
// zones = 54 spot markets): the catalog scan, feasibility filter and
// per-slice price comparison that run on every acquisition at scale.
func BenchmarkChooseCompatibleLargeCatalog(b *testing.B) {
	cat, err := cloud.GenerateCatalog(cloud.DefaultCatalogSpec())
	if err != nil {
		b.Fatal(err)
	}
	traces, err := experiments.CatalogTraces(cat, 2*simkit.Day, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	plat, err := cloudsim.New(simkit.NewScheduler(), cloudsim.Config{
		Traces:    traces,
		Catalog:   cat.Types,
		Zones:     cat.Zones,
		Latencies: cloudsim.ZeroOpLatencies(),
	})
	if err != nil {
		b.Fatal(err)
	}
	req, ok := cat.TypeByName(cloud.M3Medium)
	if !ok {
		b.Fatal("m3.medium missing from generated catalog")
	}
	ctx := &core.PlacementContext{
		Requested: req,
		Provider:  plat,
		History:   core.NewHistory(),
		Rand:      rand.New(rand.NewSource(benchSeed)),
	}
	policy := core.NewCheapestCompatiblePolicy(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := policy.Choose(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(traces)), "markets")
}

// --- Sweep engine benches ---

// matrixSpecs rebuilds the Figure 10-12 policy × mechanism sweep at bench
// scale, for driving the sweep engine with explicit options.
func matrixSpecs() []experiments.RunSpec {
	var specs []experiments.RunSpec
	for _, pol := range experiments.NamedPolicyFactories() {
		for _, mech := range experiments.FigureMechanisms() {
			specs = append(specs, experiments.RunSpec{
				ID: pol.Name + "/" + mech.String(),
				Cfg: experiments.PolicyRunConfig{
					Policy:    pol,
					Mechanism: mech,
					VMs:       benchVMs,
					Horizon:   benchHorizon,
					Seed:      benchSeed,
				},
			})
		}
	}
	return specs
}

// BenchmarkPolicyMatrixSequential is the pre-engine baseline: one worker,
// and every cell regenerates the default trace set itself (the behaviour
// PolicyMatrix had before the sweep engine).
func BenchmarkPolicyMatrixSequential(b *testing.B) {
	specs := matrixSpecs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Sweep(specs, experiments.SweepOptions{Workers: 1, PerRunTraces: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyMatrixParallel runs the same 20 cells through the engine
// with default workers (GOMAXPROCS) and the shared per-(horizon, seed)
// trace set. The output matrix is identical to the sequential run.
func BenchmarkPolicyMatrixParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PolicyMatrix(benchVMs, benchHorizon, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeadline regenerates the abstract's headline numbers: ~5x cost
// savings at ~five nines of availability.
func BenchmarkHeadline(b *testing.B) {
	var h experiments.Headline
	for i := 0; i < b.N; i++ {
		var err error
		h, err = experiments.RunHeadline(benchVMs, benchHorizon, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(h.Savings, "savings-x")
	b.ReportMetric(100*h.Availability, "availability-%")
}

// --- Fleet-scale capacity bench (docs/SCALING.md) ---

// BenchmarkScaleFleet1k runs the scale experiment's measured rung at bench
// scale — a 1k-VM synthetic fleet — and reports the two
// capacity metrics benchbase gates: ns per simulated VM-hour and live
// bytes per VM. The full 1k/10k/100k ladder over six months runs via
// `spotsim -exp scale`.
func BenchmarkScaleFleet1k(b *testing.B) {
	var res experiments.ScaleResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunScale(experiments.ScaleConfig{
			VMs:     1000,
			Horizon: benchHorizon,
			Seed:    benchSeed,
			Clock:   func() int64 { return time.Now().UnixNano() },
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.NsPerVMHour, "ns/vm-hour")
	b.ReportMetric(res.BytesPerVM, "bytes/vm")
}

// BenchmarkScaleFleet4k4Shards runs the same rung on the parallel sharded
// engine — four independent event loops over a 4k-VM fleet, merged into
// one report — and gates its capacity metrics next to the single-loop
// rung. Shard working sets are a quarter of the fleet's, so ns/vm-hour
// here also tracks the cache-locality half of the flattening argument
// (docs/SCALING.md, "Sharded rungs").
func BenchmarkScaleFleet4k4Shards(b *testing.B) {
	var res experiments.ScaleResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunScale(experiments.ScaleConfig{
			VMs:     4000,
			Horizon: benchHorizon,
			Seed:    benchSeed,
			Shards:  4,
			Clock:   func() int64 { return time.Now().UnixNano() },
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.NsPerVMHour, "ns/vm-hour")
	b.ReportMetric(res.BytesPerVM, "bytes/vm")
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationFlush compares ramped vs fixed checkpointing: the
// metric is Yank's pause at the paper's 1200 MB residue vs SpotCheck's.
func BenchmarkAblationFlush(b *testing.B) {
	var yank, ramped float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationFlush(nil)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		yank, ramped = last.YankDowntimeSec, last.RampedDownSec
	}
	b.ReportMetric(yank, "yank-pause-sec")
	b.ReportMetric(ramped, "spotcheck-pause-sec")
}

// BenchmarkAblationSlicing measures the arbitrage gain from greedy sliced
// acquisition versus buying the requested type directly.
func BenchmarkAblationSlicing(b *testing.B) {
	var savings float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationSlicing(benchVMs/2, benchHorizon/2, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		savings = res.SavingsPct
	}
	b.ReportMetric(savings, "savings-%")
}

// BenchmarkAblationBidding measures how a 2x-on-demand bid with proactive
// migration reduces forced revocations versus bidding the on-demand price.
func BenchmarkAblationBidding(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationBidding(benchVMs/2, benchHorizon/2, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Revocations > 0 {
			reduction = 100 * (1 - float64(rows[2].Revocations)/float64(rows[0].Revocations))
		}
	}
	b.ReportMetric(reduction, "revocations-avoided-%")
}

// BenchmarkAblationDestination measures hot spares' availability gain over
// lazy on-demand acquisition.
func BenchmarkAblationDestination(b *testing.B) {
	var lazyPct, sparePct float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationDestination(benchVMs/2, benchHorizon/2, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		lazyPct, sparePct = rows[0].UnavailabilityPct, rows[1].UnavailabilityPct
	}
	b.ReportMetric(lazyPct, "lazy-unavail-%")
	b.ReportMetric(sparePct, "spare-unavail-%")
}

// BenchmarkAblationStateless measures the cost saving of skipping backup
// servers for revocation-tolerant services.
func BenchmarkAblationStateless(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationStateless(benchVMs/2, benchHorizon/2, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if res.StatefulCostPerHour > 0 {
			saved = 100 * (1 - res.StatelessCostPerHour/res.StatefulCostPerHour)
		}
	}
	b.ReportMetric(saved, "cost-saved-%")
}

// BenchmarkAblationZoneSpread measures storm shrinkage from spreading one
// pool across three zones.
func BenchmarkAblationZoneSpread(b *testing.B) {
	var one, three float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationZoneSpread(9, benchHorizon/2, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		one, three = float64(res.OneZoneMaxStorm), float64(res.ThreeZoneMaxStorm)
	}
	b.ReportMetric(one, "1zone-max-storm")
	b.ReportMetric(three, "3zone-max-storm")
}
