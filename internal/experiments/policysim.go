package experiments

import (
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/cloud"
	"repro/internal/cloudchaos"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/migration"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
	"repro/internal/workload"
)

// PolicyFactory constructs a fresh (stateful) placement policy per run.
type PolicyFactory struct {
	Name string
	New  func() core.PlacementPolicy
}

// NamedPolicyFactories returns the five Table 2 policies.
func NamedPolicyFactories() []PolicyFactory {
	return []PolicyFactory{
		{Name: "1P-M", New: core.Policy1PM},
		{Name: "2P-ML", New: core.Policy2PML},
		{Name: "4P-ED", New: core.Policy4PED},
		{Name: "4P-COST", New: core.Policy4PCOST},
		{Name: "4P-ST", New: core.Policy4PST},
	}
}

// FigureMechanisms returns the four mechanisms Figures 10-12 compare.
func FigureMechanisms() []migration.Mechanism {
	return []migration.Mechanism{
		migration.XenLive,
		migration.UnoptimizedFull,
		migration.SpotCheckFull,
		migration.SpotCheckLazy,
	}
}

// PolicyRunConfig parameterises one six-month controller simulation.
type PolicyRunConfig struct {
	Policy    PolicyFactory
	Mechanism migration.Mechanism
	// VMs is the fleet size (defaults to 40, a full backup server).
	VMs int
	// Horizon defaults to SixMonths.
	Horizon simkit.Time
	Seed    int64
	// MonitorInterval defaults to 10 minutes (coarser than the
	// controller's default to keep six-month runs fast).
	MonitorInterval simkit.Time

	// The remaining knobs support the ablation studies; zero values give
	// the paper's defaults.
	Traces spotmarket.Set // custom price traces
	// Catalog and Zones replace the platform's instance-type catalog and
	// availability zones (nil keeps cloud.DefaultCatalog/DefaultZones).
	// The catalog comparison experiment runs the generated large catalog
	// through these.
	Catalog []cloud.InstanceType
	Zones   []cloud.Zone
	// NetworkAwareSlicing turns on network-capped host slicing
	// (core.Config.NetworkAwareSlicing) so packed capacity matches what
	// the cheapest-compatible policy priced.
	NetworkAwareSlicing bool
	Bidding             core.BiddingPolicy     // bid=OD vs k×OD
	Destination         core.DestinationPolicy // lazy OD / hot spares / staging
	HotSpares           int
	Stateless           bool // request every VM as stateless
	Predictive          core.PredictiveConfig
	WarningWindow       simkit.Time // shrink the platform's revocation warning
	// BillingIncrement enables 2015-era period billing on the platform.
	BillingIncrement simkit.Time
	// Workload selects the application profile (default workload.TPCW()).
	Workload workload.Profile

	// The next three knobs support the scenario library's chaos campaigns
	// (internal/scenario); zero values leave the paper's runs untouched.
	//
	// Chaos, when set, wraps the platform in a cloudchaos.Provider with
	// this fault configuration (the run's metrics registry is injected so
	// spotcheck_chaos_injected_total lands in the result snapshot).
	Chaos *cloudchaos.Config
	// ArrivalOffsets schedules VM i's request at the given offset from
	// the start of the run instead of requesting the whole fleet at t=0
	// (a workload arrival curve). When non-empty it overrides VMs.
	ArrivalOffsets []simkit.Time
	// CollectVMDowntimes fills PolicyRunResult.VMDowntimes with each VM's
	// total downtime, sorted ascending, for per-VM SLO percentiles.
	CollectVMDowntimes bool

	// Shards, when > 1, splits the fleet across that many independent
	// single-threaded simulations — one scheduler, platform, metrics
	// registry and controller per shard, exactly §5's "partitioning
	// customers across multiple independent controllers" — and runs the
	// shard event loops concurrently on a bounded worker pool. Customers
	// keep a home shard (core.ShardIndex), per-shard policy and platform
	// streams are seeded seed^shard, and the merged Report/Snapshot folds
	// shards in index order, so the merged result is byte-identical at
	// every worker count. Default 0: the single event loop the golden
	// figures pin.
	Shards int
	// ShardWorkers bounds how many shard event loops run concurrently
	// (<= 0 means GOMAXPROCS; 1 runs shards sequentially, which still
	// flattens the capacity curve — each loop touches only its own
	// shard-sized working set). Ignored unless Shards > 1.
	ShardWorkers int

	// FleetMode turns on every fleet-scale knob at once: pre-sized slabs
	// and indexes on both sides (core.Config.ExpectedVMs, cloudsim
	// ExpectedInstances), recycling of released VM state and terminated
	// instance ledger slots (RecycleReleased, CompactTerminated),
	// prefix-integral spot billing, and a /8 VPC so 100k+ nested VMs do
	// not exhaust the address pool. Aggregate accounting is unchanged —
	// time-derived report fields exactly, dollar totals to float
	// re-association (see TestFleetModeReportEquivalence) — but per-VM
	// introspection forgets recycled VMs, so the golden-figure runs leave
	// it off.
	FleetMode bool
	// Clock, when set, returns wall-clock nanoseconds and turns on the
	// scale experiment's capacity measurements: RunPolicy times fleet
	// creation plus the event loop into PolicyRunResult.WallNs and
	// samples the post-run live heap into LiveHeapBytes. The clock is
	// injected because this package is deterministic by lint rule; only
	// non-simulation callers (cmd/spotsim, the root bench harness) may
	// read time.Now.
	Clock func() int64
}

// PolicyRunResult carries one simulation's outcome.
type PolicyRunResult struct {
	Policy    string
	Mechanism migration.Mechanism
	Report    core.Report
	VMs       int
	Horizon   simkit.Time
	// Snapshot is the end-of-run state of the metrics registry shared by
	// the controller and the platform. Experiment tallies (migrations,
	// revocations, predictive hits, backup fleet size, ...) are read from
	// here rather than from private counters.
	Snapshot *obs.Snapshot
	// VMDowntimes holds each VM's total downtime sorted ascending when
	// PolicyRunConfig.CollectVMDowntimes is set (nil otherwise). The
	// scenario library derives p99-downtime SLO numbers from it.
	VMDowntimes []simkit.Time
	// WallNs and LiveHeapBytes are the capacity measurements taken when
	// PolicyRunConfig.Clock is set (zero otherwise): wall-clock
	// nanoseconds for fleet creation plus the event loop, and the
	// absolute live-heap size sampled after a forced GC with the
	// controller and platform still reachable. RunScale turns them into
	// ns-per-VM-hour and bytes-per-VM.
	WallNs        int64
	LiveHeapBytes uint64
}

// CostPerHour is the Figure 10 metric.
func (r PolicyRunResult) CostPerHour() float64 { return float64(r.Report.CostPerVMHour) }

// UnavailabilityPct is the Figure 11 metric.
func (r PolicyRunResult) UnavailabilityPct() float64 { return 100 * (1 - r.Report.Availability) }

// DegradationPct is the Figure 12 metric.
func (r PolicyRunResult) DegradationPct() float64 { return 100 * r.Report.DegradedFraction }

// Metric sums the snapshot series of one metric family (0 when absent).
func (r PolicyRunResult) Metric(name string) float64 {
	if r.Snapshot == nil {
		return 0
	}
	return r.Snapshot.Total(name)
}

// MetricValue reads one labelled series from the snapshot (0 when absent).
func (r PolicyRunResult) MetricValue(name string, labels ...obs.Label) float64 {
	if r.Snapshot == nil {
		return 0
	}
	v, _ := r.Snapshot.Value(name, labels...)
	return v
}

// Migrations derives completed migrations from the snapshot: every started
// migration minus the return-path aborts that never left the source host.
func (r PolicyRunResult) Migrations() int {
	return int(r.Metric("spotcheck_migrations_started_total") -
		r.Metric("spotcheck_migrations_aborted_total"))
}

// shardPlan is the private contract between runPolicySharded and the
// per-shard RunPolicy invocations it fans out: the global customer ring
// (so every shard names customers consistently with the fleet-wide
// partitioning), the local→global VM index mapping, and an optional
// retention slot the shard parks its controller and platform in so the
// outer capacity measurement can sample the whole fleet's live heap.
type shardPlan struct {
	// customers is the fleet-wide customer ring; VM with global index g is
	// owned by customers[g%len(customers)]. Nil keeps the default 4-name
	// ring of unsharded runs.
	customers []string
	// global maps this shard's local VM index to its global fleet index.
	global []int
	// retain, when non-nil, receives the run's controller and platform.
	retain *shardRetain
}

type shardRetain struct {
	ctrl *core.Controller
	plat cloud.Provider
}

// customerFor names the owner of the VM with local index i.
func (p *shardPlan) customerFor(i int) string {
	if p == nil || p.customers == nil {
		return fmt.Sprintf("customer-%d", i%4)
	}
	g := i
	if p.global != nil {
		g = p.global[i]
	}
	return p.customers[g%len(p.customers)]
}

// RunPolicy executes one policy × mechanism simulation. With cfg.Shards > 1
// it becomes N independent simulations on concurrent event loops whose
// results merge into one fleet view (see PolicyRunConfig.Shards).
func RunPolicy(cfg PolicyRunConfig) (PolicyRunResult, error) {
	if cfg.Shards > 1 {
		return runPolicySharded(cfg)
	}
	return runPolicyOne(cfg, nil)
}

// runPolicyOne executes a single-event-loop simulation; plan is non-nil
// only when the run is one shard of a sharded fleet.
func runPolicyOne(cfg PolicyRunConfig, plan *shardPlan) (PolicyRunResult, error) {
	if len(cfg.ArrivalOffsets) > 0 {
		cfg.VMs = len(cfg.ArrivalOffsets)
	}
	if cfg.VMs == 0 {
		cfg.VMs = 40
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = SixMonths
	}
	if cfg.MonitorInterval == 0 {
		cfg.MonitorInterval = 10 * simkit.Minute
	}
	if cfg.Policy.New == nil {
		cfg.Policy = NamedPolicyFactories()[0]
	}
	traces := cfg.Traces
	if traces == nil {
		var err error
		traces, err = EvalTraces(cfg.Horizon, cfg.Seed)
		if err != nil {
			return PolicyRunResult{}, err
		}
	}
	sched := simkit.NewScheduler()
	// One registry shared by the platform and controller, so a single
	// snapshot carries both spotcheck_* and spotcheck_cloudsim_* families.
	reg := obs.NewRegistry()
	platCfg := cloudsim.Config{
		Catalog:          cfg.Catalog,
		Zones:            cfg.Zones,
		Traces:           traces,
		Seed:             cfg.Seed,
		WarningWindow:    cfg.WarningWindow,
		BillingIncrement: cfg.BillingIncrement,
		Metrics:          reg,
	}
	coreCfg := core.Config{
		Scheduler:           sched,
		Mechanism:           cfg.Mechanism,
		Placement:           cfg.Policy.New(),
		Bidding:             cfg.Bidding,
		Destination:         cfg.Destination,
		HotSpares:           cfg.HotSpares,
		Predictive:          cfg.Predictive,
		MonitorInterval:     cfg.MonitorInterval,
		NetworkAwareSlicing: cfg.NetworkAwareSlicing,
		Workload:            cfg.Workload,
		Seed:                cfg.Seed,
		Metrics:             reg,
	}
	if cfg.FleetMode {
		// Peak live instances stay below the nested-VM count (hosts are
		// sliced, backups multiplexed), so VMs + slack pre-sizes both
		// ledgers even through revocation churn — compaction recycles
		// terminated slots before the fleet can outgrow them.
		platCfg.ExpectedInstances = cfg.VMs + cfg.VMs/4 + 64
		platCfg.CompactTerminated = true
		platCfg.PrefixBilling = true
		platCfg.VPC = netip.MustParsePrefix("10.0.0.0/8")
		coreCfg.ExpectedVMs = cfg.VMs
		coreCfg.RecycleReleased = true
	}
	plat, err := cloudsim.New(sched, platCfg)
	if err != nil {
		return PolicyRunResult{}, err
	}
	coreCfg.Provider = plat
	if cfg.Chaos != nil {
		// The chaos wrapper shares the run's registry so injected-fault
		// counts surface in the result snapshot next to everything else.
		chaosCfg := *cfg.Chaos
		chaosCfg.Metrics = reg
		coreCfg.Provider = cloudchaos.Wrap(plat, sched, chaosCfg)
	}
	ctrl, err := core.New(coreCfg)
	if err != nil {
		return PolicyRunResult{}, err
	}
	var start int64
	if cfg.Clock != nil {
		start = cfg.Clock()
	}
	// Request errors raised inside scheduled arrival events cannot return
	// through the event loop; they are collected and joined after the run.
	var arrivalErrs []error
	request := func(i int) error {
		_, err := ctrl.RequestServerWithOptions(core.ServerOptions{
			Customer:  plan.customerFor(i),
			Type:      cloud.M3Medium,
			Stateless: cfg.Stateless,
		})
		return err
	}
	for i := 0; i < cfg.VMs; i++ {
		if len(cfg.ArrivalOffsets) > 0 && cfg.ArrivalOffsets[i] > 0 {
			i := i
			sched.After(cfg.ArrivalOffsets[i], "arrival", func() {
				if err := request(i); err != nil {
					arrivalErrs = append(arrivalErrs, fmt.Errorf("arrival %d: %w", i, err))
				}
			})
			continue
		}
		if err := request(i); err != nil {
			return PolicyRunResult{}, err
		}
	}
	sched.RunUntil(cfg.Horizon)
	if len(arrivalErrs) > 0 {
		return PolicyRunResult{}, errors.Join(arrivalErrs...)
	}
	res := PolicyRunResult{
		Policy:    cfg.Policy.Name,
		Mechanism: cfg.Mechanism,
		Report:    ctrl.Report(),
		VMs:       cfg.VMs,
		Horizon:   cfg.Horizon,
		Snapshot:  reg.Snapshot(),
	}
	if cfg.CollectVMDowntimes {
		for _, info := range ctrl.ListVMs() {
			res.VMDowntimes = append(res.VMDowntimes, ctrl.DebugLedger(info.ID).Down)
		}
		sort.Slice(res.VMDowntimes, func(i, j int) bool {
			return res.VMDowntimes[i] < res.VMDowntimes[j]
		})
	}
	if cfg.Clock != nil {
		res.WallNs = cfg.Clock() - start
		// Sample the live heap while the whole simulation graph is still
		// reachable, so slabs, indexes and ledgers all count.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.LiveHeapBytes = ms.HeapAlloc
		runtime.KeepAlive(ctrl)
		runtime.KeepAlive(plat)
	}
	if plan != nil && plan.retain != nil {
		plan.retain.ctrl, plan.retain.plat = ctrl, coreCfg.Provider
	}
	return res, nil
}

// shardCustomerRing builds the fleet-wide customer ring for an n-shard run:
// the first perShard customer names (scanning customer-0, customer-1, ...)
// whose core.ShardIndex home is each shard, interleaved so ring position j
// belongs to shard j%n. VM with global index g is owned by
// ring[g%len(ring)], so VM g lands on shard g%n — every customer keeps its
// hash-derived home shard AND the fleet splits evenly, with each shard
// seeing perShard distinct customers striped exactly like an unsharded
// run's customer-%d naming. The scan is deterministic: it depends only on
// (n, perShard), never on seeds or timing.
func shardCustomerRing(n, perShard int) []string {
	byShard := make([][]string, n)
	need := n * perShard
	for k := 0; need > 0; k++ {
		name := fmt.Sprintf("customer-%d", k)
		s := core.ShardIndex(name, n)
		if len(byShard[s]) < perShard {
			byShard[s] = append(byShard[s], name)
			need--
		}
	}
	ring := make([]string, 0, n*perShard)
	for j := 0; j < n*perShard; j++ {
		ring = append(ring, byShard[j%n][j/n])
	}
	return ring
}

// runPolicySharded fans one logical simulation out across cfg.Shards
// independent event loops and merges the results. Each shard is a complete
// simulation — own scheduler, platform, metrics registry, controller —
// over the shared read-only trace set, seeded cfg.Seed^shard so policy and
// platform streams are independent per shard (the PR-5 per-market-seed
// idiom at shard granularity). Shards run on a bounded worker pool; since
// every shard's outcome depends only on its own inputs and the merge folds
// in shard index order, the merged report, snapshot and downtime list are
// byte-identical at every worker count.
func runPolicySharded(cfg PolicyRunConfig) (PolicyRunResult, error) {
	n := cfg.Shards
	if len(cfg.ArrivalOffsets) > 0 {
		cfg.VMs = len(cfg.ArrivalOffsets)
	}
	if cfg.VMs == 0 {
		cfg.VMs = 40
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = SixMonths
	}
	if cfg.Policy.New == nil {
		cfg.Policy = NamedPolicyFactories()[0]
	}
	if cfg.VMs < n {
		return PolicyRunResult{}, fmt.Errorf("experiments: %d VMs cannot fill %d shards", cfg.VMs, n)
	}
	traces := cfg.Traces
	if traces == nil {
		var err error
		traces, err = EvalTraces(cfg.Horizon, cfg.Seed)
		if err != nil {
			return PolicyRunResult{}, err
		}
	}

	var start int64
	if cfg.Clock != nil {
		start = cfg.Clock()
	}

	// Partition the fleet: VM with global index g belongs to
	// ring[g%len(ring)], whose home shard is g%n by construction.
	ring := shardCustomerRing(n, 4)
	global := make([][]int, n)
	for g := 0; g < cfg.VMs; g++ {
		s := g % n
		global[s] = append(global[s], g)
	}

	type shardOut struct {
		res PolicyRunResult
		err error
	}
	outs := make([]shardOut, n)
	retains := make([]shardRetain, n)
	workers := cfg.ShardWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for s := range idx {
				shardCfg := cfg
				shardCfg.Shards = 0
				shardCfg.ShardWorkers = 0
				shardCfg.Seed = cfg.Seed ^ int64(s)
				shardCfg.Traces = traces
				shardCfg.VMs = len(global[s])
				shardCfg.Clock = nil // the fleet-level clock wraps all shards
				if len(cfg.ArrivalOffsets) > 0 {
					offsets := make([]simkit.Time, len(global[s]))
					for i, g := range global[s] {
						offsets[i] = cfg.ArrivalOffsets[g]
					}
					shardCfg.ArrivalOffsets = offsets
				}
				if cfg.Chaos != nil {
					chaosCfg := *cfg.Chaos
					chaosCfg.Seed ^= int64(s)
					shardCfg.Chaos = &chaosCfg
				}
				plan := &shardPlan{customers: ring, global: global[s]}
				if cfg.Clock != nil {
					plan.retain = &retains[s]
				}
				res, err := runPolicyOne(shardCfg, plan)
				outs[s] = shardOut{res: res, err: err}
			}
		}()
	}
	for s := 0; s < n; s++ {
		idx <- s
	}
	close(idx)
	wg.Wait()

	reports := make([]core.Report, n)
	snaps := make([]*obs.Snapshot, n)
	var errs []error
	var downs []simkit.Time
	for s := range outs {
		if outs[s].err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", s, outs[s].err))
			continue
		}
		reports[s] = outs[s].res.Report
		snaps[s] = outs[s].res.Snapshot
		downs = append(downs, outs[s].res.VMDowntimes...)
	}
	if len(errs) > 0 {
		return PolicyRunResult{}, errors.Join(errs...)
	}

	res := PolicyRunResult{
		Policy:    cfg.Policy.Name,
		Mechanism: cfg.Mechanism,
		Report:    core.MergeReports(reports),
		VMs:       cfg.VMs,
		Horizon:   cfg.Horizon,
		Snapshot:  obs.MergeSnapshots(snaps),
	}
	if cfg.CollectVMDowntimes {
		sort.Slice(downs, func(i, j int) bool { return downs[i] < downs[j] })
		res.VMDowntimes = downs
	}
	if cfg.Clock != nil {
		res.WallNs = cfg.Clock() - start
		// Sample the live heap with every shard's object graph still
		// reachable, so the fleet's whole footprint counts — same protocol
		// as the single-loop run.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.LiveHeapBytes = ms.HeapAlloc
		runtime.KeepAlive(retains)
	}
	return res, nil
}

// PolicyMatrix runs every named policy against every figure mechanism —
// the 20 simulations behind Figures 10, 11 and 12 — on the parallel sweep
// engine. The optional trailing argument bounds the worker count (0 or
// absent means GOMAXPROCS; 1 runs sequentially); the matrix is identical
// regardless of the worker count.
func PolicyMatrix(vms int, horizon simkit.Time, seed int64, workers ...int) ([][]PolicyRunResult, error) {
	policies := NamedPolicyFactories()
	mechs := FigureMechanisms()
	specs := make([]RunSpec, 0, len(policies)*len(mechs))
	for _, pol := range policies {
		for _, mech := range mechs {
			specs = append(specs, RunSpec{
				ID: fmt.Sprintf("%s/%v", pol.Name, mech),
				Cfg: PolicyRunConfig{
					Policy:    pol,
					Mechanism: mech,
					VMs:       vms,
					Horizon:   horizon,
					Seed:      seed,
				},
			})
		}
	}
	flat, err := Sweep(specs, SweepOptions{Workers: sweepWorkers(workers)})
	if err != nil {
		return nil, err
	}
	out := make([][]PolicyRunResult, len(policies))
	for i := range policies {
		out[i] = flat[i*len(mechs) : (i+1)*len(mechs)]
	}
	return out, nil
}

// matrixBars renders a metric of the policy × mechanism matrix.
func matrixBars(title string, matrix [][]PolicyRunResult, metric func(PolicyRunResult) float64) analysis.Bars {
	bars := analysis.Bars{Title: title}
	for _, mech := range FigureMechanisms() {
		bars.Labels = append(bars.Labels, mech.String())
	}
	for _, row := range matrix {
		if len(row) == 0 {
			continue
		}
		bars.Groups = append(bars.Groups, row[0].Policy)
		vals := make([]float64, len(row))
		for j, res := range row {
			vals[j] = metric(res)
		}
		bars.Values = append(bars.Values, vals)
	}
	return bars
}

// Fig10Bars renders Figure 10 (average cost per VM-hour, $).
func Fig10Bars(matrix [][]PolicyRunResult) analysis.Bars {
	return matrixBars("Fig 10: average cost per VM-hour ($)", matrix, PolicyRunResult.CostPerHour)
}

// Fig11Bars renders Figure 11 (unavailability, %).
func Fig11Bars(matrix [][]PolicyRunResult) analysis.Bars {
	return matrixBars("Fig 11: unavailability (%)", matrix, PolicyRunResult.UnavailabilityPct)
}

// Fig12Bars renders Figure 12 (performance degradation, %).
func Fig12Bars(matrix [][]PolicyRunResult) analysis.Bars {
	return matrixBars("Fig 12: performance degradation (%)", matrix, PolicyRunResult.DegradationPct)
}

// Table3Result is one pool-count row of Table 3.
type Table3Result struct {
	Policy string
	Probs  []float64 // P(storm >= N/4), N/2, 3N/4, N per hour buckets
}

// Table3Fractions are the paper's storm-size buckets.
func Table3Fractions() []float64 { return []float64{0.25, 0.5, 0.75, 1.0} }

// Table3 runs the 1-pool, 2-pool and 4-pool policies under the full system
// and reports the probability of concurrent revocation storms by size. The
// three simulations fan out across the sweep engine; the optional trailing
// argument bounds the worker count as in PolicyMatrix.
func Table3(vms int, horizon simkit.Time, seed int64, workers ...int) ([]Table3Result, error) {
	policies := []PolicyFactory{
		{Name: "1-Pool", New: core.Policy1PM},
		{Name: "2-Pool", New: core.Policy2PML},
		{Name: "4-Pool", New: core.Policy4PED},
	}
	specs := make([]RunSpec, len(policies))
	for i, pol := range policies {
		specs[i] = RunSpec{
			ID: pol.Name,
			Cfg: PolicyRunConfig{
				Policy:    pol,
				Mechanism: migration.SpotCheckLazy,
				VMs:       vms,
				Horizon:   horizon,
				Seed:      seed,
			},
		}
	}
	results, err := Sweep(specs, SweepOptions{Workers: sweepWorkers(workers)})
	if err != nil {
		return nil, err
	}
	out := make([]Table3Result, len(results))
	for i, res := range results {
		probs := core.StormTable(res.Report.StormSizes, vms, Table3Fractions(), horizon.Hours())
		out[i] = Table3Result{Policy: policies[i].Name, Probs: probs}
	}
	return out, nil
}

// Table3Render renders Table 3.
func Table3Render(rows []Table3Result, vms int) *analysis.Table {
	t := analysis.NewTable(
		fmt.Sprintf("Table 3: probability of max concurrent revocations (N=%d VMs, per hour)", vms),
		"Pools", "N/4", "N/2", "3N/4", "N")
	for _, r := range rows {
		t.AddRow(r.Policy, r.Probs[0], r.Probs[1], r.Probs[2], r.Probs[3])
	}
	return t
}

// Headline summarises the paper's abstract-level claims from the 1P-M
// SpotCheckLazy run: cost savings vs on-demand and availability.
type Headline struct {
	CostPerVMHour   float64
	OnDemandPerHour float64
	Savings         float64
	Availability    float64
	Migrations      int
	VMsLost         int
	// Snapshot is the run's end-of-simulation metrics state; spotsim's
	// -metrics flag renders it as a summary table.
	Snapshot *obs.Snapshot
}

// RunHeadline computes the headline comparison.
func RunHeadline(vms int, horizon simkit.Time, seed int64) (Headline, error) {
	res, err := RunPolicy(PolicyRunConfig{
		Policy:    PolicyFactory{Name: "1P-M", New: core.Policy1PM},
		Mechanism: migration.SpotCheckLazy,
		VMs:       vms,
		Horizon:   horizon,
		Seed:      seed,
	})
	if err != nil {
		return Headline{}, err
	}
	od := 0.07 // m3.medium on-demand $/hr
	return Headline{
		CostPerVMHour:   res.CostPerHour(),
		OnDemandPerHour: od,
		Savings:         od / res.CostPerHour(),
		Availability:    res.Report.Availability,
		Migrations:      res.Migrations(),
		VMsLost:         int(res.Metric("spotcheck_vms_lost_memory_state_total")),
		Snapshot:        res.Snapshot,
	}, nil
}
