package main

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"

	"repro/internal/cloud"
	"repro/internal/cloudchaos"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/simkit"
)

// loopChunk is the simulated span of one traced RunUntil call. Chunking
// does not reorder events: RunUntil(t) fires every event at or before t in
// the order an unchunked run would, and nothing runs between chunks.
const loopChunk = simkit.Hour

// tracedCell is what one traced simulation produced.
type tracedCell struct {
	res experiments.PolicyRunResult
	// fired is the scheduler's event count; pendingMax the largest queue
	// seen at a chunk boundary.
	fired      uint64
	pendingMax int
	// traceEvents is the controller's obs ring total.
	traceEvents uint64
	// ok and calls are the cloudsim boundary's success counts.
	ok, calls int64
}

// runTraced builds the cell's simulation from the public constructors —
// simkit.NewScheduler, cloudsim.New, cloudchaos.Wrap, core.New — with the
// configuration experiments.RunPolicy derives from cfg, puts timing
// wrappers at the layer boundaries and drives the loop in chunks. The
// output checks hold its report equal to the untraced RunPolicy's.
func runTraced(cfg experiments.PolicyRunConfig, tr *tracer) (tracedCell, error) {
	if len(cfg.ArrivalOffsets) > 0 {
		cfg.VMs = len(cfg.ArrivalOffsets)
	}
	if cfg.VMs == 0 {
		cfg.VMs = 40
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = experiments.SixMonths
	}
	if cfg.MonitorInterval == 0 {
		cfg.MonitorInterval = 10 * simkit.Minute
	}
	if cfg.Policy.New == nil {
		cfg.Policy = experiments.NamedPolicyFactories()[0]
	}
	if cfg.Traces == nil || cfg.Shards > 1 {
		return tracedCell{}, fmt.Errorf("traced run needs explicit traces and one event loop")
	}

	tr.begin(tr.agg("core.build"))
	sched := simkit.NewScheduler()
	reg := obs.NewRegistry()
	platCfg := cloudsim.Config{
		Catalog:          cfg.Catalog,
		Zones:            cfg.Zones,
		Traces:           cfg.Traces,
		Seed:             cfg.Seed,
		WarningWindow:    cfg.WarningWindow,
		BillingIncrement: cfg.BillingIncrement,
		Metrics:          reg,
	}
	coreCfg := core.Config{
		Scheduler:           sched,
		Mechanism:           cfg.Mechanism,
		Placement:           &timingPlacement{inner: cfg.Policy.New(), tr: tr, span: tr.agg("core.placement")},
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
		platCfg.ExpectedInstances = cfg.VMs + cfg.VMs/4 + 64
		platCfg.CompactTerminated = true
		platCfg.PrefixBilling = true
		platCfg.VPC = netip.MustParsePrefix("10.0.0.0/8")
		coreCfg.ExpectedVMs = cfg.VMs
		coreCfg.RecycleReleased = true
	}
	plat, err := cloudsim.New(sched, platCfg)
	if err != nil {
		tr.end()
		return tracedCell{}, err
	}
	// core → [timing "cloudchaos" → cloudchaos →] timing "cloudsim" → cloudsim.
	// Below the chaos wrapper the callbacks cloudsim fires are the chaos
	// layer's own, so their spans count as cloudchaos time.
	var inner *timingProvider
	if cfg.Chaos != nil {
		inner = newTimingProvider(plat, tr, "cloudsim", "cloudchaos.callback", "cloudchaos.callback")
		chaosCfg := *cfg.Chaos
		chaosCfg.Metrics = reg
		chaos := cloudchaos.Wrap(inner, sched, chaosCfg)
		coreCfg.Provider = newTimingProvider(chaos, tr, "cloudchaos", "core.callback", "core.revocation")
	} else {
		inner = newTimingProvider(plat, tr, "cloudsim", "core.callback", "core.revocation")
		coreCfg.Provider = inner
	}
	ctrl, err := core.New(coreCfg)
	tr.end()
	if err != nil {
		return tracedCell{}, err
	}

	reqSpan := tr.agg("core.request")
	var arrivalErrs []error
	request := func(i int) error {
		tr.begin(reqSpan)
		defer tr.end()
		_, err := ctrl.RequestServerWithOptions(core.ServerOptions{
			Customer:  fmt.Sprintf("customer-%d", i%4),
			Type:      cloud.M3Medium,
			Stateless: cfg.Stateless,
		})
		return err
	}
	for i := 0; i < cfg.VMs; i++ {
		if len(cfg.ArrivalOffsets) > 0 && cfg.ArrivalOffsets[i] > 0 {
			i := i
			sched.After(cfg.ArrivalOffsets[i], fmt.Sprintf("arrival vm-%d", i), func() {
				if err := request(i); err != nil {
					arrivalErrs = append(arrivalErrs, fmt.Errorf("arrival %d: %w", i, err))
				}
			})
			continue
		}
		if err := request(i); err != nil {
			return tracedCell{}, err
		}
	}

	out := tracedCell{}
	loop := tr.agg("simkit.loop")
	for t := simkit.Time(0); t < cfg.Horizon; {
		t += loopChunk
		if t > cfg.Horizon {
			t = cfg.Horizon
		}
		tr.begin(loop)
		sched.RunUntil(t)
		tr.end()
		if n := sched.Pending(); n > out.pendingMax {
			out.pendingMax = n
		}
	}
	if len(arrivalErrs) > 0 {
		return tracedCell{}, errors.Join(arrivalErrs...)
	}

	res := experiments.PolicyRunResult{
		Policy:    cfg.Policy.Name,
		Mechanism: cfg.Mechanism,
		VMs:       cfg.VMs,
		Horizon:   cfg.Horizon,
	}
	tr.begin(tr.agg("core.report"))
	res.Report = ctrl.Report()
	tr.end()
	tr.begin(tr.agg("obs.snapshot"))
	res.Snapshot = reg.Snapshot()
	tr.end()
	if cfg.CollectVMDowntimes {
		for _, info := range ctrl.ListVMs() {
			res.VMDowntimes = append(res.VMDowntimes, ctrl.DebugLedger(info.ID).Down)
		}
		sort.Slice(res.VMDowntimes, func(i, j int) bool { return res.VMDowntimes[i] < res.VMDowntimes[j] })
	}
	out.res = res
	out.fired = sched.Fired()
	out.traceEvents = ctrl.Trace().Total()
	out.ok, out.calls = inner.ok, inner.calls
	return out, nil
}
