package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/migration"
	"repro/internal/nestedvm"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// TestControllerInvariantsUnderRandomScenarios drives the full stack
// through randomized storms, fleet churn, mechanisms and policies, then
// audits the controller's bookkeeping. Every seed is an independent
// adversarial scenario; the create/release churn and revocations recycle
// host slots, compact terminated instances and scrub the rental ledger
// while the audit watches.
func TestControllerInvariantsUnderRandomScenarios(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomScenario(t, seed, false)
		})
	}
}

// TestControllerInvariantsFleetMode replays the adversarial scenarios with
// the fleet-scale pre-sizing hints on. The hints are smaller than some
// scenarios' churn, so the instance ledger and the controller's VM and host
// state both grow past their pre-sized capacity under audit.
func TestControllerInvariantsFleetMode(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomScenario(t, seed, true)
		})
	}
}

func runRandomScenario(t *testing.T, seed int64, presize bool) {
	rng := rand.New(rand.NewSource(seed))
	horizon := simkit.Time(10+rng.Intn(30)) * simkit.Day

	// Random stormy traces for the four m3 markets.
	configs := map[spotmarket.MarketKey]spotmarket.GenConfig{}
	for _, typ := range cloud.DefaultCatalog() {
		if !typ.HVM {
			continue
		}
		vol := spotmarket.Volatility(rng.Intn(4))
		configs[spotmarket.MarketKey{Type: typ.Name, Zone: "zone-a"}] =
			spotmarket.DefaultConfig(typ.OnDemand, vol)
	}
	traces, err := spotmarket.GenerateSet(configs, horizon, seed)
	if err != nil {
		t.Fatal(err)
	}

	sched := simkit.NewScheduler()
	platCfg := cloudsim.Config{
		Traces:         traces,
		Seed:           seed,
		ODStockoutProb: float64(rng.Intn(3)) * 0.05, // 0, 5% or 10%
	}
	if presize {
		platCfg.ExpectedInstances = 8
	}
	plat, err := cloudsim.New(sched, platCfg)
	if err != nil {
		t.Fatal(err)
	}

	mechs := migration.Mechanisms()
	policies := append(NamedPolicies(),
		NewGreedyCheapestPolicy(nil),
		NewZoneSpreadPolicy(cloud.M3Medium, []cloud.Zone{"zone-a"}),
	)
	dests := []DestinationPolicy{DestOnDemand, DestHotSpare, DestStaging}
	mech := mechs[rng.Intn(len(mechs))]
	cfg := Config{
		Scheduler:   sched,
		Provider:    plat,
		Mechanism:   mech,
		Placement:   policies[rng.Intn(len(policies))],
		Destination: dests[rng.Intn(len(dests))],
		HotSpares:   rng.Intn(3),
		Seed:        seed,
	}
	if rng.Intn(2) == 1 {
		cfg.Bidding = MultipleBid{K: 1.5 + rng.Float64()}
	}
	if rng.Intn(3) == 0 {
		cfg.Predictive = PredictiveConfig{Enabled: true}
	}
	if presize {
		cfg.ExpectedVMs = 4
	}
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Fleet churn: create and release VMs at random times.
	var ids []nestedvm.ID
	n := 4 + rng.Intn(12)
	for i := 0; i < n; i++ {
		at := simkit.Time(rng.Int63n(int64(horizon / 2)))
		stateless := rng.Intn(4) == 0
		sched.At(at, "create", func() {
			id, err := ctrl.RequestServerWithOptions(ServerOptions{
				Customer: "fuzz", Type: cloud.M3Medium, Stateless: stateless,
			})
			if err != nil {
				t.Errorf("request: %v", err)
				return
			}
			ids = append(ids, id)
		})
	}
	releases := rng.Intn(n)
	for i := 0; i < releases; i++ {
		at := horizon/2 + simkit.Time(rng.Int63n(int64(horizon/4)))
		sched.At(at, "release", func() {
			if len(ids) == 0 {
				return
			}
			id := ids[rng.Intn(len(ids))]
			// Double releases and mid-migration releases are legal inputs.
			_ = ctrl.ReleaseServer(id)
		})
	}

	sched.RunUntil(horizon)
	auditController(t, ctrl, mech)
}

// auditController checks the cross-cutting bookkeeping invariants.
func auditController(t *testing.T, c *Controller, mech migration.Mechanism) {
	t.Helper()
	now := c.sched.Now()

	seenIPs := map[cloud.Addr]nestedvm.ID{}
	for _, id := range c.vmIDsSorted() {
		vs := c.lookupVM(id)
		if vs == nil {
			t.Errorf("%s: indexed but not resolvable", id)
			continue
		}
		vm := vs.vm

		// Ledger conservation: down + degraded never exceeds service time.
		if vs.phase != phaseProvisioning {
			end := now
			if vs.phase == phaseReleased {
				end = vs.serviceEnd
			}
			down, degraded := vm.Ledger.Snapshot(end)
			if lifetime := end - vm.Created; down+degraded > lifetime {
				t.Errorf("%s: down %v + degraded %v exceeds lifetime %v", id, down, degraded, lifetime)
			}
		}

		switch vs.phase {
		case phaseRunning:
			h := vs.host
			if h == nil {
				t.Errorf("%s: running with no host", id)
				continue
			}
			if h.vmByID(id) != vs {
				t.Errorf("%s: not registered on its host %s", id, h.inst.ID)
			}
			if h.inst.State == cloud.StateTerminated {
				t.Errorf("%s: running on terminated host %s", id, h.inst.ID)
			}
			// IP uniqueness across live VMs.
			if vm.IP.IsValid() {
				if other, dup := seenIPs[vm.IP]; dup {
					t.Errorf("%s and %s share IP %v", id, other, vm.IP)
				}
				seenIPs[vm.IP] = id
			}
			// Backup registration matches market and statefulness.
			onSpot := h.key.Market == cloud.MarketSpot
			wantBackup := mech.UsesBackup() && onSpot && !vs.stateless
			hasBackup := vm.BackupServer != ""
			if wantBackup != hasBackup {
				t.Errorf("%s: backup=%v, want %v (market=%v stateless=%v)", id, hasBackup, wantBackup, h.key.Market, vs.stateless)
			}
		case phaseReleased:
			if vs.host != nil {
				t.Errorf("%s: released but still hosted", id)
			}
		}
	}

	// Host slot accounting.
	for instID := range c.hostIndex {
		h := c.lookupHost(instID)
		if h == nil {
			t.Errorf("host %s: indexed but not resolvable", instID)
			continue
		}
		if h.role != roleHost {
			continue
		}
		if len(h.vms)+h.reserved > h.capacity {
			t.Errorf("host %s: %d VMs + %d reserved > capacity %d", instID, len(h.vms), h.reserved, h.capacity)
		}
		if h.free() < 0 {
			t.Errorf("host %s: negative free slots", instID)
		}
		for _, vs := range h.vms {
			if vs.host != h {
				t.Errorf("host %s lists %s but the VM points elsewhere", instID, vs.vm.ID)
			}
		}
	}

	// Report sanity.
	rep := c.Report()
	if rep.TotalCost < 0 || rep.HostCost < 0 || rep.BackupCost < 0 || rep.SpareCost < 0 {
		t.Errorf("negative cost in %+v", rep)
	}
	if rep.Availability < 0 || rep.Availability > 1 {
		t.Errorf("availability out of range: %v", rep.Availability)
	}
	if rep.DegradedFraction < 0 || rep.DegradedFraction > 1 {
		t.Errorf("degraded fraction out of range: %v", rep.DegradedFraction)
	}
	for _, s := range rep.StormSizes {
		if s <= 0 || s > rep.Stats.VMsCreated {
			t.Errorf("impossible storm size %d (fleet %d)", s, rep.Stats.VMsCreated)
		}
	}
	// Backup-based mechanisms never lose state except via predictive
	// misses on stateless-free fleets — and those fall back to the
	// checkpoint, so the only legal losses come from XenLive.
	if mech.UsesBackup() && rep.Stats.VMsLostMemoryState > 0 {
		t.Errorf("%v lost %d VMs' memory state despite continuous checkpointing", mech, rep.Stats.VMsLostMemoryState)
	}
}
