package main

import (
	_ "embed"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/migration"
	"repro/internal/scenario"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// marketSeed seeds the market history of every workload: the repository's
// canonical evaluation traces, the ones the golden figures and the ROADMAP's
// 20k rung use. The benchmark seed drives the rest of the run — the
// platform and controller streams, and the fault stream of storm-chaos.
// A seeded market would make the work itself the variable: the number of
// fleet-wide revocations in a three-month m3.medium history ranges from 0
// to 6 across seeds, and with it the cost of a run ranges twentyfold.
const marketSeed = 42

// A workload is one set of simulation cells run through the repository's
// public entry points. NOTES.md records why each one exists and which layer
// metrics it is meant to move.
type workload struct {
	name string
	// setup generates the workload's inputs from the seed. It is the
	// benchmark's set-up phase: everything it does is reported as setup_s,
	// never as the measured simulation.
	setup func(seed int64) (*inputs, error)
}

// inputs are the simulation cells one set-up produced.
type inputs struct {
	// cells run one at a time, in order, on one goroutine. Clock is unset;
	// the untraced run injects its probe there.
	cells []experiments.PolicyRunConfig
	// traces is the shared market history (the per-cell Traces point here
	// too); spotmarket.points counts it.
	traces spotmarket.Set
	// genS and compileS split set-up time per layer: trace generation, and
	// the whole scenario compilation (storm-chaos only).
	genS, compileS float64
}

// workloads returns the three benchmark workloads at full size.
func workloads() []workload {
	return []workload{
		fleetSteady(20_000, 90*simkit.Day),
		paperFigures(40, experiments.SixMonths),
		stormChaos(0, 0),
	}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want fleet-steady, paper-figures or storm-chaos)", name)
}

// fleetSteady is the 20k rung of `spotsim -exp scale`: one fleet of m3.medium
// nested VMs under 1P-M and lazy-restore SpotCheck with every fleet-mode
// knob on, on a single event loop.
//
// experiments.RunScale returns only its capacity numbers, not the report the
// output checks need, so the cell is the RunPolicy configuration RunScale
// builds; TestFleetSteadyMatchesRunScale pins the two together.
func fleetSteady(vms int, horizon simkit.Time) workload {
	return workload{
		name: "fleet-steady",
		setup: func(seed int64) (*inputs, error) {
			start := time.Now()
			traces, err := experiments.EvalTraces(horizon, marketSeed)
			if err != nil {
				return nil, err
			}
			in := &inputs{traces: traces, genS: time.Since(start).Seconds()}
			in.cells = []experiments.PolicyRunConfig{{
				Policy:          experiments.PolicyFactory{Name: "1P-M", New: core.Policy1PM},
				Mechanism:       migration.SpotCheckLazy,
				VMs:             vms,
				Horizon:         horizon,
				Seed:            seed,
				MonitorInterval: 10 * simkit.Minute,
				Traces:          traces,
				FleetMode:       true,
			}}
			return in, nil
		},
	}
}

// paperSeeds is how many seeds, derived from the benchmark seed, one
// paper-figures repetition runs the matrix on. 4P-COST and 4P-ST place VMs
// at random, so the matrix on one seed allocates several percent more or
// less than on another; three seeds average most of that out of the
// per-VM-hour and per-VM metrics.
const paperSeeds = 3

// paperFigures is the Figure 10-12 matrix: five policies × four mechanisms in
// the retained (non-fleet) layout, on paperSeeds seeds, every cell on one
// shared trace set.
func paperFigures(vms int, horizon simkit.Time) workload {
	return workload{
		name: "paper-figures",
		setup: func(seed int64) (*inputs, error) {
			start := time.Now()
			traces, err := experiments.EvalTraces(horizon, marketSeed)
			if err != nil {
				return nil, err
			}
			in := &inputs{traces: traces, genS: time.Since(start).Seconds()}
			for k := int64(0); k < paperSeeds; k++ {
				for _, pol := range experiments.NamedPolicyFactories() {
					for _, mech := range experiments.FigureMechanisms() {
						in.cells = append(in.cells, experiments.PolicyRunConfig{
							Policy:    pol,
							Mechanism: mech,
							VMs:       vms,
							Horizon:   horizon,
							Seed:      seed*paperSeeds + k,
							Traces:    traces,
						})
					}
				}
			}
			return in, nil
		},
	}
}

//go:embed storm-chaos.json
var stormChaosSpec []byte

// stormChaos compiles the committed storm-chaos scenario, whose own seed
// (marketSeed) generates its market, with the benchmark seed driving the
// fault stream. Non-zero vms or hours shrink it (the smoke tests); the arrival
// window is clipped to the horizon so the shrunk spec stays valid.
func stormChaos(vms int, hours float64) workload {
	return workload{
		name: "storm-chaos",
		setup: func(seed int64) (*inputs, error) {
			start := time.Now()
			spec, err := scenario.ParseSpec(stormChaosSpec)
			if err != nil {
				return nil, err
			}
			spec.Faults.Seed = seed
			if vms > 0 {
				spec.VMs = vms
			}
			if hours > 0 {
				spec.Hours = hours
				spec.Arrival.WindowHours = min(spec.Arrival.WindowHours, hours)
			}
			run, err := scenario.Compile(spec)
			if err != nil {
				return nil, err
			}
			in := &inputs{
				cells:    []experiments.PolicyRunConfig{run.Cfg},
				traces:   run.Cfg.Traces,
				compileS: time.Since(start).Seconds(),
			}
			return in, nil
		},
	}
}

// timeTraceGen measures trace generation alone for a scenario workload,
// whose set-up folds it into compilation (the storm overlay starts from the
// paper traces).
func timeTraceGen(horizon simkit.Time) (float64, error) {
	start := time.Now()
	_, err := experiments.EvalTraces(horizon, marketSeed)
	return time.Since(start).Seconds(), err
}
