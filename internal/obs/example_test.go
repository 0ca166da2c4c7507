package obs_test

import (
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/simkit"
)

// migrationRenderer renders the example's trace records: the subject is a
// VM number and operand A the migration attempt.
type migrationRenderer struct{}

func (migrationRenderer) RenderTrace(subject uint32, r obs.Record) obs.TraceEvent {
	return obs.TraceEvent{
		Scope: "vm", Subject: fmt.Sprintf("vm-%d", subject),
		Kind: "migrated", Detail: fmt.Sprintf("attempt %d", r.A),
	}
}

// Example shows the intended lifecycle: register instruments once, update
// them on the hot path, then expose the registry as a Prometheus page and
// query a snapshot programmatically.
func Example() {
	reg := obs.NewRegistry()

	// Resolve instruments once; updates are lock-free.
	migrations := reg.Counter("spotcheck_migrations_total", obs.L("reason", "revocation"))
	occupancy := reg.Gauge("spotcheck_pool_vms", obs.L("market", "spot"))
	downtime := reg.Histogram("spotcheck_downtime_seconds", obs.DurationBuckets)
	reg.Describe("spotcheck_migrations_total", "VM migrations by reason.")

	migrations.Inc()
	migrations.Inc()
	occupancy.Set(12)
	downtime.Observe(0.4)

	// Structured event trace alongside the numeric metrics: the hot path
	// appends typed records, and the producer's renderer formats them only
	// when the ring is read.
	trace := obs.NewTrace(16)
	src := trace.Register(migrationRenderer{})
	trace.Add(src, 7, obs.Record{At: 30 * simkit.Second, A: 2})

	snap := reg.Snapshot()
	fmt.Printf("migrations: %.0f\n", snap.Total("spotcheck_migrations_total"))
	if v, ok := snap.Value("spotcheck_pool_vms", obs.L("market", "spot")); ok {
		fmt.Printf("spot pool: %.0f VMs\n", v)
	}
	for _, ev := range trace.Events() {
		fmt.Printf("trace: %v %s %s %s: %s\n", ev.At, ev.Scope, ev.Subject, ev.Kind, ev.Detail)
	}

	_ = reg.WritePrometheus(os.Stdout)

	// Output:
	// migrations: 2
	// spot pool: 12 VMs
	// trace: 30s vm vm-7 migrated: attempt 2
	// # HELP spotcheck_migrations_total VM migrations by reason.
	// # TYPE spotcheck_migrations_total counter
	// spotcheck_migrations_total{reason="revocation"} 2
	// # TYPE spotcheck_pool_vms gauge
	// spotcheck_pool_vms{market="spot"} 12
	// # TYPE spotcheck_downtime_seconds histogram
	// spotcheck_downtime_seconds_bucket{le="0.1"} 0
	// spotcheck_downtime_seconds_bucket{le="0.25"} 0
	// spotcheck_downtime_seconds_bucket{le="0.5"} 1
	// spotcheck_downtime_seconds_bucket{le="1"} 1
	// spotcheck_downtime_seconds_bucket{le="2"} 1
	// spotcheck_downtime_seconds_bucket{le="5"} 1
	// spotcheck_downtime_seconds_bucket{le="10"} 1
	// spotcheck_downtime_seconds_bucket{le="20"} 1
	// spotcheck_downtime_seconds_bucket{le="30"} 1
	// spotcheck_downtime_seconds_bucket{le="60"} 1
	// spotcheck_downtime_seconds_bucket{le="120"} 1
	// spotcheck_downtime_seconds_bucket{le="300"} 1
	// spotcheck_downtime_seconds_bucket{le="+Inf"} 1
	// spotcheck_downtime_seconds_sum 0.4
	// spotcheck_downtime_seconds_count 1
}
