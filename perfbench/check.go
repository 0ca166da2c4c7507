package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
)

// checkCell returns why a cell's simulated output is wrong, or "" when it
// passes. Injected chaos faults are simulated outcomes and never fail a
// cell; only broken accounting does.
func checkCell(res experiments.PolicyRunResult, err error) string {
	if err != nil {
		return "run error: " + err.Error()
	}
	r := res.Report
	switch {
	case r.BillingErrors != 0:
		return fmt.Sprintf("%d billing errors (%s)", r.BillingErrors, r.BillingErrSample)
	case !(r.Availability >= 0 && r.Availability <= 1):
		return fmt.Sprintf("availability %v outside [0,1]", r.Availability)
	case !(r.DegradedFraction >= 0 && r.DegradedFraction <= 1):
		return fmt.Sprintf("degraded fraction %v outside [0,1]", r.DegradedFraction)
	case !(r.VMHours > 0):
		return fmt.Sprintf("no service time (%v VM-hours)", r.VMHours)
	case !near(float64(r.TotalCost), float64(r.HostCost+r.BackupCost+r.SpareCost)):
		return fmt.Sprintf("total cost %v != host %v + backup %v + spare %v",
			r.TotalCost, r.HostCost, r.BackupCost, r.SpareCost)
	case !near(float64(r.CostPerVMHour), float64(r.TotalCost)/r.VMHours):
		return fmt.Sprintf("cost per VM-hour %v != %v / %v", r.CostPerVMHour, r.TotalCost, r.VMHours)
	}
	return ""
}

// near reports equality within 1e-9 relative.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// sameOutput reports where a traced cell's output departs from the
// untraced one: the report field for field, the metrics snapshot and the
// per-VM downtimes.
func sameOutput(untraced, traced experiments.PolicyRunResult) string {
	if !reflect.DeepEqual(untraced.Report, traced.Report) {
		return fmt.Sprintf("traced report differs:\n  untraced %+v\n  traced   %+v", untraced.Report, traced.Report)
	}
	if cellDigest(untraced) != cellDigest(traced) {
		return "traced snapshot or downtimes differ"
	}
	return ""
}

// cellDigest renders every simulated statistic of a cell — all report
// fields including storm sizes, every snapshot series, the per-VM
// downtimes — and hashes it. Host timings are not part of it, so the same
// seed gives the same digest on every run and under tracing.
func cellDigest(res experiments.PolicyRunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%v vms=%d horizon=%d\n", res.Policy, res.Mechanism, res.VMs, int64(res.Horizon))
	writeReport(&b, res.Report)
	if res.Snapshot != nil {
		for _, m := range res.Snapshot.Metrics {
			fmt.Fprintf(&b, "%s%v %s %d", m.Name, m.Labels, fmtFloat(m.Value), m.Count)
			for _, n := range m.Buckets {
				fmt.Fprintf(&b, " %d", n)
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "downtimes %v\n", res.VMDowntimes)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

func writeReport(b *strings.Builder, r core.Report) {
	v := reflect.ValueOf(r)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		val := fmt.Sprintf("%v", f.Interface())
		if f.Kind() == reflect.Float64 {
			val = fmtFloat(f.Float())
		}
		fmt.Fprintf(b, "%s=%s\n", v.Type().Field(i).Name, val)
	}
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// digestAll folds the cell digests of one repetition into one.
func digestAll(cells []string) string {
	sum := sha256.Sum256([]byte(strings.Join(cells, "\n")))
	return hex.EncodeToString(sum[:])
}
