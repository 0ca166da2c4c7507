package core

import "repro/internal/cloud"

// ShardIndex hashes a customer name to its home shard among n shards
// (FNV-1a). The mapping depends only on the name and the shard count —
// never on seeds, request order or controller state — so a customer's home
// shard is stable across runs and across processes. The experiments
// engine's sharded runs use it to partition a fleet across independent
// controllers, §5's "partitioning customers across multiple independent
// controllers".
func ShardIndex(customer string, n int) int {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range []byte(customer) {
		h ^= uint64(b)
		h *= prime
	}
	return int(h % uint64(n))
}

// MergeReports folds per-shard Reports into one fleet view, in slice order.
// Shards are independent by construction (own pools, own backup servers,
// customers homed to one shard), so the fold is a plain sum — except the
// duration totals, which are already fleet-scale per shard and would wrap
// int64 nanoseconds if summed directly; they ride the widened durAcc
// accumulator and saturate on clamp exactly like a single controller's
// Report. Availability is re-derived as the VM-hour-weighted mean so the
// merged number equals what one controller owning every VM would report.
// The fold visits shards in slice order, so for a fixed input the merged
// report is byte-identical no matter how many workers ran the shards.
func MergeReports(reports []Report) Report {
	var agg Report
	var weightedDownNum, totalService float64
	var down, degraded durAcc
	for i := range reports {
		r := reports[i]
		if r.At > agg.At {
			agg.At = r.At
		}
		agg.VMHours += r.VMHours
		agg.HostCost += r.HostCost
		agg.BackupCost += r.BackupCost
		agg.SpareCost += r.SpareCost
		agg.TotalCost += r.TotalCost
		down.add(r.TotalDown)
		degraded.add(r.TotalDegraded)
		agg.BillingErrors += r.BillingErrors
		if r.BillingErrSample != "" {
			agg.BillingErrSample = r.BillingErrSample
		}
		agg.StormSizes = append(agg.StormSizes, r.StormSizes...)
		if r.MaxStorm > agg.MaxStorm {
			agg.MaxStorm = r.MaxStorm
		}
		agg.BackupServers += r.BackupServers
		if r.BackupVMsMax > agg.BackupVMsMax {
			agg.BackupVMsMax = r.BackupVMsMax
		}
		if r.MaxDownSpell > agg.MaxDownSpell {
			agg.MaxDownSpell = r.MaxDownSpell
		}
		agg.TCPBreaks += r.TCPBreaks
		agg.Stats.VMsCreated += r.Stats.VMsCreated
		agg.Stats.VMsReleased += r.Stats.VMsReleased
		agg.Stats.Migrations += r.Stats.Migrations
		agg.Stats.Revocations += r.Stats.Revocations
		agg.Stats.ProactiveMigrations += r.Stats.ProactiveMigrations
		agg.Stats.ReturnMigrations += r.Stats.ReturnMigrations
		agg.Stats.StagingMigrations += r.Stats.StagingMigrations
		agg.Stats.VMsLostMemoryState += r.Stats.VMsLostMemoryState
		agg.Stats.HostsAcquired += r.Stats.HostsAcquired
		agg.Stats.SlicedHosts += r.Stats.SlicedHosts
		agg.Stats.DestinationFailures += r.Stats.DestinationFailures
		agg.Stats.PredictiveMigrations += r.Stats.PredictiveMigrations
		agg.Stats.PredictiveMisses += r.Stats.PredictiveMisses
		weightedDownNum += (1 - r.Availability) * r.VMHours
		totalService += r.VMHours
	}
	agg.TotalDown = down.clamp()
	agg.TotalDegraded = degraded.clamp()
	if totalService > 0 {
		agg.Availability = 1 - weightedDownNum/totalService
		agg.DegradedFraction = degraded.hours() / totalService
		agg.CostPerVMHour = cloud.USD(float64(agg.TotalCost) / totalService)
	} else {
		agg.Availability = 1
	}
	return agg
}
