// Package core implements the SpotCheck controller — the paper's primary
// contribution (§4, §5). The controller rents spot and on-demand servers
// from a native IaaS provider, slices them into nested VMs for customers,
// maintains backup servers for bounded-time migration, and transparently
// migrates nested VMs between server pools when spot servers are revoked or
// when cheaper spot capacity reappears.
//
// The controller is single-threaded: it runs entirely on the simulation's
// event loop (exactly like the paper's centralized controller process) and
// reacts to provider callbacks and revocation warnings.
//
// # Fleet state layout
//
// Fleet state lives in index-addressed slabs, not maps of heap objects
// (docs/SCALING.md has the full capacity model):
//
//   - vmState and hostState values are allocated from chunked slabs
//     (internal/slab) whose backing arrays never move, so internal hot
//     paths hold plain pointers while boundary maps (vmIndex, hostIndex)
//     translate external IDs to generation-checked handles. A stale
//     handle — one whose slot was freed or reused — resolves to nil
//     instead of aliasing the slot's next occupant.
//   - Hosts keep their resident VMs in an ID-sorted slice; pools keep
//     ID-sorted host and free-candidate slices plus a vmCount, so sweeps
//     iterate in deterministic order with no per-tick sorting.
//   - The monitor batches its per-pool passes: each tick samples every
//     market's price cursor exactly once into a tick-local snapshot, and
//     the proactive/predictive/return sweeps read that snapshot instead
//     of re-querying per VM.
//
// Fleet-wide duration sums (service time, downtime, degraded time)
// outgrow int64 nanoseconds at ~292 VM-years — under 600 VMs over a
// six-month horizon — so Report and Customers carry them in widened
// accumulators (durAcc) that are bit-identical to the narrow arithmetic
// until the sum actually overflows.
//
// Every VM's state is retained for the whole run, released VMs included,
// so DescribeVM and Events keep answering for them. Retired hosts' slots
// return to the host slab's free list, and the rental ledger folds
// terminated instances' final bills into per-kind totals, so host and
// billing state stays proportional to the live fleet. ExpectedVMs
// pre-sizes the slabs and indexes.
package core
