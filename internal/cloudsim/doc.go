// Package cloudsim implements a discrete-event simulated native IaaS
// platform (EC2-shaped) behind the cloud.Provider interface: on-demand and
// spot instances, spot revocation warnings driven by price traces, EBS-like
// volumes, VPC private addresses, and control-plane latencies calibrated to
// the paper's Table 1 measurements.
//
// # Fleet state layout
//
// The instance ledger is an index-addressed slab (internal/slab): instance
// records live in chunked, address-stable slots, a boundary map translates
// cloud.InstanceIDs to generation-checked handles, and deferred closures
// (launch completions, terminations) revalidate their handle — or capture
// the heap *cloud.Instance, which is never recycled — instead of trusting
// a pointer across simulated time. Spot instances are additionally indexed
// per market in bid-sorted lists carrying a cached minimum bid, so a price
// change walks a market's instances only when the new price can actually
// underbid someone; assigned VPC addresses are indexed so IP release and
// duplicate checks never scan the ledger.
//
// A terminated instance is compacted: its slot is recycled and only its id
// and final bill remain, so AccruedCost keeps answering while Instance no
// longer resolves it, and operations on it fail with ErrBadState. Spot
// bills come from per-market prefix integrals in O(log n) instead of a walk
// over every price segment the instance lived through (Trace.Integrate, the
// tests' oracle). ExpectedInstances pre-sizes the ledger. docs/SCALING.md
// quantifies the result.
package cloudsim
