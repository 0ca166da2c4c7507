package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cloud"
	"repro/internal/nestedvm"
	"repro/internal/simkit"
)

// Report aggregates the controller's cost, availability and performance
// accounting — the quantities Figures 10-12 and Table 3 plot.
type Report struct {
	At simkit.Time

	// VMHours is total nested-VM service time.
	VMHours float64
	// Costs in dollars, split by what the native instance was rented for.
	HostCost   cloud.USD
	BackupCost cloud.USD
	SpareCost  cloud.USD
	TotalCost  cloud.USD
	// CostPerVMHour is TotalCost / VMHours — the paper's headline
	// "average cost per hour" for an equivalent nested VM (Figure 10).
	CostPerVMHour cloud.USD

	// Availability is 1 - total downtime / total service time across all
	// VMs (Figure 11 plots its complement as a percentage).
	Availability float64
	// DegradedFraction is total degraded time / total service time
	// (Figure 12).
	DegradedFraction float64

	// TotalDown and TotalDegraded are the raw accumulations.
	TotalDown     simkit.Time
	TotalDegraded simkit.Time

	Stats ControllerStats

	// StormSizes are the per-event concurrent revocation counts (Table 3).
	StormSizes []int
	// MaxStorm is the largest single storm.
	MaxStorm int
	// BackupServers is the number of backup servers provisioned.
	BackupServers int
	// BackupVMsMax is the largest number of VMs multiplexed on one backup
	// server.
	BackupVMsMax int

	// MaxDownSpell is the longest single unavailability interval any VM
	// experienced; TCPBreaks counts down spells exceeding the 60 s TCP
	// timeout — the paper's §5 claim is that SpotCheck's ~23 s migration
	// downtime "is not long enough to break TCP connections".
	MaxDownSpell simkit.Time
	TCPBreaks    int

	// BillingErrors counts rentals whose provider cost query failed while
	// building this report; nonzero means the cost totals undercount the
	// real bill. BillingErrSample keeps the last such failure for
	// diagnosis.
	BillingErrors    int
	BillingErrSample string
}

// TCPTimeout is the conservative connection timeout the paper cites
// ("generally requires a timeout of greater than one minute").
const TCPTimeout = 60 * simkit.Second

// durAcc accumulates fleet-wide duration sums. int64 nanoseconds cap out
// at ~292 VM-years, which a fleet blows through easily (100k VMs over six
// months is ~50,000 VM-years), so the sum is carried as chunks of 2^62 ns
// plus an int64 remainder. While hi is zero the remainder is the exact
// int64 sum and every derived quantity below reproduces the narrow
// arithmetic bit for bit; past that, ratios and hour totals are computed
// in float64 (~16 significant digits — far inside reporting precision).
type durAcc struct {
	hi int64 // carried 2^62 ns chunks
	lo int64 // remainder, 0 <= lo < 2^62
}

const durChunk = int64(1) << 62

func (d *durAcc) add(t simkit.Time) {
	d.lo += int64(t)
	for d.lo >= durChunk {
		d.lo -= durChunk
		d.hi++
	}
}

func (d durAcc) positive() bool { return d.hi > 0 || d.lo > 0 }

// ns is the total in float64 nanoseconds; with hi == 0 it equals
// float64(exact int64 sum), so ratios of narrow sums are unchanged.
func (d durAcc) ns() float64 { return float64(d.hi)*float64(durChunk) + float64(d.lo) }

// hours matches simkit.Time.Hours exactly while the sum fits in int64.
func (d durAcc) hours() float64 {
	if d.hi == 0 {
		return simkit.Time(d.lo).Hours()
	}
	return float64(d.hi)*(float64(durChunk)/float64(simkit.Hour)) + simkit.Time(d.lo).Hours()
}

// clamp narrows to simkit.Time for Report's raw-duration fields,
// saturating rather than wrapping if the sum outgrew int64.
func (d durAcc) clamp() simkit.Time {
	if d.hi > 0 {
		return simkit.Time(math.MaxInt64)
	}
	return simkit.Time(d.lo)
}

// CustomerReport is the per-tenant view a derivative cloud bills from:
// SpotCheck resells shared infrastructure, so each customer's cost share
// is its fraction of the fleet's VM-hours.
type CustomerReport struct {
	Customer     string
	VMs          int
	VMHours      float64
	Availability float64
	// CostShare is the customer's amortized share of the total rental
	// bill (hosts + backups + spares) in dollars.
	CostShare cloud.USD
}

// Customers breaks the current accounting down per tenant, sorted by name.
// Host and spare costs are prorated by VM-hours across everyone; backup
// server costs are prorated across *stateful* VM-hours only, since
// stateless VMs never checkpoint (§4.2).
func (c *Controller) Customers() []CustomerReport {
	now := c.sched.Now()
	type acc struct {
		vms      int
		service  durAcc
		stateful durAcc
		down     durAcc
	}
	byName := map[string]*acc{}
	var totalService, totalStateful durAcc
	for _, id := range c.vmIDsSorted() {
		vs := c.lookupVM(id)
		vm := vs.vm
		if vm.Created == 0 && vs.phase == phaseProvisioning {
			continue
		}
		end := now
		if vs.phase == phaseReleased {
			end = vs.serviceEnd
		}
		if end < vm.Created {
			continue
		}
		a := byName[vm.Customer]
		if a == nil {
			a = &acc{}
			byName[vm.Customer] = a
		}
		life := end - vm.Created
		a.vms++
		a.service.add(life)
		if !vs.stateless {
			a.stateful.add(life)
			totalStateful.add(life)
		}
		d, _ := vm.Ledger.Snapshot(end)
		a.down.add(d)
		totalService.add(life)
	}
	rep := c.Report()
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]CustomerReport, 0, len(names))
	for _, n := range names {
		a := byName[n]
		cr := CustomerReport{
			Customer:     n,
			VMs:          a.vms,
			VMHours:      a.service.hours(),
			Availability: 1,
		}
		if a.service.positive() {
			cr.Availability = 1 - a.down.ns()/a.service.ns()
		}
		var share float64
		if totalService.positive() {
			share += float64(rep.HostCost+rep.SpareCost) * a.service.ns() / totalService.ns()
		}
		if totalStateful.positive() {
			share += float64(rep.BackupCost) * a.stateful.ns() / totalStateful.ns()
		}
		cr.CostShare = cloud.USD(share)
		out = append(out, cr)
	}
	return out
}

// Report computes the controller's aggregate accounting as of now.
func (c *Controller) Report() Report {
	now := c.sched.Now()
	r := Report{At: now, Stats: c.Stats()}

	var down, degraded, serviceTotal durAcc
	for _, id := range c.vmIDsSorted() {
		vs := c.lookupVM(id)
		vm := vs.vm
		if vm.Created == 0 && vs.phase == phaseProvisioning {
			continue // never entered service
		}
		end := now
		if vs.phase == phaseReleased {
			end = vs.serviceEnd
		}
		if end < vm.Created {
			continue
		}
		d, g := vm.Ledger.Snapshot(end)
		down.add(d)
		degraded.add(g)
		serviceTotal.add(end - vm.Created)
		if spell := vm.Ledger.MaxDownSpell(end); spell > r.MaxDownSpell {
			r.MaxDownSpell = spell
		}
		r.TCPBreaks += vm.Ledger.SpellsExceeding(TCPTimeout, end)
	}
	r.TotalDown, r.TotalDegraded = down.clamp(), degraded.clamp()
	r.VMHours = serviceTotal.hours()
	if serviceTotal.positive() {
		r.Availability = 1 - down.ns()/serviceTotal.ns()
		r.DegradedFraction = degraded.ns() / serviceTotal.ns()
	} else {
		r.Availability = 1
	}

	// Rentals scrubbed out of the ledger folded their final costs into
	// rentalFinal; live entries are summed below. A terminated
	// instance's bill never changes, so it is memoized on first read.
	r.HostCost = c.rentalFinal[rentalHost]
	r.BackupCost = c.rentalFinal[rentalBackup]
	r.SpareCost = c.rentalFinal[rentalSpare]
	for i := range c.rentals {
		rt := &c.rentals[i]
		cost := rt.cost
		if !rt.final {
			var err error
			cost, err = c.prov.AccruedCost(rt.inst.ID)
			if err != nil {
				// An unpriceable rental must not vanish from the bill
				// silently; record it so TotalCost's undercount is visible.
				r.BillingErrors++
				r.BillingErrSample = fmt.Sprintf("%s: %v", rt.inst.ID, err)
				continue
			}
			if rt.inst.State == cloud.StateTerminated {
				rt.cost, rt.final = cost, true
			}
		}
		switch rt.kind {
		case rentalHost:
			r.HostCost += cost
		case rentalBackup:
			r.BackupCost += cost
		case rentalSpare:
			r.SpareCost += cost
		}
	}
	r.TotalCost = r.HostCost + r.BackupCost + r.SpareCost
	if r.VMHours > 0 {
		r.CostPerVMHour = cloud.USD(float64(r.TotalCost) / r.VMHours)
	}

	for _, s := range c.storms {
		r.StormSizes = append(r.StormSizes, s.VMs)
		if s.VMs > r.MaxStorm {
			r.MaxStorm = s.VMs
		}
	}
	r.BackupServers = c.backups.Size()
	r.BackupVMsMax = c.backups.MaxVMsPerServer()
	return r
}

// VMInfo is the customer-visible view of a nested VM.
type VMInfo struct {
	ID           nestedvm.ID
	Customer     string
	Type         string
	Phase        string
	Host         cloud.InstanceID
	HostType     string
	Market       string
	IP           string
	BackupServer string
	Migrations   int
	Revocations  int
	Availability float64
	// Condition is the instantaneous service level ("normal", "degraded",
	// "down") from the VM's ledger.
	Condition string
}

// DescribeVM returns the current view of one nested VM.
func (c *Controller) DescribeVM(id nestedvm.ID) (VMInfo, error) {
	vs := c.lookupVM(id)
	if vs == nil {
		return VMInfo{}, fmt.Errorf("core: unknown VM %s", id)
	}
	return c.describe(vs), nil
}

// ListVMs returns all known VMs in id order.
func (c *Controller) ListVMs() []VMInfo {
	out := make([]VMInfo, 0, len(c.vmIndex))
	for _, id := range c.vmIDsSorted() {
		if vs := c.lookupVM(id); vs != nil {
			out = append(out, c.describe(vs))
		}
	}
	return out
}

func (c *Controller) describe(vs *vmState) VMInfo {
	vm := vs.vm
	info := VMInfo{
		ID:           vm.ID,
		Customer:     vm.Customer,
		Type:         vm.Type.Name,
		Migrations:   vm.Migrations,
		Revocations:  vm.Revocations,
		BackupServer: vm.BackupServer,
	}
	switch vs.phase {
	case phaseProvisioning:
		info.Phase = "provisioning"
	case phaseRunning:
		info.Phase = "running"
	case phaseMigrating:
		info.Phase = "migrating"
	case phaseReleased:
		info.Phase = "released"
	}
	if vm.IP.IsValid() {
		info.IP = vm.IP.String()
	}
	if vs.host != nil {
		info.Host = vs.host.inst.ID
		info.HostType = vs.host.inst.Type.Name
		info.Market = vs.host.key.Market.String()
	}
	if vs.phase != phaseProvisioning {
		end := c.sched.Now()
		if vs.phase == phaseReleased {
			end = vs.serviceEnd
		}
		info.Availability = vm.Ledger.Availability(vm.Created, end)
		info.Condition = vm.Ledger.Condition().String()
	} else {
		info.Availability = 1
		info.Condition = nestedvm.CondNormal.String()
	}
	return info
}

// PoolInfo summarizes one server pool for inspection.
type PoolInfo struct {
	Key         PoolKey
	Bid         cloud.USD
	Hosts       int
	VMs         int
	FreeSlots   int
	Revocations int
}

// Pools returns summaries of all pools in deterministic order.
func (c *Controller) Pools() []PoolInfo {
	out := make([]PoolInfo, 0, len(c.pools))
	for _, key := range c.sortedPoolKeys() {
		p := c.pools[key]
		info := PoolInfo{Key: key, Bid: p.bid, Revocations: p.revocations}
		for _, hh := range c.orderedPoolHosts(p) {
			h := c.hostSlab.Get(hh.slot)
			if h == nil || !h.inHosts {
				continue
			}
			info.Hosts++
			info.VMs += len(h.vms)
			info.FreeSlots += h.free()
		}
		out = append(out, info)
	}
	return out
}

// StormTable computes Table 3: for a fleet of n VMs and the given fractions
// (e.g. 1/4, 1/2, 3/4, 1), the probability that an hour contains a
// concurrent-revocation storm whose size falls in each fraction's bucket.
// A storm of size s lands in the largest bucket f with s >= ceil(f*n).
func StormTable(storms []int, n int, fractions []float64, hours float64) []float64 {
	out := make([]float64, len(fractions))
	if n <= 0 || hours <= 0 {
		return out
	}
	// Sort fractions ascending for bucketing, but report in given order.
	type fb struct {
		frac float64
		idx  int
	}
	fbs := make([]fb, len(fractions))
	for i, f := range fractions {
		fbs[i] = fb{f, i}
	}
	sort.Slice(fbs, func(i, j int) bool { return fbs[i].frac < fbs[j].frac })
	counts := make([]float64, len(fractions))
	for _, s := range storms {
		// Find the largest fraction bucket this storm reaches.
		best := -1
		for _, b := range fbs {
			threshold := int(b.frac*float64(n) + 0.999999)
			if threshold < 1 {
				threshold = 1
			}
			if s >= threshold {
				best = b.idx
			}
		}
		if best >= 0 {
			counts[best]++
		}
	}
	for i := range counts {
		out[i] = counts[i] / hours
	}
	return out
}

// DebugLedgerInfo exposes raw per-VM ledger accounting (tests/debugging).
type DebugLedgerInfo struct {
	Down, Degraded             simkit.Time
	DownSpells, DegradedSpells int
}

// DebugLedger returns raw ledger accounting for one VM.
func (c *Controller) DebugLedger(id nestedvm.ID) DebugLedgerInfo {
	vs := c.lookupVM(id)
	if vs == nil {
		return DebugLedgerInfo{}
	}
	end := c.sched.Now()
	if vs.phase == phaseReleased {
		end = vs.serviceEnd
	}
	down, deg := vs.vm.Ledger.Snapshot(end)
	ds, gs := vs.vm.Ledger.Spells()
	return DebugLedgerInfo{Down: down, Degraded: deg, DownSpells: ds, DegradedSpells: gs}
}
