package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/backup"
	"repro/internal/cloud"
	"repro/internal/nestedvm"
	"repro/internal/simkit"
	"repro/internal/slab"
)

// ServerOptions parameterises a nested VM request beyond the plain
// RequestServer call.
type ServerOptions struct {
	Customer string
	Type     string
	// Stateless declares that the service tolerates memory-state loss
	// (e.g. one web server of a replicated tier, §4.2). Stateless VMs run
	// without a backup server — saving its amortized cost — and reboot
	// from their network volume on a fresh host after a revocation.
	Stateless bool
}

// RequestServer provisions a new nested VM of the requested type for a
// customer, returning its id immediately. Provisioning proceeds
// asynchronously: the placement policy picks a spot pool, the controller
// acquires (or reuses) a native host, assigns a VPC address, creates and
// attaches a network volume, and registers the VM with a backup server when
// the mechanism requires one. The VM's service clock starts when it first
// runs.
func (c *Controller) RequestServer(customer, typeName string) (nestedvm.ID, error) {
	return c.RequestServerWithOptions(ServerOptions{Customer: customer, Type: typeName})
}

// RequestServerWithOptions is RequestServer with explicit options.
func (c *Controller) RequestServerWithOptions(opts ServerOptions) (nestedvm.ID, error) {
	typ, ok := c.prov.TypeByName(opts.Type)
	if !ok {
		return "", fmt.Errorf("core: unknown server type %q", opts.Type)
	}
	if !typ.HVM {
		return "", fmt.Errorf("core: type %q is not HVM-capable; the nested hypervisor requires HVM hosts", opts.Type)
	}
	c.nextVM++
	id := vmName(uint32(c.nextVM))
	mem := nestedvm.DefaultMemory()
	mem.DirtyMBs = c.cfg.Workload.DirtyMBs
	vm, err := nestedvm.NewVM(id, opts.Customer, typ, mem, c.sched.Now())
	if err != nil {
		return "", err
	}
	vs := c.newVMState()
	vs.vm = vm
	vs.phase = phaseProvisioning
	vs.workload = c.cfg.Workload
	vs.stateless = opts.Stateless
	vs.num = uint32(c.nextVM)
	c.vmIndex[id] = vs.slot
	c.met.vmsCreated.Inc()
	var stateless uint64
	if opts.Stateless {
		stateless = 1
	}
	c.record(vs, evRequested, c.names.str(opts.Customer), uint64(c.names.str(opts.Type)), stateless)
	c.placeNew(vs, 0)
	return id, nil
}

// placeNew runs the placement policy and host acquisition for a fresh VM.
// attempts counts placement retries; after a few failures the controller
// falls back to a direct on-demand host of the requested type.
func (c *Controller) placeNew(vs *vmState, attempts int) {
	if vs.phase == phaseReleased {
		return
	}
	if attempts >= 3 {
		c.acquireHost(PoolKey{Type: vs.vm.Type.Name, Zone: c.cfg.BackupZone, Market: cloud.MarketOnDemand},
			vs.vm.Type, vs, func(h *hostState, err error) {
				if err != nil {
					// Nothing left to try; park and retry placement later.
					c.met.destFails.Inc()
					c.sched.After(c.cfg.MonitorInterval, "replace", func() {
						c.placeNew(vs, 0)
					})
					return
				}
				c.installVM(vs, h)
			})
		return
	}
	ctx := &PlacementContext{
		Requested: vs.vm.Type,
		Provider:  c.prov,
		History:   c.history,
		Rand:      c.rng,
	}
	natType, zone, err := c.cfg.Placement.Choose(ctx)
	if err != nil {
		c.placeNew(vs, attempts+1)
		return
	}
	key := PoolKey{Type: natType, Zone: zone, Market: cloud.MarketSpot}
	c.acquireHost(key, vs.vm.Type, vs, func(h *hostState, err error) {
		if err != nil {
			// Spot acquisition failed (e.g. price spike making the bid
			// invalid); retry, eventually landing on-demand.
			c.placeNew(vs, attempts+1)
			return
		}
		vs.homePool = key
		c.installVM(vs, h)
	})
}

// hostUnits is the number of slot-type slices the controller packs onto a
// host: plain vCPU/memory slicing by default, additionally network-capped
// under Config.NetworkAwareSlicing.
func (c *Controller) hostUnits(host, slot cloud.InstanceType) int {
	if c.cfg.NetworkAwareSlicing {
		return host.CompatibleUnits(slot)
	}
	return host.Units(slot)
}

// pendingAcq is an in-flight native host acquisition. Concurrent placements
// for the same pool share one acquisition until its slots are spoken for
// (the paper "reserves the additional slot in order to rapidly allocate ...
// a subsequent customer request").
type pendingAcq struct {
	key      PoolKey
	slotType cloud.InstanceType
	capacity int
	waiters  []func(*hostState, error)
	// done marks a finished acquisition awaiting lazy removal from the
	// controller's joinable index.
	done bool
}

// acqKey indexes joinable acquisitions by pool and slice size.
type acqKey struct {
	key      PoolKey
	slotType string
}

// acquireHost finds or creates a host with a free slot of slotType in the
// given pool. The callback receives the host with one slot reserved for
// the caller (release the reservation by installing a VM or decrementing
// reserved).
func (c *Controller) acquireHost(key PoolKey, slotType cloud.InstanceType, _ *vmState, cb func(*hostState, error)) {
	natType, ok := c.prov.TypeByName(key.Type)
	if !ok {
		cb(nil, fmt.Errorf("core: unknown native type %q", key.Type))
		return
	}
	capacity := c.hostUnits(natType, slotType)
	if capacity <= 0 {
		cb(nil, fmt.Errorf("core: native type %s cannot host %s", key.Type, slotType.Name))
		return
	}
	pool := c.poolFor(key)
	// Reuse a running host with a free slot and matching slice size.
	if h := c.freeHost(pool, slotType); h != nil {
		h.reserved++
		cb(h, nil)
		return
	}
	// Join the oldest in-flight acquisition with spare capacity, pruning
	// finished or filled entries from the index as we pass them.
	ik := acqKey{key: key, slotType: slotType.Name}
	if list, ok := c.acqIndex[ik]; ok {
		kept := list[:0]
		joined := false
		for _, acq := range list {
			if acq.done || len(acq.waiters) >= acq.capacity {
				continue
			}
			if !joined {
				acq.waiters = append(acq.waiters, cb)
				joined = true
			}
			if len(acq.waiters) < acq.capacity {
				kept = append(kept, acq)
			}
		}
		for i := len(kept); i < len(list); i++ {
			list[i] = nil
		}
		if len(kept) == 0 {
			delete(c.acqIndex, ik)
		} else {
			c.acqIndex[ik] = kept
		}
		if joined {
			return
		}
	}
	// Start a new acquisition.
	acq := &pendingAcq{key: key, slotType: slotType, capacity: capacity}
	acq.waiters = append(acq.waiters, cb)
	c.acqIndex[ik] = append(c.acqIndex[ik], acq)

	finish := func(inst *cloud.Instance, err error) {
		acq.done = true
		if err != nil {
			for _, w := range acq.waiters {
				w(nil, err)
			}
			return
		}
		h := c.newHostState()
		h.inst = inst
		h.seq = instanceSeq(inst.ID)
		h.key = key
		h.role = roleHost
		h.slotType = slotType
		h.capacity = acq.capacity
		c.hostIndex[inst.ID] = h.slot
		c.addPoolHost(pool, h)
		c.rentals = append(c.rentals, rental{inst: inst, kind: rentalHost})
		c.maybeScrubRentals()
		c.met.hostAcquired(key)
		c.met.syncPool(pool)
		c.trace(evHostAcquired, c.names.host(h), 0, uint64(c.names.pool(key)), uint64(acq.capacity))
		if acq.capacity > 1 {
			c.met.sliced.Inc()
		}
		for _, w := range acq.waiters {
			h.reserved++
			w(h, nil)
		}
		// Unreserved slots go straight into the free-candidate set so the
		// next placement finds them without a pool scan.
		c.hostFreed(h)
	}

	switch key.Market {
	case cloud.MarketSpot:
		od, err := c.prov.OnDemandPrice(key.Type)
		if err != nil {
			finish(nil, err)
			return
		}
		bid := c.cfg.Bidding.Bid(od)
		pool.bid = bid
		c.met.bidPlaced(key, float64(bid))
		c.trace(evBid, c.names.pool(key), 0, math.Float64bits(float64(bid)), math.Float64bits(float64(od)))
		c.prov.RequestSpot(key.Type, key.Zone, bid, finish)
	case cloud.MarketOnDemand:
		c.prov.RunOnDemand(key.Type, key.Zone, finish)
	default:
		finish(nil, fmt.Errorf("core: unknown market %v", key.Market))
	}
}

// freeHost returns a running, unwarned host with a free slot of the given
// slice size, preferring fuller hosts (best-fit packing), with launch
// order as a deterministic tie-break. It scans the pool's free-candidate
// set — an unordered superset of the hosts with free slots — pruning
// entries that have since filled, been warned or died. The set arrives in
// event order, but the (free, seq, id) comparator picks exactly the host
// the historical id-ordered scan's strict less chose: the lowest-id member
// of the fullest tier.
func (c *Controller) freeHost(pool *poolState, slotType cloud.InstanceType) *hostState {
	var best *hostState
	cands := pool.freeCands
	kept := cands[:0]
	for _, hh := range cands {
		h := c.hostSlab.Get(hh.slot)
		if h == nil {
			continue // marked dead by a retire; drop the entry
		}
		if h.warned || h.free() <= 0 || h.inst.State != cloud.StateRunning {
			h.inFreeSet = false
			continue
		}
		h.freeIdx = len(kept)
		kept = append(kept, hh)
		if h.slotType.Name != slotType.Name {
			continue
		}
		if best == nil || h.free() < best.free() ||
			(h.free() == best.free() && hostLess(h, best)) {
			best = h
		}
	}
	pool.freeCands = kept
	return best
}

func (c *Controller) poolFor(key PoolKey) *poolState {
	pool := c.pools[key]
	if pool == nil {
		pool = &poolState{key: key}
		c.pools[key] = pool
		i := sort.Search(len(c.poolKeys), func(i int) bool { return !poolKeyLess(c.poolKeys[i], key) })
		c.poolKeys = append(c.poolKeys, PoolKey{})
		copy(c.poolKeys[i+1:], c.poolKeys[i:])
		c.poolKeys[i] = key
	}
	return pool
}

func poolKeyLess(a, b PoolKey) bool {
	if a.Type != b.Type {
		return a.Type < b.Type
	}
	if a.Zone != b.Zone {
		return a.Zone < b.Zone
	}
	return a.Market < b.Market
}

// installVM finishes provisioning a new VM on a reserved host slot:
// allocates its VPC address, creates and attaches its root volume, and
// registers it with a backup server if required. The VM enters service when
// all steps complete.
func (c *Controller) installVM(vs *vmState, h *hostState) {
	if vs.phase == phaseReleased {
		h.reserved--
		c.hostFreed(h)
		return
	}
	vm := vs.vm
	addr, err := c.prov.AllocateIP()
	if err != nil {
		h.reserved--
		c.hostFreed(h)
		c.sched.After(c.cfg.MonitorInterval, "re-place", func() { c.placeNew(vs, 0) })
		return
	}
	vm.IP = addr
	// Assign the address, then create/attach the volume, then start.
	if err := c.prov.AssignIP(h.inst.ID, addr, func(err error) {
		if err != nil {
			c.abortInstall(vs, h, err)
			return
		}
		vol, err := c.prov.CreateVolume(8)
		if err != nil {
			c.abortInstall(vs, h, err)
			return
		}
		vm.Volume = vol.ID
		if err := c.prov.AttachVolume(vol.ID, h.inst.ID, func(err error) {
			if err != nil {
				c.abortInstall(vs, h, err)
				return
			}
			c.startService(vs, h)
		}); err != nil {
			c.abortInstall(vs, h, err)
		}
	}); err != nil {
		c.abortInstall(vs, h, err)
	}
}

// abortInstall unwinds a failed installation and retries placement.
func (c *Controller) abortInstall(vs *vmState, h *hostState, err error) {
	h.reserved--
	c.hostFreed(h)
	if vs.vm.IP.IsValid() {
		// Best-effort: the address may or may not have been assigned.
		_ = c.prov.ReleaseIP(vs.vm.IP)
		vs.vm.IP = cloud.Addr{}
	}
	if vs.phase == phaseReleased {
		return
	}
	if !errors.Is(err, cloud.ErrBadState) && !errors.Is(err, cloud.ErrCapacity) {
		// Unexpected failures still retry, but are counted.
		c.met.destFails.Inc()
	}
	c.sched.After(c.cfg.MonitorInterval, "re-place", func() { c.placeNew(vs, 0) })
}

// startService puts the VM into service on the host.
func (c *Controller) startService(vs *vmState, h *hostState) {
	h.reserved--
	if vs.phase == phaseReleased {
		c.hostFreed(h)
		return
	}
	vm := vs.vm
	c.hostAddVM(h, vs)
	vs.host = h
	vm.Host = h.inst.ID
	vs.phase = phaseRunning
	vm.Created = c.sched.Now()
	vm.Ledger.Start(c.sched.Now())
	c.syncPoolOf(h)
	c.record(vs, evPlaced, c.names.host(h), uint64(c.names.pool(h.key)), 0)
	// Spot-hosted VMs under a backup-using mechanism continuously
	// checkpoint to a backup server; on-demand hosts rely on live
	// migration and need none (§4.2).
	if c.cfg.Mechanism.UsesBackup() && h.key.Market == cloud.MarketSpot {
		c.registerBackup(vs)
	}
	// The host may have been warned while this VM was still installing;
	// evacuate immediately with whatever window remains.
	if h.warned {
		deadline := h.warnDeadline
		if deadline <= c.sched.Now() {
			deadline = c.sched.Now() + simkit.Second
		}
		vm.Revocations++
		c.met.revocations.Inc()
		c.migrateVM(vs, reasonRevocation, deadline)
	}
}

// registerBackup assigns the VM a backup server, provisioning more backup
// capacity on demand. Stateless VMs never register: their state is
// reconstructible, so checkpointing would be pure overhead (§4.2).
func (c *Controller) registerBackup(vs *vmState) {
	if vs.vm.BackupServer != "" || vs.stateless {
		return
	}
	// Spread same-pool VMs across backup servers (§4.2) so one pool-wide
	// storm does not concentrate its restore load on a single server.
	group := vs.homePool.String()
	if vs.host != nil {
		group = vs.host.key.String()
	}
	srv, err := c.backups.AssignSpread(string(vs.vm.ID), vs.vm.Memory.DirtyMBs, group)
	if err != nil {
		// Should not happen (pool auto-provisions); run unprotected and
		// count it.
		c.met.destFails.Inc()
		return
	}
	vs.vm.BackupServer = srv.ID()
}

// unregisterBackup removes the VM's checkpoint stream and retires the
// backup server (and its rented native instance) once it drains.
func (c *Controller) unregisterBackup(vs *vmState) {
	if vs.vm.BackupServer == "" {
		return
	}
	srv := c.backups.Release(string(vs.vm.ID))
	vs.vm.BackupServer = ""
	if srv != nil && srv.VMs() == 0 {
		if err := c.backups.Remove(srv); err == nil {
			if h, ok := c.backupHosts[srv.ID()]; ok {
				delete(c.backupHosts, srv.ID())
				if h.inst.State != cloud.StateTerminated {
					_ = c.prov.Terminate(h.inst.ID, nil)
				}
				delete(c.hostIndex, h.inst.ID)
				h.inst = nil
				c.hostSlab.Free(h.slot)
			}
		}
	}
}

// onBackupProvisioned rents a native on-demand instance to stand behind a
// newly provisioned backup server.
func (c *Controller) onBackupProvisioned(srv *backup.Server) {
	c.prov.RunOnDemand(c.cfg.BackupType, c.cfg.BackupZone, func(inst *cloud.Instance, err error) {
		if err != nil {
			// Cost-accounting only; the logical backup server still works.
			c.met.destFails.Inc()
			return
		}
		h := c.newHostState()
		h.inst = inst
		h.seq = instanceSeq(inst.ID)
		h.role = roleBackup
		c.hostIndex[inst.ID] = h.slot
		c.backupHosts[srv.ID()] = h
		c.rentals = append(c.rentals, rental{inst: inst, kind: rentalBackup})
		c.maybeScrubRentals()
	})
}

// ReleaseServer relinquishes a nested VM: the customer-initiated teardown.
func (c *Controller) ReleaseServer(id nestedvm.ID) error {
	vs := c.lookupVM(id)
	if vs == nil {
		return fmt.Errorf("core: unknown VM %s", id)
	}
	switch vs.phase {
	case phaseReleased:
		return fmt.Errorf("core: VM %s already released", id)
	case phaseMigrating:
		// Finish the migration first; release after.
		vs.pendingRelease = true
		return nil
	}
	c.teardownVM(vs)
	return nil
}

// teardownVM removes a VM from service and frees its resources.
func (c *Controller) teardownVM(vs *vmState) {
	vm := vs.vm
	wasRunning := vs.phase == phaseRunning
	vs.phase = phaseReleased
	vs.serviceEnd = c.sched.Now()
	c.met.vmsReleased.Inc()
	c.record(vs, evReleased, 0, 0, 0)
	if wasRunning {
		vm.Ledger.Set(nestedvm.CondNormal, c.sched.Now())
	}
	c.unregisterBackup(vs)
	c.endLazyWindow(vs)
	h := vs.host
	var hinst *cloud.Instance
	if h != nil {
		// Retiring may forget the host and recycle its slot; the instance
		// itself outlives it for the address plumbing below.
		hinst = h.inst
		c.hostRemoveVM(h, vs)
		vs.host = nil
		c.syncPoolOf(h)
		// Relinquish empty hosts to stop paying for them.
		c.maybeRetireHost(h)
	}
	if vm.IP.IsValid() {
		if hinst != nil && hinst.State != cloud.StateTerminated && hinst.HasIP(vm.IP) {
			addr := vm.IP
			_ = c.prov.UnassignIP(hinst.ID, addr, func(error) {
				_ = c.prov.ReleaseIP(addr)
			})
		} else {
			_ = c.prov.ReleaseIP(vm.IP)
		}
		vm.IP = cloud.Addr{}
	}
	if vm.Volume != "" {
		vol := vm.Volume
		_ = c.prov.DetachVolume(vol, func(error) {
			_ = c.prov.DeleteVolume(vol)
		})
	}
}

// maybeRetireHost terminates a host that no longer serves any VM. Pinned
// hosts — terminated migration destinations an in-flight recovery chain
// still reads — stay tracked until the chain unpins them.
func (c *Controller) maybeRetireHost(h *hostState) {
	if h.role != roleHost || len(h.vms) > 0 || h.reserved > 0 || h.pinned > 0 {
		return
	}
	if h.inst.State == cloud.StateTerminated {
		c.forgetHost(h)
		return
	}
	if err := c.prov.Terminate(h.inst.ID, nil); err == nil {
		c.forgetHost(h)
	}
}

func (c *Controller) forgetHost(h *hostState) {
	delete(c.hostIndex, h.inst.ID)
	if pool := c.pools[h.key]; pool != nil {
		c.dropPoolHost(pool, h)
		if h.inFreeSet {
			if h.freeIdx < len(pool.freeCands) && pool.freeCands[h.freeIdx].slot == h.slot {
				pool.freeCands[h.freeIdx].slot = slab.Handle{}
			}
			h.inFreeSet = false
		}
		pool.vmCount -= len(h.vms)
		c.met.syncPool(pool)
	}
	c.trace(evHostRetired, c.names.host(h), 0, uint64(c.names.pool(h.key)), 0)
	// Recycle the slot: nothing references this state anymore (no resident
	// VMs, no reservations, no pins).
	for i := range h.vms {
		h.vms[i] = nil
	}
	h.vms = h.vms[:0]
	h.inst = nil
	c.hostSlab.Free(h.slot)
}

// Shutdown drains the derivative cloud: every nested VM is released and
// every rented native instance (hosts, spares, backup hosts) is returned
// to the platform. The final Report remains queryable afterwards. Call it
// when decommissioning the controller; it is not required for correctness.
func (c *Controller) Shutdown() {
	c.shutdown = true
	c.stopMonitor()
	for _, id := range c.vmIDsSorted() {
		vs := c.lookupVM(id)
		if vs == nil || vs.phase == phaseReleased {
			continue
		}
		if vs.phase == phaseMigrating {
			vs.pendingRelease = true
			continue
		}
		c.teardownVM(vs)
	}
	// Spares are not retired by teardown; return them explicitly.
	for _, h := range c.spares {
		if h.inst.State != cloud.StateTerminated {
			_ = c.prov.Terminate(h.inst.ID, nil)
		}
	}
	c.spares = nil
	// Backup hosts linger only if their logical server still has VMs
	// registered (there are none after the teardowns above), but guard
	// against stragglers.
	for id, h := range c.backupHosts {
		if h.inst.State != cloud.StateTerminated {
			_ = c.prov.Terminate(h.inst.ID, nil)
		}
		delete(c.backupHosts, id)
	}
}
