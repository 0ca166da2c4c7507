package cloudsim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"

	"repro/internal/cloud"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/slab"
	"repro/internal/spotmarket"
)

// Config assembles a simulated platform.
type Config struct {
	Catalog []cloud.InstanceType // defaults to cloud.DefaultCatalog()
	Zones   []cloud.Zone         // defaults to cloud.DefaultZones()
	Traces  spotmarket.Set       // required: spot price traces per market

	// WarningWindow is the interval between a revocation warning and the
	// forced termination (EC2: 120 s).
	WarningWindow simkit.Time
	// Latencies models control-plane operation latency (Table 1).
	Latencies OpLatencies
	// Seed drives latency sampling and failure injection.
	Seed int64

	// ODStockoutProb is the probability that an on-demand launch fails
	// with ErrCapacity (the rare stock-out of §4.3). Zero disables.
	ODStockoutProb float64
	// Capacity caps the number of concurrently existing (pending or
	// running) instances per type; requests beyond it fail with
	// ErrCapacity. Types absent from the map are unlimited. Models the
	// platform "occasionally running out" of a type (§4.3).
	Capacity map[string]int
	// BillingIncrement switches from continuous billing (zero, the
	// default) to period billing like 2015-era EC2 (one hour): every
	// started period is charged in full at the price in effect at its
	// start — except a spot instance's final partial period, which is
	// free when the *platform* reclaimed the instance (Amazon's rule
	// that customers do not pay for the interrupted partial hour).
	BillingIncrement simkit.Time
	// VPC is the private address block for nested VM IPs.
	// Defaults to 10.0.0.0/16.
	VPC netip.Prefix

	// ExpectedInstances pre-sizes the instance ledger and indexes for
	// fleet-scale runs, avoiding incremental rehash/regrow churn. Zero
	// keeps the default sizing.
	ExpectedInstances int
	// Deprecated: ignored; the fleet layout is the only layout. Kept
	// because perfbench/traced.go and perfbench/workloads.go set it.
	CompactTerminated bool
	// Deprecated: ignored; the fleet layout is the only layout. Kept
	// because perfbench/traced.go and perfbench/workloads.go set it.
	PrefixBilling bool

	// Metrics, if non-nil, receives platform instruments (price ticks,
	// warnings, launches, finalized billing) under the spotcheck_cloudsim_
	// prefix.
	Metrics *obs.Registry
}

func (c *Config) fillDefaults() {
	if c.Catalog == nil {
		c.Catalog = cloud.DefaultCatalog()
	}
	if c.Zones == nil {
		c.Zones = cloud.DefaultZones()
	}
	if c.WarningWindow == 0 {
		c.WarningWindow = 120 * simkit.Second
	}
	if c.Latencies == (OpLatencies{}) {
		c.Latencies = DefaultOpLatencies()
	}
	if !c.VPC.IsValid() {
		c.VPC = netip.MustParsePrefix("10.0.0.0/16")
	}
}

// Stats counts platform-level events, exposed for tests and reports.
type Stats struct {
	Launched              int
	SpotLaunched          int
	WarningsIssued        int
	ForcedTerminations    int
	VoluntaryTerminations int
	ODStockouts           int
}

// Platform is the simulated native IaaS provider.
type Platform struct {
	sched *simkit.Scheduler
	cfg   Config
	rng   *rand.Rand

	types map[string]cloud.InstanceType

	nextInstance int
	nextVolume   int
	// instSlab holds every live instance's state in chunked, index-addressed
	// storage; instByID maps external ids to generation-checked handles.
	// destroy compacts a terminated instance: its slot is recycled and only
	// its id and final bill stay behind.
	instSlab *slab.Slab[instanceState]
	instByID map[cloud.InstanceID]slab.Handle
	// finalCost retains compacted instances' whole-life bills so AccruedCost
	// still answers after the ledger entry is gone; an id in it is a
	// terminated instance, not an unknown one.
	finalCost map[cloud.InstanceID]cloud.USD
	volumes   map[cloud.VolumeID]*cloud.Volume

	// spot instances grouped by market for revocation sweeps, id-ordered,
	// with the market's minimum outstanding bid tracked so a price change
	// at or below every bid skips the scan entirely.
	spotByMarket map[spotmarket.MarketKey]*spotList

	// ipAssigned indexes which live instance holds each assigned address,
	// replacing whole-ledger scans in AssignIP/ReleaseIP.
	ipAssigned map[cloud.Addr]*cloud.Instance

	// prefix lazily caches per-market cumulative price integrals for spot
	// billing.
	prefix map[spotmarket.MarketKey]*spotmarket.PrefixIntegral

	// priceCursors give SpotPrice amortized-O(1) lookups: the controller's
	// monitor loop samples every market each tick with sim time moving
	// forward, so a per-market cursor beats re-binary-searching the trace.
	priceCursors map[spotmarket.MarketKey]*spotmarket.Cursor
	// missingMarkets memoizes the not-found error per untraced market: the
	// catalog is larger than the traced set, so the monitor probes the same
	// missing pairs every tick and a fresh wrapped error each time is pure
	// allocation churn.
	missingMarkets map[spotmarket.MarketKey]error

	ipPool *ipPool

	// liveCount tracks non-terminated instances per type for Capacity.
	liveCount map[string]int

	revocationListeners []func(cloud.RevocationWarning)

	stats Stats
	met   *platMetrics
}

// Platform metric families. They live in the project-wide spotcheck_
// namespace (one scrape prefix, enforced by spotlint's metrichygiene
// check), with a cloudsim_ segment marking them as ground truth from the
// native provider rather than controller accounting.
const (
	metricWarnings     = "spotcheck_cloudsim_revocation_warnings_total"
	metricForced       = "spotcheck_cloudsim_forced_terminations_total"
	metricLaunched     = "spotcheck_cloudsim_instances_launched_total"
	metricPriceTicks   = "spotcheck_cloudsim_price_ticks_total"
	metricBillingFinal = "spotcheck_cloudsim_billing_finalized_usd_total"
)

// platMetrics holds the platform's pre-resolved instruments. A nil
// *platMetrics (no Config.Metrics) records nothing.
type platMetrics struct {
	reg        *obs.Registry
	warnings   *obs.Counter
	forced     *obs.Counter
	launchedOD *obs.Counter
	launchedSp *obs.Counter
}

func newPlatMetrics(reg *obs.Registry) *platMetrics {
	if reg == nil {
		return nil
	}
	m := &platMetrics{
		reg:        reg,
		warnings:   reg.Counter(metricWarnings),
		forced:     reg.Counter(metricForced),
		launchedOD: reg.Counter(metricLaunched, obs.L("market", "on-demand")),
		launchedSp: reg.Counter(metricLaunched, obs.L("market", "spot")),
	}
	reg.Describe(metricWarnings, "Revocation warnings issued to spot instances.")
	reg.Describe(metricForced, "Spot instances reclaimed at their warning deadline.")
	reg.Describe(metricLaunched, "Native instances launched, by market.")
	reg.Describe(metricPriceTicks, "Spot price changes observed, by market.")
	reg.Describe(metricBillingFinal, "Accrued cost of terminated instances, by market.")
	return m
}

// billed adds a terminated instance's final accrued cost to the billing
// counter for its market.
func (m *platMetrics) billed(market cloud.Market, usd float64) {
	if m == nil || usd <= 0 {
		return
	}
	m.reg.Counter(metricBillingFinal, obs.L("market", market.String())).Add(usd)
}

func (m *platMetrics) launched(market cloud.Market) {
	if m == nil {
		return
	}
	if market == cloud.MarketSpot {
		m.launchedSp.Inc()
	} else {
		m.launchedOD.Inc()
	}
}

type instanceState struct {
	inst        *cloud.Instance
	slot        slab.Handle          // this state's own slab handle
	market      spotmarket.MarketKey // spot only
	forcedKill  simkit.Event         // pending forced termination, if warned
	terminating bool
	// seq is the platform's launch counter for this instance — the numeric
	// suffix of its id. Ordering spot lists by seq instead of the id string
	// avoids the fold where "i-1000000" sorts before "i-999999" once ids
	// outgrow their zero padding, which would turn nearly every insert into
	// a whole-list walk.
	seq int
	// inList marks membership in the market's spotList, guarding against
	// a double remove (e.g. a voluntary terminate racing a forced kill);
	// listIdx is the entry's position there, kept current by compaction,
	// so removal is one indexed write.
	inList  bool
	listIdx int
	// reclaimed marks a spot instance the platform force-terminated (its
	// final partial billing period is then free under period billing).
	reclaimed bool
}

// instRef pairs an instance's slab handle with its launch seq, so ordered
// list operations compare entries without dereferencing the slab. A zeroed
// slot marks a dead entry awaiting compaction.
type instRef struct {
	slot slab.Handle
	seq  int
}

// spotList is one market's running spot instances, kept in launch order
// (deterministic warning delivery without a per-sweep copy-and-sort).
type spotList struct {
	// insts holds {handle, seq} refs, not pointers: refs are
	// pointer-free, so the slice is invisible to the GC and its copies
	// skip the write barrier. Mutation is O(1): insertion appends
	// (launch seqs are monotonic, so appends are already nearly sorted),
	// removal marks the entry dead in place via the instance's cached
	// index, and the list compacts once dead entries outnumber live
	// ones. The warning sweep needs the historical seq-sorted delivery
	// order, so the list re-sorts lazily (ordered) when a launch
	// completing out of order (start latency is sampled) has dirtied it
	// — rare next to the per-launch/destroy mutations, which a sorted
	// scheme taxed with an O(n) memmove each.
	insts    []instRef
	live     int
	unsorted bool
	lastSeq  int // largest launch seq ever inserted
	// minBid/minBidCount track the smallest outstanding bid and how many
	// instances hold it; a price move that stays at or below minBid cannot
	// underbid anyone, so the revocation sweep skips the whole market.
	minBid      cloud.USD
	minBidCount int
	minBidDirty bool
}

func (l *spotList) insert(st *instanceState) {
	st.inList = true
	if len(l.insts) == 0 || st.seq > l.lastSeq {
		l.lastSeq = st.seq
	} else {
		l.unsorted = true
	}
	st.listIdx = len(l.insts)
	l.insts = append(l.insts, instRef{slot: st.slot, seq: st.seq})
	l.live++
	bid := st.inst.Bid
	switch {
	case l.live == 1 || (!l.minBidDirty && bid < l.minBid):
		l.minBid, l.minBidCount, l.minBidDirty = bid, 1, false
	case !l.minBidDirty && bid == l.minBid:
		l.minBidCount++
	}
}

func (l *spotList) remove(s *slab.Slab[instanceState], st *instanceState) {
	if !st.inList {
		return
	}
	st.inList = false
	l.live--
	if st.listIdx < len(l.insts) && l.insts[st.listIdx].slot == st.slot {
		l.insts[st.listIdx].slot = slab.Handle{}
	}
	if l.live*2 < len(l.insts) {
		l.compact(s)
	}
	if !l.minBidDirty && st.inst.Bid == l.minBid {
		l.minBidCount--
		if l.minBidCount <= 0 {
			l.minBidDirty = true
		}
	}
}

// compact drops dead entries, preserving the live members' order and
// refreshing their cached positions. Only launch and destroy events mutate
// the list, so no walk is in flight.
func (l *spotList) compact(s *slab.Slab[instanceState]) {
	kept := l.insts[:0]
	for _, r := range l.insts {
		if r.slot == (slab.Handle{}) {
			continue
		}
		s.Get(r.slot).listIdx = len(kept)
		kept = append(kept, r)
	}
	l.insts = kept
}

// ordered returns the list in launch order — the deterministic delivery
// order the warning sweep relies on — restoring it first if out-of-order
// launches have dirtied it.
func (l *spotList) ordered(s *slab.Slab[instanceState]) []instRef {
	if l.unsorted {
		l.compact(s)
		refs := l.insts
		sort.Slice(refs, func(i, j int) bool { return refs[i].seq < refs[j].seq })
		for i, r := range refs {
			s.Get(r.slot).listIdx = i
		}
		l.unsorted = false
	}
	return l.insts
}

// floor returns the market's minimum outstanding bid, recomputing it after
// the last minimum-bid holder left.
func (l *spotList) floor(s *slab.Slab[instanceState]) cloud.USD {
	if l.minBidDirty {
		l.minBid, l.minBidCount = 0, 0
		for _, r := range l.insts {
			st := s.Get(r.slot)
			if st == nil || !st.inList {
				continue
			}
			switch {
			case l.minBidCount == 0 || st.inst.Bid < l.minBid:
				l.minBid, l.minBidCount = st.inst.Bid, 1
			case st.inst.Bid == l.minBid:
				l.minBidCount++
			}
		}
		l.minBidDirty = false
	}
	return l.minBid
}

// New builds a platform on the given scheduler.
func New(sched *simkit.Scheduler, cfg Config) (*Platform, error) {
	cfg.fillDefaults()
	if len(cfg.Traces) == 0 {
		return nil, fmt.Errorf("cloudsim: config needs spot price traces")
	}
	exp := cfg.ExpectedInstances
	p := &Platform{
		sched:        sched,
		cfg:          cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		types:        make(map[string]cloud.InstanceType, len(cfg.Catalog)),
		instSlab:     slab.New[instanceState](exp),
		instByID:     make(map[cloud.InstanceID]slab.Handle, exp),
		volumes:      make(map[cloud.VolumeID]*cloud.Volume, exp),
		spotByMarket: map[spotmarket.MarketKey]*spotList{},
		ipAssigned:   make(map[cloud.Addr]*cloud.Instance, exp),
		priceCursors: make(map[spotmarket.MarketKey]*spotmarket.Cursor, len(cfg.Traces)),
		finalCost:    make(map[cloud.InstanceID]cloud.USD, exp),
		ipPool:       newIPPool(cfg.VPC),
		liveCount:    map[string]int{},
		met:          newPlatMetrics(cfg.Metrics),
	}
	for _, it := range cfg.Catalog {
		p.types[it.Name] = it
	}
	// Walk each market's price trace; every price change may revoke.
	for _, key := range cfg.Traces.Keys() {
		p.walkMarket(key, cfg.Traces[key])
	}
	return p, nil
}

// Scheduler exposes the platform's event loop so co-simulated components
// (backup servers, workloads) share the same clock.
func (p *Platform) Scheduler() *simkit.Scheduler { return p.sched }

// Stats returns event counters.
func (p *Platform) Stats() Stats { return p.stats }

// Config returns the effective configuration (defaults filled).
func (p *Platform) Config() Config { return p.cfg }

// Now implements cloud.Provider.
func (p *Platform) Now() simkit.Time { return p.sched.Now() }

// Catalog implements cloud.Provider.
func (p *Platform) Catalog() []cloud.InstanceType {
	return append([]cloud.InstanceType(nil), p.cfg.Catalog...)
}

// TypeByName implements cloud.Provider.
func (p *Platform) TypeByName(name string) (cloud.InstanceType, bool) {
	it, ok := p.types[name]
	return it, ok
}

// Zones implements cloud.Provider.
func (p *Platform) Zones() []cloud.Zone {
	return append([]cloud.Zone(nil), p.cfg.Zones...)
}

// OnDemandPrice implements cloud.Provider.
func (p *Platform) OnDemandPrice(typ string) (cloud.USD, error) {
	it, ok := p.types[typ]
	if !ok {
		return 0, fmt.Errorf("%w: type %q", cloud.ErrNotFound, typ)
	}
	return it.OnDemand, nil
}

// SpotPrice implements cloud.Provider.
func (p *Platform) SpotPrice(typ string, zone cloud.Zone) (cloud.USD, error) {
	cur, err := p.cursor(typ, zone)
	if err != nil {
		return 0, err
	}
	return cur.PriceAt(p.sched.Now()), nil
}

// cursor returns the market's shared price cursor, creating it on first
// use. Callers only query at p.sched.Now(), which never moves backwards,
// so one cursor per market serves every SpotPrice call.
func (p *Platform) cursor(typ string, zone cloud.Zone) (*spotmarket.Cursor, error) {
	key := spotmarket.MarketKey{Type: typ, Zone: zone}
	if cur, ok := p.priceCursors[key]; ok {
		return cur, nil
	}
	tr, ok := p.cfg.Traces[key]
	if !ok {
		err, ok := p.missingMarkets[key]
		if !ok {
			err = fmt.Errorf("%w: no spot market for %s/%s", cloud.ErrNotFound, typ, zone)
			if p.missingMarkets == nil {
				p.missingMarkets = map[spotmarket.MarketKey]error{}
			}
			p.missingMarkets[key] = err
		}
		return nil, err
	}
	cur := new(spotmarket.Cursor)
	*cur = tr.Cursor()
	p.priceCursors[key] = cur
	return cur, nil
}

func (p *Platform) trace(typ string, zone cloud.Zone) (*spotmarket.Trace, error) {
	tr, ok := p.cfg.Traces[spotmarket.MarketKey{Type: typ, Zone: zone}]
	if !ok {
		return nil, fmt.Errorf("%w: no spot market for %s/%s", cloud.ErrNotFound, typ, zone)
	}
	return tr, nil
}

// RunOnDemand implements cloud.Provider.
func (p *Platform) RunOnDemand(typ string, zone cloud.Zone, cb cloud.InstanceCallback) {
	it, ok := p.types[typ]
	if !ok {
		cb(nil, fmt.Errorf("%w: type %q", cloud.ErrNotFound, typ))
		return
	}
	if p.cfg.ODStockoutProb > 0 && p.rng.Float64() < p.cfg.ODStockoutProb {
		p.stats.ODStockouts++
		cb(nil, fmt.Errorf("%w: on-demand %s in %s", cloud.ErrCapacity, typ, zone))
		return
	}
	if err := p.checkCapacity(typ); err != nil {
		p.stats.ODStockouts++
		cb(nil, err)
		return
	}
	st := p.newInstance(it, zone, cloud.MarketOnDemand, 0)
	h, id := st.slot, st.inst.ID
	delay := simkit.SampleSeconds(p.cfg.Latencies.StartOnDemand, p.rng)
	p.sched.After(delay, "od-launch", func() {
		// The slot may have been terminated-and-compacted mid-launch; the
		// generation check catches a recycled handle.
		st := p.instSlab.Get(h)
		if st == nil {
			cb(nil, fmt.Errorf("%w: instance %s terminated during launch", cloud.ErrBadState, id))
			return
		}
		p.finishLaunch(st, cb)
	})
}

// RequestSpot implements cloud.Provider.
func (p *Platform) RequestSpot(typ string, zone cloud.Zone, bid cloud.USD, cb cloud.InstanceCallback) {
	it, ok := p.types[typ]
	if !ok {
		cb(nil, fmt.Errorf("%w: type %q", cloud.ErrNotFound, typ))
		return
	}
	mcur, err := p.cursor(typ, zone)
	if err != nil {
		cb(nil, err)
		return
	}
	if cur := mcur.PriceAt(p.sched.Now()); bid <= cur {
		cb(nil, fmt.Errorf("%w: bid %v <= market %v for %s/%s", cloud.ErrBidTooLow, bid, cur, typ, zone))
		return
	}
	if err := p.checkCapacity(typ); err != nil {
		cb(nil, err)
		return
	}
	st := p.newInstance(it, zone, cloud.MarketSpot, bid)
	st.market = spotmarket.MarketKey{Type: typ, Zone: zone}
	h, id := st.slot, st.inst.ID
	delay := simkit.SampleSeconds(p.cfg.Latencies.StartSpot, p.rng)
	p.sched.After(delay, "spot-launch", func() {
		st := p.instSlab.Get(h)
		if st == nil {
			cb(nil, fmt.Errorf("%w: instance %s terminated during launch", cloud.ErrBadState, id))
			return
		}
		p.finishLaunch(st, cb)
		if st.inst.State != cloud.StateRunning {
			return
		}
		p.stats.SpotLaunched++
		list := p.spotByMarket[st.market]
		if list == nil {
			list = &spotList{}
			p.spotByMarket[st.market] = list
		}
		list.insert(st)
		// The price may have spiked past the bid while the launch was
		// pending; EC2 would warn immediately.
		if price := mcur.PriceAt(p.sched.Now()); price > st.inst.Bid {
			p.warn(st, price)
		}
	})
}

// checkCapacity enforces the per-type fleet cap.
func (p *Platform) checkCapacity(typ string) error {
	limit, capped := p.cfg.Capacity[typ]
	if !capped {
		return nil
	}
	if p.liveCount[typ] >= limit {
		return fmt.Errorf("%w: type %s at its capacity of %d", cloud.ErrCapacity, typ, limit)
	}
	return nil
}

// lookupInst resolves an external instance id to its live ledger entry (nil
// when unknown or compacted).
func (p *Platform) lookupInst(id cloud.InstanceID) *instanceState {
	h, ok := p.instByID[id]
	if !ok {
		return nil
	}
	return p.instSlab.Get(h)
}

// liveInst is lookupInst for operations on an instance: a compacted id is a
// terminated instance (ErrBadState), any other miss an unknown one
// (ErrNotFound).
func (p *Platform) liveInst(id cloud.InstanceID) (*instanceState, error) {
	if st := p.lookupInst(id); st != nil {
		return st, nil
	}
	if _, ok := p.finalCost[id]; ok {
		return nil, fmt.Errorf("%w: instance %s terminated", cloud.ErrBadState, id)
	}
	return nil, fmt.Errorf("%w: instance %s", cloud.ErrNotFound, id)
}

func (p *Platform) newInstance(it cloud.InstanceType, zone cloud.Zone, market cloud.Market, bid cloud.USD) *instanceState {
	p.nextInstance++
	id := cloud.InstanceID(fmt.Sprintf("i-%06d", p.nextInstance))
	st, h := p.instSlab.Alloc()
	*st = instanceState{
		slot: h,
		seq:  p.nextInstance,
		inst: &cloud.Instance{
			ID: id, Type: it, Zone: zone, Market: market, Bid: bid,
			State: cloud.StatePending,
		},
	}
	p.instByID[id] = h
	p.liveCount[it.Name]++
	return st
}

func (p *Platform) finishLaunch(st *instanceState, cb cloud.InstanceCallback) {
	if st.inst.State == cloud.StateTerminated {
		// Terminated while pending.
		cb(nil, fmt.Errorf("%w: instance %s terminated during launch", cloud.ErrBadState, st.inst.ID))
		return
	}
	st.inst.State = cloud.StateRunning
	st.inst.Launched = p.sched.Now()
	p.stats.Launched++
	p.met.launched(st.inst.Market)
	cb(st.inst, nil)
}

// Terminate implements cloud.Provider.
func (p *Platform) Terminate(id cloud.InstanceID, cb cloud.Callback) error {
	st, err := p.liveInst(id)
	if err != nil {
		return err
	}
	if st.inst.State == cloud.StateTerminated || st.terminating {
		return fmt.Errorf("%w: instance %s already terminated", cloud.ErrBadState, id)
	}
	st.terminating = true
	p.stats.VoluntaryTerminations++
	h := st.slot
	delay := simkit.SampleSeconds(p.cfg.Latencies.Terminate, p.rng)
	p.sched.After(delay, "terminate", func() {
		// A forced kill may have beaten this event and compacted the slot;
		// the handle check keeps the destroy off a recycled entry.
		if st := p.instSlab.Get(h); st != nil {
			p.destroy(st)
		}
		if cb != nil {
			cb(nil)
		}
	})
	return nil
}

// destroy finalizes termination: frees addresses, detaches volumes, removes
// the instance from revocation sweeps.
func (p *Platform) destroy(st *instanceState) {
	if st.inst.State == cloud.StateTerminated {
		return
	}
	if st.forcedKill.Pending() {
		p.sched.Cancel(st.forcedKill)
		st.forcedKill = simkit.Event{}
	}
	p.liveCount[st.inst.Type.Name]--
	st.inst.State = cloud.StateTerminated
	st.inst.Ended = p.sched.Now()
	// VPC semantics: addresses detach from the dead instance but remain
	// allocated to the renter, who may reassign them elsewhere (this is
	// what lets a nested VM keep its IP across a forced termination).
	for _, a := range st.inst.IPs {
		if p.ipAssigned[a] == st.inst {
			delete(p.ipAssigned, a)
		}
	}
	st.inst.IPs = nil
	for _, vid := range st.inst.Volumes {
		if v, ok := p.volumes[vid]; ok {
			v.AttachedTo = ""
		}
	}
	st.inst.Volumes = nil
	if st.inst.Market == cloud.MarketSpot {
		if list := p.spotByMarket[st.market]; list != nil {
			list.remove(p.instSlab, st)
		}
	}
	// Billing is finalized here: Ended is set, so AccruedCost is the
	// instance's whole-life bill.
	if p.met != nil {
		if cost, err := p.AccruedCost(st.inst.ID); err == nil {
			p.met.billed(st.inst.Market, float64(cost))
		}
	}
	p.compact(st)
}

// compact recycles a terminated instance's ledger slot, keeping only its
// final bill. The *cloud.Instance itself survives for any holder (the
// controller's rental ledger keeps the pointer); only the platform-side
// state is reclaimed.
func (p *Platform) compact(st *instanceState) {
	id := st.inst.ID
	if cost, err := p.AccruedCost(id); err == nil {
		p.finalCost[id] = cost
	}
	delete(p.instByID, id)
	slot := st.slot
	*st = instanceState{}
	p.instSlab.Free(slot)
}

// Instance implements cloud.Provider. Terminated instances are compacted
// and no longer resolvable.
func (p *Platform) Instance(id cloud.InstanceID) (*cloud.Instance, error) {
	st := p.lookupInst(id)
	if st == nil {
		return nil, fmt.Errorf("%w: instance %s", cloud.ErrNotFound, id)
	}
	return st.inst, nil
}

// OnRevocationWarning implements cloud.Provider.
func (p *Platform) OnRevocationWarning(fn func(cloud.RevocationWarning)) {
	p.revocationListeners = append(p.revocationListeners, fn)
}

// AccruedCost implements cloud.Provider. On-demand instances accrue the
// fixed rate; spot instances accrue the integral of the market price over
// their running interval (EC2 bills the market price, not the bid).
func (p *Platform) AccruedCost(id cloud.InstanceID) (cloud.USD, error) {
	st := p.lookupInst(id)
	if st == nil {
		// Compacted instances keep answering with their finalized bill.
		if cost, ok := p.finalCost[id]; ok {
			return cost, nil
		}
		return 0, fmt.Errorf("%w: instance %s", cloud.ErrNotFound, id)
	}
	inst := st.inst
	if inst.State == cloud.StatePending {
		return 0, nil
	}
	end := p.sched.Now()
	if inst.State == cloud.StateTerminated {
		end = inst.Ended
	}
	if p.cfg.BillingIncrement > 0 {
		return p.periodBilledCost(st, end)
	}
	switch inst.Market {
	case cloud.MarketOnDemand:
		return cloud.USD(float64(inst.Type.OnDemand) * end.Sub(inst.Launched).Hours()), nil
	case cloud.MarketSpot:
		pi, err := p.prefixFor(inst.Type.Name, inst.Zone)
		if err != nil {
			return 0, err
		}
		return pi.Integrate(inst.Launched, end), nil
	default:
		return 0, fmt.Errorf("%w: unknown market %v", cloud.ErrBadState, inst.Market)
	}
}

// prefixFor returns the market's cumulative price integral, building it on
// first use.
func (p *Platform) prefixFor(typ string, zone cloud.Zone) (*spotmarket.PrefixIntegral, error) {
	key := spotmarket.MarketKey{Type: typ, Zone: zone}
	if pi, ok := p.prefix[key]; ok {
		return pi, nil
	}
	tr, err := p.trace(typ, zone)
	if err != nil {
		return nil, err
	}
	if p.prefix == nil {
		p.prefix = map[spotmarket.MarketKey]*spotmarket.PrefixIntegral{}
	}
	pi := tr.PrefixIntegral()
	p.prefix[key] = pi
	return pi, nil
}

// periodBilledCost implements 2015-era EC2 billing: every started period
// is charged in full at the rate in effect at its start, except the final
// partial period of a platform-reclaimed spot instance, which is free.
func (p *Platform) periodBilledCost(st *instanceState, end simkit.Time) (cloud.USD, error) {
	inst := st.inst
	inc := p.cfg.BillingIncrement
	incHours := inc.Hours()
	var cur spotmarket.Cursor
	if inst.Market == cloud.MarketSpot {
		tr, err := p.trace(inst.Type.Name, inst.Zone)
		if err != nil {
			return 0, err
		}
		// Period starts walk forward; a cursor makes the per-period price
		// lookup O(1) instead of a binary search per billing increment.
		cur = tr.Cursor()
	}
	var total float64
	for start := inst.Launched; start < end; start += inc {
		partial := start+inc > end
		if partial && inst.Market == cloud.MarketSpot && st.reclaimed &&
			inst.State == cloud.StateTerminated {
			break // Amazon's rule: the interrupted partial hour is free
		}
		rate := float64(inst.Type.OnDemand)
		if inst.Market == cloud.MarketSpot {
			rate = float64(cur.PriceAt(start))
		}
		total += rate * incHours
	}
	return cloud.USD(total), nil
}

// walkMarket schedules an event at every price change of the market and
// issues revocation warnings to underbid spot instances.
func (p *Platform) walkMarket(key spotmarket.MarketKey, tr *spotmarket.Trace) {
	// Resolve the per-market tick counter once, outside the hot closure.
	var ticks *obs.Counter
	if p.met != nil {
		ticks = p.met.reg.Counter(metricPriceTicks, obs.L("market", key.String()))
	}
	// The walk visits price changes strictly forward; a private cursor
	// (separate from the SpotPrice one, which trails at Now) keeps each
	// step O(1).
	cur := tr.Cursor()
	var step func(from simkit.Time)
	step = func(from simkit.Time) {
		next, ok := cur.NextChangeAfter(from)
		if !ok {
			return
		}
		p.sched.At(next, "price-change", func() {
			if ticks != nil {
				ticks.Inc()
			}
			price := cur.PriceAt(next)
			// The list is id-ordered (deterministic warning delivery) and
			// mutated only from launch/destroy events, never synchronously
			// under a warning, so the live slice is safe to walk. A price
			// at or below every outstanding bid cannot underbid anyone —
			// skip the scan without touching a single instance.
			if list := p.spotByMarket[key]; list != nil &&
				list.live > 0 && price > list.floor(p.instSlab) {
				for _, r := range list.ordered(p.instSlab) {
					st := p.instSlab.Get(r.slot)
					if st == nil || !st.inList {
						continue
					}
					if st.inst.State == cloud.StateRunning && price > st.inst.Bid {
						p.warn(st, price)
					}
				}
			}
			step(next)
		})
	}
	step(0)
}

func (p *Platform) warn(st *instanceState, price cloud.USD) {
	if st.inst.State != cloud.StateRunning {
		return
	}
	st.inst.State = cloud.StateWarned
	now := p.sched.Now()
	deadline := now + p.cfg.WarningWindow
	w := cloud.RevocationWarning{
		Instance: st.inst,
		Issued:   now,
		Deadline: deadline,
		Price:    price,
	}
	p.stats.WarningsIssued++
	if p.met != nil {
		p.met.warnings.Inc()
	}
	st.forcedKill = p.sched.At(deadline, "forced-kill", func() {
		st.forcedKill = simkit.Event{}
		if st.inst.State == cloud.StateTerminated {
			return
		}
		p.stats.ForcedTerminations++
		if p.met != nil {
			p.met.forced.Inc()
		}
		st.reclaimed = true
		p.destroy(st)
	})
	for _, fn := range p.revocationListeners {
		fn(w)
	}
}

var _ cloud.Provider = (*Platform)(nil)
