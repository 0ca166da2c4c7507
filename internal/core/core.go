package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/backup"
	"repro/internal/cloud"
	"repro/internal/migration"
	"repro/internal/nestedvm"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/slab"
	"repro/internal/spotmarket"
	"repro/internal/workload"
)

// PoolKey identifies one server pool: native servers of one type in one
// zone under one contract. SpotCheck keeps separate spot and on-demand
// pools per type (§4.1).
type PoolKey struct {
	Type   string
	Zone   cloud.Zone
	Market cloud.Market
}

// String concatenates by hand rather than via fmt: pool keys label
// metric series and every rendered pool-scoped event.
func (k PoolKey) String() string {
	return k.Type + "/" + string(k.Zone) + "/" + k.Market.String()
}

// Config assembles a controller.
type Config struct {
	Scheduler *simkit.Scheduler
	Provider  cloud.Provider

	// Mechanism selects the migration variant (Figures 10-12 compare all
	// five). Defaults to migration.SpotCheckLazy, the full system.
	Mechanism migration.Mechanism
	// Bound is the bounded-time migration guarantee. The paper uses a
	// conservative 30 s, well under EC2's 120 s warning.
	Bound simkit.Time
	// CheckpointBandwidthMBs is the per-VM bandwidth to the backup server.
	CheckpointBandwidthMBs float64
	// LiveBandwidthMBs is host-to-host bandwidth for live migrations.
	LiveBandwidthMBs float64

	// Placement maps new VMs to spot pools (Table 2's policies).
	Placement PlacementPolicy
	// Bidding sets spot bids (§4.3: on-demand price, or k× on-demand with
	// proactive migration).
	Bidding BiddingPolicy
	// Destination selects where revoked VMs go (§4.3).
	Destination DestinationPolicy
	// HotSpares is the number of idle on-demand servers kept ready when
	// Destination is DestHotSpare.
	HotSpares int
	// HotSpareType is the native type of hot spares (defaults to
	// cloud.M3Medium).
	HotSpareType string

	// Backup configures backup servers; BackupType is the native type
	// rented for them (defaults to m3.xlarge, the paper's choice).
	Backup     backup.Config
	BackupType string
	BackupZone cloud.Zone

	// Workload is the application profile VMs run (drives dirty rate and
	// the degradation sensor). Defaults to workload.TPCW().
	Workload workload.Profile

	// MonitorInterval is the controller's price/rebalance poll period.
	// Defaults to 1 minute.
	MonitorInterval simkit.Time
	// ReturnHoldDown is how long a spot pool's price must stay below the
	// on-demand price before VMs migrate back from on-demand hosts.
	// Defaults to 10 minutes.
	ReturnHoldDown simkit.Time
	// RebootSeconds is the recovery time when a VM's memory state is lost
	// (live migration overrun): the VM restarts from its network volume.
	RebootSeconds float64
	// BootSeconds is how long a stateless VM takes to boot from its
	// volume on a new host after a revocation (defaults to 30 s).
	BootSeconds float64

	// Metrics receives every controller instrument (counters, gauges,
	// histograms). Defaults to a fresh private registry, so metrics are
	// always recorded; pass a shared registry to expose them (spotcheckd's
	// /metrics, spotsim's -metrics summary).
	Metrics *obs.Registry
	// Trace receives structured controller events (a bounded ring).
	// Defaults to a fresh ring of obs.DefaultTraceCap events.
	Trace *obs.Trace

	// NetworkAwareSlicing caps host slicing so every nested VM keeps its
	// requested type's full network share (cloud.CompatibleUnits instead
	// of cloud.Units): an m3.large (85 MB/s) then hosts one 60 MB/s
	// medium slice, not two. The cheapest-compatible policy prices
	// candidates with CompatibleUnits, so turning this on makes the
	// controller pack exactly what the policy priced. Default off: the
	// paper's figures slice by vCPU/memory alone, and the golden-pinned
	// runs rely on that capacity.
	NetworkAwareSlicing bool

	// Predictive enables trend-based proactive migration (§3.2): when a
	// spot pool's price rises toward the bid, live-migrate before the
	// platform can issue a revocation. Mispredictions risk losing the
	// final pre-copy rounds; with a backup-based mechanism the VM falls
	// back to restoring from its checkpoint, without one it loses memory
	// state — exactly the risk the paper describes.
	Predictive PredictiveConfig

	// ExpectedVMs pre-sizes the controller's fleet state — the VM and host
	// slabs, the boundary ID maps and the rental ledger — so a run of known
	// scale never grows them mid-simulation. Zero starts small and grows on
	// demand.
	ExpectedVMs int
	// Deprecated: ignored; the fleet layout is the only layout. Kept
	// because perfbench/traced.go and perfbench/workloads.go set it.
	RecycleReleased bool

	// Seed drives the controller's probabilistic policies.
	Seed int64
}

func (c *Config) fillDefaults() error {
	if c.Scheduler == nil || c.Provider == nil {
		return fmt.Errorf("core: Scheduler and Provider are required")
	}
	if c.Bound == 0 {
		c.Bound = 30 * simkit.Second
	}
	if c.CheckpointBandwidthMBs == 0 {
		c.CheckpointBandwidthMBs = 40
	}
	if c.LiveBandwidthMBs == 0 {
		c.LiveBandwidthMBs = 60
	}
	if c.Placement == nil {
		c.Placement = Policy1PM()
	}
	if c.Bidding == nil {
		c.Bidding = OnDemandBid{}
	}
	if c.HotSpareType == "" {
		c.HotSpareType = cloud.M3Medium
	}
	if c.BackupType == "" {
		c.BackupType = cloud.M3XLarge
	}
	if c.BackupZone == "" {
		zones := c.Provider.Zones()
		if len(zones) == 0 {
			return fmt.Errorf("core: provider has no zones")
		}
		c.BackupZone = zones[0]
	}
	if c.Workload.Name == "" {
		c.Workload = workload.TPCW()
	}
	if c.MonitorInterval == 0 {
		c.MonitorInterval = simkit.Minute
	}
	if c.ReturnHoldDown == 0 {
		c.ReturnHoldDown = 10 * simkit.Minute
	}
	if c.RebootSeconds == 0 {
		c.RebootSeconds = 150
	}
	if c.BootSeconds == 0 {
		c.BootSeconds = 30
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Trace == nil {
		c.Trace = obs.NewTrace(0)
	}
	return nil
}

// vmPhase is the controller's internal lifecycle for a nested VM.
type vmPhase int

const (
	phaseProvisioning vmPhase = iota
	phaseRunning
	phaseMigrating
	phaseReleased
)

type vmState struct {
	vm       *nestedvm.VM
	phase    vmPhase
	host     *hostState
	workload workload.Profile
	// pendingRelease marks a VM whose customer released it mid-migration.
	pendingRelease bool
	// lazyDegradeEvent tracks the post-restore demand-paging window.
	lazyDegradeEvent simkit.Event
	// restoreSrv holds the backup server serving an in-progress lazy
	// restore (so its restore slot is released even on early teardown).
	restoreSrv *backup.Server
	// serviceEnd records when a released VM left service.
	serviceEnd simkit.Time
	// returnTarget is the spot pool tryReturn validated for the pending
	// return migration.
	returnTarget PoolKey
	// homePool is the spot pool the placement policy originally assigned;
	// returns after a spike go back there so the policy's distribution of
	// VMs across pools (Table 2) stays stable over time.
	homePool PoolKey
	// stateless marks a VM whose service tolerates memory-state loss
	// (e.g. a replicated web tier, §4.2): it runs without a backup server
	// and simply reboots from its volume on a new host after revocation.
	stateless bool
	// slot is this state's slab handle: scheduled callbacks that may
	// outlive the VM capture it and re-check liveness before touching the
	// (possibly recycled) slot.
	slot slab.Handle
	// pinnedSrc is the terminated migration destination this VM's recovery
	// chain still references as its source; the pin keeps that host's slot
	// from being recycled until the chain re-enters completeMove.
	pinnedSrc *hostState
	// events is the VM's bounded audit timeline as typed records (see
	// record); num is the VM's creation number, its trace subject.
	events []obs.Record
	num    uint32
}

type hostRole int

const (
	roleHost hostRole = iota
	roleHotSpare
	roleBackup
)

type hostState struct {
	inst     *cloud.Instance
	key      PoolKey
	role     hostRole
	slotType cloud.InstanceType // nested VM size this host is sliced into
	capacity int
	// vms holds the resident VMs sorted by VM id — the iteration order
	// every sweep and warning handler needs, maintained incrementally
	// instead of copied and re-sorted per walk.
	vms      []*vmState
	reserved int // slots claimed by in-flight placements/migrations
	// warned marks a host whose revocation warning has fired.
	warned       bool
	warnDeadline simkit.Time
	// slot is this state's slab handle (see vmState.slot).
	slot slab.Handle
	// pinned counts in-flight recovery chains still holding this host as
	// their migration source after it terminated; a pinned host's slot is
	// never recycled (see completeMove's dst-terminated branch).
	pinned int
	// inFreeSet marks membership in the pool's free-host candidate set;
	// freeIdx is the entry's position there, kept current by the lazy
	// prune, so leaving the set is one indexed write.
	inFreeSet bool
	freeIdx   int
	// inHosts marks membership in the pool's host list; poolIdx is the
	// entry's position there, kept current by compaction and re-sorting.
	inHosts bool
	poolIdx int
	// seq is the numeric tail of the instance id (see instanceSeq),
	// cached when the host is bound to its instance.
	seq uint64
	// nameRef is the host's interned instance id in event records (0 until
	// an event first mentions the host).
	nameRef uint32
}

// instanceSeq extracts the trailing decimal sequence from an instance id
// ("i-001234" → 1234). Platform ids are zero-padded to six digits, so the
// string order the host lists historically kept agrees with numeric order
// up to the fleet's millionth instance — where string order folds
// ("i-1000000" < "i-999999") and every later acquisition would splice into
// the middle of every list. Ordering by (seq, id) preserves the historical
// order exactly where it was well-formed and stays append-friendly past
// the fold. Ids without trailing digits get seq 0 and order by string.
func instanceSeq(id cloud.InstanceID) uint64 {
	end := len(id)
	start := end
	for start > 0 && id[start-1] >= '0' && id[start-1] <= '9' {
		start--
	}
	if start == end || end-start > 19 {
		return 0
	}
	var n uint64
	for i := start; i < end; i++ {
		n = n*10 + uint64(id[i]-'0')
	}
	return n
}

// hostLess orders hosts by (seq, instance id) — numeric sequence first,
// string id as the tie-break for foreign id formats.
func hostLess(a, b *hostState) bool {
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.inst.ID < b.inst.ID
}

// hostRef pairs a host's slab handle with its launch seq, so the ordered
// pool lists binary-search and compare entries without dereferencing the
// slab. A zeroed slot marks a dead entry awaiting compaction.
type hostRef struct {
	slot slab.Handle
	seq  uint64
}

func (h *hostState) free() int { return h.capacity - len(h.vms) - h.reserved }

// vmByID finds a resident VM by id (binary search over the sorted slice).
func (h *hostState) vmByID(id nestedvm.ID) *vmState {
	i := sort.Search(len(h.vms), func(i int) bool { return h.vms[i].vm.ID >= id })
	if i < len(h.vms) && h.vms[i].vm.ID == id {
		return h.vms[i]
	}
	return nil
}

type poolState struct {
	key PoolKey
	bid cloud.USD
	// hosts holds the pool's hosts as hostRefs rather than *hostState:
	// refs are pointer-free, so the list is invisible to the GC and its
	// copies skip the write barrier. Mutation is O(1): insertion appends
	// (launch seqs are monotonic, so appends are already nearly sorted),
	// removal marks the entry dead in place via the host's cached index,
	// and the list compacts once dead entries outnumber live ones. The
	// sweeps need the historical seq-sorted walk order, so the list
	// re-sorts lazily (orderedPoolHosts) when an out-of-order insert has
	// dirtied it — rare next to the per-event mutations, which a sorted
	// scheme taxed with an O(n) memmove each. hostsLive counts the live
	// members (the number the pool gauge and the sweeps see).
	hosts         []hostRef
	hostsLive     int
	hostsUnsorted bool
	// lastSeq is the largest seq ever inserted into hosts.
	lastSeq uint64
	// freeCands is a superset of the pool's hosts with free slots, in
	// arrival order: freeHost scans every candidate anyway, so the set
	// needs no order — the historical id-ordered choice is reproduced by
	// the scan's (free, seq, id) comparator. Hosts enter whenever their
	// free capacity rises from zero and leave lazily when a scan finds
	// them full, warned or dead.
	freeCands []hostRef
	// vmCount is the incremental sum of len(h.vms) across hosts, keeping
	// the pool-occupancy gauge O(1) to refresh.
	vmCount int
	// revocations counts revocation events hitting this pool.
	revocations int
}

// Controller is the SpotCheck derivative cloud.
type Controller struct {
	cfg   Config
	sched *simkit.Scheduler
	prov  cloud.Provider
	rng   *rand.Rand

	pools map[PoolKey]*poolState
	// poolKeys caches the sorted pool keys (pools are never removed);
	// poolKeyScratch is the reusable snapshot the sweeps iterate, since a
	// sweep can create pools mid-walk.
	poolKeys       []PoolKey
	poolKeyScratch []PoolKey

	// vmSlab and hostSlab hold all controller-side VM and host state in
	// index-addressed, pre-sizable chunks; vmIndex and hostIndex are the
	// boundary maps translating external IDs to generation-checked
	// handles. Internal code passes stable *vmState/*hostState pointers.
	vmSlab    *slab.Slab[vmState]
	vmIndex   map[nestedvm.ID]slab.Handle
	hostSlab  *slab.Slab[hostState]
	hostIndex map[cloud.InstanceID]slab.Handle

	backups *backup.Pool
	// backupHosts maps backup server id -> native instance state.
	backupHosts map[string]*hostState

	spares       []*hostState // ready hot spares
	sparePending int

	// acqIndex holds in-flight host acquisitions that can still absorb
	// waiters, keyed by pool and slice size; filled or finished entries
	// are pruned lazily on lookup.
	acqIndex map[acqKey][]*pendingAcq

	history *History
	// names interns the hosts, pools and strings event records refer to;
	// traceSrc is the controller's source in the trace ring.
	names    *eventNames
	traceSrc obs.Source

	nextVM int

	// rentals tracks the rented native instances whose bills have not yet
	// folded into rentalFinal (for cost). Each entry memoizes its final
	// cost once the instance terminates, and the finalized entries
	// periodically fold into rentalFinal so the ledger stays proportional
	// to live instances.
	rentals         []rental
	rentalFinal     [3]cloud.USD // folded cost by rentalKind
	rentalsScrubbed int          // ledger length after the last fold

	// lastAboveOD stamps when each market's price last met or exceeded
	// the on-demand price (return hold-down, §4.3).
	lastAboveOD map[spotmarket.MarketKey]simkit.Time
	// prevPrice holds the previous monitor sample per market (for the
	// predictive trend check).
	prevPrice map[spotmarket.MarketKey]cloud.USD
	// prevPriceSpare is the idle half of the monitor's double-buffered
	// sample maps: each tick swaps it in (cleared) instead of copying,
	// so the per-tick snapshot allocates nothing.
	prevPriceSpare map[spotmarket.MarketKey]cloud.USD
	// tickPrices is the per-tick market snapshot observePrices builds and
	// the sweeps consume, so one tick queries each market's cursor once
	// instead of once per pool (and once per VM in the return sweep).
	tickPrices map[spotmarket.MarketKey]marketSample
	// calmCache memoizes spotCalmFor per requested-type name within one
	// tick: every VM of a type shares the same market-calm answer.
	calmCache map[string]bool
	// observable enumerates the provider's (HVM type, zone) market grid,
	// resolved once at startup: the catalog and zone set are fixed for a
	// provider's lifetime, and caching the pairs keeps observePrices from
	// copying the catalog — and the zone list per type — on every tick.
	observable []observableMarket

	// met holds the pre-resolved observability instruments; Stats() derives
	// ControllerStats from it.
	met *coreMetrics

	// storms records concurrent-revocation batches (Table 3).
	storms []StormEvent

	// monitorEvent is the pending monitor tick, cancelled on Shutdown.
	monitorEvent simkit.Event
	// shutdown marks a drained controller: no new spares or placements.
	shutdown bool
}

// marketSample is one market's per-tick observation: its spot price and the
// matching on-demand price (odOK false when the type has no on-demand
// quote, which the sweeps treat as the market being unusable).
type marketSample struct {
	price cloud.USD
	od    cloud.USD
	odOK  bool
}

// ControllerStats counts controller-level events.
type ControllerStats struct {
	VMsCreated          int
	VMsReleased         int
	Migrations          int
	Revocations         int
	ProactiveMigrations int
	ReturnMigrations    int
	StagingMigrations   int
	VMsLostMemoryState  int
	HostsAcquired       int
	SlicedHosts         int
	DestinationFailures int
	// PredictiveMigrations counts trend-triggered evacuations;
	// PredictiveMisses counts those whose source was revoked mid-copy.
	PredictiveMigrations int
	PredictiveMisses     int
}

// rentalKind classifies what a rented native instance is for, so the
// report can split costs into hosting, backup and spare components.
type rentalKind int

const (
	rentalHost rentalKind = iota
	rentalBackup
	rentalSpare
)

type rental struct {
	inst *cloud.Instance
	kind rentalKind
	// cost memoizes the instance's final bill once it terminates, so
	// repeated Reports stop re-walking finished instances' price history.
	cost  cloud.USD
	final bool
}

// StormEvent records one batch of concurrent revocations (Table 3).
type StormEvent struct {
	At   simkit.Time
	Pool PoolKey
	// VMs is how many nested VMs had to migrate concurrently.
	VMs int
}

// New builds a controller and registers it with the provider.
func New(cfg Config) (*Controller, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if _, ok := cfg.Provider.TypeByName(cfg.BackupType); !ok {
		return nil, fmt.Errorf("core: backup type %q not in catalog", cfg.BackupType)
	}
	exp := cfg.ExpectedVMs
	c := &Controller{
		cfg:         cfg,
		sched:       cfg.Scheduler,
		prov:        cfg.Provider,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		pools:       map[PoolKey]*poolState{},
		vmSlab:      slab.New[vmState](exp),
		vmIndex:     make(map[nestedvm.ID]slab.Handle, exp),
		hostSlab:    slab.New[hostState](exp),
		hostIndex:   make(map[cloud.InstanceID]slab.Handle, exp),
		backupHosts: map[string]*hostState{},
		acqIndex:    map[acqKey][]*pendingAcq{},
		history:     NewHistory(),
		names:       newEventNames(),
		met:         newCoreMetrics(cfg.Metrics, cfg.Trace),
	}
	c.traceSrc = cfg.Trace.Register(c.names)
	if exp > 0 {
		c.rentals = make([]rental, 0, exp)
	}
	// Backup-server I/O tuning follows the mechanism: the SpotCheck
	// variants run the fadvise/ext4-tuned backup servers of §5.
	c.cfg.Backup.OptimizedIO = cfg.Mechanism.Optimized()
	c.backups = backup.NewPool(c.cfg.Backup, c.onBackupProvisioned)
	c.backups.SetMetrics(backup.NewMetrics(c.cfg.Metrics))
	c.prov.OnRevocationWarning(c.onRevocationWarning)
	c.startMonitor()
	for i := 0; i < cfg.HotSpares; i++ {
		c.requestSpare()
	}
	return c, nil
}

// Mechanism reports the configured migration mechanism.
func (c *Controller) Mechanism() migration.Mechanism { return c.cfg.Mechanism }

// Storms returns the recorded concurrent-revocation batches.
func (c *Controller) Storms() []StormEvent { return append([]StormEvent(nil), c.storms...) }

// History exposes the controller's market observations (for policies and
// reports).
func (c *Controller) History() *History { return c.history }

// vmIDsSorted returns all tracked VM ids in stable order.
func (c *Controller) vmIDsSorted() []nestedvm.ID {
	ids := make([]nestedvm.ID, 0, len(c.vmIndex))
	for id := range c.vmIndex {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// lookupVM resolves an external VM id to its state (nil if unknown).
// Released VMs stay resolvable for DescribeVM and Events.
func (c *Controller) lookupVM(id nestedvm.ID) *vmState {
	h, ok := c.vmIndex[id]
	if !ok {
		return nil
	}
	return c.vmSlab.Get(h)
}

// lookupHost resolves a native instance id to its live host state.
func (c *Controller) lookupHost(id cloud.InstanceID) *hostState {
	h, ok := c.hostIndex[id]
	if !ok {
		return nil
	}
	return c.hostSlab.Get(h)
}

// newVMState allocates a slab slot for a fresh VM.
func (c *Controller) newVMState() *vmState {
	vs, h := c.vmSlab.Alloc()
	*vs = vmState{slot: h}
	return vs
}

// newHostState allocates a slab slot for a fresh host. The recycled slot's
// VM slice buffer is kept so churned hosts stop allocating.
func (c *Controller) newHostState() *hostState {
	h, slot := c.hostSlab.Alloc()
	buf := h.vms
	*h = hostState{slot: slot}
	h.vms = buf[:0]
	return h
}

// hostAddVM inserts a VM into its host's sorted resident list and keeps the
// pool's occupancy counter current.
func (c *Controller) hostAddVM(h *hostState, vs *vmState) {
	i := sort.Search(len(h.vms), func(i int) bool { return h.vms[i].vm.ID >= vs.vm.ID })
	h.vms = append(h.vms, nil)
	copy(h.vms[i+1:], h.vms[i:])
	h.vms[i] = vs
	if h.role == roleHost {
		if pool := c.pools[h.key]; pool != nil {
			pool.vmCount++
		}
	}
}

// hostRemoveVM removes a VM from its host's resident list (no-op when
// absent, e.g. a recovery chain replaying a move off an already-emptied
// terminated host) and re-offers the freed slot to placements.
func (c *Controller) hostRemoveVM(h *hostState, vs *vmState) {
	i := sort.Search(len(h.vms), func(i int) bool { return h.vms[i].vm.ID >= vs.vm.ID })
	if i >= len(h.vms) || h.vms[i] != vs {
		return
	}
	copy(h.vms[i:], h.vms[i+1:])
	h.vms[len(h.vms)-1] = nil
	h.vms = h.vms[:len(h.vms)-1]
	if h.role == roleHost {
		if pool := c.pools[h.key]; pool != nil {
			pool.vmCount--
		}
	}
	c.hostFreed(h)
}

// hostFreed records that a host may have regained free capacity, entering
// it into its pool's free-host candidate set. Callers invoke it at every
// point where free() can rise from zero; ineligible hosts are pruned
// lazily by freeHost's scan.
func (c *Controller) hostFreed(h *hostState) {
	if h.role != roleHost || h.inFreeSet || h.warned || h.free() <= 0 {
		return
	}
	if h.inst == nil || h.inst.State != cloud.StateRunning {
		return
	}
	pool := c.pools[h.key]
	if pool == nil {
		return
	}
	h.freeIdx = len(pool.freeCands)
	pool.freeCands = append(pool.freeCands, hostRef{slot: h.slot, seq: h.seq})
	h.inFreeSet = true
}

// addPoolHost enters h into its pool's host list — always an append.
// Acquisitions complete nearly in launch order, so the list stays sorted
// by itself; a completion landing behind a newer one (sampled launch
// latencies reorder a burst) just dirties the order, repaired lazily the
// next time a sweep needs the sorted walk.
func (c *Controller) addPoolHost(pool *poolState, h *hostState) {
	h.inHosts = true
	if len(pool.hosts) == 0 || h.seq > pool.lastSeq {
		pool.lastSeq = h.seq
	} else {
		pool.hostsUnsorted = true
	}
	h.poolIdx = len(pool.hosts)
	pool.hosts = append(pool.hosts, hostRef{slot: h.slot, seq: h.seq})
	pool.hostsLive++
}

// dropPoolHost removes h from its pool's host list (no-op when absent) —
// one indexed write via the host's cached position, compacting once dead
// entries outnumber live ones. List mutation only happens from acquisition
// and retire events, never mid-sweep, so the compaction cannot disturb a
// walk.
func (c *Controller) dropPoolHost(pool *poolState, h *hostState) {
	if !h.inHosts {
		return
	}
	h.inHosts = false
	pool.hostsLive--
	if h.poolIdx < len(pool.hosts) && pool.hosts[h.poolIdx].slot == h.slot {
		pool.hosts[h.poolIdx].slot = slab.Handle{}
	}
	if pool.hostsLive*2 < len(pool.hosts) {
		c.compactPoolHosts(pool)
	}
}

// compactPoolHosts drops dead entries, preserving the live members' order
// and refreshing their cached positions.
func (c *Controller) compactPoolHosts(pool *poolState) {
	kept := pool.hosts[:0]
	for _, r := range pool.hosts {
		if r.slot == (slab.Handle{}) {
			continue
		}
		c.hostSlab.Get(r.slot).poolIdx = len(kept)
		kept = append(kept, r)
	}
	pool.hosts = kept
}

// orderedPoolHosts returns the pool's host list in seq order — the
// deterministic walk order the sweeps and reports rely on — restoring it
// first if out-of-order acquisitions have dirtied it.
func (c *Controller) orderedPoolHosts(pool *poolState) []hostRef {
	if pool.hostsUnsorted {
		c.compactPoolHosts(pool)
		s := pool.hosts
		sort.Slice(s, func(i, j int) bool {
			if s[i].seq != s[j].seq {
				return s[i].seq < s[j].seq
			}
			return c.hostSlab.Get(s[i].slot).inst.ID < c.hostSlab.Get(s[j].slot).inst.ID
		})
		for i, r := range s {
			c.hostSlab.Get(r.slot).poolIdx = i
		}
		pool.hostsUnsorted = false
	}
	return pool.hosts
}

// maybeScrubRentals compacts the rental ledger: terminated instances'
// bills never change, so their final costs fold into rentalFinal and the
// entries drop. Amortized triggering (the ledger must double since the last
// scrub) keeps the whole-ledger pass O(1) per append.
func (c *Controller) maybeScrubRentals() {
	if len(c.rentals) < 64 || len(c.rentals) < 2*c.rentalsScrubbed {
		return
	}
	kept := c.rentals[:0]
	for i := range c.rentals {
		rt := c.rentals[i]
		if !rt.final && rt.inst.State == cloud.StateTerminated {
			if cost, err := c.prov.AccruedCost(rt.inst.ID); err == nil {
				rt.cost, rt.final = cost, true
			}
		}
		if rt.final {
			c.rentalFinal[rt.kind] += rt.cost
		} else {
			kept = append(kept, rt)
		}
	}
	for i := len(kept); i < len(c.rentals); i++ {
		c.rentals[i] = rental{}
	}
	c.rentals = kept
	c.rentalsScrubbed = len(kept)
}
