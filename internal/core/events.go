package core

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/cloud"
	"repro/internal/nestedvm"
	"repro/internal/obs"
	"repro/internal/simkit"
)

// EventKind classifies controller events in a nested VM's audit timeline.
type EventKind string

// Event kinds, in rough lifecycle order.
const (
	EventRequested EventKind = "requested"
	EventPlaced    EventKind = "placed"     // entered service on a host
	EventWarned    EventKind = "warned"     // host received a revocation warning
	EventPaused    EventKind = "paused"     // final flush pause began
	EventMigrated  EventKind = "migrated"   // running on a new host
	EventReturned  EventKind = "returned"   // back on a spot host
	EventStateLost EventKind = "state-lost" // memory state lost (live overrun)
	EventReleased  EventKind = "released"
)

// Event is one entry in a VM's audit timeline.
type Event struct {
	At   simkit.Time `json:"at"`
	Kind EventKind   `json:"kind"`
	// Detail is a human-readable elaboration (host, pool, reason).
	Detail string `json:"detail"`
}

func (e Event) String() string {
	return fmt.Sprintf("%-12v %-10s %s", e.At, e.Kind, e.Detail)
}

// timelineCap bounds each VM's audit timeline on months-long simulations.
// On overflow the oldest half goes, so the newest events always win.
const timelineCap = 256

// eventCode is a controller event's shape: it fixes the event's scope,
// kind and detail template, and what the record's operands hold. The
// record is appended as plain data; renderDetail formats it on read.
type eventCode uint16

const (
	_ eventCode = iota
	// VM events: the trace subject is the VM's number. Those up to
	// evLiveOverrun also enter the VM's timeline.
	evRequested      // Ref customer name, A type name, B stateless (0/1)
	evPlaced         // Ref host, A pool
	evReleased       //
	evRevoked        // Ref host, A price (float64 bits), B time to deadline
	evLandedWarned   // Ref host
	evPaused         // A flush downtime
	evMigrated       // Ref host, A pool
	evReturned       // Ref host, A pool
	evDestDied       // Ref host
	evPredictiveMiss //
	evLiveOverrun    //
	evMigrationStart // Ref source host, A migrationReason
	evMigrationAbort //
	// Host events: the subject is the host.
	evHostAcquired // A pool, B capacity
	evHostRetired  // A pool
	// Pool and market events: the subject is the pool.
	evRevocationBatch // A VMs displaced
	evBid             // A bid, B on-demand price (float64 bits)
	numEventCodes
)

// eventShapes gives each code's trace scope and kind.
var eventShapes = [numEventCodes]struct{ scope, kind string }{
	evRequested:       {"vm", string(EventRequested)},
	evPlaced:          {"vm", string(EventPlaced)},
	evReleased:        {"vm", string(EventReleased)},
	evRevoked:         {"vm", string(EventWarned)},
	evLandedWarned:    {"vm", string(EventWarned)},
	evPaused:          {"vm", string(EventPaused)},
	evMigrated:        {"vm", string(EventMigrated)},
	evReturned:        {"vm", string(EventReturned)},
	evDestDied:        {"vm", string(EventStateLost)},
	evPredictiveMiss:  {"vm", string(EventStateLost)},
	evLiveOverrun:     {"vm", string(EventStateLost)},
	evMigrationStart:  {"vm", "migration-start"},
	evMigrationAbort:  {"vm", "migration-abort"},
	evHostAcquired:    {"host", "acquired"},
	evHostRetired:     {"host", "retired"},
	evRevocationBatch: {"pool", "revocation-batch"},
	evBid:             {"market", "bid"},
}

// vmName is the id of the n-th nested VM the controller creates; trace
// records carry n and render the id on read.
func vmName(n uint32) nestedvm.ID { return nestedvm.ID(fmt.Sprintf("nvm-%05d", n)) }

// eventNames interns the names controller events refer to, so a record
// carries small integer references instead of text. Index 0 of each table
// is unused. The tables only grow; mu orders the simulation goroutine's
// appends before the trace ring's renders, which may run concurrently
// (spotcheckd serves /trace without the daemon lock).
type eventNames struct {
	mu    sync.Mutex
	hosts []cloud.InstanceID // guarded by mu
	pools []PoolKey          // guarded by mu
	strs  []string           // customer and type names; guarded by mu

	// poolRefs and strRefs find existing entries; only the simulation
	// goroutine uses them.
	poolRefs map[PoolKey]uint32
	strRefs  map[string]uint32
}

func newEventNames() *eventNames {
	return &eventNames{
		hosts:    []cloud.InstanceID{""},
		pools:    []PoolKey{{}},
		strs:     []string{""},
		poolRefs: map[PoolKey]uint32{},
		strRefs:  map[string]uint32{},
	}
}

// host returns h's name reference, interning the instance id the first
// time an event mentions the host.
func (n *eventNames) host(h *hostState) uint32 {
	if h.nameRef == 0 {
		n.mu.Lock()
		n.hosts = append(n.hosts, h.inst.ID)
		h.nameRef = uint32(len(n.hosts) - 1)
		n.mu.Unlock()
	}
	return h.nameRef
}

// pool returns key's reference.
func (n *eventNames) pool(key PoolKey) uint32 {
	if ref, ok := n.poolRefs[key]; ok {
		return ref
	}
	n.mu.Lock()
	n.pools = append(n.pools, key)
	ref := uint32(len(n.pools) - 1)
	n.mu.Unlock()
	n.poolRefs[key] = ref
	return ref
}

// str returns s's reference.
func (n *eventNames) str(s string) uint32 {
	if ref, ok := n.strRefs[s]; ok {
		return ref
	}
	n.mu.Lock()
	n.strs = append(n.strs, s)
	ref := uint32(len(n.strs) - 1)
	n.mu.Unlock()
	n.strRefs[s] = ref
	return ref
}

// hostName, poolName and strName resolve references at render time.
func (n *eventNames) hostName(ref uint32) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return string(n.hosts[ref])
}

func (n *eventNames) poolName(ref uint64) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pools[ref].String()
}

func (n *eventNames) strName(ref uint64) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.strs[ref]
}

// usd decodes a price operand.
func usd(bits uint64) cloud.USD { return cloud.USD(math.Float64frombits(bits)) }

// renderDetail formats a record's detail text, byte-identical to what the
// controller once formatted when the event happened.
func (n *eventNames) renderDetail(r obs.Record) string {
	switch eventCode(r.Code) {
	case evRequested:
		return n.strName(uint64(r.Ref)) + " requested a " + n.strName(r.A) + " (stateless=" + strconv.FormatBool(r.B != 0) + ")"
	case evPlaced:
		return "running on " + n.hostName(r.Ref) + " (" + n.poolName(r.A) + ")"
	case evReleased:
		return "released by customer"
	case evRevoked:
		return fmt.Sprintf("host %s revoked (price %v), %v to deadline", n.hostName(r.Ref), usd(r.A), simkit.Time(r.B))
	case evLandedWarned:
		return "landed on already-warned host " + n.hostName(r.Ref)
	case evPaused:
		return fmt.Sprintf("final flush pause (%v)", simkit.Time(r.A))
	case evMigrated, evReturned:
		return "now on " + n.hostName(r.Ref) + " (" + n.poolName(r.A) + ")"
	case evDestDied:
		return "destination " + n.hostName(r.Ref) + " died mid-migration"
	case evPredictiveMiss:
		return "predictive miss with no backup server"
	case evLiveOverrun:
		return "live migration exceeded the warning window"
	case evMigrationStart:
		return "reason=" + migrationReason(r.A).String() + " host=" + n.hostName(r.Ref)
	case evMigrationAbort:
		return "spot target vanished; staying on-demand"
	case evHostAcquired:
		return "pool=" + n.poolName(r.A) + " capacity=" + strconv.FormatUint(r.B, 10)
	case evHostRetired:
		return "pool=" + n.poolName(r.A)
	case evRevocationBatch:
		return strconv.FormatUint(r.A, 10) + " VMs displaced"
	case evBid:
		return fmt.Sprintf("bid=%v od=%v", usd(r.A), usd(r.B))
	}
	return ""
}

// RenderTrace implements obs.Renderer for the controller's trace records.
func (n *eventNames) RenderTrace(subject uint32, r obs.Record) obs.TraceEvent {
	shape := eventShapes[r.Code]
	ev := obs.TraceEvent{Scope: shape.scope, Kind: shape.kind, Detail: n.renderDetail(r)}
	switch shape.scope {
	case "vm":
		ev.Subject = string(vmName(subject))
	case "host":
		ev.Subject = n.hostName(subject)
	default:
		ev.Subject = n.poolName(uint64(subject))
	}
	return ev
}

// record appends an event to a VM's audit timeline and mirrors it into the
// shared obs trace ring, so spotcheckd's /trace endpoint shows the same
// stream the per-VM timelines hold. Both hold the typed record; nothing is
// formatted until someone reads them.
func (c *Controller) record(vs *vmState, code eventCode, ref uint32, a, b uint64) {
	r := obs.Record{At: c.sched.Now(), Code: uint16(code), Ref: ref, A: a, B: b}
	if evs := vs.events; len(evs) >= timelineCap {
		// Drop the oldest half (rounded up, so always at least one event)
		// rather than shifting per event.
		vs.events = append(evs[:0], evs[len(evs)-len(evs)/2:]...)
	}
	vs.events = append(vs.events, r)
	c.met.trace.Add(c.traceSrc, vs.num, r)
}

// trace appends an event that has no place in a VM timeline to the trace
// ring.
func (c *Controller) trace(code eventCode, subject, ref uint32, a, b uint64) {
	c.met.trace.Add(c.traceSrc, subject, obs.Record{At: c.sched.Now(), Code: uint16(code), Ref: ref, A: a, B: b})
}

// Events returns a VM's audit timeline (oldest first). Unknown VMs yield
// an empty timeline.
func (c *Controller) Events(id nestedvm.ID) []Event {
	vs := c.lookupVM(id)
	if vs == nil {
		return nil
	}
	out := make([]Event, len(vs.events))
	for i, r := range vs.events {
		out[i] = Event{At: r.At, Kind: EventKind(eventShapes[r.Code].kind), Detail: c.names.renderDetail(r)}
	}
	return out
}
