package obs

import (
	"sync"

	"repro/internal/simkit"
)

// TraceEvent is the readable form of one trace entry: what happened
// (Kind), to whom (Scope + Subject) and when (virtual time At). Seq is a
// monotonic sequence number assigned at append time, so consumers can
// detect gaps left by ring overwrites.
type TraceEvent struct {
	Seq     uint64      `json:"seq"`
	At      simkit.Time `json:"at"`
	Scope   string      `json:"scope"`   // "vm", "host", "pool", "market"
	Subject string      `json:"subject"` // the entity's id
	Kind    string      `json:"kind"`    // e.g. "warned", "migrated", "flush-pause"
	Detail  string      `json:"detail,omitempty"`
}

// Record is a trace entry in compact typed form: when it happened, the
// producer's event code and its operands. It holds no pointers and no text
// (32 bytes), so appending one formats and allocates nothing; the
// producer's Renderer turns it into a TraceEvent only when the ring is
// read. Code, Ref, A and B mean whatever the producer defines them to.
type Record struct {
	At   simkit.Time
	A, B uint64 // numeric operands
	Ref  uint32 // entity operand, e.g. an interned name
	Code uint16 // event shape
}

// Renderer expands a producer's records into readable events at read time.
type Renderer interface {
	// RenderTrace returns the Scope, Subject, Kind and Detail of the event
	// r recorded for subject; the ring fills in Seq and At.
	RenderTrace(subject uint32, r Record) TraceEvent
}

// Source identifies a producer registered with a Trace.
type Source uint16

// traceSlot is one ring entry: a record plus whose renderer reads it.
type traceSlot struct {
	rec     Record
	subject uint32
	src     Source
}

// Trace is a fixed-capacity ring buffer of typed trace records. Appends
// overwrite the oldest entries once full; Dropped reports how many were
// lost. All methods are safe for concurrent use.
type Trace struct {
	mu    sync.Mutex
	buf   []traceSlot // guarded by mu
	start int         // index of the oldest entry; guarded by mu
	n     int         // live entries; guarded by mu
	seq   uint64      // next sequence number; guarded by mu
	srcs  []Renderer  // registered producers, indexed by Source; guarded by mu
}

// DefaultTraceCap bounds trace memory when callers don't choose a size.
const DefaultTraceCap = 4096

// NewTrace returns a ring holding the last capacity events (DefaultTraceCap
// when capacity <= 0).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Trace{buf: make([]traceSlot, capacity)}
}

// Register adds a producer and returns the Source its records carry. One
// ring can hold several producers' records; each renders its own.
func (t *Trace) Register(r Renderer) Source {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.srcs = append(t.srcs, r)
	return Source(len(t.srcs) - 1)
}

// Add appends src's record r about subject and returns its sequence
// number.
func (t *Trace) Add(src Source, subject uint32, r Record) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	seq := t.seq
	t.seq++
	i := (t.start + t.n) % len(t.buf)
	t.buf[i] = traceSlot{rec: r, subject: subject, src: src}
	if t.n < len(t.buf) {
		t.n++
	} else {
		t.start = (t.start + 1) % len(t.buf) // overwrote the oldest
	}
	return seq
}

// Events renders the retained events oldest-first. The records are copied
// under the lock and rendered after it is released, so a slow renderer
// never stalls appends.
func (t *Trace) Events() []TraceEvent {
	t.mu.Lock()
	slots := make([]traceSlot, t.n)
	for i := range slots {
		slots[i] = t.buf[(t.start+i)%len(t.buf)]
	}
	first := t.seq - uint64(t.n)
	srcs := append([]Renderer(nil), t.srcs...)
	t.mu.Unlock()
	out := make([]TraceEvent, len(slots))
	for i, s := range slots {
		ev := srcs[s.src].RenderTrace(s.subject, s.rec)
		ev.Seq = first + uint64(i)
		ev.At = s.rec.At
		out[i] = ev
	}
	return out
}

// Len reports retained events; Cap the ring capacity.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Cap reports the ring capacity. The buffer is never resized after
// construction, but the slice header is still read under the lock so the
// race detector (and lockdiscipline) see a single consistent protocol.
func (t *Trace) Cap() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Total reports how many events were ever appended.
func (t *Trace) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Dropped reports how many events the ring has overwritten.
func (t *Trace) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq - uint64(t.n)
}
