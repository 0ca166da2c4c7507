package obs

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/simkit"
)

// tickRenderer renders test records: the subject becomes "v<subject>" and
// operand A the detail.
type tickRenderer struct{}

func (tickRenderer) RenderTrace(subject uint32, r Record) TraceEvent {
	return TraceEvent{Scope: "vm", Subject: fmt.Sprintf("v%d", subject), Kind: "tick", Detail: fmt.Sprint(r.A)}
}

func TestTraceBasics(t *testing.T) {
	tr := NewTrace(4)
	if tr.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", tr.Cap())
	}
	src := tr.Register(tickRenderer{})
	for i := 0; i < 3; i++ {
		seq := tr.Add(src, 1, Record{At: simkit.Time(i), A: uint64(10 + i)})
		if seq != uint64(i) {
			t.Errorf("Add #%d returned seq %d", i, seq)
		}
	}
	if tr.Len() != 3 || tr.Total() != 3 || tr.Dropped() != 0 {
		t.Errorf("Len/Total/Dropped = %d/%d/%d, want 3/3/0", tr.Len(), tr.Total(), tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		want := TraceEvent{Seq: uint64(i), At: simkit.Time(i), Scope: "vm", Subject: "v1", Kind: "tick", Detail: fmt.Sprint(10 + i)}
		if ev != want {
			t.Errorf("event %d = %+v, want %+v", i, ev, want)
		}
	}
}

// TestTraceWraparound drives the ring past capacity and checks that the
// oldest events fall out while sequence numbers stay continuous.
func TestTraceWraparound(t *testing.T) {
	tests := []struct {
		name      string
		capacity  int
		adds      int
		wantLen   int
		wantDrop  uint64
		wantFirst uint64 // Seq of the oldest retained event
	}{
		{"exactly full", 4, 4, 4, 0, 0},
		{"one past", 4, 5, 4, 1, 1},
		{"many wraps", 4, 11, 4, 7, 7},
		{"capacity one", 1, 3, 1, 2, 2},
		{"default capacity", 0, 2, 2, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := NewTrace(tt.capacity)
			src := tr.Register(tickRenderer{})
			for i := 0; i < tt.adds; i++ {
				tr.Add(src, 0, Record{At: simkit.Time(i), A: uint64(i)})
			}
			if tr.Len() != tt.wantLen {
				t.Errorf("Len = %d, want %d", tr.Len(), tt.wantLen)
			}
			if tr.Total() != uint64(tt.adds) {
				t.Errorf("Total = %d, want %d", tr.Total(), tt.adds)
			}
			if tr.Dropped() != tt.wantDrop {
				t.Errorf("Dropped = %d, want %d", tr.Dropped(), tt.wantDrop)
			}
			evs := tr.Events()
			if len(evs) != tt.wantLen {
				t.Fatalf("Events len = %d, want %d", len(evs), tt.wantLen)
			}
			for i, ev := range evs {
				want := tt.wantFirst + uint64(i)
				if ev.Seq != want {
					t.Errorf("event %d Seq = %d, want %d (oldest-first, gap-free)", i, ev.Seq, want)
				}
				if ev.At != simkit.Time(want) || ev.Detail != fmt.Sprint(want) {
					t.Errorf("event %d = %+v, want the record appended as #%d", i, ev, want)
				}
			}
		})
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace(64)
	src := tr.Register(tickRenderer{})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				tr.Add(src, uint32(i), Record{A: uint64(i)})
				if i%50 == 0 {
					_ = tr.Events()
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if tr.Total() != 2000 || tr.Len() != 64 {
		t.Errorf("Total/Len = %d/%d, want 2000/64", tr.Total(), tr.Len())
	}
}

// namedRenderer renders every record as its fixed name, to tell producers
// sharing one ring apart.
type namedRenderer string

func (n namedRenderer) RenderTrace(uint32, Record) TraceEvent {
	return TraceEvent{Kind: string(n)}
}

// TestTraceSharedBySources checks that each record is rendered by the
// producer that appended it.
func TestTraceSharedBySources(t *testing.T) {
	tr := NewTrace(8)
	a := tr.Register(namedRenderer("a"))
	b := tr.Register(namedRenderer("b"))
	tr.Add(b, 0, Record{})
	tr.Add(a, 0, Record{})
	tr.Add(b, 0, Record{})
	var got string
	for _, ev := range tr.Events() {
		got += ev.Kind
	}
	if got != "bab" {
		t.Errorf("kinds = %q, want \"bab\"", got)
	}
}

// TestTraceAddAllocs pins the append path allocation-free: a record is
// plain data and rendering waits for a reader.
func TestTraceAddAllocs(t *testing.T) {
	tr := NewTrace(16)
	src := tr.Register(tickRenderer{})
	var i uint64
	if n := testing.AllocsPerRun(1000, func() {
		i++
		tr.Add(src, 7, Record{At: simkit.Time(i), A: i, B: i, Ref: 3, Code: 1})
	}); n != 0 {
		t.Errorf("Trace.Add allocates %.1f times per call, want 0", n)
	}
}

// TestRecordCompact pins the record's size: every VM timeline entry is
// one Record, so growing it grows the heap per VM.
func TestRecordCompact(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n > 32 {
		t.Errorf("Record is %d bytes, want <= 32", n)
	}
}

// BenchmarkTraceAdd measures one append to a full ring.
func BenchmarkTraceAdd(b *testing.B) {
	tr := NewTrace(0)
	src := tr.Register(tickRenderer{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Add(src, uint32(i), Record{At: simkit.Time(i), A: uint64(i), Code: 1})
	}
}
