package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

func TestEventTimelineAcrossRevocation(t *testing.T) {
	traces := spotmarket.Set{
		{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd,
			spike{at: 10 * simkit.Hour, dur: simkit.Hour, price: 0.50}),
	}
	r := newRig(t, traces, nil)
	id := r.request(t, "alice")
	r.run(t, 13*simkit.Hour) // through revocation and return

	events := r.ctrl.Events(id)
	if len(events) < 5 {
		t.Fatalf("timeline too short: %v", events)
	}
	var kinds []EventKind
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	wantOrder := []EventKind{EventRequested, EventPlaced, EventWarned, EventPaused, EventMigrated, EventReturned}
	idx := 0
	for _, k := range kinds {
		if idx < len(wantOrder) && k == wantOrder[idx] {
			idx++
		}
	}
	if idx != len(wantOrder) {
		t.Errorf("timeline missing lifecycle order %v, got %v", wantOrder[idx:], kinds)
	}
	// Timestamps are non-decreasing.
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("events out of order: %v", events)
		}
	}
	// The warned event carries context.
	for _, e := range events {
		if e.Kind == EventWarned && !strings.Contains(e.Detail, "deadline") {
			t.Errorf("warned detail = %q", e.Detail)
		}
	}
	// Release appends a final event.
	if err := r.ctrl.ReleaseServer(id); err != nil {
		t.Fatal(err)
	}
	events = r.ctrl.Events(id)
	if events[len(events)-1].Kind != EventReleased {
		t.Errorf("last event = %v, want released", events[len(events)-1])
	}
	// String rendering includes the kind.
	if !strings.Contains(events[0].String(), "requested") {
		t.Error("Event.String missing kind")
	}
	// Unknown VM: empty timeline, no panic.
	if got := r.ctrl.Events("nvm-none"); len(got) != 0 {
		t.Errorf("unknown VM events = %v", got)
	}
}

// TestEventLogBounded overflows a real VM's timeline past timelineCap:
// the timeline stays within the bound and the newest event survives.
func TestEventLogBounded(t *testing.T) {
	r := newRig(t, nil, nil)
	id := r.request(t, "alice")
	r.run(t, simkit.Hour)
	vs := r.ctrl.lookupVM(id)
	const n = 3*timelineCap + 1
	for i := 1; i <= n; i++ {
		r.ctrl.record(vs, evPaused, 0, uint64(i), 0)
	}
	evs := r.ctrl.Events(id)
	if len(evs) > timelineCap {
		t.Errorf("timeline grew to %d, cap %d", len(evs), timelineCap)
	}
	last := evs[len(evs)-1]
	if want := fmt.Sprintf("final flush pause (%v)", simkit.Time(n)); last.Kind != EventPaused || last.Detail != want {
		t.Errorf("newest event = %v, want paused %q", last, want)
	}
}

// TestRecordAllocs pins the hot path allocation-free: once a VM's timeline
// has reached its cap, recording an event (timeline append plus trace
// ring add) allocates nothing.
func TestRecordAllocs(t *testing.T) {
	r := newRig(t, nil, nil)
	id := r.request(t, "alice")
	r.run(t, simkit.Hour)
	c := r.ctrl
	vs := c.lookupVM(id)
	h := vs.host
	for i := 0; i < timelineCap; i++ {
		c.record(vs, evMigrated, c.names.host(h), uint64(c.names.pool(h.key)), 0)
	}
	if n := testing.AllocsPerRun(1000, func() {
		c.record(vs, evMigrated, c.names.host(h), uint64(c.names.pool(h.key)), 0)
	}); n != 0 {
		t.Errorf("record allocates %.1f times per event, want 0", n)
	}
}

// BenchmarkControllerRecord measures one timeline event on a warmed
// timeline: interning lookups, the bounded append and the trace ring add.
func BenchmarkControllerRecord(b *testing.B) {
	tr, err := spotmarket.NewTrace([]spotmarket.Point{{T: 0, Price: 0.01}}, testEnd)
	if err != nil {
		b.Fatal(err)
	}
	traces := spotmarket.Set{{Type: cloud.M3Medium, Zone: "zone-a"}: tr}
	sched := simkit.NewScheduler()
	plat, err := cloudsim.New(sched, cloudsim.Config{Traces: traces, Latencies: cloudsim.ZeroOpLatencies()})
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(Config{Scheduler: sched, Provider: plat})
	if err != nil {
		b.Fatal(err)
	}
	id, err := c.RequestServer("alice", cloud.M3Medium)
	if err != nil {
		b.Fatal(err)
	}
	sched.RunUntil(simkit.Hour)
	vs := c.lookupVM(id)
	h := vs.host
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.record(vs, evMigrated, c.names.host(h), uint64(c.names.pool(h.key)), 0)
	}
}

// TestTraceRenderDuringRun renders the trace ring on another goroutine
// while the simulation records events and interns new hosts and pools, as
// spotcheckd's /trace handler does without the daemon lock.
func TestTraceRenderDuringRun(t *testing.T) {
	traces := spotmarket.Set{
		{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd,
			spike{at: 10 * simkit.Hour, dur: simkit.Hour, price: 0.50},
			spike{at: 30 * simkit.Hour, dur: simkit.Hour, price: 0.50}),
	}
	r := newRig(t, traces, nil)
	for i := 0; i < 4; i++ {
		r.request(t, "alice")
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range r.ctrl.Trace().Events() {
				if ev.Subject == "" || ev.Detail == "" {
					t.Errorf("rendered event without subject or detail: %+v", ev)
					return
				}
			}
		}
	}()
	r.run(t, 40*simkit.Hour)
	close(stop)
	<-done
	if r.ctrl.Stats().Revocations == 0 {
		t.Error("no revocations: the run recorded no migration events")
	}
}
