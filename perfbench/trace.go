package main

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/simkit"
)

// spanAgg aggregates every span of one name: count, inclusive total, self
// time (total minus the time child spans cover) and the longest span.
type spanAgg struct {
	name                 string
	count                int64
	totalNs, selfNs, max int64
}

type frame struct {
	agg     *spanAgg
	startNs int64
	childNs int64
}

// rawSpan is one closed span of the bounded sample written at the end.
type rawSpan struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// sampleCap bounds the raw span sample, a uniform reservoir over every
// span the run closed.
const sampleCap = 4096

// tracer records spans in memory. Spans nest on one stack because the
// simulation runs on one goroutine: a provider call inside an event handler
// is a child of the loop span, a completion callback fired by the provider
// is a child of whatever span fired it.
type tracer struct {
	base   time.Time
	aggs   map[string]*spanAgg
	stack  []frame
	sample []rawSpan
	closed int64
	rng    *rand.Rand
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), aggs: map[string]*spanAgg{}, rng: rand.New(rand.NewSource(1))}
}

// agg returns the aggregate for name, creating it on first use. Callers
// resolve names once and keep the pointer, so the hot path does no lookup.
func (t *tracer) agg(name string) *spanAgg {
	a := t.aggs[name]
	if a == nil {
		a = &spanAgg{name: name}
		t.aggs[name] = a
	}
	return a
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(a *spanAgg) {
	t.stack = append(t.stack, frame{agg: a, startNs: t.now()})
}

func (t *tracer) end() {
	end := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := end - f.startNs
	self := dur - f.childNs
	a := f.agg
	a.count++
	a.totalNs += dur
	a.selfNs += self
	if dur > a.max {
		a.max = dur
	}
	parent := ""
	if n := len(t.stack); n > 0 {
		t.stack[n-1].childNs += dur
		parent = t.stack[n-1].agg.name
	}
	t.closed++
	raw := rawSpan{Name: a.name, Parent: parent, StartNs: f.startNs, DurNs: dur, SelfNs: self}
	if len(t.sample) < sampleCap {
		t.sample = append(t.sample, raw)
	} else if j := t.rng.Int63n(t.closed); j < sampleCap {
		t.sample[j] = raw
	}
}

// sorted returns the aggregates by descending self time.
func (t *tracer) sorted() []*spanAgg {
	out := make([]*spanAgg, 0, len(t.aggs))
	for _, a := range t.aggs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].selfNs != out[j].selfNs {
			return out[i].selfNs > out[j].selfNs
		}
		return out[i].name < out[j].name
	})
	return out
}

// writeSample writes the raw span sample as JSON lines in start order.
func (t *tracer) writeSample(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sort.Slice(t.sample, func(i, j int) bool { return t.sample[i].StartNs < t.sample[j].StartNs })
	for _, s := range t.sample {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The cloud.Provider methods, each with its span-name suffix in providerOps.
const (
	opNow = iota
	opCatalog
	opTypeByName
	opZones
	opOnDemandPrice
	opSpotPrice
	opRunOnDemand
	opRequestSpot
	opTerminate
	opCreateVolume
	opAttachVolume
	opDetachVolume
	opDeleteVolume
	opAllocateIP
	opAssignIP
	opUnassignIP
	opReleaseIP
	opInstance
	opOnRevocationWarning
	opAccruedCost
	numOps
)

var providerOps = [numOps]string{
	opNow: "Now", opCatalog: "Catalog", opTypeByName: "TypeByName", opZones: "Zones",
	opOnDemandPrice: "OnDemandPrice", opSpotPrice: "SpotPrice",
	opRunOnDemand: "RunOnDemand", opRequestSpot: "RequestSpot", opTerminate: "Terminate",
	opCreateVolume: "CreateVolume", opAttachVolume: "AttachVolume",
	opDetachVolume: "DetachVolume", opDeleteVolume: "DeleteVolume",
	opAllocateIP: "AllocateIP", opAssignIP: "AssignIP", opUnassignIP: "UnassignIP",
	opReleaseIP: "ReleaseIP", opInstance: "Instance",
	opOnRevocationWarning: "OnRevocationWarning", opAccruedCost: "AccruedCost",
}

// timingProvider times every call into the provider it wraps as a span
// named "<layer>.<Method>", and every callback the provider fires back as a
// span named by callback (plus "core.revocation" for warning listeners when
// the callbacks are the controller's own). It forwards every method
// explicitly — no embedding — so no call can bypass the timer.
type timingProvider struct {
	inner    cloud.Provider
	tr       *tracer
	ops      [numOps]*spanAgg
	callback *spanAgg
	warning  *spanAgg
	// ok and calls count calls and callbacks; ok excludes those that
	// returned or delivered an error.
	ok, calls int64
}

var _ cloud.Provider = (*timingProvider)(nil)

// newTimingProvider wraps inner. layer names the call spans; callback and
// warning name the spans of the callbacks and warning listeners it hands
// inner, which belong to the layer above.
func newTimingProvider(inner cloud.Provider, tr *tracer, layer, callback, warning string) *timingProvider {
	p := &timingProvider{inner: inner, tr: tr, callback: tr.agg(callback), warning: tr.agg(warning)}
	for i, op := range providerOps {
		p.ops[i] = tr.agg(layer + "." + op)
	}
	return p
}

func (p *timingProvider) count(err error) {
	p.calls++
	if err == nil {
		p.ok++
	}
}

func (p *timingProvider) wrapInst(cb cloud.InstanceCallback) cloud.InstanceCallback {
	if cb == nil {
		return nil
	}
	return func(inst *cloud.Instance, err error) {
		p.count(err)
		p.tr.begin(p.callback)
		cb(inst, err)
		p.tr.end()
	}
}

func (p *timingProvider) wrapCb(cb cloud.Callback) cloud.Callback {
	if cb == nil {
		return nil
	}
	return func(err error) {
		p.count(err)
		p.tr.begin(p.callback)
		cb(err)
		p.tr.end()
	}
}

func (p *timingProvider) Now() simkit.Time {
	p.tr.begin(p.ops[opNow])
	defer p.tr.end()
	p.count(nil)
	return p.inner.Now()
}

func (p *timingProvider) Catalog() []cloud.InstanceType {
	p.tr.begin(p.ops[opCatalog])
	defer p.tr.end()
	p.count(nil)
	return p.inner.Catalog()
}

func (p *timingProvider) TypeByName(name string) (cloud.InstanceType, bool) {
	p.tr.begin(p.ops[opTypeByName])
	defer p.tr.end()
	p.count(nil)
	return p.inner.TypeByName(name)
}

func (p *timingProvider) Zones() []cloud.Zone {
	p.tr.begin(p.ops[opZones])
	defer p.tr.end()
	p.count(nil)
	return p.inner.Zones()
}

func (p *timingProvider) OnDemandPrice(typ string) (cloud.USD, error) {
	p.tr.begin(p.ops[opOnDemandPrice])
	defer p.tr.end()
	v, err := p.inner.OnDemandPrice(typ)
	p.count(err)
	return v, err
}

func (p *timingProvider) SpotPrice(typ string, zone cloud.Zone) (cloud.USD, error) {
	p.tr.begin(p.ops[opSpotPrice])
	defer p.tr.end()
	v, err := p.inner.SpotPrice(typ, zone)
	p.count(err)
	return v, err
}

func (p *timingProvider) RunOnDemand(typ string, zone cloud.Zone, cb cloud.InstanceCallback) {
	p.tr.begin(p.ops[opRunOnDemand])
	defer p.tr.end()
	p.count(nil)
	p.inner.RunOnDemand(typ, zone, p.wrapInst(cb))
}

func (p *timingProvider) RequestSpot(typ string, zone cloud.Zone, bid cloud.USD, cb cloud.InstanceCallback) {
	p.tr.begin(p.ops[opRequestSpot])
	defer p.tr.end()
	p.count(nil)
	p.inner.RequestSpot(typ, zone, bid, p.wrapInst(cb))
}

func (p *timingProvider) Terminate(id cloud.InstanceID, cb cloud.Callback) error {
	p.tr.begin(p.ops[opTerminate])
	defer p.tr.end()
	err := p.inner.Terminate(id, p.wrapCb(cb))
	p.count(err)
	return err
}

func (p *timingProvider) CreateVolume(sizeGB int) (*cloud.Volume, error) {
	p.tr.begin(p.ops[opCreateVolume])
	defer p.tr.end()
	v, err := p.inner.CreateVolume(sizeGB)
	p.count(err)
	return v, err
}

func (p *timingProvider) AttachVolume(vol cloud.VolumeID, inst cloud.InstanceID, cb cloud.Callback) error {
	p.tr.begin(p.ops[opAttachVolume])
	defer p.tr.end()
	err := p.inner.AttachVolume(vol, inst, p.wrapCb(cb))
	p.count(err)
	return err
}

func (p *timingProvider) DetachVolume(vol cloud.VolumeID, cb cloud.Callback) error {
	p.tr.begin(p.ops[opDetachVolume])
	defer p.tr.end()
	err := p.inner.DetachVolume(vol, p.wrapCb(cb))
	p.count(err)
	return err
}

func (p *timingProvider) DeleteVolume(vol cloud.VolumeID) error {
	p.tr.begin(p.ops[opDeleteVolume])
	defer p.tr.end()
	err := p.inner.DeleteVolume(vol)
	p.count(err)
	return err
}

func (p *timingProvider) AllocateIP() (cloud.Addr, error) {
	p.tr.begin(p.ops[opAllocateIP])
	defer p.tr.end()
	a, err := p.inner.AllocateIP()
	p.count(err)
	return a, err
}

func (p *timingProvider) AssignIP(inst cloud.InstanceID, addr cloud.Addr, cb cloud.Callback) error {
	p.tr.begin(p.ops[opAssignIP])
	defer p.tr.end()
	err := p.inner.AssignIP(inst, addr, p.wrapCb(cb))
	p.count(err)
	return err
}

func (p *timingProvider) UnassignIP(inst cloud.InstanceID, addr cloud.Addr, cb cloud.Callback) error {
	p.tr.begin(p.ops[opUnassignIP])
	defer p.tr.end()
	err := p.inner.UnassignIP(inst, addr, p.wrapCb(cb))
	p.count(err)
	return err
}

func (p *timingProvider) ReleaseIP(addr cloud.Addr) error {
	p.tr.begin(p.ops[opReleaseIP])
	defer p.tr.end()
	err := p.inner.ReleaseIP(addr)
	p.count(err)
	return err
}

func (p *timingProvider) Instance(id cloud.InstanceID) (*cloud.Instance, error) {
	p.tr.begin(p.ops[opInstance])
	defer p.tr.end()
	inst, err := p.inner.Instance(id)
	p.count(err)
	return inst, err
}

func (p *timingProvider) OnRevocationWarning(fn func(cloud.RevocationWarning)) {
	p.tr.begin(p.ops[opOnRevocationWarning])
	defer p.tr.end()
	p.count(nil)
	if fn == nil {
		p.inner.OnRevocationWarning(nil)
		return
	}
	p.inner.OnRevocationWarning(func(w cloud.RevocationWarning) {
		p.count(nil)
		p.tr.begin(p.warning)
		fn(w)
		p.tr.end()
	})
}

func (p *timingProvider) AccruedCost(id cloud.InstanceID) (cloud.USD, error) {
	p.tr.begin(p.ops[opAccruedCost])
	defer p.tr.end()
	v, err := p.inner.AccruedCost(id)
	p.count(err)
	return v, err
}

// timingPlacement times the controller's calls into its placement policy.
type timingPlacement struct {
	inner core.PlacementPolicy
	tr    *tracer
	span  *spanAgg
}

var _ core.PlacementPolicy = (*timingPlacement)(nil)

func (p *timingPlacement) Name() string { return p.inner.Name() }

func (p *timingPlacement) Choose(ctx *core.PlacementContext) (string, cloud.Zone, error) {
	p.tr.begin(p.span)
	defer p.tr.end()
	return p.inner.Choose(ctx)
}
