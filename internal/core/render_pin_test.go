package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cloudchaos"
	"repro/internal/cloudsim"
	"repro/internal/migration"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// renderPinDigest is the SHA-256 of every rendered VM timeline (JSON and
// Event.String) and every rendered trace event across the scenarios
// below. Details and trace subjects are rendered from typed records when
// read; the digest was taken when the controller still formatted them at
// record time, so it pins the rendering to that text byte for byte.
const renderPinDigest = "26dbea62a8dd35393e416fb1ac7ad1620e367b693780157fbe2a74350258c2c5"

// renderScenario is one seeded controller run for the rendering pin.
type renderScenario struct {
	name      string
	mechanism migration.Mechanism
	mutate    func(*Config)
	warning   simkit.Time // platform warning window (0 = default)
	chaos     float64     // injected fault probability (0 = none)
	// traces, when set, replaces the generated markets with a crafted
	// set; two VMs then arrive at time zero and stay.
	traces func(*testing.T) spotmarket.Set
}

func renderScenarios() []renderScenario {
	return []renderScenario{
		{name: "lazy-4ped-spares", mechanism: migration.SpotCheckLazy, mutate: func(c *Config) {
			c.Placement = Policy4PED()
			c.Destination = DestHotSpare
			c.HotSpares = 1
		}},
		{name: "full-staging-chaos", mechanism: migration.SpotCheckFull, chaos: 0.05, mutate: func(c *Config) {
			c.Placement = Policy2PML()
			c.Destination = DestStaging
		}},
		{name: "yank-1pm", mechanism: migration.UnoptimizedFull, mutate: func(c *Config) {
			c.Placement = Policy1PM()
		}},
		{name: "xenlive-predictive-short", mechanism: migration.XenLive, warning: 15 * simkit.Second, mutate: func(c *Config) {
			c.Placement = Policy4PED()
			c.Predictive = PredictiveConfig{Enabled: true, Threshold: 0.8}
		}},
		{name: "xenlive-staging", mechanism: migration.XenLive, mutate: func(c *Config) {
			c.Placement = Policy2PML()
			c.Destination = DestStaging
			c.Bidding = MultipleBid{K: 2}
		}},
		{name: "xenlive-predictive-miss", mechanism: migration.XenLive, warning: 15 * simkit.Second, mutate: func(c *Config) {
			c.Predictive = PredictiveConfig{Enabled: true, Threshold: 0.8}
		}, traces: func(t *testing.T) spotmarket.Set {
			tr, err := spotmarket.NewTrace([]spotmarket.Point{
				{T: 0, Price: 0.01},
				{T: 9 * simkit.Hour, Price: 0.06},
				{T: 9*simkit.Hour + 30*simkit.Second, Price: 0.50},
				{T: 11 * simkit.Hour, Price: 0.01},
			}, testEnd)
			if err != nil {
				t.Fatal(err)
			}
			return spotmarket.Set{{Type: cloud.M3Medium, Zone: "zone-a"}: tr}
		}},
		{name: "xenlive-staging-dest-dies", mechanism: migration.XenLive, warning: 15 * simkit.Second, mutate: func(c *Config) {
			c.Placement = Policy2PML()
			c.Destination = DestStaging
			c.ReturnHoldDown = 100 * simkit.Hour
		}, traces: func(t *testing.T) spotmarket.Set {
			return spotmarket.Set{
				{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd,
					spike{at: 10 * simkit.Hour, dur: simkit.Hour, price: 0.50}),
				{Type: cloud.M3Large, Zone: "zone-a"}: makeTrace(t, 0.02, testEnd,
					spike{at: 10*simkit.Hour + 5*simkit.Second, dur: simkit.Hour, price: 0.90}),
			}
		}},
	}
}

// runRenderScenario drives one scenario and writes its rendered output to
// w, returning the event kinds seen (timeline and trace) for coverage.
func runRenderScenario(t *testing.T, sc renderScenario, w io.Writer) map[string]bool {
	t.Helper()
	const seed = 20150421
	horizon := 45 * simkit.Day
	vms := 24
	var traces spotmarket.Set
	if sc.traces != nil {
		horizon, vms, traces = testEnd, 2, sc.traces(t)
	} else {
		vols := []spotmarket.Volatility{spotmarket.VolatilityHigh, spotmarket.VolatilityExtreme}
		configs := map[spotmarket.MarketKey]spotmarket.GenConfig{}
		for i, typ := range []string{cloud.M3Medium, cloud.M3Large, cloud.M3XLarge, cloud.M32XLarge} {
			od := cloud.USD(0.07 * float64(int(1)<<i))
			configs[spotmarket.MarketKey{Type: typ, Zone: "zone-a"}] = spotmarket.DefaultConfig(od, vols[i%2])
		}
		var err error
		if traces, err = spotmarket.GenerateSet(configs, horizon, seed, 1); err != nil {
			t.Fatal(err)
		}
	}
	sched := simkit.NewScheduler()
	plat, err := cloudsim.New(sched, cloudsim.Config{Traces: traces, Seed: seed, WarningWindow: sc.warning})
	if err != nil {
		t.Fatal(err)
	}
	var prov cloud.Provider = plat
	if sc.chaos > 0 {
		prov = cloudchaos.Wrap(plat, sched, cloudchaos.Config{FailProb: sc.chaos, ExtraLatency: 20 * simkit.Second, Seed: seed})
	}
	cfg := Config{
		Scheduler: sched,
		Provider:  prov,
		Mechanism: sc.mechanism,
		Seed:      seed,
		Trace:     obs.NewTrace(1 << 16),
	}
	sc.mutate(&cfg)
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	customers := []string{"alice", "bob", "carol"}
	for i := 0; i < vms; i++ {
		var at, release simkit.Time = 0, horizon
		if sc.traces == nil {
			at = simkit.Time(rng.Int63n(int64(horizon / 2)))
			release = at + simkit.Time(rng.Int63n(int64(horizon)))
		}
		stateless := i%5 == 4
		customer := customers[i%len(customers)]
		sched.At(at, "pin-request", func() {
			id, err := ctrl.RequestServerWithOptions(ServerOptions{Customer: customer, Type: cloud.M3Medium, Stateless: stateless})
			if err != nil {
				t.Error(err)
				return
			}
			if release < horizon {
				sched.At(release, "pin-release", func() { _ = ctrl.ReleaseServer(id) })
			}
		})
	}
	sched.RunUntil(horizon)

	seen := map[string]bool{}
	infos := ctrl.ListVMs()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	for _, info := range infos {
		evs := ctrl.Events(info.ID)
		js, err := json.Marshal(evs)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(w, "%s %s\n", info.ID, js)
		for _, e := range evs {
			fmt.Fprintln(w, e.String())
			seen[string(e.Kind)] = true
			for _, frag := range renderDetailFragments {
				if strings.Contains(e.Detail, frag) {
					seen[frag] = true
				}
			}
		}
	}
	tr := ctrl.Trace()
	if tr.Dropped() != 0 {
		t.Fatalf("%s: trace dropped %d events; enlarge the ring", sc.name, tr.Dropped())
	}
	js, err := json.Marshal(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "trace %s\n", js)
	for _, e := range tr.Events() {
		seen[e.Scope+"/"+e.Kind] = true
	}
	return seen
}

// renderDetailFragments are the rarer detail shapes the scenarios must
// reach, beyond one event of every kind.
var renderDetailFragments = []string{
	"landed on already-warned host", "died mid-migration",
	"predictive miss with no backup server", "live migration exceeded the warning window",
	"(stateless=true)",
}

// TestRenderPin hashes every rendered timeline and trace event of a set of
// seeded runs covering revocations, pauses, returns, state loss, releases,
// bids and storms, and compares against renderPinDigest.
func TestRenderPin(t *testing.T) {
	h := sha256.New()
	seen := map[string]bool{}
	for _, sc := range renderScenarios() {
		fmt.Fprintf(h, "== %s\n", sc.name)
		for k := range runRenderScenario(t, sc, h) {
			seen[k] = true
		}
	}
	want := []string{
		"requested", "placed", "warned", "paused", "migrated", "returned", "state-lost", "released",
		"vm/migration-start", "vm/warned", "vm/state-lost", "host/acquired", "host/retired",
		"market/bid", "pool/revocation-batch", "vm/migration-abort",
	}
	want = append(want, renderDetailFragments...)
	var missing []string
	for _, k := range want {
		if !seen[k] {
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		t.Errorf("scenarios never produced %s", strings.Join(missing, ", "))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != renderPinDigest {
		t.Errorf("rendered timeline/trace digest = %s, want %s", got, renderPinDigest)
	}
}
