package spotmarket

import (
	"sort"

	"repro/internal/cloud"
	"repro/internal/simkit"
)

// PrefixIntegral answers price-integral queries over a trace in O(log n)
// by precomputing cumulative integrals at every price change:
// Integrate(a, b) = F(b) - F(a) where F is the cumulative cost of [0, t).
//
// Fleet-scale billing is its reason to exist. Finalizing one spot
// instance's bill with Trace.Integrate walks every price segment the
// instance lived through — fine for dozens of instances, but a fleet of
// 100k short-lived hosts over a six-month trace turns Report into a
// billions-of-segments scan. The prefix form costs one O(n) pass per
// trace and two binary searches per bill.
//
// The price paid is float association: F(b) - F(a) rounds differently
// from the segment-ordered summation Trace.Integrate performs, so results
// can differ in the last ulps. cloudsim bills every spot instance this
// way; Trace.Integrate stays as the tests' oracle.
type PrefixIntegral struct {
	tr *Trace
	// cum[i] is the integral of price dt over [0, points[i].T) in $·hr.
	cum []float64
}

// PrefixIntegral builds the cumulative form of the trace.
func (tr *Trace) PrefixIntegral() *PrefixIntegral {
	cum := make([]float64, tr.Len())
	for i := 1; i < tr.Len(); i++ {
		prev := tr.PointAt(i - 1)
		cum[i] = cum[i-1] + float64(prev.Price)*tr.PointAt(i).T.Sub(prev.T).Hours()
	}
	return &PrefixIntegral{tr: tr, cum: cum}
}

// at returns F(t): the cumulative cost of holding one instance over [0, t).
// Negative t extends the first segment backwards (negative cost), matching
// Trace.Integrate's clamp-to-first-segment behaviour for out-of-range
// starts.
func (pi *PrefixIntegral) at(t simkit.Time) float64 {
	if t <= 0 {
		return float64(pi.tr.PointAt(0).Price) * t.Hours()
	}
	// Last point with T <= t (same clamp semantics as Trace.segmentAt).
	i := sort.Search(len(pi.cum), func(i int) bool { return pi.tr.PointAt(i).T > t }) - 1
	if i < 0 {
		i = 0
	}
	p := pi.tr.PointAt(i)
	return pi.cum[i] + float64(p.Price)*t.Sub(p.T).Hours()
}

// Integrate returns the rental cost of [a, b) as F(b) - F(a). The value
// matches Trace.Integrate up to float rounding (see the type comment).
func (pi *PrefixIntegral) Integrate(a, b simkit.Time) cloud.USD {
	if b <= a {
		return 0
	}
	return cloud.USD(pi.at(b) - pi.at(a))
}
