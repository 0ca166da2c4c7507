package core

import (
	"math"
	"testing"

	"repro/internal/simkit"
)

// A fleet-wide service-time sum outgrows int64 nanoseconds at roughly 292
// VM-years — under 600 VMs over a six-month horizon. durAcc carries the
// overflow; these tests pin both halves of its contract: bit-identical
// narrow sums, and correct wide ones.

func TestDurAccNarrowBitIdentical(t *testing.T) {
	// 40 VMs x six months: the paper-scale sum, comfortably inside int64.
	var acc durAcc
	var narrow simkit.Time
	d := 182 * simkit.Day
	for i := 0; i < 40; i++ {
		acc.add(d)
		narrow += d
	}
	if acc.hi != 0 {
		t.Fatalf("hi = %d, want 0 for a narrow sum", acc.hi)
	}
	if got, want := acc.hours(), narrow.Hours(); got != want {
		t.Errorf("hours() = %v, want bit-identical %v", got, want)
	}
	if got, want := acc.ns(), float64(narrow); got != want {
		t.Errorf("ns() = %v, want bit-identical %v", got, want)
	}
	if acc.clamp() != narrow {
		t.Errorf("clamp() = %v, want %v", acc.clamp(), narrow)
	}
}

func TestDurAccWideSum(t *testing.T) {
	// 100k VMs x six months = ~50,000 VM-years: ~170x the int64 range.
	var acc durAcc
	d := 182 * simkit.Day
	const vms = 100_000
	for i := 0; i < vms; i++ {
		acc.add(d)
	}
	if acc.hi == 0 {
		t.Fatal("sum should have carried past int64")
	}
	if acc.lo < 0 || acc.lo >= durChunk {
		t.Fatalf("lo = %d out of [0, 2^62)", acc.lo)
	}
	wantHours := float64(vms) * d.Hours()
	if got := acc.hours(); math.Abs(got-wantHours)/wantHours > 1e-12 {
		t.Errorf("hours() = %v, want %v", got, wantHours)
	}
	wantNs := float64(vms) * float64(d)
	if got := acc.ns(); math.Abs(got-wantNs)/wantNs > 1e-12 {
		t.Errorf("ns() = %v, want %v", got, wantNs)
	}
	if acc.clamp() != simkit.Time(math.MaxInt64) {
		t.Errorf("clamp() = %v, want saturation at MaxInt64", acc.clamp())
	}
	if !acc.positive() {
		t.Error("positive() = false")
	}
}
