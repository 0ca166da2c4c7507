package lint

import "testing"

func TestSchedLabel(t *testing.T) {
	tests := []struct {
		name string
		rel  string
		src  string
		want []string
	}{
		{
			name: "per-event concatenation flagged",
			rel:  "internal/core",
			src: `package core
func f(s sched, id string) {
	s.After(1, "flush-done "+id, func() {})
	s.At(2, "pause "+id, func() {})
}
type sched interface {
	After(d int64, label string, fn func())
	At(t int64, label string, fn func())
}
`,
			want: []string{"label passed to After must be a compile-time string constant", "label passed to At must be a compile-time string constant"},
		},
		{
			name: "sprintf and variable labels flagged",
			rel:  "internal/cloudsim",
			src: `package cloudsim
import "fmt"
func f(s sched, label string, i int) {
	s.After(1, fmt.Sprintf("arrival vm-%d", i), func() {})
	s.After(1, label, func() {})
}
type sched interface{ After(d int64, label string, fn func()) }
`,
			want: []string{"must be a compile-time string constant", "must be a compile-time string constant"},
		},
		{
			name: "literal, const and const concatenation allowed",
			rel:  "internal/cloudchaos",
			src: `package cloudchaos
const prefix = "chaos-"
const labelDelay = prefix + "delay"
func f(s sched) {
	s.After(1, "chaos-delay", func() {})
	s.At(2, labelDelay, func() {})
	s.At(3, prefix+"retry", func() {})
}
type sched interface {
	After(d int64, label string, fn func())
	At(t int64, label string, fn func())
}
`,
		},
		{
			name: "other arities out of scope",
			rel:  "internal/core",
			src: `package core
func f(tr trace, name string) {
	_ = tr.At(name)
	_ = tr.After(1, name)
}
type trace interface {
	At(name string) int
	After(d int, name string) int
}
`,
		},
		{
			name: "simkit forwards its caller's label",
			rel:  "internal/simkit",
			src: `package simkit
type Scheduler struct{}
func (s *Scheduler) At(t int64, label string, fn func()) {}
func (s *Scheduler) After(d int64, label string, fn func()) { s.At(d, label, fn) }
`,
		},
		{
			name: "harness outside the simulation packages out of scope",
			rel:  "cmd/spotcheckd",
			src: `package main
func f(s sched, id string) { s.After(1, "tick "+id, func() {}) }
type sched interface{ After(d int64, label string, fn func()) }
`,
		},
		{
			name: "suppressed with reason",
			rel:  "internal/experiments",
			src: `package experiments
func f(s sched, id string) {
	//lint:ignore schedlabel fixture: one event per run, never on the hot path
	s.After(1, "arrival "+id, func() {})
}
type sched interface{ After(d int64, label string, fn func()) }
`,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			wantFindings(t, runOne(t, SchedLabel, tt.rel, tt.src), tt.want...)
		})
	}
}
