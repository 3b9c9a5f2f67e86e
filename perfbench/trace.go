package main

import (
	"sort"
	"sync"
	"time"

	"balancesort"
)

// spanAgg is a balancesort.Observer that folds a traced run's span
// stream into a count, a total and a self time per (layer, phase). It
// sees every span as it ends, so a full span ring cannot hide the spans
// the per-layer numbers need. One spanAgg serves one tracer: span IDs are
// unique only within a tracer.
type spanAgg struct {
	// onStart and onEnd, when set, run inside SpanStart and SpanEnd (the
	// cluster workload snapshots wire bytes at phase boundaries).
	onStart func(layer, name string)
	onEnd   func(s balancesort.Span)

	mu       sync.Mutex
	phases   map[phaseKey]*phaseStat
	children map[uint64][]interval // child intervals of still-open spans
	roots    map[string][]interval // root-span intervals per layer
	spans    int64
}

type phaseKey struct{ layer, name string }

type phaseStat struct {
	n          int64
	total      time.Duration
	self       time.Duration
	attrTotals map[string]int64
}

type interval struct{ lo, hi time.Duration }

func newSpanAgg() *spanAgg {
	return &spanAgg{
		phases:   map[phaseKey]*phaseStat{},
		children: map[uint64][]interval{},
		roots:    map[string][]interval{},
	}
}

func (a *spanAgg) SpanStart(layer, name string, id int) {
	if a.onStart != nil {
		a.onStart(layer, name)
	}
}

func (a *spanAgg) SpanEnd(s balancesort.Span) {
	if a.onEnd != nil {
		a.onEnd(s)
	}
	iv := interval{s.Start, s.Start + s.Dur}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spans++
	k := phaseKey{s.Layer, s.Name}
	st := a.phases[k]
	if st == nil {
		st = &phaseStat{attrTotals: map[string]int64{}}
		a.phases[k] = st
	}
	st.n++
	st.total += s.Dur
	for _, at := range s.Attrs {
		st.attrTotals[at.Key] += at.Val
	}
	// A span ends after its children, so their intervals are all in.
	st.self += s.Dur - covered(iv, a.children[s.SpanID])
	delete(a.children, s.SpanID)
	if s.Parent != 0 {
		a.children[s.Parent] = append(a.children[s.Parent], iv)
	} else {
		a.roots[s.Layer] = append(a.roots[s.Layer], iv)
	}
}

func (a *spanAgg) Count(layer, name string, id int, delta int64) {}

// covered is the length of the part of iv that the union of ivs covers.
func covered(iv interval, ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total time.Duration
	cur := interval{-1, -1}
	for _, c := range s {
		c.lo, c.hi = max(c.lo, iv.lo), min(c.hi, iv.hi)
		if c.hi <= c.lo {
			continue
		}
		if c.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = c
		} else if c.hi > cur.hi {
			cur.hi = c.hi
		}
	}
	return total + cur.hi - cur.lo
}

// self returns a phase's summed self time in seconds.
func (a *spanAgg) self(layer, name string) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if st := a.phases[phaseKey{layer, name}]; st != nil {
		return st.self.Seconds()
	}
	return 0
}

// total returns a phase's span count and summed duration in seconds.
func (a *spanAgg) total(layer, name string) (int64, float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if st := a.phases[phaseKey{layer, name}]; st != nil {
		return st.n, st.total.Seconds()
	}
	return 0, 0
}

// attrTotal sums attribute key over a phase's spans.
func (a *spanAgg) attrTotal(layer, name, key string) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if st := a.phases[phaseKey{layer, name}]; st != nil {
		return st.attrTotals[key]
	}
	return 0
}

// topLevel is the wall time the root spans of layer cover, overlaps
// counted once.
func (a *spanAgg) topLevel(layer string) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return covered(interval{0, 1<<63 - 1}, a.roots[layer])
}

func (a *spanAgg) count() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spans
}
