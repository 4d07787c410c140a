package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"alive/internal/telemetry"
	"alive/internal/verify"
)

// layerOf maps a span category to the layer its self time is charged
// to. The bench, parser, verify and attrs categories are the
// benchmark's own spans around public calls; the rest are the spans the
// program already records under verify.Options.Trace.
var layerOf = map[string]string{
	"bench":      "bench",
	"parser":     "parser",
	"verify":     "verify",
	"transform":  "verify",
	"assignment": "verify",
	"condition":  "verify",
	"typing":     "typing",
	"vcgen":      "vcgen",
	"solver":     "solver",
	"cegis":      "solver",
	"presolve":   "absint",
	"bitblast":   "bitblast",
	"preprocess": "cnf",
	"sat":        "sat",
	"inprocess":  "sat.inprocess",
	"attrs":      "attrs",
}

// isCounter holds the telemetry.Counters keys.
var isCounter = func() map[string]bool {
	names := map[string]bool{}
	telemetry.Counters{}.Each(func(name string, _ int64) { names[name] = true })
	return names
}()

// counts holds work counts by name: the telemetry.Counters keys and the
// names below.
type counts map[string]int64

// Work counts besides the counters: the transform span's verification
// totals, the CNF preprocessor's input size, and two tallies of the
// transform spans themselves.
const (
	cntTypeAssignments = "type_assignments"
	cntQueries         = "queries"
	cntClausesIn       = "clauses_in"
	cntVerifications   = "verifications"
	cntInvalid         = "invalid"
)

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

func (c counts) equal(o counts) bool {
	for k, v := range c {
		if o[k] != v {
			return false
		}
	}
	for k, v := range o {
		if c[k] != v {
			return false
		}
	}
	return true
}

// outcomeCounts is what the transform span of one verification should
// carry, taken from verify.Result instead: its counters and totals.
func outcomeCounts(o outcome) counts {
	c := counts{cntTypeAssignments: int64(o.assignments), cntQueries: int64(o.queries), cntVerifications: 1}
	if o.verdict == verify.Invalid {
		c[cntInvalid] = 1
	}
	o.counters.Each(func(name string, v int64) { c[name] = v })
	return c
}

// passTrace is the analysis of one traced pass: self time per layer,
// the work counts of each operation, and the accounting totals.
type passTrace struct {
	self    map[string]time.Duration
	byOp    map[string]counts // keyed by operation span name (the entry name)
	opTotal time.Duration     // sum of the operation spans
	selfSum time.Duration     // sum of every span's self time
}

// analyzeTrace rebuilds the span tree of one track from positional
// nesting and charges each span's self time (its duration minus its
// children's) to its layer. Every span must lie inside one operation
// span, and no child may outlive its parent.
func analyzeTrace(events []telemetry.Event) (passTrace, error) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Dur > b.Dur
	})
	pt := passTrace{self: map[string]time.Duration{}, byOp: map[string]counts{}}
	type open struct {
		ev       telemetry.Event
		children time.Duration
	}
	var stack []open
	closeTop := func() error {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		layer, ok := layerOf[top.ev.Cat]
		if !ok {
			layer = "other:" + top.ev.Cat
		}
		self := top.ev.Dur - top.children
		if self < 0 {
			return fmt.Errorf("span %q: children last %v, longer than the span's %v", top.ev.Name, top.children, top.ev.Dur)
		}
		pt.self[layer] += self
		pt.selfSum += self
		return nil
	}
	for _, ev := range events {
		for len(stack) > 0 && ev.Start >= stack[len(stack)-1].ev.Start+stack[len(stack)-1].ev.Dur {
			if err := closeTop(); err != nil {
				return pt, err
			}
		}
		if len(stack) == 0 {
			if ev.Cat != "bench" {
				return pt, fmt.Errorf("span %q (%s) lies outside every operation span", ev.Name, ev.Cat)
			}
			pt.opTotal += ev.Dur
			pt.byOp[ev.Name] = counts{}
		} else {
			parent := &stack[len(stack)-1]
			if ev.Start+ev.Dur > parent.ev.Start+parent.ev.Dur {
				return pt, fmt.Errorf("span %q outlives its parent %q", ev.Name, parent.ev.Name)
			}
			parent.children += ev.Dur
			recordCounts(pt.byOp[stack[0].ev.Name], ev)
		}
		stack = append(stack, open{ev: ev})
	}
	for len(stack) > 0 {
		if err := closeTop(); err != nil {
			return pt, err
		}
	}
	if d := pt.selfSum - pt.opTotal; d < -pt.opTotal/100 || d > pt.opTotal/100 {
		return pt, fmt.Errorf("self times sum to %v, operation spans to %v", pt.selfSum, pt.opTotal)
	}
	return pt, nil
}

// recordCounts adds the work counts a span carries to its operation's.
func recordCounts(c counts, ev telemetry.Event) {
	switch ev.Cat {
	case "transform":
		c[cntVerifications]++
		for _, a := range ev.Args {
			switch {
			case a.Key == "verdict":
				if a.Val == "invalid" {
					c[cntInvalid]++
				}
			case a.Key == cntTypeAssignments || a.Key == cntQueries || isCounter[a.Key]:
				if v, ok := a.Val.(int64); ok {
					c[a.Key] += v
				}
			}
		}
	case "preprocess":
		for _, a := range ev.Args {
			if v, ok := a.Val.(int64); ok && a.Key == cntClausesIn {
				c[cntClausesIn] += v
			}
		}
	}
}

// describeCountDiff names the counts that differ between two operations
// of one input, for failure messages.
func describeCountDiff(a, b counts) string {
	var diffs []string
	seen := map[string]bool{}
	for _, m := range []counts{a, b} {
		for k := range m {
			if !seen[k] && a[k] != b[k] {
				seen[k] = true
				diffs = append(diffs, fmt.Sprintf("%s %d vs %d", k, a[k], b[k]))
			}
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, ", ")
}
