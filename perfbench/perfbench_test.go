package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"alive/internal/suite"
	"alive/internal/telemetry"
)

// TestPartition checks the workload sizes the rationale in README.md
// rests on: muldiv and bitwise split the corpus, and attrs is the part
// of bitwise that attribute inference applies to.
func TestPartition(t *testing.T) {
	sets := map[string]map[string]bool{}
	for _, name := range workloadNames {
		inputs, err := selectInputs(name)
		if err != nil {
			t.Fatal(err)
		}
		sets[name] = map[string]bool{}
		for _, e := range inputs {
			sets[name][e.Name] = true
		}
	}
	for name, want := range map[string]int{wlMulDiv: 47, wlBitwise: 190, wlAttrs: 91} {
		if got := len(sets[name]); got != want {
			t.Errorf("%s has %d inputs, want %d", name, got, want)
		}
	}
	all := suite.All()
	if len(all) != 237 {
		t.Errorf("corpus has %d entries, want 237", len(all))
	}
	for _, e := range all {
		if sets[wlMulDiv][e.Name] == sets[wlBitwise][e.Name] {
			t.Errorf("%s: in muldiv %v, in bitwise %v; want exactly one", e.Name, sets[wlMulDiv][e.Name], sets[wlBitwise][e.Name])
		}
	}
	for name := range sets[wlAttrs] {
		if !sets[wlBitwise][name] {
			t.Errorf("attrs input %s is not in bitwise", name)
		}
	}
}

// runPasses runs one untraced and one traced pass over the first n
// inputs of a workload with every check the benchmark makes, and fails
// the test on any failed check.
func runPasses(t *testing.T, workload string, seed int64, n int) *bench {
	t.Helper()
	b, err := newBench(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	if n < len(b.inputs) {
		b.inputs, b.failed = b.inputs[:n], b.failed[:n]
	}
	b.pass(nil, nil)
	tr := telemetry.New()
	b.pass(tr, tr.NewTrack("test"))
	pt, err := analyzeTrace(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	b.checkCounts(pt.byOp)
	b.checkAnswers()
	if len(b.reasons) > 0 {
		t.Fatalf("%s seed %d:\n%s", workload, seed, strings.Join(b.reasons, "\n"))
	}
	return b
}

// TestDeterminism checks that work counts do not depend on input order
// or on tracing: within a run the traced pass must repeat the untraced
// one (runPasses fails otherwise), and two seeds must do the same work
// per input. Verifications share no state, so any difference is a bug.
func TestDeterminism(t *testing.T) {
	for _, tc := range []struct {
		workload string
		n        int
	}{
		{wlBitwise, 190},
		{wlMulDiv, 12},
		{wlAttrs, 12},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			a := runPasses(t, tc.workload, 1, tc.n)
			b := runPasses(t, tc.workload, 2, tc.n)
			for i, e := range a.inputs {
				if !a.first[i].sameWork(b.first[i]) {
					t.Errorf("%s: outcome differs between seeds", e.Name)
				}
				if ca, cb := a.firstCounts[e.Name], b.firstCounts[e.Name]; !ca.equal(cb) {
					t.Errorf("%s: work counts differ between seeds: %s", e.Name, describeCountDiff(ca, cb))
				}
			}
		})
	}
}

func TestAnalyzeTrace(t *testing.T) {
	ms := time.Millisecond
	ev := func(name, cat string, start, dur time.Duration, args ...telemetry.Attr) telemetry.Event {
		return telemetry.Event{Name: name, Cat: cat, Start: start, Dur: dur, Args: args}
	}
	good := []telemetry.Event{
		ev("sat", "sat", 4*ms, 2*ms),
		ev("op1", "bench", 0, 10*ms),
		ev("x", "transform", 1*ms, 8*ms, telemetry.Attr{Key: "verdict", Val: "invalid"}, telemetry.Attr{Key: "conflicts", Val: int64(7)}),
		ev("pp", "preprocess", 2*ms, 1*ms, telemetry.Attr{Key: "clauses_in", Val: int64(30)}),
		ev("op2", "bench", 10*ms, 5*ms),
		ev("parse", "parser", 10*ms, 5*ms),
	}
	pt, err := analyzeTrace(good)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"bench": 2 * ms, "verify": 5 * ms, "cnf": ms, "sat": 2 * ms, "parser": 5 * ms}
	for layer, d := range want {
		if pt.self[layer] != d {
			t.Errorf("self[%s] = %v, want %v", layer, pt.self[layer], d)
		}
	}
	if pt.selfSum != 15*ms || pt.opTotal != 15*ms {
		t.Errorf("selfSum %v, opTotal %v, want 15ms each", pt.selfSum, pt.opTotal)
	}
	wantCounts := counts{cntVerifications: 1, cntInvalid: 1, "conflicts": 7, cntClausesIn: 30}
	if !pt.byOp["op1"].equal(wantCounts) {
		t.Errorf("op1 counts %v, want %v", pt.byOp["op1"], wantCounts)
	}
	if len(pt.byOp["op2"]) != 0 {
		t.Errorf("op2 counts %v, want none", pt.byOp["op2"])
	}

	for name, bad := range map[string][]telemetry.Event{
		"outlives its parent": {ev("op", "bench", 0, 10*ms), ev("sat", "sat", 5*ms, 6*ms)},
		"outside every":       {ev("op", "bench", 0, 10*ms), ev("sat", "sat", 10*ms, ms)},
	} {
		if _, err := analyzeTrace(bad); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("analyzeTrace(%s case) = %v, want an error containing %q", name, err, name)
		}
	}
}

func TestUsage(t *testing.T) {
	var out, errs strings.Builder
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "bitwise", "--trace", "2"},
		{"--workload", "bitwise", "--seconds", "0"},
	} {
		if code := run(args, &out, &errs); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
	if out.Len() != 0 {
		t.Errorf("usage errors printed a result: %q", out.String())
	}
}

func TestHDQuantile(t *testing.T) {
	// A symmetric sample's median estimate is its centre, and a constant
	// sample's estimate is the constant, whatever the quantile.
	sym := []float64{1, 2, 3, 4, 5, 6, 7}
	if got := hdQuantile(sym, 0.5); math.Abs(got-4) > 1e-9 {
		t.Errorf("hdQuantile(1..7, 0.5) = %v, want 4", got)
	}
	same := []float64{3, 3, 3, 3, 3}
	if got := hdQuantile(same, 0.9); math.Abs(got-3) > 1e-9 {
		t.Errorf("hdQuantile(constant 3, 0.9) = %v, want 3", got)
	}
	if got := hdQuantile([]float64{1, 2}, 0.9); !(got > 1.5 && got < 2) {
		t.Errorf("hdQuantile(1 2, 0.9) = %v, want between 1.5 and 2", got)
	}
	// On 0..99 the estimate lies near the rank-based quantile and grows
	// with q.
	var xs []float64
	for i := range 100 {
		xs = append(xs, float64(i))
	}
	p50, p90 := hdQuantile(xs, 0.5), hdQuantile(xs, 0.9)
	if math.Abs(p50-49.5) > 0.5 || math.Abs(p90-89.1) > 1 || p50 >= p90 {
		t.Errorf("hdQuantile(0..99) p50 %v, p90 %v; want about 49.5 and 89.1", p50, p90)
	}
}
