package verify

import (
	"testing"

	"alive/internal/cnf"
	"alive/internal/sat"
)

// loadOneShot preprocesses r's one-shot shape and loads the result into
// a fresh CDCL core with default settings, as the one-shot solve path
// does. It returns nil when preprocessing alone refutes the formula.
func loadOneShot(r *recordedCNF) *sat.Solver {
	pre := cnf.Preprocess(r.formula(false), cnf.Options{})
	if pre.Unsat {
		return nil
	}
	core := sat.New()
	pre.Load(core)
	return core
}

// BenchmarkSolveCorpus is the SAT-layer benchmark on real inputs: CDCL
// search over the preprocessed CNF of every corpus verification
// condition with a multiply, divide or remainder (the long grinds of a
// corpus run). Each iteration replays, preprocesses and loads every
// condition into a fresh sat.Solver untimed, then times the Solve
// calls alone, so ns/propagation and ns/conflict are the cost model of
// the search itself.
func BenchmarkSolveCorpus(b *testing.B) {
	asserted, _ := corpusVCs(b)
	var hard []*recordedCNF
	for _, r := range asserted {
		if r.hard {
			hard = append(hard, r)
		}
	}
	var props, confls int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range hard {
			b.StopTimer()
			core := loadOneShot(r)
			b.StartTimer()
			if core == nil {
				continue
			}
			if core.Solve() == sat.Unknown {
				b.Fatalf("%s: unbounded solve returned unknown", r.name)
			}
			props += core.Propagations()
			confls += core.Conflicts()
		}
	}
	ns := float64(b.Elapsed().Nanoseconds())
	if props > 0 {
		b.ReportMetric(ns/float64(props), "ns/propagation")
	}
	if confls > 0 {
		b.ReportMetric(ns/float64(confls), "ns/conflict")
	}
}

// TestSearchTrajectoryPinned pins the exact CDCL search on a fixed
// subset of the corpus's multiply/divide conditions (about a second of
// solving): per transformation, the summed conflicts, propagations,
// decisions and restarts of a default one-shot solve of each of its
// conditions. Counts are deterministic, so a change to the SAT core
// that only alters its data layout or memory reuse must keep every one;
// a change that alters the search must update the table on purpose.
func TestSearchTrajectoryPinned(t *testing.T) {
	type counts struct{ Conflicts, Propagations, Decisions, Restarts int64 }
	want := map[string]counts{
		"PR20186":                    {997, 72028, 3034, 12},
		"PR21242":                    {262, 12819, 1139, 1},
		"PR21243":                    {619, 84698, 4147, 5},
		"PR21245":                    {4542, 823305, 9640, 30},
		"MulDivRem:udiv-of-nuw-mul":  {1994, 140965, 2712, 12},
		"MulDivRem:urem-of-urem":     {2235, 122475, 4086, 14},
		"MulDivRem:urem-of-nuw-mul":  {2718, 278613, 3273, 15},
		"MulDivRem:udiv-narrow-zext": {4114, 590843, 4964, 21},
		"MulDivRem:udiv-shl-nuw":     {6655, 878848, 8399, 38},
	}
	asserted, _ := corpusVCs(t)
	got := map[string]counts{}
	for _, r := range asserted {
		if _, ok := want[r.name]; !ok {
			continue
		}
		core := loadOneShot(r)
		if core == nil {
			continue
		}
		if core.Solve() == sat.Unknown {
			t.Fatalf("%s: unbounded solve returned unknown", r.name)
		}
		c := got[r.name]
		c.Conflicts += core.Conflicts()
		c.Propagations += core.Propagations()
		c.Decisions += core.Decisions()
		c.Restarts += core.Restarts()
		got[r.name] = c
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}
