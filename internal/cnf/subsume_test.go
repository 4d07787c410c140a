package cnf

import (
	"fmt"
	"math/rand"
	"testing"

	"alive/internal/sat"
)

// randomClauses draws nclauses clauses of 1–maxLen literals over nvars
// variables (DIMACS-style signed ints).
func randomClauses(rng *rand.Rand, nvars, nclauses, maxLen int) [][]int {
	clauses := make([][]int, nclauses)
	for i := range clauses {
		c := make([]int, 1+rng.Intn(maxLen))
		for j := range c {
			v := 1 + rng.Intn(nvars)
			if rng.Intn(2) == 0 {
				v = -v
			}
			c[j] = v
		}
		clauses[i] = c
	}
	return clauses
}

// liveClauses renders the live clause list of f in storage order.
func liveClauses(f *Formula) [][]sat.Lit {
	var out [][]sat.Lit
	for _, c := range f.clauses {
		if !c.deleted {
			out = append(out, c.lits)
		}
	}
	return out
}

// subsetOf reports c ⊆ d literal by literal, with l (when not
// noLit) read as ¬l: the brute-force oracle for both subsumption
// (l = noLit) and strengthening on l.
func subsetOf(c []sat.Lit, l sat.Lit, d []sat.Lit) bool {
	for _, x := range c {
		if x == l {
			x = x.Not()
		}
		found := false
		for _, y := range d {
			if y == x {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// assertClosed checks by brute force over every ordered pair of live
// clauses that no clause subsumes or strengthens another, with a
// literal-by-literal oracle independent of the signatures and the
// combined test the preprocessor uses.
func assertClosed(t *testing.T, f *Formula, what string) {
	t.Helper()
	live := liveClauses(f)
	for i, c := range live {
		for j, d := range live {
			if i == j {
				continue
			}
			if subsetOf(c, noLit, d) {
				t.Fatalf("%s: live %v subsumes live %v", what, c, d)
			}
			for _, l := range c {
				if subsetOf(c, l, d) {
					t.Fatalf("%s: live %v strengthens live %v on %v", what, c, d, l)
				}
			}
		}
	}
}

// TestSubsumptionFixpoint runs subsumption and variable elimination to
// a fixpoint on random CNFs and asserts that no live pair is left with
// C ⊆ D or (C \ {l}) ∪ {¬l} ⊆ D, including on inputs where elimination
// adds resolvents that only a later round's touched queue can check.
// Every third instance runs subsumption alone, where re-queueing
// clauses shrunk mid-pass is the only way to reach the fixpoint. Two
// runs on equal inputs must produce identical clause lists.
func TestSubsumptionFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	resolventRounds := 0
	for iter := 0; iter < 900; iter++ {
		opts := Options{NoElim: iter%3 == 0, NoBlocked: true, NoProbe: true, Budget: 1 << 40, MaxRounds: 1 << 20}
		nvars := 3 + rng.Intn(14)
		clauses := randomClauses(rng, nvars, 2+rng.Intn(5*nvars), 4)
		f := newFormula(nvars, clauses...)
		// Freezing a random half of the variables keeps elimination from
		// emptying the formula, so subsumption has resolvents to chew on.
		for v := 1; v <= nvars; v++ {
			if rng.Intn(2) == 0 && f.value[v] == 0 {
				f.Freeze(v)
			}
		}
		frozen := append([]bool(nil), f.frozen...)
		res := Preprocess(f, opts)
		if res.Unsat {
			continue
		}
		if res.Stats.VarsEliminated > 0 && res.Stats.Rounds >= 2 {
			resolventRounds++
		}
		what := fmt.Sprintf("iter %d (clauses %v)", iter, clauses)
		assertClosed(t, f, what)

		again := newFormula(nvars, clauses...)
		copy(again.frozen, frozen)
		res2 := Preprocess(again, opts)
		if res2.Stats != res.Stats {
			t.Fatalf("%s: stats differ between equal runs: %+v vs %+v", what, res.Stats, res2.Stats)
		}
		if a, b := fmt.Sprint(liveClauses(f)), fmt.Sprint(liveClauses(again)); a != b {
			t.Fatalf("%s: clause lists differ between equal runs:\n%s\n%s", what, a, b)
		}
	}
	if resolventRounds < 100 {
		t.Fatalf("only %d instances eliminated a variable and ran a later round; the generator no longer exercises the touched queue", resolventRounds)
	}
}

// TestOldClauseSubsumesResolvent pins the case a queue of only new or
// shrunk clauses would miss: an untouched old clause (1 ∨ 2) must
// subsume the resolvent (1 ∨ 2 ∨ 4) that eliminating variable 3 adds in
// round 1.
func TestOldClauseSubsumesResolvent(t *testing.T) {
	f := newFormula(4, []int{1, 2}, []int{1, 3}, []int{-3, 2, 4})
	for _, v := range []int{1, 2, 4} {
		f.Freeze(v)
	}
	res := Preprocess(f, Options{NoBlocked: true, NoProbe: true})
	if res.Stats.VarsEliminated != 1 || !f.elim[3] {
		t.Fatalf("variable 3 not eliminated: %+v", res.Stats)
	}
	if res.Stats.ClausesSubsumed != 1 {
		t.Fatalf("subsumed = %d, want 1 (the resolvent)", res.Stats.ClausesSubsumed)
	}
	live := liveClauses(f)
	if len(live) != 1 || len(live[0]) != 2 || !contains(live[0], lit(1)) || !contains(live[0], lit(2)) {
		t.Fatalf("live clauses = %v, want only (1 ∨ 2)", live)
	}
}

// TestSubsumeOrStrengthen covers the combined one-pass test and the
// variable-signature pre-filter in front of it.
func TestSubsumeOrStrengthen(t *testing.T) {
	lits := func(vs ...int) []sat.Lit {
		out := make([]sat.Lit, len(vs))
		for i, v := range vs {
			out[i] = lit(v)
		}
		return out
	}
	cases := []struct {
		c, d []int
		ok   bool
		flip int // 0: plain subsumption
	}{
		{[]int{1, 2}, []int{2, 3, 1}, true, 0},
		{[]int{1, 2}, []int{-1, 2, 3}, true, 1},
		{[]int{1, 2}, []int{1, -2}, true, 2},
		{[]int{1, 2}, []int{-1, -2, 3}, false, 0},
		{[]int{1, 2}, []int{1, 3}, false, 0},
		{[]int{1, 2, 3}, []int{1, 2}, false, 0},
	}
	for _, tc := range cases {
		c, d := lits(tc.c...), lits(tc.d...)
		flip, ok := subsumeOrStrengthen(c, d)
		if ok != tc.ok {
			t.Fatalf("%v vs %v: ok = %v, want %v", tc.c, tc.d, ok, tc.ok)
		}
		want := noLit
		if tc.flip != 0 {
			want = lit(tc.flip)
		}
		if ok && flip != want {
			t.Fatalf("%v vs %v: flip = %v, want %v", tc.c, tc.d, flip, want)
		}
		// A hit needs vars(c) ⊆ vars(d), so the signature filter must
		// never reject one.
		if ok && clauseSig(c)&^clauseSig(d) != 0 {
			t.Fatalf("%v vs %v: signature filter rejects a hit", tc.c, tc.d)
		}
	}
}
