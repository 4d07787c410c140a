package sat

import (
	"math/rand"
	"testing"
)

// addAll adds clauses given as slices of signed ints (DIMACS style:
// positive = var, negative = negated var).
func addAll(s *Solver, maxVar int, clauses [][]int) bool {
	for s.NumVars() < maxVar {
		s.NewVar()
	}
	for _, c := range clauses {
		lits := make([]Lit, len(c))
		for i, v := range c {
			if v < 0 {
				lits[i] = MkLit(-v, true)
			} else {
				lits[i] = MkLit(v, false)
			}
		}
		if !s.AddClause(lits...) {
			return false
		}
	}
	return true
}

func TestTrivial(t *testing.T) {
	s := New()
	v := s.NewVar()
	if !s.AddClause(MkLit(v, false)) {
		t.Fatal("unit clause rejected")
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("Solve = %v, want sat", st)
	}
	if !s.ValueOf(v) {
		t.Fatal("v should be true")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	s.NewVar()
	if s.AddClause() {
		t.Fatal("empty clause should report unsat")
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("Solve = %v, want unsat", st)
	}
}

func TestContradictoryUnits(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(MkLit(v, false))
	if s.AddClause(MkLit(v, true)) {
		t.Fatal("contradictory unit should fail")
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("want unsat, got %v", st)
	}
}

func TestSimpleUnsat(t *testing.T) {
	// (x | y) & (x | ~y) & (~x | y) & (~x | ~y)
	s := New()
	ok := addAll(s, 2, [][]int{{1, 2}, {1, -2}, {-1, 2}, {-1, -2}})
	if ok {
		if st := s.Solve(); st != Unsat {
			t.Fatalf("want unsat, got %v", st)
		}
	}
}

func TestSatWithPropagationChain(t *testing.T) {
	// Implication chain x1 -> x2 -> ... -> x10, assert x1.
	s := New()
	var cls [][]int
	for i := 1; i < 10; i++ {
		cls = append(cls, []int{-i, i + 1})
	}
	cls = append(cls, []int{1})
	if !addAll(s, 10, cls) {
		t.Fatal("clauses rejected")
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("want sat, got %v", st)
	}
	for v := 1; v <= 10; v++ {
		if !s.ValueOf(v) {
			t.Fatalf("x%d should be true", v)
		}
	}
}

// pigeonhole formula PHP(n+1, n): unsat, requires real conflict analysis.
func pigeonhole(s *Solver, holes int) bool {
	pigeons := holes + 1
	varOf := func(p, h int) int { return p*holes + h + 1 }
	for s.NumVars() < pigeons*holes {
		s.NewVar()
	}
	ok := true
	// Each pigeon in some hole.
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = MkLit(varOf(p, h), false)
		}
		ok = s.AddClause(lits...) && ok
	}
	// No two pigeons share a hole.
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				ok = s.AddClause(MkLit(varOf(p1, h), true), MkLit(varOf(p2, h), true)) && ok
			}
		}
	}
	return ok
}

func TestPigeonhole(t *testing.T) {
	for _, holes := range []int{2, 3, 4, 5, 6} {
		s := New()
		pigeonhole(s, holes)
		if st := s.Solve(); st != Unsat {
			t.Fatalf("PHP(%d+1,%d): want unsat, got %v", holes, holes, st)
		}
	}
}

func TestGraphColoringSat(t *testing.T) {
	// 3-color a 5-cycle (possible: chromatic number 3).
	s := New()
	n, k := 5, 3
	varOf := func(node, color int) int { return node*k + color + 1 }
	for s.NumVars() < n*k {
		s.NewVar()
	}
	for v := 0; v < n; v++ {
		lits := make([]Lit, k)
		for c := 0; c < k; c++ {
			lits[c] = MkLit(varOf(v, c), false)
		}
		s.AddClause(lits...)
	}
	for v := 0; v < n; v++ {
		u := (v + 1) % n
		for c := 0; c < k; c++ {
			s.AddClause(MkLit(varOf(v, c), true), MkLit(varOf(u, c), true))
		}
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("5-cycle 3-coloring: want sat, got %v", st)
	}
	// Verify the model is a proper coloring.
	color := make([]int, n)
	for v := 0; v < n; v++ {
		color[v] = -1
		for c := 0; c < k; c++ {
			if s.ValueOf(varOf(v, c)) {
				color[v] = c
				break
			}
		}
		if color[v] == -1 {
			t.Fatalf("node %d uncolored", v)
		}
	}
	for v := 0; v < n; v++ {
		if color[v] == color[(v+1)%n] {
			t.Fatalf("adjacent nodes %d,%d share color", v, (v+1)%n)
		}
	}
}

func TestTwoColoringOddCycleUnsat(t *testing.T) {
	// 2-coloring an odd cycle is unsat. Encode color as one bool per node.
	s := New()
	n := 7
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	for v := 1; v <= n; v++ {
		u := v%n + 1
		s.AddClause(MkLit(v, false), MkLit(u, false))
		s.AddClause(MkLit(v, true), MkLit(u, true))
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("odd cycle 2-coloring: want unsat, got %v", st)
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	x, y := s.NewVar(), s.NewVar()
	// x -> y
	s.AddClause(MkLit(x, true), MkLit(y, false))
	if st := s.Solve(MkLit(x, false), MkLit(y, true)); st != Unsat {
		t.Fatalf("assuming x & ~y with x->y: want unsat, got %v", st)
	}
	// Conflict subset should mention both assumptions.
	cs := s.ConflictSubset()
	if len(cs) == 0 {
		t.Fatal("expected nonempty conflict subset")
	}
	// The solver must be reusable after an assumption failure.
	if st := s.Solve(MkLit(x, false)); st != Sat {
		t.Fatalf("assuming only x: want sat, got %v", st)
	}
	if !s.ValueOf(x) || !s.ValueOf(y) {
		t.Fatal("model should have x and y true")
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("no assumptions: want sat, got %v", st)
	}
}

func TestContradictoryAssumptions(t *testing.T) {
	s := New()
	x := s.NewVar()
	s.AddClause(MkLit(x, false), MkLit(x, true)) // tautology, ignored
	if st := s.Solve(MkLit(x, false), MkLit(x, true)); st != Unsat {
		t.Fatalf("contradictory assumptions: want unsat, got %v", st)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("still satisfiable without assumptions, got %v", st)
	}
}

func TestIncrementalGrowth(t *testing.T) {
	// Add clauses between solve calls.
	s := New()
	x, y, z := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(MkLit(x, false), MkLit(y, false))
	if st := s.Solve(); st != Sat {
		t.Fatal("phase 1 should be sat")
	}
	s.AddClause(MkLit(x, true))
	s.AddClause(MkLit(y, true), MkLit(z, false))
	if st := s.Solve(); st != Sat {
		t.Fatal("phase 2 should be sat")
	}
	if s.ValueOf(x) {
		t.Fatal("x must be false")
	}
	if !s.ValueOf(y) || !s.ValueOf(z) {
		t.Fatal("y and z must be true")
	}
	s.AddClause(MkLit(z, true))
	if st := s.Solve(); st != Unsat {
		t.Fatal("phase 3 should be unsat")
	}
}

// TestRandom3SATAgainstBruteForce cross-checks the solver against
// exhaustive enumeration on small random instances.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for iter := 0; iter < 200; iter++ {
		n := 3 + rng.Intn(8)
		m := 2 + rng.Intn(40)
		clauses := make([][]int, m)
		for i := range clauses {
			k := 1 + rng.Intn(3)
			c := make([]int, k)
			for j := range c {
				v := 1 + rng.Intn(n)
				if rng.Intn(2) == 0 {
					v = -v
				}
				c[j] = v
			}
			clauses[i] = c
		}
		// Brute force.
		bfSat := false
		for asg := 0; asg < 1<<uint(n); asg++ {
			all := true
			for _, c := range clauses {
				cv := false
				for _, l := range c {
					v := l
					if v < 0 {
						v = -v
					}
					val := asg>>(uint(v-1))&1 == 1
					if l < 0 {
						val = !val
					}
					if val {
						cv = true
						break
					}
				}
				if !cv {
					all = false
					break
				}
			}
			if all {
				bfSat = true
				break
			}
		}
		s := New()
		ok := addAll(s, n, clauses)
		var st Status
		if !ok {
			st = Unsat
		} else {
			st = s.Solve()
		}
		if (st == Sat) != bfSat {
			t.Fatalf("iter %d: solver=%v bruteforce sat=%v, clauses=%v", iter, st, bfSat, clauses)
		}
		// If sat, check the model actually satisfies the clauses.
		if st == Sat {
			for _, c := range clauses {
				cv := false
				for _, l := range c {
					v := l
					if v < 0 {
						v = -v
					}
					val := s.ValueOf(v)
					if l < 0 {
						val = !val
					}
					if val {
						cv = true
						break
					}
				}
				if !cv {
					t.Fatalf("iter %d: model does not satisfy clause %v", iter, c)
				}
			}
		}
	}
}

func TestMaxConflictsBudget(t *testing.T) {
	s := New()
	pigeonhole(s, 9) // hard enough to not finish in 1 conflict
	s.MaxConflicts = 1
	if st := s.Solve(); st != Unknown && st != Unsat {
		t.Fatalf("want unknown (budget) or unsat, got %v", st)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "sat" || Unsat.String() != "unsat" || Unknown.String() != "unknown" {
		t.Fatal("Status.String wrong")
	}
}

func TestLitBasics(t *testing.T) {
	l := MkLit(5, false)
	if l.Var() != 5 || l.Neg() {
		t.Fatal("positive literal wrong")
	}
	n := l.Not()
	if n.Var() != 5 || !n.Neg() {
		t.Fatal("negation wrong")
	}
	if n.Not() != l {
		t.Fatal("double negation should be identity")
	}
	if l.String() != "5" || n.String() != "-5" {
		t.Fatal("String wrong")
	}
}

func BenchmarkPigeonhole7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		pigeonhole(s, 7)
		if s.Solve() != Unsat {
			b.Fatal("expected unsat")
		}
	}
}

func BenchmarkRandom3SAT(b *testing.B) {
	n := 60
	clauses := random3SAT(1, n, 250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		addAll(s, n, clauses)
		s.Solve()
	}
}
