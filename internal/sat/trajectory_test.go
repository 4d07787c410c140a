package sat

import (
	"fmt"
	"math/rand"
	"testing"
)

// trajectory is the search-shape fingerprint of one Solve: with the
// solver fully deterministic, any change to decision order, propagation
// order, conflict analysis or the restart/reduction schedule moves at
// least one of these counts.
type trajectory struct {
	Status                                       Status
	Conflicts, Propagations, Decisions, Restarts int64
}

func (tr trajectory) String() string {
	return fmt.Sprintf("{%v, %d, %d, %d, %d}", tr.Status, tr.Conflicts, tr.Propagations, tr.Decisions, tr.Restarts)
}

func solveTrajectory(s *Solver) trajectory {
	st := s.Solve()
	return trajectory{st, s.Conflicts(), s.Propagations(), s.Decisions(), s.Restarts()}
}

// random3SAT is a seeded uniform random 3-SAT instance with n variables
// and m clauses.
func random3SAT(seed int64, n, m int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	clauses := make([][]int, m)
	for i := range clauses {
		c := make([]int, 3)
		for j := range c {
			v := 1 + rng.Intn(n)
			if rng.Intn(2) == 0 {
				v = -v
			}
			c[j] = v
		}
		clauses[i] = c
	}
	return clauses
}

// TestSearchTrajectoryPinned pins the exact search of the CDCL core on
// fixed instances. A change that only alters how the solver stores or
// computes things (data layout, buffer reuse) must leave every count
// identical; a change that alters the search must update the table on
// purpose.
func TestSearchTrajectoryPinned(t *testing.T) {
	type instance struct {
		name  string
		build func(*Solver)
	}
	instances := []instance{{"php7", func(s *Solver) { pigeonhole(s, 7) }}}
	for _, seed := range []int64{1, 2, 3} {
		clauses := random3SAT(seed, 150, 640)
		instances = append(instances, instance{fmt.Sprintf("3sat-%d", seed), func(s *Solver) { addAll(s, 150, clauses) }})
	}
	want := map[string]trajectory{
		"php7/default":   {Unsat, 3380, 43018, 4267, 25},
		"3sat-1/default": {Sat, 1766, 55052, 2189, 11},
		"3sat-2/default": {Sat, 63, 2114, 112, 0},
		"3sat-3/default": {Sat, 1794, 58575, 2204, 12},
	}
	for _, in := range instances {
		name := in.name + "/default"
		t.Run(name, func(t *testing.T) {
			s := New()
			in.build(s)
			if got := solveTrajectory(s); got != want[name] {
				t.Errorf("trajectory = %v, want %v", got, want[name])
			}
		})
	}
}
