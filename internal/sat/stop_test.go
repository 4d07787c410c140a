package sat

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestStopFlagNilSafe(t *testing.T) {
	var f *StopFlag
	if f.Stopped() {
		t.Fatal("nil flag must not report stopped")
	}
	f.Stop() // must not panic
	g := &StopFlag{}
	if g.Stopped() {
		t.Fatal("fresh flag must not report stopped")
	}
	g.Stop()
	if !g.Stopped() {
		t.Fatal("Stop did not trip the flag")
	}
}

func TestStopBeforeSolve(t *testing.T) {
	s := New()
	pigeonhole(s, 12)
	s.Stop = &StopFlag{}
	s.Stop.Stop()
	start := time.Now()
	if st := s.Solve(); st != Unknown {
		t.Fatalf("pre-stopped solve = %v, want unknown", st)
	}
	if !s.Interrupted() {
		t.Fatal("Interrupted should report true after a stop")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("pre-stopped solve took %v, want immediate return", d)
	}
}

func TestStopMidSearch(t *testing.T) {
	// PHP(13,12) needs far more than 100ms of CDCL search; the stop flag
	// must yank the solver out of the middle of it promptly.
	s := New()
	pigeonhole(s, 12)
	s.Stop = &StopFlag{}

	done := make(chan Status, 1)
	go func() { done <- s.Solve() }()

	time.Sleep(100 * time.Millisecond)
	s.Stop.Stop()
	select {
	case st := <-done:
		if st != Unknown {
			t.Fatalf("stopped solve = %v, want unknown", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("solver did not notice the stop flag within 10s")
	}
	if !s.Interrupted() {
		t.Fatal("Interrupted should report true after a stop")
	}
}

func TestStopDoesNotAffectBudgetReporting(t *testing.T) {
	// With a flag present but never tripped, a conflict-budget Unknown
	// must not read as an interruption.
	s := New()
	pigeonhole(s, 9)
	s.Stop = &StopFlag{}
	s.MaxConflicts = 1
	st := s.Solve()
	if st == Unknown && s.Interrupted() {
		t.Fatal("budget exhaustion misreported as interruption")
	}
}

// TestStopFlagResume stops solves before and at random points during
// the search, or cuts them off with a tiny conflict budget, then lifts
// the stop or the budget and re-solves the same solver: a halted solve
// must leave a usable solver behind, so the resumed status matches a
// fresh solve and Sat models satisfy the original clauses.
func TestStopFlagResume(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	iters := 150
	if testing.Short() {
		iters = 30
	}
	for iter := 0; iter < iters; iter++ {
		nvars, clauses := randomInstance(rng)
		want := solveFresh(nvars, clauses)

		s := New()
		if !addAll(s, nvars, clauses) {
			continue
		}
		var flag StopFlag
		s.Stop = &flag
		var wg sync.WaitGroup
		switch iter % 3 {
		case 0:
			// Pre-tripped: Solve must return Unknown immediately.
			flag.Stop()
		case 1:
			// Concurrent flip racing the search: lands anywhere.
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(time.Duration(rng.Intn(80)) * time.Microsecond)
				flag.Stop()
			}()
		case 2:
			// Tiny conflict budget: the solve halts at a restart
			// boundary deterministically.
			s.MaxConflicts = int64(1 + rng.Intn(50))
		}
		st := s.Solve()
		wg.Wait()
		if iter%3 != 2 && st == Unknown && !s.Interrupted() {
			t.Fatalf("iter %d: unexpected budget Unknown", iter)
		}

		s.Stop = &StopFlag{}
		s.MaxConflicts = 0
		got := s.Solve()
		if got != want {
			t.Fatalf("iter %d: resumed status %v, reference %v (clauses %v)", iter, got, want, clauses)
		}
		if got == Sat && !modelSatisfies(s, clauses) {
			t.Fatalf("iter %d: resumed model does not satisfy original clauses %v", iter, clauses)
		}
	}
}
