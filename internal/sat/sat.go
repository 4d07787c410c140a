// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in the MiniSat tradition: two-watched-literal propagation,
// first-UIP conflict analysis with recursive clause minimization, EVSIDS
// variable activity, phase saving, Luby restarts, and learned-clause
// database reduction. It is the decision procedure underneath the
// bitvector layer.
package sat

import (
	"fmt"
	"sort"

	"alive/internal/faultinject"
)

// Lit is a literal: variable v (1-based) encoded as v<<1, negated as
// v<<1|1. The zero Lit is invalid.
type Lit int32

// MkLit builds a literal for the 1-based variable v; neg selects the
// negative polarity.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the 1-based variable of l.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether l is a negative literal.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement of l.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-%d", l.Var())
	}
	return fmt.Sprintf("%d", l.Var())
}

// Value is a ternary truth value.
type Value int8

// Truth values: Unassigned is the zero value.
const (
	Unassigned Value = iota
	True
	False
)

// Status is the result of a Solve call.
type Status int

// Solver outcomes. Unknown is returned when the conflict or propagation
// budget is exhausted.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Learned-clause tiers, in increasing order of worth. Problem clauses
// carry tierLocal's zero value but are never reduced; for learnt
// clauses the tier drives the three-tier database policy: core clauses
// (LBD ≤ coreLBDCut) are kept forever, tier2 clauses (LBD ≤
// tier2LBDCut) survive until they go unused for tier2Stale conflicts,
// and local clauses are the reduction pool.
const (
	tierLocal int8 = iota
	tierTwo
	tierCore
)

const (
	coreLBDCut  = 3
	tier2LBDCut = 6
	// tier2Stale demotes a tier2 clause to local after this many
	// conflicts without participating in conflict analysis.
	tier2Stale = 30000
)

type clause struct {
	lits     []Lit
	learnt   bool
	deleted  bool // removed from the database; stale references skip it
	tier     int8
	lbd      int32 // literal block distance (learnt clauses only)
	activity float64
	sig      uint64 // subsumption signature; maintained during inprocessing
	touched  int64  // conflict count at last use in conflict analysis
}

type watcher struct {
	c       *clause
	blocker Lit
}

type varData struct {
	level    int32 // decision level of the assignment
	reason   *clause
	activity float64
	phase    bool // saved phase: last assigned polarity (true = positive)
	seen     bool // scratch for conflict analysis
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	vars []varData // index 0 unused
	// assigns holds the current value of every literal, indexed by Lit
	// (MiniSat layout): assigning a variable writes both polarities, so
	// reading a literal's value is one byte load with no polarity test.
	assigns []Value
	watches [][]watcher
	clauses []*clause
	learnts []*clause

	trail    []Lit
	trailLim []int // decision-level boundaries in trail
	qhead    int

	varInc    float64
	clauseInc float64

	order *varHeap

	conflicts    int64
	decisions    int64
	propagations int64
	restarts     int64
	learned      int64

	// lbdStamp/lbdGen implement the per-level stamp set behind
	// computeLBD: stamping a level with the current generation counts
	// each decision level once without clearing between calls.
	lbdStamp []int64
	lbdGen   int64

	// nextReduce is the conflict count that triggers the next
	// learned-clause database reduction; the interval grows linearly
	// with each reduction (glucose-style).
	nextReduce int64

	// LBD-driven restart state (glucose-style): a ring of the most
	// recent learnt LBDs against the running mean of all learnt LBDs —
	// when recent conflicts produce markedly worse (higher-LBD) clauses
	// than the historical average, the current branch is judged
	// unproductive and the search restarts. trailEma tracks the mean
	// trail size at conflicts; a conflict with a much larger trail than
	// usual suggests the solver is close to a model, and the restart is
	// blocked (the ring is cleared) so it can finish.
	lbdRing    [lbdRingSize]int32
	lbdRingSum int64
	lbdRingLen int
	lbdRingPos int
	sumLBD     int64 // total LBD over all learnt clauses this solve
	solveBase  int64 // s.conflicts at Solve entry, denominator base for sumLBD
	trailEma   float64

	// Inprocessing state (inprocess.go): schedule, the queue of learnts
	// not yet screened for subsumption, round-robin vivification
	// cursors, and the per-run tick budget.
	nextInprocess int64
	newLearnts    []*clause
	vivClauseCur  int
	vivLearntCur  int
	ipTicks       int64

	// Inprocessing and clause-database counters.
	lbdCore          int64
	dbReductions     int64
	inprocessings    int64
	clausesVivified  int64
	vivifyShrunkLits int64
	learntsSubsumed  int64

	// MaxConflicts bounds the search; <= 0 means unbounded. When the bound
	// is hit Solve returns Unknown.
	MaxConflicts int64

	// DisableInprocess turns off in-search static analysis of the clause
	// database (vivification, learnt subsumption, root saturation with
	// garbage collection). The LBD-tiered reduction policy stays on — it
	// replaces the old size/activity heuristic unconditionally.
	DisableInprocess bool

	// InprocessConflicts is the number of conflicts between inprocessing
	// runs (<= 0 means the default). Tests shrink it to force
	// inprocessing on small instances; since runs only happen at restart
	// boundaries, values below the restart base interval shrink that
	// interval too, so the forced schedule is honored even on instances
	// that would otherwise never restart.
	InprocessConflicts int64

	// InprocessBudget is the tick budget of one inprocessing run (<= 0
	// means the default); roughly one tick per literal visited. Budget
	// exhaustion stops the run early, which is always sound — every
	// rewrite preserves logical equivalence.
	InprocessBudget int64

	// OnInprocess, when non-nil, is called at the start of every
	// inprocessing run; the returned function (may be nil) runs when the
	// run finishes. The solver façade uses it to record "inprocess"
	// telemetry spans without the SAT core importing telemetry.
	OnInprocess func() func()

	// OnSample, when non-nil, is called with a snapshot of the search
	// internals at every restart boundary and on every Unknown exit
	// from Solve (budget exhausted or stop-flag fired) — so even a
	// deadline-killed solve emits at least one sample once search has
	// begun. Like OnInprocess, the hook keeps the SAT core free of
	// metrics imports: the observability layer owns what the snapshots
	// mean. When nil the cost is a single pointer test per restart.
	OnSample func(SampleStats)

	// Stop, when non-nil, is polled every stopPollInterval propagations;
	// once it reports stopped, Solve abandons the search and returns
	// Unknown. Interrupted distinguishes that outcome from a conflict
	// budget exhaustion.
	Stop *StopFlag

	nextStopPoll int64 // propagation count of the next Stop poll

	ok bool // false once the clause set is trivially unsat

	assumptions []Lit
	conflictSet []Lit // final conflict clause over assumptions
	model       []bool

	// Scratch buffers owned by the solver and reused across calls, so
	// conflict analysis, vivification and probing allocate nothing in
	// the steady state: the learnt clause under construction, the
	// variables whose seen flag analysis must reset, the reason-chain
	// stack of litRedundant, the kept literals of vivifyClause, and
	// ProbeUnder's saved phases.
	learntBuf []Lit
	toClear   []int
	redStack  []Lit
	vivBuf    []Lit
	phaseBuf  []bool
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, clauseInc: 1, ok: true}
	s.vars = make([]varData, 1)
	s.assigns = make([]Value, 2)
	s.watches = make([][]watcher, 2)
	s.order = newVarHeap(s)
	return s
}

// NewVar allocates a fresh variable and returns its 1-based index.
func (s *Solver) NewVar() int {
	v := len(s.vars)
	s.vars = append(s.vars, varData{})
	s.assigns = append(s.assigns, Unassigned, Unassigned)
	s.watches = append(s.watches, nil, nil)
	s.order.insert(v)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.vars) - 1 }

// NumClauses returns the number of problem (non-learnt) clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts returns the number of learnt clauses currently retained in
// the database. Across incremental Solve calls this is the knowledge
// carried from one query to the next.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// Conflicts returns the number of conflicts encountered so far.
func (s *Solver) Conflicts() int64 { return s.conflicts }

// Propagations returns the number of unit propagations performed.
func (s *Solver) Propagations() int64 { return s.propagations }

// Decisions returns the number of branching decisions made.
func (s *Solver) Decisions() int64 { return s.decisions }

// Restarts returns the number of Luby restarts taken.
func (s *Solver) Restarts() int64 { return s.restarts }

// Learned returns the number of conflict-derived clauses (including
// learned units).
func (s *Solver) Learned() int64 { return s.learned }

// LBDCore returns the number of learnt clauses that entered the core
// tier (LBD ≤ coreLBDCut at learn time or by later improvement).
func (s *Solver) LBDCore() int64 { return s.lbdCore }

// DBReductions returns the number of learned-clause database
// reductions performed.
func (s *Solver) DBReductions() int64 { return s.dbReductions }

// Inprocessings returns the number of inprocessing runs taken at
// restart boundaries.
func (s *Solver) Inprocessings() int64 { return s.inprocessings }

// ClausesVivified returns the number of clauses shrunk by vivification.
func (s *Solver) ClausesVivified() int64 { return s.clausesVivified }

// VivifyShrunkLits returns the total number of literals vivification
// removed.
func (s *Solver) VivifyShrunkLits() int64 { return s.vivifyShrunkLits }

// LearntsSubsumed returns the number of database clauses deleted by
// backward subsumption against newly learnt clauses.
func (s *Solver) LearntsSubsumed() int64 { return s.learntsSubsumed }

// Interrupted reports whether the Stop flag has tripped — after an
// Unknown result it distinguishes cancellation from conflict-budget
// exhaustion.
func (s *Solver) Interrupted() bool { return s.Stop.Stopped() }

// Ok reports whether the clause database is still consistent at the
// root. False means an AddClause or a root-level conflict refuted the
// clause set outright, with no assumptions involved; an incremental
// caller whose base is satisfiable by construction treats that as an
// internal error.
func (s *Solver) Ok() bool { return s.ok }

func (s *Solver) value(l Lit) Value { return s.assigns[l] }

// locked reports whether c is the reason of a current assignment. A
// clause only ever becomes a reason for its first literal, and reasons
// are cleared when their variable is unassigned.
func (s *Solver) locked(c *clause) bool { return s.vars[c.lits[0].Var()].reason == c }

func (s *Solver) level(v int) int { return int(s.vars[v].level) }

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a clause; it returns false if the clause set became
// trivially unsatisfiable. Must be called at decision level 0.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above decision level 0")
	}
	// Normalize: drop duplicate and false literals; detect tautologies and
	// satisfied clauses.
	out := make([]Lit, 0, len(lits))
	seen := map[Lit]bool{}
	for _, l := range lits {
		if l.Var() <= 0 || l.Var() >= len(s.vars) {
			panic(fmt.Sprintf("sat: literal %v references unallocated variable", l))
		}
		switch {
		case s.value(l) == True || seen[l.Not()]:
			return true // already satisfied / tautology
		case s.value(l) == False || seen[l]:
			continue
		}
		seen[l] = true
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		if s.propagate() != nil {
			s.ok = false
			return false
		}
		return true
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

func (s *Solver) attach(c *clause) {
	w0, w1 := c.lits[0].Not(), c.lits[1].Not()
	s.watches[w0] = append(s.watches[w0], watcher{c, c.lits[1]})
	s.watches[w1] = append(s.watches[w1], watcher{c, c.lits[0]})
}

func (s *Solver) uncheckedEnqueue(l Lit, reason *clause) {
	s.assigns[l] = True
	s.assigns[l.Not()] = False
	vd := &s.vars[l.Var()]
	vd.phase = !l.Neg()
	vd.level = int32(s.decisionLevel())
	vd.reason = reason
	s.trail = append(s.trail, l)
}

// propagate runs unit propagation; it returns the conflicting clause or
// nil.
func (s *Solver) propagate() *clause {
	//alive:bounded — the propagation queue is the trail, at most nvars entries per call.
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		ws := s.watches[p]
		j := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == True {
				ws[j] = w
				j++
				continue
			}
			c := w.c
			// Ensure the false literal is lits[1].
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == True {
				ws[j] = watcher{c, c.lits[0]}
				j++
				continue
			}
			// Find a new literal to watch.
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != False {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					nw := c.lits[1].Not()
					s.watches[nw] = append(s.watches[nw], watcher{c, c.lits[0]})
					continue nextWatcher
				}
			}
			// Unit or conflicting.
			ws[j] = watcher{c, c.lits[0]}
			j++
			if s.value(c.lits[0]) == False {
				// Conflict: copy back remaining watchers and bail.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(c.lits[0], c)
		}
		s.watches[p] = ws[:j]
	}
	return nil
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first) and the backtrack level. The clause
// lives in the solver's scratch buffer and is valid only until the next
// call; the caller copies it to keep it.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // slot 0 reserved for the asserting literal
	counter := 0
	var p Lit
	idx := len(s.trail) - 1
	toClear := s.toClear[:0]

	//alive:bounded — first-UIP resolution consumes one trail literal per iteration.
	for {
		s.bumpClause(confl)
		for _, q := range confl.lits {
			if q == p {
				continue
			}
			v := q.Var()
			if !s.vars[v].seen && s.level(v) > 0 {
				s.vars[v].seen = true
				toClear = append(toClear, v)
				s.bumpVar(v)
				if s.level(v) >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find the next seen literal on the trail.
		//alive:bounded — walks down the trail; a seen literal always exists above the asserting point.
		for !s.vars[s.trail[idx].Var()].seen {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.vars[p.Var()].seen = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.vars[p.Var()].reason
	}
	learnt[0] = p.Not()

	// Recursive minimization: drop literals whose reason chains bottom
	// out in other clause literals or root facts (self-subsuming
	// resolution applied exhaustively to the fresh learnt).
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		if s.vars[v].reason == nil || !s.litRedundant(learnt[i], &toClear) {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	for _, v := range toClear {
		s.vars[v].seen = false
	}
	s.learntBuf, s.toClear = learnt, toClear

	// Compute backtrack level: second-highest level in the clause.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level(learnt[i].Var()) > s.level(learnt[maxI].Var()) {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level(learnt[1].Var())
	}
	return learnt, btLevel
}

// litRedundant reports whether l is implied by the seen literals: its
// reason chain, followed transitively, reaches only clause literals
// (seen) and root-level facts. Variables proven redundant along the way
// are marked seen and appended to *toClear — memoization that makes the
// whole minimization linear in the visited reasons; on failure the
// marks added by this call are rolled back so an unprovable antecedent
// is not mistaken for a redundant one later.
func (s *Solver) litRedundant(l Lit, toClear *[]int) bool {
	top := len(*toClear)
	stack := append(s.redStack[:0], l)
	//alive:bounded — each variable is marked seen at most once, so the reason-chain walk visits each trail variable once.
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		r := s.vars[p.Var()].reason
		for _, q := range r.lits {
			v := q.Var()
			if v == p.Var() || s.vars[v].seen || s.level(v) == 0 {
				continue
			}
			if s.vars[v].reason == nil {
				// A decision outside the clause: l is not redundant. Undo
				// the speculative marks from this call.
				for _, u := range (*toClear)[top:] {
					s.vars[u].seen = false
				}
				*toClear = (*toClear)[:top]
				s.redStack = stack
				return false
			}
			s.vars[v].seen = true
			*toClear = append(*toClear, v)
			stack = append(stack, q)
		}
	}
	s.redStack = stack
	return true
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		s.assigns[l] = Unassigned
		s.assigns[l.Not()] = Unassigned
		v := l.Var()
		s.vars[v].reason = nil
		s.order.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = bound
}

func (s *Solver) bumpVar(v int) {
	s.vars[v].activity += s.varInc
	if s.vars[v].activity > 1e100 {
		for i := 1; i < len(s.vars); i++ {
			s.vars[i].activity *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

// computeLBD returns the literal block distance of lits under the
// current assignment: the number of distinct nonzero decision levels.
// Valid only while every literal is assigned (at the conflict, before
// backtracking).
func (s *Solver) computeLBD(lits []Lit) int32 {
	s.lbdGen++
	n := int32(0)
	for _, l := range lits {
		lv := s.level(l.Var())
		if lv == 0 {
			continue
		}
		//alive:bounded — grows the stamp table to the current decision level.
		for lv >= len(s.lbdStamp) {
			s.lbdStamp = append(s.lbdStamp, 0)
		}
		if s.lbdStamp[lv] != s.lbdGen {
			s.lbdStamp[lv] = s.lbdGen
			n++
		}
	}
	return n
}

// tierOf maps an LBD to its database tier.
func tierOf(lbd int32) int8 {
	switch {
	case lbd <= coreLBDCut:
		return tierCore
	case lbd <= tier2LBDCut:
		return tierTwo
	}
	return tierLocal
}

// setLBD records a (new or improved) LBD on a learnt clause, promoting
// its tier when the LBD crosses a cut.
func (s *Solver) setLBD(c *clause, lbd int32) {
	c.lbd = lbd
	if t := tierOf(lbd); t > c.tier {
		if t == tierCore {
			s.lbdCore++
		}
		c.tier = t
	}
}

// bumpClause marks a learnt clause as used in conflict analysis: its
// activity rises (local-tier tie-break), its LBD is recomputed under
// the current assignment and kept if improved (dynamic LBD updating on
// propagation — the clause is a reason or the conflict, so all its
// literals are assigned), and its touch stamp refreshes so tier2 aging
// sees it as live.
func (s *Solver) bumpClause(c *clause) {
	if !c.learnt {
		return
	}
	c.touched = s.conflicts
	if lbd := s.computeLBD(c.lits); lbd < c.lbd {
		s.setLBD(c, lbd)
	}
	c.activity += s.clauseInc
	if c.activity > 1e20 {
		for _, lc := range s.learnts {
			lc.activity *= 1e-20
		}
		s.clauseInc *= 1e-20
	}
}

const (
	varDecay    = 1 / 0.95
	clauseDecay = 1 / 0.999
)

// LBD-driven restart policy (glucose-style). A restart fires when the
// mean LBD of the last lbdRingSize learnt clauses exceeds restartK
// times the mean over the whole solve — recent conflicts are producing
// clauses markedly worse than the solver's historical quality, so the
// current branch is abandoned. A restart is blocked (ring cleared)
// when the conflicting trail is blockR times larger than the running
// mean trail size: an unusually deep trail suggests an almost-complete
// model that a restart would throw away.
const (
	lbdRingSize  = 50
	restartK     = 0.8
	blockR       = 1.4
	trailEmaRate = 1.0 / 5000
)

// noteLBD feeds one learnt clause's LBD and the size of the trail at
// the conflict into the restart policy state.
func (s *Solver) noteLBD(lbd int32, trailSize int) {
	s.sumLBD += int64(lbd)
	if s.lbdRingLen == lbdRingSize {
		s.lbdRingSum -= int64(s.lbdRing[s.lbdRingPos])
	} else {
		s.lbdRingLen++
	}
	s.lbdRing[s.lbdRingPos] = lbd
	s.lbdRingSum += int64(lbd)
	s.lbdRingPos = (s.lbdRingPos + 1) % lbdRingSize
	if s.trailEma == 0 {
		s.trailEma = float64(trailSize)
	} else {
		s.trailEma += (float64(trailSize) - s.trailEma) * trailEmaRate
	}
	if s.lbdRingLen == lbdRingSize && float64(trailSize) > blockR*s.trailEma {
		s.lbdRingLen, s.lbdRingSum, s.lbdRingPos = 0, 0, 0 // block the restart
	}
}

// ResetRestartStats clears the LBD-quality running averages that drive
// the restart policy. An incremental caller invokes it at query
// boundaries so the quality baseline describes the query being solved,
// not the session's whole history — within one query's sub-solves the
// state is left to accumulate, exactly like a fresh solver's single
// Solve call on that query.
func (s *Solver) ResetRestartStats() {
	s.sumLBD = 0
	s.solveBase = s.conflicts
	s.lbdRingLen, s.lbdRingSum, s.lbdRingPos = 0, 0, 0
	s.trailEma = 0
}

// restartPending reports whether the LBD policy asks for a restart,
// clearing the ring so the decision is made on fresh conflicts next
// time.
func (s *Solver) restartPending() bool {
	if s.lbdRingLen < lbdRingSize || s.conflicts == s.solveBase {
		return false
	}
	if float64(s.lbdRingSum)/float64(s.lbdRingLen)*restartK <= float64(s.sumLBD)/float64(s.conflicts-s.solveBase) {
		return false
	}
	s.lbdRingLen, s.lbdRingSum, s.lbdRingPos = 0, 0, 0
	return true
}

// pickBranchLit selects the unassigned variable with the highest activity,
// using its saved phase.
func (s *Solver) pickBranchLit() Lit {
	//alive:bounded — drains the order heap, at most nvars pops per call.
	for {
		v, ok := s.order.removeMax()
		if !ok {
			return 0
		}
		if s.value(MkLit(v, false)) == Unassigned {
			s.decisions++
			return MkLit(v, !s.vars[v].phase)
		}
	}
}

// Database reduction schedule: the first reduction runs after
// reduceBase conflicts, and each reduction pushes the next one
// reduceBase + reduceBump×(reductions so far) conflicts out.
const (
	reduceBase = 2000
	reduceBump = 300
)

// reduceDB enforces the three-tier learned-clause policy: core clauses
// are permanent, tier2 clauses unused for tier2Stale conflicts demote
// to local, and the worst half of the local tier — highest LBD first,
// least active as the tie-break — is removed. Binary clauses and
// current reasons always survive.
func (s *Solver) reduceDB() {
	if len(s.learnts) == 0 {
		return
	}
	s.dbReductions++
	var local []*clause
	for _, c := range s.learnts {
		if c.tier == tierTwo && s.conflicts-c.touched > tier2Stale {
			c.tier = tierLocal
		}
		if c.tier == tierLocal && len(c.lits) > 2 && !s.locked(c) {
			local = append(local, c)
		}
	}
	// Deterministic badness order: higher LBD first, then lower
	// activity; SliceStable keeps insertion order on full ties so
	// corpus counters stay reproducible run to run.
	sortClausesByBadness(local)
	for _, c := range local[:len(local)/2] {
		c.deleted = true
		s.detach(c)
	}
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if !c.deleted {
			kept = append(kept, c)
		}
	}
	s.learnts = kept
}

func (s *Solver) detach(c *clause) {
	for _, wl := range []Lit{c.lits[0].Not(), c.lits[1].Not()} {
		ws := s.watches[wl]
		for i, w := range ws {
			if w.c == c {
				ws[i] = ws[len(ws)-1]
				s.watches[wl] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// luby computes the Luby restart sequence element i (1-based).
func luby(i int64) int64 {
	for k := uint(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// Solve determines satisfiability under the given assumption literals.
// It returns Sat, Unsat, or Unknown (budget exhausted). After Sat, Model
// and ValueOf are valid; after Unsat under assumptions, ConflictSubset
// returns a subset of the assumptions that is jointly unsatisfiable.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if !s.ok {
		return Unsat
	}
	if s.Stop.Stopped() {
		s.emitSample()
		return Unknown
	}
	s.assumptions = assumptions
	s.conflictSet = nil
	defer s.backtrackTo(0)

	restartNum := int64(0)
	baseInterval := int64(100)
	if !s.DisableInprocess && s.InprocessConflicts > 0 && s.InprocessConflicts < baseInterval {
		baseInterval = s.InprocessConflicts
	}
	startConflicts := s.conflicts
	if s.nextReduce == 0 {
		s.nextReduce = reduceBase
	}
	if s.nextInprocess == 0 {
		s.nextInprocess = s.inprocessInterval()
	}

	for {
		restartNum++
		if restartNum > 1 {
			s.restarts++
		}
		budget := luby(restartNum) * baseInterval
		st := s.search(budget)
		if st == Sat {
			// Snapshot the model before the deferred backtrack clears it.
			if cap(s.model) < len(s.vars) {
				s.model = make([]bool, len(s.vars))
			}
			s.model = s.model[:len(s.vars)]
			for v := 1; v < len(s.vars); v++ {
				s.model[v] = s.value(MkLit(v, false)) == True
			}
		}
		if st != Unknown {
			return st
		}
		// Sample here — after a search leg, before deciding whether to
		// continue — so the hook sees every restart boundary and every
		// Unknown exit (stop-flag or budget) gets a final snapshot.
		s.emitSample()
		if s.Stop.Stopped() {
			return Unknown
		}
		if s.MaxConflicts > 0 && s.conflicts-startConflicts >= s.MaxConflicts {
			return Unknown
		}
		// Restart boundary: the trail is back at level 0, which is where
		// in-search static analysis of the clause database is sound and
		// cheap. A root-level refutation during inprocessing ends the
		// solve outright.
		if !s.DisableInprocess && s.conflicts >= s.nextInprocess {
			if !s.inprocess() {
				return Unsat
			}
			if s.Stop.Stopped() {
				return Unknown
			}
			s.nextInprocess = s.conflicts + s.inprocessInterval()
		}
	}
}

// search runs CDCL until a result, a restart (returns Unknown after
// conflictBudget conflicts), or exhaustion.
func (s *Solver) search(conflictBudget int64) Status {
	conflictsHere := int64(0)
	for {
		if s.Stop != nil && s.propagations >= s.nextStopPoll {
			s.nextStopPoll = s.propagations + stopPollInterval
			faultinject.Fire(faultinject.SitePropagate, s.Stop)
			if s.Stop.Stopped() {
				s.backtrackTo(0)
				return Unknown
			}
		}
		confl := s.propagate()
		if confl != nil {
			s.conflicts++
			conflictsHere++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.learned++
			// LBD must be read before backtracking unassigns the
			// asserting literal's variable.
			lbd := s.computeLBD(learnt)
			s.noteLBD(lbd, len(s.trail))
			s.backtrackTo(btLevel)
			if len(learnt) == 1 && btLevel == 0 {
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				lits := make([]Lit, len(learnt))
				copy(lits, learnt)
				c := &clause{lits: lits, learnt: true, touched: s.conflicts, lbd: lbd + 1}
				s.setLBD(c, lbd)
				s.learnts = append(s.learnts, c)
				if !s.DisableInprocess && len(s.newLearnts) < maxNewLearnts {
					s.newLearnts = append(s.newLearnts, c)
				}
				s.attach(c)
				s.bumpClause(c)
				if s.value(learnt[0]) == Unassigned {
					s.uncheckedEnqueue(learnt[0], c)
				}
			}
			s.varInc *= varDecay
			s.clauseInc *= clauseDecay
			continue
		}
		if conflictsHere >= conflictBudget || s.restartPending() {
			s.backtrackTo(0)
			return Unknown
		}
		if s.conflicts >= s.nextReduce {
			s.reduceDB()
			s.nextReduce = s.conflicts + reduceBase + reduceBump*s.dbReductions
		}
		// Enqueue pending assumptions as decisions.
		if s.decisionLevel() < len(s.assumptions) {
			a := s.assumptions[s.decisionLevel()]
			switch s.value(a) {
			case True:
				s.trailLim = append(s.trailLim, len(s.trail)) // dummy level
				continue
			case False:
				s.buildConflictFromAssumption(a)
				return Unsat
			default:
				s.trailLim = append(s.trailLim, len(s.trail))
				s.uncheckedEnqueue(a, nil)
				continue
			}
		}
		faultinject.Fire(faultinject.SiteDecide, s.Stop)
		if s.Stop.Stopped() {
			s.backtrackTo(0)
			return Unknown
		}
		l := s.pickBranchLit()
		if l == 0 {
			return Sat
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(l, nil)
	}
}

// buildConflictFromAssumption computes the subset of assumptions
// responsible for the assumption a being falsified: a plus the
// assumption decisions reachable through the reason graph of ~a.
func (s *Solver) buildConflictFromAssumption(a Lit) {
	s.conflictSet = []Lit{a}
	seen := map[int]bool{}
	var rec func(l Lit)
	rec = func(l Lit) {
		v := l.Var()
		if seen[v] || s.level(v) == 0 {
			return
		}
		seen[v] = true
		if r := s.vars[v].reason; r != nil {
			for _, q := range r.lits {
				if q.Var() != v {
					rec(q)
				}
			}
		} else {
			// A decision below the assumption prefix is an assumption.
			s.conflictSet = append(s.conflictSet, l)
		}
	}
	rec(a.Not())
}

// ConflictSubset returns, after an Unsat result under assumptions, a
// subset of the assumptions that is jointly unsatisfiable with the
// clauses (empty when the clause set itself is unsat).
func (s *Solver) ConflictSubset() []Lit { return s.conflictSet }

// ProbeUnder runs failed-literal probing under an assumption context:
// the context literals are pushed as decisions and propagated, then
// every still-unassigned variable is probed in both phases. A probe
// whose propagation conflicts proves its literal implied-false under
// the context, so the caller may add the guarded clause
// (¬ctx ∨ ¬lit) and have it propagate at assumption level in later
// solves — the incremental analogue of the failed-literal pass a fresh
// preprocessor runs with the query root asserted as a unit. feasible
// is false when propagation alone refutes the context (the caller may
// then add ¬ctx outright). The trail is fully restored; no clauses are
// learned and the conflict counter is untouched, so probing trades
// propagation effort for search conflicts, never the reverse.
func (s *Solver) ProbeUnder(ctx []Lit) (failed []Lit, feasible bool) {
	if !s.ok {
		return nil, false
	}
	// Probing assigns most of the variable space both ways, which would
	// trash the saved phases that make consecutive warm solves cheap;
	// snapshot and restore them so probing is invisible to the
	// branching heuristic. Registered before the backtrack defer so it
	// runs after the trail is unwound.
	phases := s.phaseBuf[:0]
	for i := range s.vars {
		phases = append(phases, s.vars[i].phase)
	}
	s.phaseBuf = phases
	defer func() {
		for i := range s.vars {
			s.vars[i].phase = phases[i]
		}
	}()
	defer s.backtrackTo(0)
	for _, a := range ctx {
		switch s.value(a) {
		case True:
			continue
		case False:
			return nil, false
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(a, nil)
		if s.propagate() != nil {
			return nil, false
		}
	}
	ctxLevel := s.decisionLevel()
	probes := 0
	for pass := 0; pass < 4; pass++ {
		progress := false
		for v := 1; v < len(s.vars); v++ {
			if s.value(MkLit(v, false)) != Unassigned {
				continue
			}
			// The pass count bounds the fixpoint, but every probe runs
			// full propagation over the clause set, so on big encodings a
			// deadline can strike mid-pass. The failed literals found so
			// far are each individually implied, so stopping early keeps
			// the result sound.
			if probes++; probes&63 == 0 && s.Stop.Stopped() {
				return failed, true
			}
			// Literals the first (negative) phase probe implied, kept for
			// lifting: anything the second phase also implies holds under
			// the context regardless of v.
			var first []Lit
			for pi, l := range [2]Lit{MkLit(v, false), MkLit(v, true)} {
				// An earlier failed literal's propagation may have assigned
				// this variable at the context level in the meantime.
				if s.value(l) != Unassigned {
					break
				}
				base := len(s.trail)
				s.trailLim = append(s.trailLim, len(s.trail))
				s.uncheckedEnqueue(l, nil)
				confl := s.propagate()
				var lifted []Lit
				if confl == nil {
					if pi == 0 {
						first = append(first, s.trail[base+1:]...)
					} else {
						for _, u := range first {
							if s.value(u) == True {
								lifted = append(lifted, u)
							}
						}
					}
				}
				s.backtrackTo(ctxLevel)
				if confl != nil {
					failed = append(failed, l)
					progress = true
					// Assert the implication at the context level so later
					// probes (and their propagations) build on it.
					s.uncheckedEnqueue(l.Not(), nil)
					if s.propagate() != nil {
						return failed, false
					}
					continue
				}
				// A lifted literal u is implied by both v and ¬v, so it is
				// implied by the context alone; report it as the failed
				// literal ¬u and assert it like one.
				for _, u := range lifted {
					if s.value(u) != Unassigned {
						continue
					}
					failed = append(failed, u.Not())
					progress = true
					s.uncheckedEnqueue(u, nil)
					if s.propagate() != nil {
						return failed, false
					}
				}
			}
		}
		// Each failed literal strengthens the context, so earlier
		// variables may fail on a re-probe; iterate to a bounded
		// fixpoint, like a fresh preprocessor's probing loop.
		if !progress {
			break
		}
	}
	return failed, true
}

// ValueOf returns the model value of variable v from the most recent Sat
// result.
func (s *Solver) ValueOf(v int) bool { return v < len(s.model) && s.model[v] }

// Model returns the most recent satisfying assignment as a slice indexed
// by variable (index 0 unused).
func (s *Solver) Model() []bool {
	m := make([]bool, len(s.model))
	copy(m, s.model)
	return m
}

// sortClausesByBadness orders candidates for removal: highest LBD
// first, lowest activity as the tie-break.
func sortClausesByBadness(cs []*clause) {
	sort.SliceStable(cs, func(i, j int) bool {
		if cs[i].lbd != cs[j].lbd {
			return cs[i].lbd > cs[j].lbd
		}
		return cs[i].activity < cs[j].activity
	})
}
