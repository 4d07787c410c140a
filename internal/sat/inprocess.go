package sat

import "alive/internal/faultinject"

// This file is the in-search static-analysis half of the clause
// database machinery ("inprocessing"): at restart boundaries — the
// trail is at decision level 0, so every rewrite below is a root-level
// fact — the solver
//
//  1. saturates pending root units through the database, deleting
//     satisfied clauses and stripping false literals (clause garbage
//     collection),
//  2. runs backward subsumption and self-subsuming strengthening of
//     the learnts discovered since the last run against the whole
//     database, reusing the signature/subsumption core shared with
//     internal/cnf (subsume.go), and
//  3. vivifies (distills) problem and learnt clauses: assuming the
//     negation of a clause prefix and unit-propagating either shortens
//     the clause or proves literals redundant.
//
// Every rewrite preserves logical equivalence — not merely
// equisatisfiability — so models stay exact and a run can stop at any
// point (tick budget exhausted, StopFlag tripped) leaving a correct
// solver state behind.

const (
	// defaultInprocessInterval is the number of conflicts between
	// inprocessing runs.
	defaultInprocessInterval = 2000
	// defaultInprocessBudget bounds one run, in ticks (roughly one per
	// literal visited or propagation performed).
	defaultInprocessBudget = 250_000
	// maxNewLearnts caps the subsumption queue so a conflict storm
	// cannot make one inprocessing run quadratic.
	maxNewLearnts = 20_000
	// vivifyMinLen skips vivification of clauses already at the minimum
	// useful length (binary clauses cannot shrink without becoming
	// units, which saturation and probing find more cheaply).
	vivifyMinLen = 3
)

// inprocessInterval returns the conflicts-between-runs schedule.
func (s *Solver) inprocessInterval() int64 {
	if s.InprocessConflicts > 0 {
		return s.InprocessConflicts
	}
	return defaultInprocessInterval
}

// ipSpend charges n ticks against the current run's budget.
func (s *Solver) ipSpend(n int) { s.ipTicks -= int64(n) }

// ipHalted reports whether the current run should stop: budget
// exhausted or cooperative cancellation requested.
func (s *Solver) ipHalted() bool { return s.ipTicks <= 0 || s.Stop.Stopped() }

// inprocess runs one in-search static-analysis pass over the clause
// database. Must be called at decision level 0. It returns false when
// the database was refuted at the root (the formula is unsatisfiable).
func (s *Solver) inprocess() bool {
	s.inprocessings++
	if s.OnInprocess != nil {
		if done := s.OnInprocess(); done != nil {
			defer done()
		}
	}
	faultinject.Fire(faultinject.SiteInprocess, s.Stop)
	if s.Stop.Stopped() {
		return s.ok
	}
	budget := s.InprocessBudget
	if budget <= 0 {
		budget = defaultInprocessBudget
	}
	// The optional analyses get separate budget slices: subsumption scans
	// are charged per candidate pair and would otherwise starve
	// vivification, which is where most of the simplification power is.
	s.ipTicks = budget / 4

	// Root saturation runs to completion regardless of budget: it is
	// linear in the database and rebuilding the watch lists halfway
	// would leave watches on already-processed false literals (missed
	// propagations).
	if !s.saturateRoot() {
		return false
	}
	if !s.Stop.Stopped() && !s.ipHalted() {
		if !s.subsumeNewLearnts() {
			return false
		}
	}
	if !s.Stop.Stopped() {
		s.ipTicks = budget / 2 // vivification's own slice
		if !s.vivify() {
			return false
		}
	}
	s.compactDB()
	return s.ok
}

// rootValue returns the root-level truth of l: True/False only for
// variables assigned at decision level 0.
func (s *Solver) rootValue(l Lit) Value {
	if s.vars[l.Var()].value != Unassigned && s.level(l.Var()) == 0 {
		return s.value(l)
	}
	return Unassigned
}

// saturateRoot propagates pending root units to fixpoint and rewrites
// the database against the root assignment: clauses satisfied at the
// root are deleted, false literals are stripped, and clauses that
// shrink to units are absorbed in turn. Watch lists are rebuilt from
// scratch afterwards and root reasons are cleared (a level-0
// assignment needs no reason), so reduceDB never locks on a stale
// pointer. Returns false on a root conflict.
func (s *Solver) saturateRoot() bool {
	//alive:bounded — each variable is root-assigned at most once, so the fixpoint stabilizes after at most nvars passes.
	for {
		if s.propagate() != nil {
			s.ok = false
			return false
		}
		// Saturation is mandatory and linear; it is not charged against
		// the tick budget, which governs only the optional analyses
		// (subsumption, vivification) — otherwise a large database would
		// spend the whole budget on garbage collection and the actual
		// simplification would never run.
		changed := false
		strip := func(c *clause) bool {
			keep := c.lits[:0]
			for _, l := range c.lits {
				switch s.rootValue(l) {
				case True:
					c.deleted = true
					return true
				case False:
					changed = true
					continue
				}
				keep = append(keep, l)
			}
			if len(keep) == len(c.lits) {
				return true
			}
			c.lits = keep
			switch len(keep) {
			case 0:
				s.ok = false
				return false
			case 1:
				c.deleted = true
				if s.rootValue(keep[0]) == Unassigned {
					s.uncheckedEnqueue(keep[0], nil)
				}
			}
			return true
		}
		for _, c := range s.clauses {
			if !c.deleted && !strip(c) {
				return false
			}
		}
		for _, c := range s.learnts {
			if !c.deleted && !strip(c) {
				return false
			}
		}
		s.rebuildWatches()
		for _, l := range s.trail {
			s.vars[l.Var()].reason = nil
		}
		if !changed && s.qhead == len(s.trail) {
			return true
		}
	}
}

// rebuildWatches drops every watcher and re-attaches the live clauses.
func (s *Solver) rebuildWatches() {
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	s.compactDB()
	for _, c := range s.clauses {
		s.attach(c)
	}
	for _, c := range s.learnts {
		s.attach(c)
	}
}

// compactDB removes deleted clauses from the database lists.
func (s *Solver) compactDB() {
	live := func(cs []*clause) []*clause {
		out := cs[:0]
		for _, c := range cs {
			if !c.deleted {
				out = append(out, c)
			}
		}
		return out
	}
	s.clauses = live(s.clauses)
	s.learnts = live(s.learnts)
}

// removeClause deletes an attached clause from the database.
func (s *Solver) removeClause(c *clause) {
	c.deleted = true
	s.detach(c)
}

// strengthen removes literal l from an attached clause d, keeping the
// watch lists and root assignment consistent: a strengthened clause
// that shrinks to a unit is absorbed into the root trail (the pending
// propagation is picked up by the caller's next saturation). Returns
// false on a root conflict.
func (s *Solver) strengthen(d *clause, l Lit) bool {
	s.detach(d)
	keep := d.lits[:0]
	for _, x := range d.lits {
		if x == l {
			continue
		}
		switch s.rootValue(x) {
		case True:
			// Satisfied at the root (a unit enqueued earlier in this
			// pass): delete rather than re-attach.
			d.deleted = true
			return true
		case False:
			continue
		}
		keep = append(keep, x)
	}
	d.lits = keep
	d.sig = ClauseSig(keep)
	switch len(keep) {
	case 0:
		s.ok = false
		d.deleted = true
		return false
	case 1:
		d.deleted = true
		switch s.rootValue(keep[0]) {
		case False:
			s.ok = false
			return false
		case Unassigned:
			s.uncheckedEnqueue(keep[0], nil)
		}
		return true
	}
	s.attach(d)
	return true
}

// subsumeNewLearnts screens the learnts recorded since the last run
// against the whole database: a new learnt C deletes any clause D ⊇ C
// (backward subsumption) and strengthens any D ⊇ (C \ {l}) ∪ {¬l} by
// removing ¬l (self-subsuming resolution). Occurrence lists are built
// fresh per run — the search loop itself never maintains them — and
// signatures prefilter the candidate scans. Returns false on a root
// conflict.
func (s *Solver) subsumeNewLearnts() bool {
	queue := s.newLearnts
	s.newLearnts = s.newLearnts[:0]
	if len(queue) == 0 {
		return true
	}
	occ := make([][]*clause, len(s.watches))
	index := func(cs []*clause) {
		for _, c := range cs {
			c.sig = ClauseSig(c.lits)
			for _, l := range c.lits {
				occ[l] = append(occ[l], c)
			}
			// Indexing is cheap pointer appends; charge per clause, not
			// per literal, so building the index does not consume the
			// budget the subsumption scans are supposed to live under.
			s.ipSpend(1)
		}
	}
	index(s.clauses)
	index(s.learnts)

	trailMark := len(s.trail)
	for _, c := range queue {
		if c.deleted || s.ipHalted() {
			continue
		}
		// Every D that C subsumes or strengthens contains C's rarest
		// variable in one polarity or the other: scan both occurrence
		// lists once with the combined test. Strengthening edits D in
		// place without updating occ, which the test tolerates: it
		// checks all of C against D's current literals.
		best := c.lits[0].Var()
		bestN := len(occ[c.lits[0]]) + len(occ[c.lits[0].Not()])
		for _, l := range c.lits[1:] {
			if n := len(occ[l]) + len(occ[l.Not()]); n < bestN {
				best, bestN = l.Var(), n
			}
		}
		for _, neg := range [2]bool{false, true} {
			for _, d := range occ[MkLit(best, neg)] {
				if d == c || d.deleted || len(d.lits) < len(c.lits) {
					continue
				}
				s.ipSpend(len(c.lits))
				if c.sig&^d.sig != 0 {
					continue
				}
				flip, ok := SubsumeOrStrengthen(c.lits, d.lits)
				if !ok {
					continue
				}
				if flip == NoLit {
					s.removeClause(d)
					s.learntsSubsumed++
					continue
				}
				// The resolvent of C and D on flip subsumes D: drop ¬flip.
				if !s.strengthen(d, flip.Not()) {
					return false
				}
			}
		}
	}
	if len(s.trail) != trailMark {
		// Strengthening produced root units: saturate before anything
		// else trusts the "no root-assigned literals in live clauses"
		// invariant.
		return s.saturateRoot()
	}
	return true
}

// vivify distills clauses by trial unit propagation: for a clause
// l₁ ∨ … ∨ lₙ it assumes ¬l₁, ¬l₂, … one literal at a time. A conflict
// or an implied lᵢ proves the prefix l₁ ∨ … ∨ lᵢ, replacing the clause;
// an implied ¬lᵢ proves lᵢ redundant and drops it. Problem clauses and
// worthwhile learnts (core and tier2) are visited round-robin across
// runs under the tick budget. Returns false on a root conflict.
func (s *Solver) vivify() bool {
	// Iterate over snapshots: vivifying one clause can derive a root
	// unit, whose saturation garbage-collects the database lists out
	// from under a live index. Deleted clauses are skipped per
	// candidate instead.
	probs := append([]*clause(nil), s.clauses...)
	if n := len(probs); n > 0 {
		if s.vivClauseCur >= n {
			s.vivClauseCur = 0
		}
		start := s.vivClauseCur
		for i := 0; i < n && !s.ipHalted(); i++ {
			ci := (start + i) % n
			s.vivClauseCur = (ci + 1) % n
			if !s.vivifyClause(probs[ci]) {
				return false
			}
		}
	}
	lrnts := append([]*clause(nil), s.learnts...)
	if n := len(lrnts); n > 0 {
		if s.vivLearntCur >= n {
			s.vivLearntCur = 0
		}
		start := s.vivLearntCur
		for i := 0; i < n && !s.ipHalted(); i++ {
			ci := (start + i) % n
			s.vivLearntCur = (ci + 1) % n
			c := lrnts[ci]
			if c.tier == tierLocal {
				continue // likely to be reduced away; not worth the ticks
			}
			if !s.vivifyClause(c) {
				return false
			}
		}
	}
	return true
}

// vivifyClause vivifies one clause. The clause is detached while its
// own literals are propagated (a clause must not help distill itself)
// and the strongest proven form is re-attached. Must be called at
// decision level 0 with no pending propagations; leaves the solver at
// level 0 with any derived root units propagated. Returns false on a
// root conflict.
func (s *Solver) vivifyClause(c *clause) bool {
	if c.deleted || len(c.lits) < vivifyMinLen {
		return true
	}
	faultinject.Fire(faultinject.SiteInprocess, s.Stop)
	if s.ipHalted() {
		return true
	}
	s.detach(c)
	lits := c.lits
	keep := make([]Lit, 0, len(lits))
	aborted := false
scan:
	for _, l := range lits {
		if s.ipHalted() {
			aborted = true
			break
		}
		switch s.rootValue(l) {
		case True:
			// Satisfied at the root: the whole clause is redundant.
			keep = append(keep, l)
			break scan
		case False:
			continue // root-false literal: strip
		}
		switch s.value(l) {
		case True:
			// ¬(prefix) implies l: the clause shrinks to prefix ∨ l.
			keep = append(keep, l)
			break scan
		case False:
			// ¬(prefix) implies ¬l: l is redundant in the clause.
			continue
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(l.Not(), nil)
		before := s.propagations
		confl := s.propagate()
		s.ipSpend(int(s.propagations-before) + 1)
		if confl != nil {
			// ¬(prefix ∨ l) is contradictory: the prefix ∨ l is implied.
			keep = append(keep, l)
			break scan
		}
		keep = append(keep, l)
	}
	s.backtrackTo(0)
	if aborted || len(keep) == len(lits) {
		// Nothing proven (or the run was cut short): keep the clause as
		// it was.
		c.lits = lits
		s.attach(c)
		return true
	}
	s.clausesVivified++
	s.vivifyShrunkLits += int64(len(lits) - len(keep))
	c.lits = keep
	// A shrunk clause that retained a root-true literal is simply
	// satisfied; drop it.
	for _, l := range keep {
		if s.rootValue(l) == True {
			c.deleted = true
			return true
		}
	}
	switch len(keep) {
	case 0:
		s.ok = false
		c.deleted = true
		return false
	case 1:
		c.deleted = true
		switch s.rootValue(keep[0]) {
		case False:
			s.ok = false
			return false
		case Unassigned:
			s.uncheckedEnqueue(keep[0], nil)
		}
		// Propagate the new root unit immediately and fold its
		// consequences into the database so later candidates see a
		// saturated root state.
		return s.saturateRoot()
	}
	if c.learnt {
		if lbd := int32(len(keep)) - 1; lbd < c.lbd {
			s.setLBD(c, lbd)
		}
	}
	s.attach(c)
	return true
}
