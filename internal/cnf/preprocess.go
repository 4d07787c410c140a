package cnf

import (
	"alive/internal/faultinject"
	"alive/internal/sat"
)

// Options selects and bounds the preprocessing passes. The zero value
// enables everything with default budgets.
type Options struct {
	// NoSubsume disables backward subsumption and self-subsuming
	// resolution.
	NoSubsume bool
	// NoElim disables bounded variable elimination.
	NoElim bool
	// NoBlocked disables blocked clause elimination.
	NoBlocked bool
	// NoProbe disables failed-literal probing.
	NoProbe bool
	// Budget is the work budget in propagation-style ticks (roughly one
	// tick per literal visited); 0 means a default. Exhausting the
	// budget stops preprocessing early, which is always sound: a
	// partially preprocessed formula is still equisatisfiable.
	Budget int64
	// MaxRounds caps fixpoint iterations of the pass pipeline; 0 means
	// a default.
	MaxRounds int
	// Stop cooperatively cancels preprocessing, like the CDCL core's
	// flag. A stopped run leaves the formula in a consistent
	// (equisatisfiable) state.
	Stop *sat.StopFlag
}

const (
	defaultBudget    = 2_000_000
	defaultMaxRounds = 5
	// elimProductLimit skips variable elimination when the resolvent
	// cross product is too large to even count within reason.
	elimProductLimit = 1024
)

// Stats reports what the preprocessor did, in the same vocabulary as
// telemetry.Counters.
type Stats struct {
	Rounds              int64
	VarsEliminated      int64
	ClausesSubsumed     int64
	ClausesStrengthened int64
	ClausesBlocked      int64
	ProbeUnits          int64
	// Units is the total number of root-level assignments fixed by
	// saturation (including units absorbed at AddClause time and probe
	// units).
	Units       int64
	VarsIn      int
	ClausesIn   int
	ClausesOut  int
	BudgetSpent int64
}

// extEntry is one frame of the model-reconstruction stack: a clause
// removed by variable elimination or blocked clause elimination, plus
// the witness literal to flip if a model of the simplified formula
// leaves the clause unsatisfied.
type extEntry struct {
	witness sat.Lit
	clause  []sat.Lit
}

// Result is a preprocessed formula: either proved unsatisfiable, or a
// simplified clause database (Load) together with the reconstruction
// stack that extends any model of it to a model of the original formula
// (ExtendModel).
type Result struct {
	// Unsat is set when preprocessing alone refuted the formula.
	Unsat bool
	Stats Stats
	f     *Formula
	ext   []extEntry
}

type prep struct {
	f *Formula
	// occ[int(lit)] lists indices into f.clauses of clauses containing
	// lit. Entries of deleted clauses are dropped lazily by occList; an
	// entry whose clause lost lit to strengthening is only possible in a
	// list flagged stale, and occList re-checks membership there alone.
	// Eliminated-variable marks and the reconstruction stack live on the
	// Formula so they persist across the repeated Preprocess calls of an
	// incremental session.
	occ   [][]int
	stale []bool
	// touched marks the variables of clauses added (resolvents) or
	// shrunk (strengthening, root saturation) since the last subsumption
	// pass, in first-touch order in touchedVars. Every pass after the
	// first queues only the clauses on those variables: any other pair
	// of live clauses was already checked, and neither side has changed.
	touched     []bool
	touchedVars []int
	// queue is the subsumption work list; queued[ci] dedupes it.
	// subsuming is set while a pass drains it, so clauses shrunk
	// mid-pass go straight back on the queue.
	queue     []int
	queued    []bool
	subsuming bool
	// resBuf and resEnd hold one variable's resolvents end to end.
	resBuf []sat.Lit
	resEnd []int
	budget int64
	stop   *sat.StopFlag
	stats  *Stats
}

// Preprocess runs the pass pipeline to a fixpoint (or until the budget
// or Stop flag halts it) and returns the simplified formula. The
// formula must not be modified afterwards except through the Result.
func Preprocess(f *Formula, opts Options) *Result {
	res := &Result{f: f}
	res.Stats.VarsIn = f.nvars
	res.Stats.ClausesIn = f.live
	budget := opts.Budget
	if budget <= 0 {
		budget = defaultBudget
	}
	rounds := opts.MaxRounds
	if rounds <= 0 {
		rounds = defaultMaxRounds
	}
	p := &prep{
		f:       f,
		occ:     make([][]int, 2*(f.nvars+1)),
		stale:   make([]bool, 2*(f.nvars+1)),
		touched: make([]bool, f.nvars+1),
		queued:  make([]bool, len(f.clauses)),
		budget:  budget,
		stop:    opts.Stop,
		stats:   &res.Stats,
	}
	for ci, c := range f.clauses {
		if c.deleted {
			continue
		}
		for _, l := range c.lits {
			p.occ[l] = append(p.occ[l], ci)
		}
	}
	p.saturate()
	for round := 0; round < rounds && f.ok && !p.halted(); round++ {
		faultinject.Fire(faultinject.SitePreprocess, p.stop)
		if p.halted() {
			break
		}
		res.Stats.Rounds++
		changed := int64(0)
		if !opts.NoSubsume {
			changed += p.subsume(round == 0)
		}
		if !opts.NoElim {
			changed += p.eliminate()
		}
		if !opts.NoBlocked {
			changed += p.blocked()
		}
		if !opts.NoProbe {
			changed += p.probe()
		}
		if changed == 0 {
			break
		}
	}
	res.Stats.ClausesOut = f.live
	res.Stats.BudgetSpent = budget - p.budget
	res.ext = f.ext
	res.Unsat = !f.ok
	return res
}

// spend charges n ticks against the budget.
func (p *prep) spend(n int) { p.budget -= int64(n) }

// halted reports whether preprocessing should stop: budget exhausted or
// cooperative cancellation requested.
func (p *prep) halted() bool { return p.budget <= 0 || p.stop.Stopped() }

// occList returns the live occurrence list of l, compacting out the
// entries of deleted clauses in place (and, when the list is flagged
// stale, of clauses that no longer contain l).
func (p *prep) occList(l sat.Lit) []int {
	lst := p.occ[l]
	out := lst[:0]
	if p.stale[l] {
		p.stale[l] = false
		for _, ci := range lst {
			if c := p.f.clauses[ci]; !c.deleted && contains(c.lits, l) {
				out = append(out, ci)
			}
		}
	} else {
		for _, ci := range lst {
			if !p.f.clauses[ci].deleted {
				out = append(out, ci)
			}
		}
	}
	p.occ[l] = out
	return out
}

// addClause routes a derived clause (resolvent) through the formula's
// normalizing AddClause and registers occurrences for anything stored.
func (p *prep) addClause(lits []sat.Lit) {
	before := len(p.f.clauses)
	p.f.AddClause(lits...)
	for ci := before; ci < len(p.f.clauses); ci++ {
		for _, l := range p.f.clauses[ci].lits {
			p.occ[l] = append(p.occ[l], ci)
		}
		p.queued = append(p.queued, false)
		p.touch(ci)
	}
}

// touch records that clause ci is new or shrank: during a subsumption
// pass it goes back on the queue, otherwise its variables seed the
// next pass's queue.
func (p *prep) touch(ci int) {
	if p.subsuming {
		p.enqueue(ci)
		return
	}
	for _, l := range p.f.clauses[ci].lits {
		if v := l.Var(); !p.touched[v] {
			p.touched[v] = true
			p.touchedVars = append(p.touchedVars, v)
		}
	}
}

func (p *prep) enqueue(ci int) {
	if !p.queued[ci] {
		p.queued[ci] = true
		p.queue = append(p.queue, ci)
	}
}

// removeLit deletes literal x from clause ci. A clause left with one
// literal is deleted and its literal assigned at the root (false on
// conflict); otherwise the clause is touched.
func (p *prep) removeLit(ci int, x sat.Lit) bool {
	f := p.f
	c := f.clauses[ci]
	out := c.lits[:0]
	for _, y := range c.lits {
		if y != x {
			out = append(out, y)
		}
	}
	c.lits = out
	c.sig = clauseSig(out)
	if len(out) == 1 {
		f.delete(c)
		return f.assign(out[0])
	}
	p.touch(ci)
	return true
}

// saturate propagates pending root-level units through the clause
// database: clauses satisfied by a unit are deleted, false literals are
// stripped, and clauses that shrink to units are absorbed in turn.
// After saturation no live clause mentions a root-assigned variable.
func (p *prep) saturate() {
	f := p.f
	//alive:bounded — each variable enters the unit queue at most once.
	for len(f.unitQ) > 0 && f.ok {
		l := f.unitQ[0]
		f.unitQ = f.unitQ[1:]
		p.stats.Units++
		for _, ci := range p.occList(l) {
			p.spend(1)
			f.delete(f.clauses[ci])
		}
		for _, ci := range p.occList(l.Not()) {
			p.spend(len(f.clauses[ci].lits))
			if !p.removeLit(ci, l.Not()) {
				return
			}
		}
		p.occ[l] = nil
		p.occ[l.Not()] = nil
	}
}

// subsume runs backward subsumption and self-subsuming resolution in
// the MiniSat style. The first pass of a Preprocess call queues every
// live clause; later passes queue only the clauses on touched
// variables. Each queued clause C scans the occurrence lists of both
// polarities of its rarest variable once: every D with C ⊆ D is
// deleted, and every D ⊇ (C \ {l}) ∪ {¬l} loses ¬l (the resolvent of C
// and D on l subsumes D). A clause that shrinks goes back on the queue,
// so a pass that is not halted leaves no subsumption or strengthening
// between live clauses.
func (p *prep) subsume(all bool) int64 {
	f := p.f
	if all {
		for ci, c := range f.clauses {
			if !c.deleted {
				p.enqueue(ci)
			}
		}
	} else {
		for _, v := range p.touchedVars {
			for _, ci := range p.occList(sat.MkLit(v, false)) {
				p.enqueue(ci)
			}
			for _, ci := range p.occList(sat.MkLit(v, true)) {
				p.enqueue(ci)
			}
		}
	}
	for _, v := range p.touchedVars {
		p.touched[v] = false
	}
	p.touchedVars = p.touchedVars[:0]

	p.subsuming = true
	changed := int64(0)
	for qi := 0; qi < len(p.queue) && f.ok && !p.halted(); qi++ {
		ci := p.queue[qi]
		p.queued[ci] = false
		if c := f.clauses[ci]; !c.deleted {
			changed += p.backward(ci, c)
		}
	}
	// A halted pass ends the run, so whatever is left queued is dropped.
	p.queue = p.queue[:0]
	p.subsuming = false
	return changed
}

// backward checks clause c (index ci) against every clause on its
// rarest variable and returns the number of clauses it deleted or
// strengthened.
func (p *prep) backward(ci int, c *clause) int64 {
	f := p.f
	best := c.lits[0].Var()
	bestN := len(p.occ[c.lits[0]]) + len(p.occ[c.lits[0].Not()])
	for _, l := range c.lits[1:] {
		if n := len(p.occ[l]) + len(p.occ[l.Not()]); n < bestN {
			best, bestN = l.Var(), n
		}
	}
	changed := int64(0)
	for _, neg := range [2]bool{false, true} {
		for _, di := range p.occList(sat.MkLit(best, neg)) {
			d := f.clauses[di]
			if di == ci || d.deleted || len(d.lits) < len(c.lits) {
				continue
			}
			p.spend(len(c.lits))
			if c.sig&^d.sig != 0 {
				continue
			}
			flip, ok := subsumeOrStrengthen(c.lits, d.lits)
			if !ok {
				continue
			}
			changed++
			if flip == noLit {
				f.delete(d)
				p.stats.ClausesSubsumed++
				continue
			}
			p.stats.ClausesStrengthened++
			if di < f.sentClauses {
				f.markDirty(di)
			}
			if !p.removeLit(di, flip.Not()) {
				return changed
			}
			if d.deleted {
				// D became a root unit. Saturation may shrink or delete C
				// and compacts occurrence lists in place, so stop scanning
				// and let C's next turn on the queue finish the job.
				p.saturate()
				if !c.deleted {
					p.enqueue(ci)
				}
				return changed
			}
			p.stale[flip.Not()] = true
		}
	}
	return changed
}

// resolve appends the resolvent of a and b on variable v to buf. On a
// tautological resolvent it returns buf unchanged and ok=false.
func resolve(buf, a, b []sat.Lit, v int) (out []sat.Lit, ok bool) {
	start := len(buf)
	for _, l := range a {
		if l.Var() != v {
			buf = append(buf, l)
		}
	}
	for _, l := range b {
		if l.Var() == v {
			continue
		}
		if contains(buf[start:], l.Not()) {
			return buf[:start], false
		}
		if !contains(buf[start:], l) {
			buf = append(buf, l)
		}
	}
	return buf, true
}

// eliminate runs NiVER-style bounded variable elimination: a variable v
// is replaced by the resolvents of its positive and negative
// occurrences when that does not grow the clause count. The smaller
// occurrence side plus a default unit goes onto the reconstruction
// stack so models can be extended afterwards.
func (p *prep) eliminate() int64 {
	f := p.f
	changed := int64(0)
	for v := 1; v <= f.nvars; v++ {
		if !f.ok || p.halted() {
			break
		}
		if len(f.unitQ) > 0 {
			p.saturate()
			if !f.ok {
				break
			}
		}
		if f.value[v] != 0 || f.elim[v] || f.frozen[v] || f.inCore[v] {
			continue
		}
		lp, ln := sat.MkLit(v, false), sat.MkLit(v, true)
		pos := p.occList(lp)
		neg := p.occList(ln)
		if len(pos)+len(neg) == 0 || len(pos)*len(neg) > elimProductLimit {
			continue
		}
		// The resolvents go end to end into one reused buffer; AddClause
		// copies whatever it keeps.
		limit := len(pos) + len(neg)
		buf, ends := p.resBuf[:0], p.resEnd[:0]
		feasible := true
		for _, pi := range pos {
			for _, ni := range neg {
				cp, cn := f.clauses[pi], f.clauses[ni]
				p.spend(len(cp.lits) + len(cn.lits))
				var ok bool
				if buf, ok = resolve(buf, cp.lits, cn.lits, v); !ok {
					continue
				}
				ends = append(ends, len(buf))
				if len(ends) > limit {
					feasible = false
					break
				}
			}
			if !feasible {
				break
			}
		}
		p.resBuf, p.resEnd = buf, ends
		if !feasible {
			continue
		}
		// Record the smaller side (plus a default unit of the opposite
		// polarity) for model reconstruction, MiniSat elimclauses
		// style: replayed in reverse, the unit sets a default and each
		// recorded clause flips v if it would otherwise be violated.
		side, unit := pos, ln
		if len(pos) > len(neg) {
			side, unit = neg, lp
		}
		witness := unit.Not()
		for _, si := range side {
			cl := append([]sat.Lit(nil), f.clauses[si].lits...)
			f.ext = append(f.ext, extEntry{witness: witness, clause: cl})
		}
		f.ext = append(f.ext, extEntry{witness: unit, clause: []sat.Lit{unit}})
		for _, ci := range pos {
			f.delete(f.clauses[ci])
		}
		for _, ci := range neg {
			f.delete(f.clauses[ci])
		}
		p.occ[lp] = nil
		p.occ[ln] = nil
		f.elim[v] = true
		p.stats.VarsEliminated++
		changed++
		start := 0
		for _, end := range ends {
			p.addClause(buf[start:end])
			if !f.ok {
				return changed
			}
			start = end
		}
	}
	return changed
}

// blocked runs blocked clause elimination: a clause C is blocked on a
// literal l ∈ C when every resolvent of C on l is tautological;
// removing it preserves satisfiability, and flipping l repairs any
// model that violates C.
func (p *prep) blocked() int64 {
	f := p.f
	changed := int64(0)
	// Loaded clauses (index below sentClauses) stay: they cannot be
	// retracted from the CDCL core, so removing them here would leave
	// the core over-constrained relative to the formula's model class.
	for ci := f.sentClauses; ci < len(f.clauses); ci++ {
		if !f.ok || p.halted() {
			break
		}
		c := f.clauses[ci]
		if c.deleted {
			continue
		}
		for _, l := range c.lits {
			// A frozen witness would be unsound twice over: future
			// clauses may resolve against l, and the witness flip in
			// model reconstruction would perturb an interface variable
			// the caller reads directly.
			if f.frozen[l.Var()] {
				continue
			}
			isBlocked := true
			for _, di := range p.occList(l.Not()) {
				d := f.clauses[di]
				p.spend(len(d.lits))
				if !tautResolvent(c.lits, d.lits, l) {
					isBlocked = false
					break
				}
			}
			if isBlocked {
				cl := append([]sat.Lit(nil), c.lits...)
				f.ext = append(f.ext, extEntry{witness: l, clause: cl})
				f.delete(c)
				p.stats.ClausesBlocked++
				changed++
				break
			}
		}
	}
	return changed
}

// tautResolvent reports whether resolving c and d on l (l ∈ c, ¬l ∈ d)
// yields a tautology: some other literal of c occurs negated in d.
func tautResolvent(c, d []sat.Lit, l sat.Lit) bool {
	for _, m := range c {
		if m != l && contains(d, m.Not()) {
			return true
		}
	}
	return false
}

// probe runs failed-literal probing: temporarily assume each unassigned
// literal and unit-propagate over the occurrence lists; a conflict
// proves the complement at the root, which then saturates through the
// database.
func (p *prep) probe() int64 {
	f := p.f
	changed := int64(0)
	mark := make([]int8, f.nvars+1)
	trail := make([]sat.Lit, 0, 64)
	for v := 1; v <= f.nvars; v++ {
		if !f.ok || p.halted() {
			break
		}
		if len(f.unitQ) > 0 {
			p.saturate()
			if !f.ok {
				break
			}
		}
		if f.value[v] != 0 || f.elim[v] {
			continue
		}
		if len(p.occ[sat.MkLit(v, false)]) == 0 && len(p.occ[sat.MkLit(v, true)]) == 0 {
			continue
		}
		for neg := 0; neg < 2; neg++ {
			if f.value[v] != 0 {
				break // the other polarity failed and was fixed
			}
			l := sat.MkLit(v, neg == 1)
			conflict := p.tempPropagate(l, mark, &trail)
			for _, t := range trail {
				mark[t.Var()] = 0
			}
			trail = trail[:0]
			if !conflict {
				continue
			}
			p.stats.ProbeUnits++
			changed++
			if !f.assign(l.Not()) {
				return changed
			}
			p.saturate()
			if !f.ok {
				return changed
			}
		}
	}
	return changed
}

// tempPropagate assumes l in the scratch assignment and unit-propagates
// to fixpoint. It reports whether a conflict was reached; exhausting
// the budget mid-propagation aborts without a conflict, which is sound
// (probing only acts on conflicts).
func (p *prep) tempPropagate(l sat.Lit, mark []int8, trail *[]sat.Lit) bool {
	f := p.f
	set := func(x sat.Lit) {
		if x.Neg() {
			mark[x.Var()] = -1
		} else {
			mark[x.Var()] = 1
		}
		*trail = append(*trail, x)
	}
	val := func(x sat.Lit) int8 {
		m := mark[x.Var()]
		if x.Neg() {
			return -m
		}
		return m
	}
	set(l)
	for i := 0; i < len(*trail); i++ {
		if p.budget <= 0 {
			return false
		}
		q := (*trail)[i]
		for _, ci := range p.occList(q.Not()) {
			c := f.clauses[ci]
			p.spend(len(c.lits))
			satisfied := false
			unassigned := 0
			var last sat.Lit
			for _, x := range c.lits {
				switch val(x) {
				case 1:
					satisfied = true
				case 0:
					unassigned++
					last = x
				}
				if satisfied {
					break
				}
			}
			if satisfied {
				continue
			}
			if unassigned == 0 {
				return true
			}
			if unassigned == 1 {
				set(last)
			}
		}
	}
	return false
}

// Load replays the simplified formula into a fresh CDCL core: the same
// variable count (eliminated variables are simply unconstrained — the
// reconstruction stack repairs their values), every root unit, and
// every surviving clause.
func (r *Result) Load(core *sat.Solver) {
	f := r.f
	//alive:bounded — grows the variable table to a fixed count.
	for core.NumVars() < f.nvars {
		core.NewVar()
	}
	for v := 1; v <= f.nvars; v++ {
		if f.value[v] != 0 {
			core.AddClause(sat.MkLit(v, f.value[v] < 0))
		}
	}
	for _, c := range f.clauses {
		if !c.deleted {
			core.AddClause(c.lits...)
		}
	}
}

// ExtendModel turns a model of the simplified formula (indexed by
// variable, index 0 unused, as returned by sat.Solver.Model) into a
// model of the original formula: root units are forced, then the
// reconstruction stack is replayed newest-first, flipping each witness
// whose recorded clause the model would otherwise violate.
func (r *Result) ExtendModel(m []bool) []bool {
	f := r.f
	out := make([]bool, f.nvars+1)
	copy(out, m)
	for v := 1; v <= f.nvars; v++ {
		if f.value[v] != 0 {
			out[v] = f.value[v] == 1
		}
	}
	for i := len(r.ext) - 1; i >= 0; i-- {
		e := r.ext[i]
		satisfied := false
		for _, l := range e.clause {
			if litTrue(out, l) {
				satisfied = true
				break
			}
		}
		if !satisfied {
			out[e.witness.Var()] = !e.witness.Neg()
		}
	}
	return out
}
