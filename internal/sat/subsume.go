package sat

// This file is the subsumption core shared by the CNF preprocessor
// (internal/cnf, between bit-blasting and search) and the solver's own
// inprocessing (inprocess.go, during search): 64-bit variable
// signatures as a subset pre-filter, plus one combined
// subsume-or-strengthen test. Both callers scan the occurrence lists of
// both polarities of a clause's rarest variable once and run the
// combined test on each candidate. It lives here rather than in
// internal/cnf because cnf already imports sat.

// VarSig returns the one-bit bloom signature of variable v.
func VarSig(v int) uint64 { return 1 << (uint(v) % 64) }

// ClauseSig returns the variable signature of a clause: the union of
// its variables' signatures. C ⊆ D and C strengthening D both need
// vars(C) ⊆ vars(D), so ClauseSig(C) &^ ClauseSig(D) != 0 rejects a
// candidate for both tests without touching the literals.
func ClauseSig(lits []Lit) uint64 {
	var s uint64
	for _, l := range lits {
		s |= VarSig(l.Var())
	}
	return s
}

// ContainsLit reports whether lits contains l.
func ContainsLit(lits []Lit, l Lit) bool {
	for _, x := range lits {
		if x == l {
			return true
		}
	}
	return false
}

// NoLit is the literal of variable 0, which neither a Solver nor a
// cnf.Formula ever allocates.
const NoLit Lit = 0

// SubsumeOrStrengthen compares c against d in one pass over c. It
// reports ok with flip == NoLit when c ⊆ d, and ok with flip = l when
// (c \ {l}) ∪ {¬l} ⊆ d: resolving c and d on l yields a clause that
// subsumes d, so ¬l can be removed from d (self-subsuming resolution).
// Neither clause may be tautological, so at most one literal of c can
// occur negated in d.
func SubsumeOrStrengthen(c, d []Lit) (flip Lit, ok bool) {
	for _, x := range c {
		found := false
		for _, y := range d {
			if y == x {
				found = true
				break
			}
			if y == x.Not() && flip == NoLit {
				flip = x
				found = true
				break
			}
		}
		if !found {
			return NoLit, false
		}
	}
	return flip, true
}
