package cnf

import "alive/internal/sat"

// This file is the subsumption core of the preprocessor: 64-bit
// variable signatures as a subset pre-filter, plus one combined
// subsume-or-strengthen test. The backward check scans the occurrence
// lists of both polarities of a clause's rarest variable once and runs
// the combined test on each candidate.

// varSig returns the one-bit bloom signature of variable v.
func varSig(v int) uint64 { return 1 << (uint(v) % 64) }

// clauseSig returns the variable signature of a clause: the union of
// its variables' signatures. C ⊆ D and C strengthening D both need
// vars(C) ⊆ vars(D), so clauseSig(C) &^ clauseSig(D) != 0 rejects a
// candidate for both tests without touching the literals.
func clauseSig(lits []sat.Lit) uint64 {
	var s uint64
	for _, l := range lits {
		s |= varSig(l.Var())
	}
	return s
}

// contains reports whether lits contains l.
func contains(lits []sat.Lit, l sat.Lit) bool {
	for _, x := range lits {
		if x == l {
			return true
		}
	}
	return false
}

// noLit is the literal of variable 0, which neither a sat.Solver nor a
// Formula ever allocates.
const noLit sat.Lit = 0

// subsumeOrStrengthen compares c against d in one pass over c. It
// reports ok with flip == noLit when c ⊆ d, and ok with flip = l when
// (c \ {l}) ∪ {¬l} ⊆ d: resolving c and d on l yields a clause that
// subsumes d, so ¬l can be removed from d (self-subsuming resolution).
// Neither clause may be tautological, so at most one literal of c can
// occur negated in d.
func subsumeOrStrengthen(c, d []sat.Lit) (flip sat.Lit, ok bool) {
	for _, x := range c {
		found := false
		for _, y := range d {
			if y == x {
				found = true
				break
			}
			if y == x.Not() && flip == noLit {
				flip = x
				found = true
				break
			}
		}
		if !found {
			return noLit, false
		}
	}
	return flip, true
}
