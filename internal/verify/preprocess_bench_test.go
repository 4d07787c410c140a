package verify

import (
	"testing"

	"alive/internal/absint"
	"alive/internal/bitblast"
	"alive/internal/cnf"
	"alive/internal/sat"
	"alive/internal/suite"
	"alive/internal/typing"
)

// recordedCNF is one bit-blasted verification condition, kept as plain
// clauses so every benchmark iteration can replay it into a fresh
// cnf.Formula.
type recordedCNF struct {
	// name is the corpus transformation the condition came from; hard
	// marks one with a multiply, divide or remainder.
	name    string
	hard    bool
	nvars   int
	clauses [][]sat.Lit
	// frozen lists the interface variables a session would freeze:
	// named inputs, memoized encoding outputs and the root.
	frozen []int
}

func (r *recordedCNF) NewVar() int { r.nvars++; return r.nvars }
func (r *recordedCNF) AddClause(lits ...sat.Lit) bool {
	r.clauses = append(r.clauses, append([]sat.Lit(nil), lits...))
	return true
}
func (r *recordedCNF) NumVars() int    { return r.nvars }
func (r *recordedCNF) NumClauses() int { return len(r.clauses) }

// formula replays r into a fresh formula, with the root asserted or, in
// the session shape, unasserted with the interface variables frozen.
func (r *recordedCNF) formula(session bool) *cnf.Formula {
	f := cnf.NewFormula()
	for f.NumVars() < r.nvars {
		f.NewVar()
	}
	for _, c := range r.clauses {
		f.AddClause(c...)
	}
	if session {
		for _, v := range r.frozen {
			f.Freeze(v)
		}
	}
	return f
}

// corpusVCs bit-blasts every correctness condition of every corpus
// transformation under its type assignments at widths {4, 8}, after
// the presolver's term simplification, as the verifier would. asserted
// holds the one-shot shape (root asserted as a unit); session holds the
// incremental-session shape (root only lowered, so it can be assumed).
func corpusVCs(tb testing.TB) (asserted, session []*recordedCNF) {
	tb.Helper()
	opts := Options{Widths: []int{4, 8}}.withDefaults()
	for _, tr := range suite.ParseAll() {
		hard := hasHardArith(tr)
		asgs, err := typing.Infer(tr, typing.Options{Widths: opts.Widths, PtrWidth: opts.PtrWidth, MaxAssignments: opts.MaxAssignments})
		if err != nil {
			continue
		}
		for _, asg := range asgs {
			b, _, conds, err := buildConditions(tr, asg, opts)
			if err != nil {
				continue
			}
			for _, cond := range conds {
				body := absint.Simplify(b, cond.body)
				if body.IsTrue() || body.IsFalse() {
					continue
				}
				one := &recordedCNF{name: tr.Name, hard: hard}
				bitblast.New(one).Assert(body)
				asserted = append(asserted, one)

				sess := &recordedCNF{name: tr.Name, hard: hard}
				bl := bitblast.New(sess)
				root := bl.Lit(body)
				bl.EachInterfaceVar(func(v int) { sess.frozen = append(sess.frozen, v) })
				sess.frozen = append(sess.frozen, root.Var())
				session = append(session, sess)
			}
		}
	}
	if len(asserted) == 0 {
		tb.Fatal("no corpus verification condition reached bit-blasting")
	}
	return asserted, session
}

// BenchmarkPreprocessCorpus is the CNF-preprocessing layer benchmark on
// real inputs: cnf.Preprocess over the bit-blasted CNF of every corpus
// verification condition. The one-shot leg runs every pass on the
// asserted formula; the session leg runs what an incremental session
// does on a fresh base (frozen interface variables, no probing). Only
// Preprocess is timed; replaying the clauses into fresh formulas is
// not.
func BenchmarkPreprocessCorpus(b *testing.B) {
	asserted, session := corpusVCs(b)
	for _, leg := range []struct {
		name    string
		inputs  []*recordedCNF
		session bool
		opts    cnf.Options
	}{
		{"one-shot", asserted, false, cnf.Options{}},
		{"session", session, true, cnf.Options{NoProbe: true}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			clauses := 0
			for _, r := range leg.inputs {
				clauses += len(r.clauses)
			}
			forms := make([]*cnf.Formula, len(leg.inputs))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j, r := range leg.inputs {
					forms[j] = r.formula(leg.session)
				}
				b.StartTimer()
				for _, f := range forms {
					cnf.Preprocess(f, leg.opts)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(clauses), "ns/clause")
		})
	}
}
