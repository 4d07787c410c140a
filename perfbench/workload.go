package main

import (
	"fmt"
	"slices"

	"alive/internal/attrs"
	"alive/internal/ir"
	"alive/internal/parser"
	"alive/internal/suite"
	"alive/internal/telemetry"
	"alive/internal/verify"
)

// widths are the integer widths every operation verifies at: the widths
// the corpus's known answers (suite.Entry.WantInvalid) are stated for.
var widths = []int{4, 8}

// Workload names, in the order BENCHMARK.json lists them.
const (
	wlMulDiv  = "muldiv"
	wlBitwise = "bitwise"
	wlAttrs   = "attrs"
)

var workloadNames = []string{wlMulDiv, wlBitwise, wlAttrs}

// selectInputs returns the corpus entries of one workload, in corpus
// order. Membership depends on the parsed IR: whether it contains a
// multiply, divide or remainder (the inputs verify caps at width 8) and
// whether it has an nsw/nuw/exact slot for attribute inference. The attrs
// workload also leaves out the Figure 8 bugs, because attrs.Infer accepts
// only transformations that are correct as written.
func selectInputs(name string) ([]suite.Entry, error) {
	var out []suite.Entry
	for _, e := range suite.All() {
		t, err := parser.ParseOne(e.Text)
		if err != nil {
			return nil, fmt.Errorf("corpus entry %s: %w", e.Name, err)
		}
		hard := hasHardArith(t)
		var in bool
		switch name {
		case wlMulDiv:
			in = hard
		case wlBitwise:
			in = !hard
		case wlAttrs:
			in = !hard && hasAttrSlot(t) && !e.WantInvalid
		default:
			return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
		}
		if in {
			out = append(out, e)
		}
	}
	return out, nil
}

// hasHardArith mirrors verify's width-cap test: a multiply, divide or
// remainder in either template or in a constant expression.
func hasHardArith(t *ir.Transform) bool {
	hard := false
	visit := func(v ir.Value) {
		switch n := v.(type) {
		case *ir.BinOp:
			switch n.Op {
			case ir.Mul, ir.UDiv, ir.SDiv, ir.URem, ir.SRem:
				hard = true
			}
		case *ir.ConstBinExpr:
			switch n.Op {
			case ir.CMul, ir.CSDiv, ir.CUDiv, ir.CSRem, ir.CURem:
				hard = true
			}
		}
	}
	for _, in := range slices.Concat(t.Source, t.Target) {
		ir.WalkValues(in, visit)
	}
	return hard
}

// hasAttrSlot reports whether some instruction can carry nsw, nuw or
// exact, which is what gives attrs.Infer something to decide.
func hasAttrSlot(t *ir.Transform) bool {
	for _, in := range slices.Concat(t.Source, t.Target) {
		if bo, ok := in.(*ir.BinOp); ok && ir.ValidFlags(bo.Op) != 0 {
			return true
		}
	}
	return false
}

// outcome is what one operation leaves for the known-answer gate and the
// determinism check. Every field is a deterministic function of the
// input; none depends on timing.
type outcome struct {
	err         error
	verdict     verify.Verdict
	assignments int
	queries     int
	counters    telemetry.Counters
	// inferred is the attrs workload's result: feasible placements and
	// the preferred one.
	inferred *attrs.Result
}

// sameWork reports whether two outcomes of one input did identical work.
func (o outcome) sameWork(p outcome) bool {
	if (o.err == nil) != (p.err == nil) || o.verdict != p.verdict ||
		o.assignments != p.assignments || o.queries != p.queries || o.counters != p.counters {
		return false
	}
	if (o.inferred == nil) != (p.inferred == nil) {
		return false
	}
	if o.inferred == nil {
		return true
	}
	a, b := o.inferred, p.inferred
	return a.Checks == b.Checks && len(a.Feasible) == len(b.Feasible) && slices.Equal(a.Best, b.Best)
}

// runOp parses one corpus entry and passes it to the workload's public
// entry point, opening a span around each call. With a nil track every
// span is a no-op and the program runs untraced.
func runOp(workload string, e suite.Entry, tr *telemetry.Tracer, tk *telemetry.Track) outcome {
	span := tk.Start(e.Name, "bench")
	defer span.End()
	ps := span.Child("parse", "parser")
	t, err := parser.ParseOne(e.Text)
	ps.End()
	if err != nil {
		return outcome{err: err}
	}
	if t.Name == "" {
		t.Name = e.Name
	}
	opts := verify.Options{Widths: widths, Trace: tr, Track: tk}
	if workload == wlAttrs {
		as := span.Child("attrs", "attrs")
		r, err := attrs.Infer(t, opts)
		as.End()
		return outcome{err: err, inferred: r}
	}
	vs := span.Child("verify", "verify")
	res := verify.Verify(t, opts)
	vs.End()
	return outcome{
		err:         res.Err,
		verdict:     res.Verdict,
		assignments: res.TypeAssignments,
		queries:     res.Queries,
		counters:    res.Counters,
	}
}

// checkAnswer is the known-answer gate for one input, run outside the
// timed window. A verification must end with the corpus's verdict; an
// inference must succeed, and the placement it prefers must itself
// verify.
func checkAnswer(workload string, e suite.Entry, o outcome) error {
	if o.err != nil {
		return o.err
	}
	if workload != wlAttrs {
		want := verify.Valid
		if e.WantInvalid {
			want = verify.Invalid
		}
		if o.verdict != want {
			return fmt.Errorf("verdict %s, want %s", o.verdict, want)
		}
		return nil
	}
	text := o.inferred.Render(o.inferred.Best)
	t, err := parser.ParseOne(text)
	if err != nil {
		return fmt.Errorf("inferred placement does not parse: %w", err)
	}
	if res := verify.Verify(t, verify.Options{Widths: widths}); res.Verdict != verify.Valid {
		return fmt.Errorf("inferred placement is %s:\n%s", res.Verdict, text)
	}
	return nil
}
