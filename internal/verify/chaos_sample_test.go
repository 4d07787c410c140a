//go:build chaos

package verify

import (
	"path/filepath"
	"testing"

	"alive/internal/faultinject"
	"alive/internal/metrics"
	"alive/internal/solver"
)

// TestChaosStopLeavesSample stops one verification at each solver-side
// injection site and checks the flight-recorder contract for Unknown
// exits: the artifact names the phase the query gave up in and holds
// at least one solver sample, however early the stop landed, the last
// one tagged with the phase when the stop came outside the search.
func TestChaosStopLeavesSample(t *testing.T) {
	// The carry-chain identity (x&y)+(x|y) = x+y survives presolve, so
	// its queries reach bit-blasting, preprocessing and search.
	const carry = "%1 = and %x, %y\n%2 = or %x, %y\n%r = add %1, %2\n=>\n%r = add %x, %y\n"
	cases := []struct {
		site   faultinject.Site
		src    string
		phases []string
	}{
		{faultinject.SitePresolve, carry, []string{solver.PhasePresolve}},
		{faultinject.SiteIncremental, carry, []string{solver.PhaseBitblast}},
		{faultinject.SiteBitblast, carry, []string{solver.PhaseBitblast}},
		{faultinject.SitePreprocess, carry, []string{solver.PhasePreprocess}},
		{faultinject.SitePropagate, carry, []string{solver.PhaseProbe, solver.PhaseCDCL}},
		{faultinject.SiteDecide, carry, []string{solver.PhaseCDCL}},
		{faultinject.SiteCEGIS, "%r = select undef, i4 -1, 0\n=>\n%r = ashr undef, 3\n", []string{solver.PhaseCEGIS}},
	}
	for _, tc := range cases {
		t.Run(string(tc.site), func(t *testing.T) {
			tr := parseOne(t, tc.src)
			tr.Name = "stopped"
			plan := faultinject.NewPlan([]faultinject.Fault{{Site: tc.site, Kind: faultinject.KindStop, Hit: 1}})
			faultinject.Activate(plan)
			defer faultinject.Deactivate()
			dir := t.TempDir()
			res := Verify(tr, Options{Widths: []int{8}, MaxAssignments: 1, Flight: &metrics.FlightRecorder{Dir: dir}})
			if len(plan.Fired()) == 0 {
				t.Fatalf("site %s never fired", tc.site)
			}
			if res.Verdict != Unknown {
				t.Fatalf("verdict = %v, want unknown", res.Verdict)
			}
			ok := false
			for _, p := range tc.phases {
				ok = ok || res.GaveUpPhase == p
			}
			if !ok {
				t.Fatalf("gave up in %q, want one of %v", res.GaveUpPhase, tc.phases)
			}
			names, err := filepath.Glob(filepath.Join(dir, "flight-*.ndjson"))
			if err != nil || len(names) != 1 {
				t.Fatalf("flight artifacts = %v (err %v), want one", names, err)
			}
			hdr, samples := readFlight(t, names[0])
			if hdr.GaveUpPhase != res.GaveUpPhase {
				t.Fatalf("header phase %q, result phase %q", hdr.GaveUpPhase, res.GaveUpPhase)
			}
			if len(samples) == 0 {
				t.Fatal("no solver sample for this Unknown exit")
			}
			// A stop outside the search tags its final sample with the
			// phase; presolve and CEGIS stops come before any core
			// exists, so theirs holds no solver state.
			last := samples[len(samples)-1]
			switch res.GaveUpPhase {
			case solver.PhasePresolve, solver.PhaseCEGIS:
				if last.Phase != res.GaveUpPhase || last.Vars != 0 || last.Conflicts != 0 {
					t.Fatalf("last sample %+v, want an empty one tagged %q", last, res.GaveUpPhase)
				}
			case solver.PhaseBitblast, solver.PhaseSlicePlan, solver.PhasePreprocess, solver.PhaseProbe:
				if last.Phase != res.GaveUpPhase {
					t.Fatalf("last sample tagged %q, want %q", last.Phase, res.GaveUpPhase)
				}
			}
		})
	}
}
