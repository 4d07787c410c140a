package verify

import (
	"fmt"
	"time"

	"alive/internal/metrics"
	"alive/internal/sat"
	"alive/internal/telemetry"
)

// queryRecorder threads one verification's solver samples from the SAT
// core's OnSample hook into (a) the per-verification ring buffer the
// flight recorder drains post-mortem and (b) the live solver gauges of
// the metrics registry. A verification runs on one worker goroutine and
// its solvers are single-threaded, so the assignment/condition position
// fields need no locking — the verifier updates them as it moves
// through the check loop and the hook reads them on the same
// goroutine. Gauge updates are atomic; with several workers live the
// solver gauges are last-writer-wins, which is the useful semantics for
// "what is a core doing right now".
type queryRecorder struct {
	start      time.Time
	ring       *metrics.Ring // nil without a flight recorder
	gauges     *solverGauges // nil without a registry
	assignment int
	condition  string
}

func newQueryRecorder(opts Options, start time.Time) *queryRecorder {
	rec := &queryRecorder{start: start}
	if opts.Flight != nil {
		rec.ring = metrics.NewRing(opts.Flight.Capacity())
	}
	if opts.Metrics != nil {
		rec.gauges = newSolverGauges(opts.Metrics)
	}
	return rec
}

// onSample implements the sat.SampleStats sink.
func (r *queryRecorder) onSample(ss sat.SampleStats) {
	s := metrics.SolverSample{
		ElapsedUS:     time.Since(r.start).Microseconds(),
		Assignment:    r.assignment,
		Condition:     r.condition,
		Conflicts:     ss.Conflicts,
		Propagations:  ss.Propagations,
		Decisions:     ss.Decisions,
		Restarts:      ss.Restarts,
		Learned:       ss.Learned,
		Learnts:       ss.Learnts,
		LearntCore:    ss.LearntCore,
		LearntTier2:   ss.LearntTier2,
		Vars:          ss.Vars,
		Clauses:       ss.Clauses,
		Trail:         ss.Trail,
		RecentLBDx100: ss.RecentLBDx100,
		TrailEMAx100:  ss.TrailEMAx100,
		Phase:         ss.Phase,
	}
	if r.ring != nil {
		r.ring.Push(s)
	}
	// The final sample of a query stopped before it had a core holds no
	// solver state, and must not zero the live gauges.
	if r.gauges != nil && ss != (sat.SampleStats{Phase: ss.Phase}) {
		r.gauges.update(s)
	}
}

// solverGauges is the registry's live view of whichever SAT core most
// recently hit a restart boundary.
type solverGauges struct {
	conflicts, propagations, decisions, restarts       *metrics.Gauge
	learnts, learntCore, learntTier2, trail, recentLBD *metrics.Gauge
	trailEMA                                           *metrics.Gauge
}

// newSolverGauges resolves (idempotently registering) the solver gauge
// set on reg.
func newSolverGauges(reg *metrics.Registry) *solverGauges {
	return &solverGauges{
		conflicts:    reg.Gauge("alive_solver_conflicts", "Cumulative conflicts of the last-sampled SAT core."),
		propagations: reg.Gauge("alive_solver_propagations", "Cumulative propagations of the last-sampled SAT core."),
		decisions:    reg.Gauge("alive_solver_decisions", "Cumulative decisions of the last-sampled SAT core."),
		restarts:     reg.Gauge("alive_solver_restarts", "Cumulative restarts of the last-sampled SAT core."),
		learnts:      reg.Gauge("alive_solver_learnts", "Learnt clauses in the last-sampled core's database."),
		learntCore:   reg.Gauge("alive_solver_learnt_core", "Learnt clauses in the permanent (core LBD) tier."),
		learntTier2:  reg.Gauge("alive_solver_learnt_tier2", "Learnt clauses in the mid (tier-two LBD) tier."),
		trail:        reg.Gauge("alive_solver_trail_depth", "Assigned literals on the last-sampled core's trail."),
		recentLBD:    reg.Gauge("alive_solver_recent_lbd_x100", "Mean LBD of the recent-learnt ring, x100."),
		trailEMA:     reg.Gauge("alive_solver_trail_ema_x100", "Trail-size EMA at conflicts, x100."),
	}
}

func (g *solverGauges) update(s metrics.SolverSample) {
	g.conflicts.Set(s.Conflicts)
	g.propagations.Set(s.Propagations)
	g.decisions.Set(s.Decisions)
	g.restarts.Set(s.Restarts)
	g.learnts.Set(int64(s.Learnts))
	g.learntCore.Set(int64(s.LearntCore))
	g.learntTier2.Set(int64(s.LearntTier2))
	g.trail.Set(int64(s.Trail))
	g.recentLBD.Set(s.RecentLBDx100)
	g.trailEMA.Set(s.TrailEMAx100)
}

// spanPath renders where in the verification the verifier gave up, in
// the same shape the telemetry span tree uses
// (transform/assignment[i]/check:condition).
func spanPath(res *Result) string {
	path := "transform"
	if res.GaveUpAssignment >= 0 {
		path = fmt.Sprintf("%s/assignment[%d]", path, res.GaveUpAssignment)
	}
	if res.GaveUpCondition != "" {
		path = fmt.Sprintf("%s/check:%s", path, res.GaveUpCondition)
	}
	return path
}

// recordFlight serializes a post-mortem artifact for a finished
// verification that tripped the recorder (Unknown verdict of any
// reason — deadline, conflict budget, memory-governor OOM, panic — or
// wall time past the Slow threshold). Artifact write failures are
// reported on res.Err (without clobbering an existing error) rather
// than failing the verification.
func recordFlight(fr *metrics.FlightRecorder, t string, res *Result, rec *queryRecorder) {
	if !fr.ShouldRecord(res.Verdict == Unknown, res.Duration) {
		return
	}
	trigger := "slow"
	if res.Verdict == Unknown {
		trigger = "unknown"
	}
	reason := ""
	if res.Reason != ReasonNone {
		reason = res.Reason.String()
	}
	hdr := metrics.FlightHeader{
		Transform:       t,
		Verdict:         res.Verdict.String(),
		Reason:          reason,
		Trigger:         trigger,
		DurationUS:      res.Duration.Microseconds(),
		Queries:         res.Queries,
		Escalations:     res.Escalations,
		GaveUpCondition: res.GaveUpCondition,
		GaveUpPhase:     res.GaveUpPhase,
		SpanPath:        spanPath(res),
	}
	if res.GaveUpAssignment >= 0 {
		hdr.GaveUpAssignment = fmt.Sprintf("%d", res.GaveUpAssignment)
	}
	var ring *metrics.Ring
	var counters telemetry.Counters
	if rec != nil {
		ring = rec.ring
	}
	counters = res.Counters
	if _, err := fr.Record(hdr, counters, ring); err != nil && res.Err == nil {
		res.Err = fmt.Errorf("flight recorder: %w", err)
	}
}
