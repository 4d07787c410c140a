package metrics

// SolverSample is one point-in-time snapshot of CDCL search internals,
// taken at restart boundaries (and on Unknown exits) by the
// sat.Solver.OnSample hook and annotated by the verifier with where in
// the verification the solve belongs. The x100 fields carry
// fixed-point values so the whole sample stays integer (NDJSON- and
// gauge-friendly).
type SolverSample struct {
	// ElapsedUS is microseconds since the verification began.
	ElapsedUS int64 `json:"elapsed_us"`
	// Assignment is the type-assignment index within the transform.
	Assignment int `json:"assignment"`
	// Condition names the verification condition being checked
	// (defined/poison/value/memory...).
	Condition string `json:"condition"`

	// Cumulative search totals for the owning SAT core.
	Conflicts    int64 `json:"conflicts"`
	Propagations int64 `json:"propagations"`
	Decisions    int64 `json:"decisions"`
	Restarts     int64 `json:"restarts"`
	Learned      int64 `json:"learned"`

	// Clause-database shape at the sample instant.
	Learnts     int `json:"learnts"`
	LearntCore  int `json:"learnt_core"`
	LearntTier2 int `json:"learnt_tier2"`
	Vars        int `json:"vars"`
	Clauses     int `json:"clauses"`

	// Search-quality signals: current trail depth, the recent-LBD ring
	// mean ×100, and the trail-size EMA at conflicts ×100.
	Trail         int   `json:"trail"`
	RecentLBDx100 int64 `json:"recent_lbd_x100"`
	TrailEMAx100  int64 `json:"trail_ema_x100"`

	// Phase is set only on the final sample of a query that gave up
	// outside the SAT search: the pipeline phase it stopped in. A
	// "presolve" or "cegis" sample stopped before any core existed and
	// holds no solver state.
	Phase string `json:"phase,omitempty"`
}

// Ring is a fixed-capacity buffer of the most recent SolverSamples for
// one verification. It is not synchronized: a verification runs on a
// single worker goroutine, which both pushes samples and drains them
// into a flight artifact.
type Ring struct {
	buf   []SolverSample
	next  int
	total int64
}

// NewRing returns a ring holding the last n samples (n < 1 is clamped
// to 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]SolverSample, 0, n)}
}

// Push appends a sample, evicting the oldest once full.
func (r *Ring) Push(s SolverSample) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next] = s
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
}

// Len is the number of samples currently held.
func (r *Ring) Len() int { return len(r.buf) }

// Total is the number of samples ever pushed (>= Len once eviction
// starts).
func (r *Ring) Total() int64 { return r.total }

// Samples returns the held samples oldest-first, as a fresh slice.
func (r *Ring) Samples() []SolverSample {
	out := make([]SolverSample, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}
