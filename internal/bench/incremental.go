package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"alive/internal/suite"
	"alive/internal/telemetry"
	"alive/internal/verify"
)

// incrementalReport is the JSON artifact the experiment writes when
// Config.ArtifactDir is set; CI uploads it so the effectiveness of the
// assumption-based incremental sessions can be tracked across commits.
type incrementalReport struct {
	Widths     []int              `json:"widths"`
	Transforms int                `json:"transforms"`
	Mismatches []string           `json:"verdict_mismatches"`
	InvalidOn  int                `json:"invalid_with_incremental"`
	InvalidOff int                `json:"invalid_without_incremental"`
	On         telemetry.Counters `json:"with_incremental"`
	Off        telemetry.Counters `json:"without_incremental"`
	ConflRatio float64            `json:"conflict_ratio"`
	PropRatio  float64            `json:"propagation_ratio"`
	WallRatio  float64            `json:"wall_ratio"`
	OnMillis   int64              `json:"wall_ms_with_incremental"`
	OffMillis  int64              `json:"wall_ms_without_incremental"`
}

// incrementalConflictTarget is the experiment's PASS bar: sharing one
// SAT core per type assignment — learned clauses, saved phases, and
// memoized Tseitin encodings carried across the query stream — must cut
// total corpus conflicts to at most this fraction of the
// `-incremental=off` run (a ≥25% reduction). Everything else is held
// equal between the legs: both run the presolver and the CNF
// preprocessor (frozen-variable aware on the incremental leg). Failing this bar means session reuse has stopped paying
// for itself — typically because clause retirement or encoding
// memoization regressed.
const incrementalConflictTarget = 0.75

// Incremental runs the incremental-solving A/B experiment: the whole
// corpus is verified once with assumption-based sessions — one SAT core
// per type assignment, each query's VC asserted under a fresh
// activation literal and retired with a root unit afterwards, the
// default — and once with `-incremental=off` semantics, i.e. a fresh
// core and bit-blaster per query. The two runs must produce identical
// verdicts (a retired query's clauses are permanently satisfied, so
// they can never constrain a later query); the report shows the reuse
// the sessions achieved and the resulting drop in conflicts and wall
// time.
func Incremental(cfg *Config) string {
	var sb strings.Builder
	sb.WriteString("Incremental: assumption-based session solving on the corpus (A/B)\n\n")

	ts := suite.ParseAll()
	run := func(disable bool) ([]verify.Result, time.Duration) {
		opts := cfg.verifyOpts()
		opts.DisableIncremental = disable
		start := time.Now()
		res, _ := verify.RunCorpus(context.Background(), ts, verify.CorpusOptions{
			Verify:  opts,
			Workers: cfg.Jobs,
		})
		return res, time.Since(start)
	}
	onRes, onT := run(false)
	offRes, offT := run(true)

	rep := incrementalReport{Widths: cfg.Widths, Transforms: len(ts)}
	for i := range onRes {
		if onRes[i].Verdict != offRes[i].Verdict {
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("%s: %v incremental, %v fresh-solver", ts[i].Name, onRes[i].Verdict, offRes[i].Verdict))
		}
		if onRes[i].Verdict == verify.Invalid {
			rep.InvalidOn++
		}
		if offRes[i].Verdict == verify.Invalid {
			rep.InvalidOff++
		}
		rep.On.Add(onRes[i].Counters)
		rep.Off.Add(offRes[i].Counters)
	}
	if rep.Off.Conflicts > 0 {
		rep.ConflRatio = float64(rep.On.Conflicts) / float64(rep.Off.Conflicts)
	}
	if rep.Off.Propagations > 0 {
		rep.PropRatio = float64(rep.On.Propagations) / float64(rep.Off.Propagations)
	}
	if offT > 0 {
		rep.WallRatio = float64(onT) / float64(offT)
	}
	rep.OnMillis = onT.Milliseconds()
	rep.OffMillis = offT.Milliseconds()

	fmt.Fprintf(&sb, "corpus: %d transformations at widths %v\n\n", len(ts), cfg.Widths)
	fmt.Fprintf(&sb, "%-28s %12s %12s\n", "", "incremental", "fresh")
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "CDCL runs", rep.On.CDCLRuns, rep.Off.CDCLRuns)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "conflicts", rep.On.Conflicts, rep.Off.Conflicts)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "propagations", rep.On.Propagations, rep.Off.Propagations)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "decisions", rep.On.Decisions, rep.Off.Decisions)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "restarts", rep.On.Restarts, rep.Off.Restarts)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "learned clauses", rep.On.LearnedClauses, rep.Off.LearnedClauses)
	fmt.Fprintf(&sb, "%-28s %12v %12v\n", "wall clock", onT.Round(time.Millisecond), offT.Round(time.Millisecond))

	fmt.Fprintf(&sb, "\nsession reuse: %d session solves under %d assumption literals,\n",
		rep.On.IncrementalSolves, rep.On.AssumptionLits)
	fmt.Fprintf(&sb, "  %d Tseitin encodings reused across queries, %d learnt clauses retained into warm solves\n",
		rep.On.EncodingsReused, rep.On.LearntsRetained)
	if rep.Off.Conflicts > 0 {
		fmt.Fprintf(&sb, "search reduction: conflicts x%.2f, propagations x%.2f, wall x%.2f of the fresh-solver run\n",
			rep.ConflRatio, rep.PropRatio, rep.WallRatio)
	}

	switch {
	case len(rep.Mismatches) > 0:
		fmt.Fprintf(&sb, "verdict check: %d MISMATCHES — FAIL\n", len(rep.Mismatches))
		for _, m := range rep.Mismatches {
			fmt.Fprintf(&sb, "  %s\n", m)
		}
		cfg.Failures = append(cfg.Failures, fmt.Sprintf("incremental: %d verdict mismatches", len(rep.Mismatches)))
	case rep.InvalidOn != rep.InvalidOff:
		fmt.Fprintf(&sb, "verdict check: invalid counts differ (%d vs %d) — FAIL\n", rep.InvalidOn, rep.InvalidOff)
		cfg.Failures = append(cfg.Failures, "incremental: invalid counts differ between legs")
	default:
		fmt.Fprintf(&sb, "verdict check: all %d verdicts agree, %d invalid on both legs — PASS\n",
			len(ts), rep.InvalidOn)
	}
	if rep.Off.Conflicts > 0 && rep.ConflRatio <= incrementalConflictTarget {
		fmt.Fprintf(&sb, "search check: sessions cut conflicts by %.0f%% (target >=%.0f%%) — PASS\n",
			100*(1-rep.ConflRatio), 100*(1-incrementalConflictTarget))
	} else {
		fmt.Fprintf(&sb, "search check: conflict reduction %.0f%% misses the %.0f%% target — FAIL\n",
			100*(1-rep.ConflRatio), 100*(1-incrementalConflictTarget))
		cfg.Failures = append(cfg.Failures,
			fmt.Sprintf("incremental: conflict ratio %.2f exceeds target %.2f", rep.ConflRatio, incrementalConflictTarget))
	}

	if cfg.ArtifactDir != "" {
		if err := writeIncrementalArtifact(cfg.ArtifactDir, &rep); err != nil {
			fmt.Fprintf(&sb, "artifact: %v\n", err)
		} else {
			fmt.Fprintf(&sb, "artifact: wrote %s\n", filepath.Join(cfg.ArtifactDir, "incremental.json"))
		}
	}
	return sb.String()
}

func writeIncrementalArtifact(dir string, rep *incrementalReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "incremental.json"), append(data, '\n'), 0o644)
}
