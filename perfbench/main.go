// Command perfbench is the repository's benchmark. It runs one workload
// drawn from the internal/suite corpus as a closed loop with one client:
// the inputs are issued serially from this process, one operation after
// the other, and each pass over them is shuffled from -seed. A run
// makes one untimed warm-up pass and then measures whole passes, as many
// as fit in -seconds (at least one).
//
// With -trace 0 nothing but the program runs in the timed window, and
// the run reports the end-to-end metrics. With -trace 1 untraced and
// traced passes alternate; the traced passes give self time per layer,
// the work counts of each layer, and the tracing overhead, and the last
// one is written as a Chrome trace. See README.md for the workloads and
// the metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload muldiv --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 1 when an
// operation failed its known-answer or determinism check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"alive/internal/suite"
	"alive/internal/telemetry"
)

// setupReps is how many times a run sets up its workload before the
// warm-up pass; an untraced run sets up once more after each pass, so
// the samples spread over the run. setup_s is their median.
const setupReps = 25

// traceDir receives the Chrome trace of the last traced pass; it is the
// build directory the benchmark's checkout already ignores.
const traceDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed that shuffles each pass over the inputs")
	seconds := fs.Int("seconds", 10, "measure as many whole passes as fit in this many seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced passes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload (%s), --seconds >= 1 and --trace 0 or 1\n", strings.Join(workloadNames, "|"))
		return 2
	}

	b, err := newBench(*workload, *seed)
	for i := 1; err == nil && i < setupReps; i++ {
		err = b.timeSetup()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// The warm-up pass fills the heap and caches before timing starts,
	// and its outcomes are what every later pass is checked against.
	b.pass(nil, nil)
	runtime.GC()

	budget := time.Duration(*seconds) * time.Second
	var ms []metric
	if *trace == 0 {
		ms = append(b.runTimed(budget), metric{"setup_s", "s", median(b.setups)})
	} else {
		var last *telemetry.Tracer
		ms, last = b.runTraced(budget)
		if err := writeTrace(last, *workload); err != nil {
			b.fail(-1, "writing the Chrome trace: %v", err)
		}
	}
	return b.report(stdout, stderr, ms)
}

// metric is one reported value.
type metric struct {
	name  string
	unit  string
	value float64
}

// bench is one workload's inputs and the checks made on what each
// operation produced.
type bench struct {
	workload string
	inputs   []suite.Entry
	rng      *rand.Rand

	// first is each input's outcome in the first (warm-up) pass; later
	// passes must repeat it exactly.
	first  []outcome
	failed []int // failed operations per input
	// otherFailed counts failed checks not tied to one input, such as a
	// malformed span tree.
	otherFailed int
	ops         int
	passes      int
	reasons     []string
	// split is the self time per layer over all traced passes.
	split map[string]time.Duration
	// setups are the set-up times measured so far, in seconds.
	setups []float64
	// firstCounts is each operation's span work counts in the first
	// traced pass, keyed by entry name.
	firstCounts map[string]counts
}

// newBench sets up a workload: it selects the inputs from the corpus,
// which parses every entry, and seeds the shuffle.
func newBench(workload string, seed int64) (*bench, error) {
	start := time.Now()
	inputs, err := selectInputs(workload)
	if err != nil {
		return nil, err
	}
	return &bench{
		workload: workload,
		inputs:   inputs,
		rng:      rand.New(rand.NewSource(seed)),
		failed:   make([]int, len(inputs)),
		setups:   []float64{time.Since(start).Seconds()},
	}, nil
}

// timeSetup repeats the set-up work of newBench and records its time.
func (b *bench) timeSetup() error {
	start := time.Now()
	if _, err := selectInputs(b.workload); err != nil {
		return err
	}
	b.setups = append(b.setups, time.Since(start).Seconds())
	return nil
}

// fail records a failed check; input -1 means one not tied to an input.
func (b *bench) fail(input int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if input < 0 {
		b.otherFailed++
	} else {
		b.failed[input]++
		msg = b.inputs[input].Name + ": " + msg
	}
	b.reasons = append(b.reasons, msg)
}

// pass runs every input once, in an order shuffled from the seed, and
// returns its wall time and each input's latency. A nil track runs the
// pass untraced.
func (b *bench) pass(tr *telemetry.Tracer, tk *telemetry.Track) (time.Duration, []time.Duration) {
	order := b.rng.Perm(len(b.inputs))
	lats := make([]time.Duration, len(order))
	outs := make([]outcome, len(b.inputs))
	start := time.Now()
	for _, i := range order {
		t0 := time.Now()
		outs[i] = runOp(b.workload, b.inputs[i], tr, tk)
		lats[i] = time.Since(t0)
	}
	wall := time.Since(start)
	if b.first == nil {
		b.first = outs
	}
	for i, o := range outs {
		if !o.sameWork(b.first[i]) {
			b.fail(i, "pass %d did different work than the first pass", b.passes+1)
		}
	}
	b.ops += len(order)
	b.passes++
	return wall, lats
}

// fits reports whether another of done equal rounds fits in the budget,
// judged by their mean so far. The first round always runs.
func fits(done int, elapsed, budget time.Duration) bool {
	return done == 0 || elapsed+elapsed/time.Duration(done) <= budget
}

// runTimed measures untraced passes and returns the end-to-end metrics
// other than setup_s. Throughput and CPU time are medians over passes,
// and the latency percentiles are Harrell-Davis estimates over each
// input's median latency, so a pass or an operation slowed by something
// outside the program moves them little.
func (b *bench) runTimed(budget time.Duration) []metric {
	var walls, cpus []float64
	lats := make([][]float64, len(b.inputs)) // per input, in ms
	timed := 0
	start := time.Now()
	for fits(timed, time.Since(start), budget) {
		cpu0 := cpuTime()
		w, l := b.pass(nil, nil)
		cpus = append(cpus, (cpuTime() - cpu0).Seconds())
		walls = append(walls, w.Seconds())
		for i, d := range l {
			lats[i] = append(lats[i], float64(d.Nanoseconds())/1e6)
		}
		timed++
		if err := b.timeSetup(); err != nil {
			b.fail(-1, "set-up: %v", err)
		}
	}
	b.checkAnswers()

	n := float64(len(b.inputs))
	meds := make([]float64, len(lats))
	for i, l := range lats {
		meds[i] = median(l)
	}
	sort.Float64s(meds)
	return []metric{
		{"ops_per_s", "1/s", n / median(walls)},
		{"cpu_ms_per_op", "ms", median(cpus) * 1e3 / n},
		{"latency_p50_ms", "ms", hdQuantile(meds, 0.5)},
		{"latency_p90_ms", "ms", hdQuantile(meds, 0.9)},
		{"peak_rss_mb", "MB", peakRSS() / 1e6},
	}
}

// runTraced alternates untraced and traced passes until the budget is
// spent and returns the per-layer metrics, each per pass over the
// inputs, with the tracer of the last traced pass.
func (b *bench) runTraced(budget time.Duration) ([]metric, *telemetry.Tracer) {
	var untraced, traced time.Duration
	var alloc, gcs uint64
	self := map[string]time.Duration{}
	var last *telemetry.Tracer
	pairs := 0
	start := time.Now()
	for fits(pairs, time.Since(start), budget) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		w, _ := b.pass(nil, nil)
		runtime.ReadMemStats(&m1)
		untraced += w
		alloc += m1.TotalAlloc - m0.TotalAlloc
		gcs += uint64(m1.NumGC - m0.NumGC)

		tr := telemetry.New()
		w, _ = b.pass(tr, tr.NewTrack("perfbench "+b.workload))
		traced += w
		pt, err := analyzeTrace(tr.Events())
		if err != nil {
			b.fail(-1, "traced pass %d: %v", pairs+1, err)
		}
		for layer, d := range pt.self {
			self[layer] += d
		}
		b.checkCounts(pt.byOp)
		last = tr
		pairs++
	}
	b.checkAnswers()

	c := counts{}
	for _, oc := range b.firstCounts {
		c.add(oc)
	}
	n := float64(pairs)
	selfMS := func(layer string) float64 { return self[layer].Seconds() * 1e3 / n }
	nsPer := func(layer, count string) float64 { return ratio(float64(self[layer].Nanoseconds())/n, c[count]) }
	cnt := func(name string) float64 { return float64(c[name]) }
	untracedOps := float64(pairs * len(b.inputs))
	ms := []metric{
		{"sat.self_ms", "ms", selfMS("sat")},
		{"sat.propagations", "count", cnt("propagations")},
		{"sat.conflicts", "count", cnt("conflicts")},
		{"sat.decisions", "count", cnt("decisions")},
		{"sat.restarts", "count", cnt("restarts")},
		{"sat.db_reductions", "count", cnt("db_reductions")},
		{"sat.learnts_retained", "count", cnt("learnts_retained")},
		{"sat.ns_per_propagation", "ns", nsPer("sat", "propagations")},
		{"sat.ns_per_conflict", "ns", nsPer("sat", "conflicts")},
		{"sat.inprocess_self_ms", "ms", selfMS("sat.inprocess")},
		{"sat.inprocessings", "count", cnt("inprocessings")},
		{"sat.clauses_vivified", "count", cnt("clauses_vivified")},
		{"sat.learnts_subsumed", "count", cnt("learnts_subsumed")},
		{"cnf.self_ms", "ms", selfMS("cnf")},
		{"cnf.vars_eliminated", "count", cnt("vars_eliminated")},
		{"cnf.clauses_subsumed", "count", cnt("clauses_subsumed")},
		{"cnf.clauses_strengthened", "count", cnt("clauses_strengthened")},
		{"cnf.clauses_blocked", "count", cnt("clauses_blocked")},
		{"cnf.probe_units", "count", cnt("probe_units")},
		{"cnf.ns_per_clause", "ns", nsPer("cnf", cntClausesIn)},
		{"bitblast.self_ms", "ms", selfMS("bitblast")},
		{"bitblast.cnf_vars", "count", cnt("cnf_vars")},
		{"bitblast.cnf_clauses", "count", cnt("cnf_clauses")},
		{"bitblast.encodings_reused", "count", cnt("encodings_reused")},
		{"solver.self_ms", "ms", selfMS("solver")},
		{"solver.cdcl_runs", "count", cnt("cdcl_runs")},
		{"solver.incremental_solves", "count", cnt("incremental_solves")},
		{"solver.assumption_lits", "count", cnt("assumption_lits")},
		{"solver.cegis_rounds", "count", cnt("cegis_rounds")},
		{"absint.self_ms", "ms", selfMS("absint")},
		{"absint.checks", "count", cnt("checks")},
		{"absint.discharged", "count", cnt("decided")},
		{"absint.discharge_ratio", "ratio", ratio(cnt("decided"), c["checks"])},
		{"absint.ring_refuted", "count", cnt("ring_refuted")},
		{"vcgen.self_ms", "ms", selfMS("vcgen")},
		{"vcgen.term_nodes", "count", cnt("term_nodes_before")},
		{"typing.self_ms", "ms", selfMS("typing")},
		{"parser.self_ms", "ms", selfMS("parser")},
		{"verify.self_ms", "ms", selfMS("verify")},
		{"verify.type_assignments", "count", cnt(cntTypeAssignments)},
		{"verify.queries", "count", cnt(cntQueries)},
		{"attrs.self_ms", "ms", selfMS("attrs")},
		{"attrs.verifications", "count", cnt(cntVerifications)},
		{"attrs.invalid_share", "ratio", ratio(cnt(cntInvalid), c[cntVerifications])},
		{"runtime.alloc_mb_per_op", "MB", float64(alloc) / 1e6 / untracedOps},
		{"runtime.gc_cycles_per_op", "count", float64(gcs) / untracedOps},
		{"trace.overhead_ratio", "ratio", traced.Seconds() / untraced.Seconds()},
	}
	b.split = self
	return ms, last
}

// checkCounts compares each operation's span work counts with the first
// traced pass and, for verifications, with what verify.Result reported.
func (b *bench) checkCounts(byOp map[string]counts) {
	if len(byOp) != len(b.inputs) {
		b.fail(-1, "traced pass has %d operation spans, want %d", len(byOp), len(b.inputs))
	}
	if b.firstCounts == nil {
		b.firstCounts = byOp
	}
	for i, e := range b.inputs {
		if got, want := byOp[e.Name], b.firstCounts[e.Name]; !got.equal(want) {
			b.fail(i, "traced passes differ in work counts: %s", describeCountDiff(got, want))
		}
	}
	if b.workload == wlAttrs {
		return
	}
	for i, e := range b.inputs {
		got := counts{}
		got.add(byOp[e.Name])
		delete(got, cntClausesIn)
		if want := outcomeCounts(b.first[i]); !got.equal(want) {
			b.fail(i, "span annotations disagree with verify.Result: %s", describeCountDiff(got, want))
		}
	}
}

// checkAnswers runs the known-answer gate on each input's first outcome,
// after the timed passes. A wrong answer fails every operation of that
// input.
func (b *bench) checkAnswers() {
	for i, e := range b.inputs {
		if err := checkAnswer(b.workload, e, b.first[i]); err != nil {
			b.failed[i] = b.passes
			b.reasons = append(b.reasons, e.Name+": "+err.Error())
		}
	}
}

// report prints a table of the metrics and then the JSON result line,
// and returns the exit code.
func (b *bench) report(stdout, stderr io.Writer, ms []metric) int {
	failed := b.otherFailed
	for _, f := range b.failed {
		failed += f
	}
	for _, r := range b.reasons {
		fmt.Fprintln(stderr, "perfbench: FAIL", r)
	}
	fmt.Fprintf(stdout, "workload %s: %d inputs, %d passes, %d operations, closed loop, 1 client\n",
		b.workload, len(b.inputs), b.passes, b.ops)
	fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", "failed_share", float64(failed)/float64(b.ops), "share")
	out := map[string]any{}
	for _, m := range ms {
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	if b.split != nil {
		var total time.Duration
		var layers []string
		for layer, d := range b.split {
			total += d
			layers = append(layers, layer)
		}
		sort.Slice(layers, func(i, j int) bool { return b.split[layers[i]] > b.split[layers[j]] })
		fmt.Fprintln(stdout, "self time by layer, share of the operation spans:")
		for _, layer := range layers {
			fmt.Fprintf(stdout, "  %-28s %6.1f%%\n", layer, 100*b.split[layer].Seconds()/total.Seconds())
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": b.ops,
		"failed":    failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if failed > 0 {
		return 1
	}
	return 0
}

// writeTrace writes the span tree of a traced pass with the program's
// Chrome exporter.
func writeTrace(tr *telemetry.Tracer, workload string) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	return tr.WriteChromeTraceFile(filepath.Join(traceDir, "perfbench-"+workload+"-trace.json"))
}

// cpuTime is the process's user plus system time, all threads included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// quantile interpolates linearly between the closest ranks of a sorted
// sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// hdQuantile is the Harrell-Davis estimate of the q-quantile of a sorted
// sample: a mean of all order statistics, weighted by how much of a
// Beta(q(n+1), (1-q)(n+1)) distribution falls between their ranks. Where
// the sample is sparse, one value's noise moves it far less than it
// moves the nearest order statistic.
func hdQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n < 2 {
		return quantile(sorted, q)
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	// The weight of value i is the Beta density integrated over
	// ((i-1)/n, i/n) by the midpoint rule. The log density is shifted by
	// its maximum before exponentiating, and the weights are normalized
	// at the end, so the Beta function itself is never needed.
	const steps = 16
	logs := make([]float64, n*steps)
	top := math.Inf(-1)
	for j := range logs {
		x := (float64(j) + 0.5) / float64(len(logs))
		logs[j] = (a-1)*math.Log(x) + (b-1)*math.Log1p(-x)
		top = max(top, logs[j])
	}
	var sum, total float64
	for j, l := range logs {
		w := math.Exp(l - top)
		sum += w * sorted[j/steps]
		total += w
	}
	return sum / total
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ratio(a float64, b int64) float64 {
	if b == 0 {
		return 0
	}
	return a / float64(b)
}
