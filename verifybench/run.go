package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"octopocs/internal/core"
	"octopocs/internal/corpus"
)

// runDeadline bounds one whole run. Pairs still verifying when it passes
// are cancelled and count as failed, so a hung program still ends the run
// well inside the 180-second contract with a visible failure.
const runDeadline = 150 * time.Second

// options configures one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	// dir is the scratch root under which warm-restart creates its
	// artifact-store directories; they are removed when the run ends.
	dir string
	// short fills a store at most once and runs the minimum number of
	// passes (one, or one untraced plus one traced); the self-test uses it.
	short bool
	// corrupt, when set, is applied to every report before the verdict
	// gate; the self-test uses it to prove a bad poc' counts as failed.
	corrupt func(*core.Report)
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one named measurement with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Detail is printed on the line before the result: what the metrics were
// computed from, the deterministic work vector, and the run metadata that
// tells a noisy host apart from a slow program.
type Detail struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Samples counts the observations behind each reported metric.
	Samples map[string]int `json:"samples"`
	// TailPercentile is the percentile verdict_ms_tail reports: the
	// highest of 50/75/90/95/99/99.9 with at least ten samples beyond it.
	TailPercentile float64 `json:"tail_percentile"`
	// FailedFrac is failed / attempted over every verified pair of the run
	// (set-up verifications included).
	FailedFrac float64  `json:"failed_frac"`
	Failures   []string `json:"failures,omitempty"`
	// PairMS is each pair's median verdict latency over the untraced
	// passes, keyed by corpus index.
	PairMS map[int]float64 `json:"pair_ms,omitempty"`
	// Work is the first pass's work vector; WorkIdentical reports whether
	// every later pass reproduced its deterministic part exactly.
	Work          workVector `json:"work"`
	WorkIdentical bool       `json:"work_identical_across_passes"`
	// LayerShares splits the traced passes' verification time by layer;
	// LargestLayer names the biggest share.
	LayerShares  map[string]float64 `json:"layer_shares,omitempty"`
	LargestLayer string             `json:"largest_layer,omitempty"`
	Host         hostInfo           `json:"host"`
}

// output is everything a run produces.
type output struct {
	Result Result
	Detail Detail
}

// tally accumulates gate outcomes over a run.
type tally struct {
	attempted, failed int
	failures          []string
}

// maxFailureNotes bounds the failure messages kept in the detail record.
const maxFailureNotes = 20

func (t *tally) add(label string, err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.failures) < maxFailureNotes {
		t.failures = append(t.failures, fmt.Sprintf("%s: %v", label, err))
	}
}

// run executes one workload: timed set-up repetitions, then a fixed number
// of timed passes, gating every verdict, and assembles the metrics.
func run(ctx context.Context, opt options) (*output, error) {
	w := lookupWorkload(opt.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		return nil, fmt.Errorf("scratch directory: %w", err)
	}
	scratch, err := os.MkdirTemp(opt.dir, "verifybench-")
	if err != nil {
		return nil, fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(scratch)

	host0 := sampleHost()
	// The seed draws one permutation of the pairs. order(k) builds the
	// pairs afresh and lays them out through the affine map
	// i -> (a*i + k) mod n of that permutation, a cycling through the
	// multipliers coprime to n: over a run every pair takes every queue
	// position, and which pairs sit next to each other changes from pass
	// to pass. A 2-worker batch's latencies clump behind whichever heavy
	// pairs run at once, so with one fixed neighbourhood the run's median
	// latency would hinge on the seed.
	n := len(w.pairs())
	perm := rand.New(rand.NewSource(opt.seed)).Perm(n)
	var units []int
	for a := 1; a <= n; a++ {
		if gcd(a, n) == 1 {
			units = append(units, a)
		}
	}
	order := func(k int) []*corpus.PairSpec {
		specs := w.pairs()
		a := units[k%len(units)]
		out := make([]*corpus.PairSpec, n)
		for i := range out {
			out[i] = specs[perm[(a*i+k)%n]]
		}
		return out
	}
	env := &passEnv{w: w, opt: opt, scratch: scratch}
	var tl tally

	// A service workload's set-up fills a fresh store; repetitions use
	// evenly spaced orders, so which worker draws the heavy pairs varies.
	// The sequential workloads time their set-up inside the passes.
	var setups []float64
	fills := w.storeFills
	if opt.short {
		fills = min(fills, 1)
	}
	for i := 0; i < fills; i++ {
		runtime.GC()
		k := i * n / fills
		d, err := env.fillStore(ctx, func() []*corpus.PairSpec { return order(k) }, &tl)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}

	var passes []passSummary
	var disc discovered
	for i := 0; i < w.passCount(opt); i++ {
		// Traced runs alternate untraced and traced passes so host drift
		// hits both sides of trace_overhead_frac alike.
		isTraced := opt.traced && i%2 == 1
		specs := order(i)
		// Every pass starts from a collected heap returned to the OS, so its
		// resident set does not depend on earlier passes.
		debug.FreeOSMemory()
		rss := startRSSSampler()
		ps, err := env.pass(ctx, specs, isTraced)
		peak := rss.peak()
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i+1, err)
		}
		ps.peakRSS = peak
		for _, d := range ps.setups {
			setups = append(setups, d.Seconds())
		}
		env.gate(ps, &tl)
		if i == 1 && isTraced { // the first traced pass
			disc = discoverEdges(ctx, ps)
		}
		passes = append(passes, summarize(ps, isTraced))
	}

	out := &output{
		Result: Result{
			Correct:   tl.failed == 0,
			Attempted: tl.attempted,
			Failed:    tl.failed,
			Metrics:   map[string]Metric{},
		},
		Detail: Detail{
			Workload:   w.name,
			Seed:       opt.seed,
			Traced:     opt.traced,
			Samples:    map[string]int{},
			FailedFrac: float64(tl.failed) / float64(max(tl.attempted, 1)),
			Failures:   tl.failures,
		},
	}
	out.Detail.Work, out.Detail.WorkIdentical = workOf(passes)
	if opt.traced {
		layerMetrics(out, passes, disc)
	} else {
		endToEnd(out, setups, passes)
	}
	out.Detail.Host = hostDelta(host0, sampleHost())
	return out, nil
}

// passSummary is what a run keeps of a gated pass. The reports, traces and
// counters themselves are dropped: holding every pass's would grow the
// benchmark's own heap with the pass count and leak into peak_rss_mb.
type passSummary struct {
	traced  bool
	wall    time.Duration
	alloc   uint64
	peakRSS float64
	// latency is each pair's verdict latency, keyed by corpus index.
	latency map[int]time.Duration
	work    workVector
	// layers and layerTime are a traced pass's per-layer values.
	layers    map[string]float64
	layerTime map[string]time.Duration
}

func summarize(ps *passResult, traced bool) passSummary {
	s := passSummary{
		traced:  traced,
		wall:    ps.wall,
		alloc:   ps.alloc,
		peakRSS: ps.peakRSS,
		latency: map[int]time.Duration{},
		work:    passWork(ps),
	}
	for _, res := range ps.pairs {
		s.latency[res.spec.Idx] = res.latency
	}
	if traced {
		s.layers, s.layerTime = tracedPassLayers(ps)
	}
	return s
}

// endToEnd fills the end-to-end metrics; a run that reports them has only
// untraced passes.
func endToEnd(out *output, setups []float64, passes []passSummary) {
	var walls, allocs, rss, lat []float64
	perPair := map[int][]float64{}
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		allocs = append(allocs, float64(p.alloc)/1e6)
		rss = append(rss, p.peakRSS)
		for idx, d := range p.latency {
			lat = append(lat, ms(d))
			perPair[idx] = append(perPair[idx], ms(d))
		}
	}
	out.Detail.PairMS = map[int]float64{}
	for idx, xs := range perPair {
		out.Detail.PairMS[idx] = median(xs)
	}
	sort.Float64s(lat)
	q := tailPercentile(len(lat))
	m := out.Result.Metrics
	m["setup_s"] = Metric{median(setups), "s"}
	m["pass_s"] = Metric{median(walls), "s"}
	m["verdict_ms_p50"] = Metric{hdQuantile(lat, 0.5), "ms"}
	m["verdict_ms_tail"] = Metric{hdQuantile(lat, q/100), "ms"}
	m["alloc_mb"] = Metric{median(allocs), "MB"}
	m["peak_rss_mb"] = Metric{median(rss), "MB"}
	out.Detail.TailPercentile = q
	s := out.Detail.Samples
	s["setup_s"] = len(setups)
	s["pass_s"] = len(walls)
	s["alloc_mb"] = len(allocs)
	s["verdict_ms_p50"] = len(lat)
	s["verdict_ms_tail"] = len(lat)
	s["peak_rss_mb"] = len(rss)
}
