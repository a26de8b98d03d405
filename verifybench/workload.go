package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"octopocs/internal/artifact"
	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/faultinject"
	"octopocs/internal/service"
	"octopocs/internal/telemetry"
)

// workload is one set of inputs and the way the program is driven over
// them. Each puts most of its time in a different layer (see README.md).
type workload struct {
	name string
	// pairs builds the workload's corpus pairs afresh, in corpus order.
	pairs func() []*corpus.PairSpec
	// hybrid turns on the directed-fuzzing fallback (core.Config.HybridFuzz).
	hybrid bool
	// service runs passes as batches through a service over a persisted
	// artifact store instead of one fresh pipeline per pair.
	service bool
	// storeFills is how many times a service workload fills a fresh store
	// as its set-up; setup_s is the median. The sequential workloads' set-up
	// is building the corpus programs, timed before every verification.
	storeFills int
	// nominalPass sizes the fixed pass count: a run makes -seconds divided
	// by it. For the sequential workloads it is the pass time on the
	// reference host (2 CPUs) in its slow state; warm-restart's is smaller,
	// because its median latency needs about 1.5 passes per queue position
	// to be steady.
	nominalPass time.Duration
	// minPasses keeps enough samples for the medians and the tail.
	minPasses int
}

// setupSamplesPerPair is how many timed corpus builds precede each
// verification of a sequential workload. A build takes well under a
// millisecond, so one sample per pair would leave hybrid-rescue's four
// pairs with too few to take a steady median of.
const setupSamplesPerPair = 8

// serviceWorkers is the worker-pool size of warm-restart: the reference
// host's CPU count, fixed so the workload is the same on every host.
const serviceWorkers = 2

var workloads = []*workload{
	// Paper-default config, a fresh pipeline per pair: dynamic-CFG
	// discovery and reform dominate and fuzzing does no work, so skipping
	// discovery shows here and a fuzz change must not.
	{
		name:        "cold-verify",
		pairs:       allPairs,
		nominalPass: 5 * time.Second,
		minPasses:   5,
	},
	// Every pass reopens the store set-up filled: artifacts decode from
	// disk, discovery does no work and reform with a cold SAT cache is
	// nearly all of the pass — the solver/reform and artifact-read
	// workload. Its set-up carries the store-write path.
	{
		name:        "warm-restart",
		pairs:       allPairs,
		service:     true,
		storeFills:  3,
		nominalPass: 750 * time.Millisecond,
		minPasses:   5,
	},
	// The four symex-unresolvable pairs with the fallback on: the directed
	// campaign and its VM runs dominate, the only workload where the fuzz
	// and VM layers show.
	{
		name:        "hybrid-rescue",
		pairs:       corpus.HybridSet,
		hybrid:      true,
		nominalPass: 15 * time.Second,
		minPasses:   2,
	},
}

// allPairs is the full 21-pair corpus: Table II rows 1-15, the static set
// 16-17 and the hybrid set 18-21.
func allPairs() []*corpus.PairSpec {
	specs := corpus.All()
	specs = append(specs, corpus.StaticSet()...)
	return append(specs, corpus.HybridSet()...)
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// passCount is the fixed number of timed passes of a run: -seconds divided
// by the nominal pass time, at least minPasses. A traced run needs at least
// one untraced and one traced pass.
func (w *workload) passCount(opt options) int {
	n := int(math.Round(float64(opt.seconds) / w.nominalPass.Seconds()))
	n = max(n, w.minPasses)
	if opt.short {
		n = 1
	}
	if opt.traced {
		n = max(n, 2)
	}
	return n
}

// pairResult is one verification observed by a pass.
type pairResult struct {
	spec    *corpus.PairSpec
	rep     *core.Report
	err     error
	latency time.Duration
	// trace holds the span tree of a traced pass; nil otherwise.
	trace *telemetry.Trace
	// queueWait is the time the job waited for a service worker.
	queueWait time.Duration
	// replayTime and replaySteps measure the gate's poc' replay.
	replayTime  time.Duration
	replaySteps int64
}

// passResult is one timed pass.
type passResult struct {
	wall time.Duration
	// alloc is the bytes allocated during the pass; peakRSS the resident
	// set it stayed under 99% of the time, in MB.
	alloc   uint64
	peakRSS float64
	// setups holds the set-up samples a sequential pass timed.
	setups []time.Duration
	pairs  []pairResult
	// metrics holds the engine counters of the pass's pipelines.
	metrics *core.Metrics
	// stores and jobsFailed are the service accounting of warm-restart.
	stores     map[string]artifact.Counters
	jobsFailed uint64
}

// passEnv carries what set-up leaves for the passes.
type passEnv struct {
	w       *workload
	opt     options
	scratch string
	// storeDir is the artifact store warm-restart's set-up persisted.
	storeDir string
}

// fillStore is one timed set-up repetition of a service workload: it
// builds the pairs and verifies them once, as one batch, into a fresh
// store, whose directory the passes then reopen.
func (e *passEnv) fillStore(ctx context.Context, order func() []*corpus.PairSpec, tl *tally) (time.Duration, error) {
	start := time.Now()
	specs := order()
	dir, err := os.MkdirTemp(e.scratch, "store-")
	if err != nil {
		return 0, err
	}
	ps, err := e.servicePass(ctx, dir, specs, false)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	e.gate(ps, tl)
	if e.storeDir != "" {
		if err := os.RemoveAll(e.storeDir); err != nil {
			return 0, err
		}
	}
	e.storeDir = dir
	return d, nil
}

// pass runs one timed pass over specs, in the given order.
func (e *passEnv) pass(ctx context.Context, specs []*corpus.PairSpec, traced bool) (*passResult, error) {
	if e.w.service {
		return e.servicePass(ctx, e.storeDir, specs, traced)
	}
	return e.sequentialPass(ctx, specs, traced), nil
}

// sequentialPass verifies the pairs one after another, each with a fresh
// pipeline — like one octopocs invocation per pair — so no cache carries
// over between pairs. Pass time and allocation are sums over the
// verifications alone.
func (e *passEnv) sequentialPass(ctx context.Context, specs []*corpus.PairSpec, traced bool) *passResult {
	ps := &passResult{
		metrics: core.NewMetrics(telemetry.NewRegistry()),
		pairs:   make([]pairResult, len(specs)),
	}
	cfg := core.Config{HybridFuzz: e.w.hybrid, Metrics: ps.metrics}
	for i, spec := range specs {
		res := &ps.pairs[i]
		res.spec = spec
		vctx := ctx
		if traced {
			res.trace = telemetry.NewTrace(spec.Pair.Name, "verify")
			vctx = telemetry.WithTrace(ctx, res.trace)
		}
		// Set-up samples: building the workload's programs, timed next to
		// every verification so set-up sees the host the passes see.
		runtime.GC()
		for j := 0; j < setupSamplesPerPair; j++ {
			t0 := time.Now()
			e.w.pairs()
			ps.setups = append(ps.setups, time.Since(t0))
		}
		// A fresh process would start from an empty heap: collect the
		// garbage outside the timing, so no pair pays for its predecessor
		// in the seed's order.
		runtime.GC()
		alloc0 := totalAlloc()
		t0 := time.Now()
		res.rep, res.err = verifyContained(vctx, core.New(cfg), spec.Pair)
		res.latency = time.Since(t0)
		ps.alloc += totalAlloc() - alloc0
		res.trace.Finish()
		ps.wall += res.latency
	}
	return ps
}

// verifyContained runs one verification, turning a panic into an error so
// it counts as a failed pair instead of ending the run.
func verifyContained(ctx context.Context, pl *core.Pipeline, pair *core.Pair) (rep *core.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, faultinject.Recovered("verifybench", r)
		}
	}()
	return pl.VerifyContext(ctx, pair)
}

// servicePass opens the artifact stores under dir, starts a service on
// them, submits specs as one batch and waits for every job. The timed wall
// runs from opening the stores until the last job finishes; shutting the
// service down and closing the stores are outside it.
func (e *passEnv) servicePass(ctx context.Context, dir string, specs []*corpus.PairSpec, traced bool) (*passResult, error) {
	ps := &passResult{
		metrics: core.NewMetrics(telemetry.NewRegistry()),
		pairs:   make([]pairResult, len(specs)),
	}
	traceCap := -1
	if traced {
		traceCap = 2 * len(specs)
	}
	pairs := make([]*core.Pair, len(specs))
	for i, s := range specs {
		pairs[i] = s.Pair
		ps.pairs[i].spec = s
	}

	alloc0 := totalAlloc()
	start := time.Now()
	st, err := service.OpenStores(service.StoreOptions{Dir: dir})
	if err != nil {
		return nil, err
	}
	defer st.Close() // error paths; the success path closes below
	svc := service.New(service.Config{
		Workers:       serviceWorkers,
		Stores:        st,
		TraceCapacity: traceCap,
		Pipeline:      core.Config{HybridFuzz: e.w.hybrid, Metrics: ps.metrics},
	})
	// Past the run deadline, Shutdown cancels whatever still runs. Both it
	// and Close are safe to repeat.
	defer svc.Shutdown(ctx)
	submitted := time.Now()
	batch, err := svc.SubmitBatch("verifybench", pairs)
	if err != nil {
		return nil, fmt.Errorf("submit batch: %w", err)
	}
	items := batch.Snapshot().Items
	if len(items) != len(specs) {
		return nil, fmt.Errorf("batch has %d items for %d pairs", len(items), len(specs))
	}
	jobs := make([]*service.Job, len(items))
	for i, it := range items {
		j, ok := svc.Job(it.JobID)
		if !ok {
			return nil, fmt.Errorf("batch item %d: job %s not found", i, it.JobID)
		}
		jobs[i] = j
	}
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(res *pairResult, j *service.Job) {
			defer wg.Done()
			res.rep, res.err = j.Wait(ctx)
			res.latency = time.Since(submitted)
		}(&ps.pairs[i], j)
	}
	wg.Wait()
	ps.wall = time.Since(start)
	ps.alloc = totalAlloc() - alloc0

	for i, j := range jobs {
		res := &ps.pairs[i]
		elapsed := time.Duration(j.Snapshot().ElapsedMS * float64(time.Millisecond))
		res.queueWait = max(res.latency-elapsed, 0)
		if traced {
			res.trace, _ = svc.Trace(j.ID())
		}
	}
	stats := svc.Stats()
	ps.stores = stats.Stores
	ps.jobsFailed = stats.Failed
	if err := svc.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("service shutdown: %w", err)
	}
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("close stores: %w", err)
	}
	return ps, nil
}

// totalAlloc is the cumulative bytes allocated by the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
