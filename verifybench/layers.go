package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"maps"
	"sort"
	"time"

	"octopocs/internal/cfg"
	"octopocs/internal/solver"
	"octopocs/internal/symex"
	"octopocs/internal/telemetry"
	"octopocs/internal/vm"
)

// workVector is the work one pass did, as counted by the engines and the
// reports. Deterministic counts must repeat exactly for one seed; counts
// that depend on how two service workers interleave are kept apart.
type workVector struct {
	Deterministic    map[string]int64 `json:"deterministic"`
	NonDeterministic map[string]int64 `json:"nondeterministic,omitempty"`
	// PoCSHA256 hashes every poc' in corpus order, framed by pair index
	// and length.
	PoCSHA256 string `json:"poc_sha256"`
}

// passWork computes the work vector of one pass.
func passWork(ps *passResult) workVector {
	det := map[string]int64{}
	non := map[string]int64{}
	var directedSteps, directedStates, directedSat, backtracks, execs int64
	ranDiscovery := false
	for _, res := range ps.pairs {
		if res.rep == nil {
			continue
		}
		// A P2 artifact computed afresh (not decoded from a store) ran
		// dynamic-CFG discovery.
		ranDiscovery = ranDiscovery || (res.rep.Timings.P2Prep > 0 && !res.rep.Timings.P2Cached)
		directedSteps += res.rep.Stats.Steps
		directedStates += int64(res.rep.Stats.States)
		directedSat += res.rep.Stats.SatChecks
		backtracks += int64(res.rep.Stats.Backtracks)
		if res.rep.Hybrid != nil {
			execs += res.rep.Hybrid.Execs
		}
	}
	m := ps.metrics
	det["vm.runs"] = counter(m.VM.Runs)
	det["vm.insts"] = counter(m.VM.Insts)
	det["symex.steps"] = directedSteps
	det["symex.states"] = directedStates
	det["symex.backtracks"] = backtracks
	det["symex.sat_checks"] = directedSat
	// The symex counters add up discovery and directed runs; the reports
	// carry the directed part alone. Passes that decode every P2 artifact
	// ran no discovery (the frontier engine's counters also include
	// speculative work its reports leave out).
	det["discover.steps"], det["discover.states"], det["discover.sat_checks"] = 0, 0, 0
	if ranDiscovery {
		det["discover.steps"] = counter(m.Symex.Steps) - directedSteps
		det["discover.states"] = counter(m.Symex.States) - directedStates
		det["discover.sat_checks"] = counter(m.Symex.SatChecks) - directedSat
	}
	det["fuzz.execs"] = execs

	// One pipeline per pair, run in sequence, makes every solver count a
	// pure function of the pairs; two service workers sharing one SAT
	// cache make cache hits (and so solves) depend on interleaving.
	solverCounts := det
	if ps.stores != nil {
		solverCounts = non
		var hot, disk int64
		for _, c := range ps.stores {
			hot += int64(c.HotHits)
			disk += int64(c.DiskHits)
		}
		non["artifact.hot_hits"] = hot
		non["artifact.disk_hits"] = disk
	}
	solverCounts["solver.solves"] = counter(m.Solver.Solves)
	solverCounts["solver.unsat"] = counter(m.Solver.Unsat)
	solverCounts["solver.budget_exhausted"] = counter(m.Solver.Budget)
	solverCounts["solver.cache_hits"] = counter(m.Solver.CacheHits)

	byIdx := append([]pairResult(nil), ps.pairs...)
	sort.Slice(byIdx, func(i, j int) bool { return byIdx[i].spec.Idx < byIdx[j].spec.Idx })
	h := sha256.New()
	for _, res := range byIdx {
		var poc []byte
		if res.rep != nil {
			poc = res.rep.PoCPrime
		}
		var frame [16]byte
		binary.LittleEndian.PutUint64(frame[:8], uint64(res.spec.Idx))
		binary.LittleEndian.PutUint64(frame[8:], uint64(len(poc)))
		h.Write(frame[:])
		h.Write(poc)
	}
	wv := workVector{Deterministic: det, PoCSHA256: hex.EncodeToString(h.Sum(nil))}
	if len(non) > 0 {
		wv.NonDeterministic = non
	}
	return wv
}

func counter(c *telemetry.Counter) int64 { return int64(c.Value()) }

// workOf returns the first pass's work vector and whether every pass
// reproduced its deterministic part.
func workOf(passes []passSummary) (workVector, bool) {
	if len(passes) == 0 {
		return workVector{}, false
	}
	first := passes[0].work
	same := true
	for _, p := range passes[1:] {
		if p.work.PoCSHA256 != first.PoCSHA256 || !maps.Equal(p.work.Deterministic, first.Deterministic) {
			same = false
		}
	}
	return first, same
}

// layerUnits lists every per-layer metric with its unit, grouped by the
// module that does the work.
var layerUnits = []struct{ name, unit string }{
	{"discover.ms", "ms"},
	{"discover.runs", "count"},
	{"discover.steps", "count"},
	{"discover.sat_checks", "count"},
	{"discover.edges", "count"},
	{"discover.useful_frac", "frac"},
	{"core.p1_ms", "ms"},
	{"core.p2prep_ms", "ms"},
	{"core.reform_ms", "ms"},
	{"core.p4_ms", "ms"},
	{"core.hybrid_ms", "ms"},
	{"symex.steps", "count"},
	{"symex.states", "count"},
	{"symex.backtracks", "count"},
	{"symex.sat_checks", "count"},
	{"solver.solves", "count"},
	{"solver.unsat", "count"},
	{"solver.budget_exhausted", "count"},
	{"solver.cache_hit_frac", "frac"},
	{"solver.solve_ms", "ms"},
	{"fuzz.execs", "count"},
	{"fuzz.execs_per_s", "1/s"},
	{"fuzz.alloc_kb_per_exec", "kB"},
	{"hybrid.rescued_frac", "frac"},
	{"vm.runs", "count"},
	{"vm.insts", "count"},
	{"vm.ns_per_inst", "ns"},
	{"taint.ms", "ms"},
	{"taint.bunches", "count"},
	{"cfg.build_ms", "ms"},
	{"cfg.distance_ms", "ms"},
	{"artifact.hot_hits", "count"},
	{"artifact.disk_hits", "count"},
	{"artifact.misses", "count"},
	{"artifact.writes", "count"},
	{"artifact.disk_bytes", "B"},
	{"artifact.decode_errors", "count"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.jobs_failed", "count"},
	{"share.discover", "frac"},
	{"share.reform", "frac"},
	{"share.hybrid", "frac"},
	{"trace_overhead_frac", "frac"},
	{"failed_frac", "frac"},
}

// spanTotals sums span durations by name over a trace's whole tree.
func spanTotals(tr *telemetry.Trace, into map[string]time.Duration) {
	var walk func([]*telemetry.SpanSnapshot)
	walk = func(spans []*telemetry.SpanSnapshot) {
		for _, s := range spans {
			into[s.Name] += time.Duration(s.DurationUS) * time.Microsecond
			walk(s.Children)
		}
	}
	walk(tr.Snapshot().Spans)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedPassLayers computes the per-layer values of one traced pass. The
// span trees give layer times, the engine counters and reports give work,
// and direct calls into cfg.BuildPruned time the graph build the pipeline
// does without a span of its own.
func tracedPassLayers(ps *passResult) (map[string]float64, map[string]time.Duration) {
	v := map[string]float64{}
	spans := map[string]time.Duration{}
	var phases struct{ p1, p2, reform, p4, hybrid, build time.Duration }
	var bunches, campaigns, rescued int
	var replay time.Duration
	var replaySteps int64
	var waits []float64
	for _, res := range ps.pairs {
		if res.trace != nil {
			spanTotals(res.trace, spans)
		}
		replay += res.replayTime
		replaySteps += res.replaySteps
		waits = append(waits, ms(res.queueWait))
		rep := res.rep
		if rep == nil {
			continue
		}
		t := rep.Timings
		phases.p1 += t.P1
		phases.p2 += t.P2Prep
		phases.reform += t.Reform
		phases.p4 += t.P4
		phases.hybrid += t.Hybrid
		bunches += len(rep.Bunches)
		if rep.Hybrid != nil {
			campaigns++
			if rep.Hybrid.Rescued {
				rescued++
			}
		}
		if t.P2Prep > 0 && !t.P2Cached {
			t0 := time.Now()
			cfg.BuildPruned(res.spec.Pair.T, nil)
			phases.build += time.Since(t0)
		}
	}
	wv := passWork(ps)
	count := func(k string) int64 {
		if n, ok := wv.Deterministic[k]; ok {
			return n
		}
		return wv.NonDeterministic[k]
	}
	for _, k := range []string{"discover.steps", "discover.sat_checks", "symex.steps", "symex.states",
		"symex.backtracks", "symex.sat_checks", "solver.solves", "solver.unsat", "solver.budget_exhausted",
		"fuzz.execs", "vm.runs", "vm.insts"} {
		v[k] = float64(count(k))
	}
	m := ps.metrics
	v["solver.cache_hit_frac"] = frac(float64(m.Solver.CacheHits.Value()),
		float64(m.Solver.CacheHits.Value()+m.Solver.CacheMisses.Value()))
	v["discover.ms"] = ms(spans["discover"])
	v["core.p1_ms"] = ms(phases.p1)
	v["core.p2prep_ms"] = ms(phases.p2)
	v["core.reform_ms"] = ms(phases.reform)
	v["core.p4_ms"] = ms(phases.p4)
	v["core.hybrid_ms"] = ms(phases.hybrid)
	v["solver.solve_ms"] = ms(spans["solve"])
	execs := v["fuzz.execs"]
	v["fuzz.execs_per_s"] = frac(execs, phases.hybrid.Seconds())
	v["fuzz.alloc_kb_per_exec"] = frac(float64(ps.alloc)/1e3, execs)
	v["hybrid.rescued_frac"] = frac(float64(rescued), float64(campaigns))
	v["vm.ns_per_inst"] = frac(float64(replay.Nanoseconds()), float64(replaySteps))
	v["taint.ms"] = ms(spans["taint"])
	v["taint.bunches"] = float64(bunches)
	v["cfg.build_ms"] = ms(phases.build)
	v["cfg.distance_ms"] = ms(spans["distance_map"])
	var hot, disk, miss, writes, bytes, decodeErr uint64
	for _, c := range ps.stores {
		hot += c.HotHits
		disk += c.DiskHits
		miss += c.Misses
		writes += c.Writes
		bytes += uint64(c.DiskBytes)
		decodeErr += c.DecodeErrors
	}
	v["artifact.hot_hits"] = float64(hot)
	v["artifact.disk_hits"] = float64(disk)
	v["artifact.misses"] = float64(miss)
	v["artifact.writes"] = float64(writes)
	v["artifact.disk_bytes"] = float64(bytes)
	v["artifact.decode_errors"] = float64(decodeErr)
	v["service.queue_wait_ms_p50"] = 0
	if ps.stores != nil {
		v["service.queue_wait_ms_p50"] = median(waits)
	}
	v["service.jobs_failed"] = float64(ps.jobsFailed)

	verify := spans["verify"]
	v["share.discover"] = frac(float64(spans["discover"]), float64(verify))
	v["share.reform"] = frac(float64(phases.reform), float64(verify))
	v["share.hybrid"] = frac(float64(phases.hybrid), float64(verify))
	layerTime := map[string]time.Duration{
		"symex discovery":                   spans["discover"],
		"cfg + distances, or P2 store read": phases.p2 - spans["discover"],
		"symex directed + solver":           phases.reform,
		"fuzz campaign":                     phases.hybrid,
		"vm + taint (P1), or P1 store read": phases.p1,
		"vm replay (P4)":                    phases.p4,
		"verify":                            verify,
	}
	return v, layerTime
}

// layerMetrics fills the per-layer metrics from the traced passes (median
// per metric) and the tracing overhead from both kinds of pass.
func layerMetrics(out *output, passes []passSummary, disc discovered) {
	perPass := map[string][]float64{}
	layerTotals := map[string]time.Duration{}
	var plainWalls, tracedWalls []float64
	for _, p := range passes {
		if !p.traced {
			plainWalls = append(plainWalls, p.wall.Seconds())
			continue
		}
		tracedWalls = append(tracedWalls, p.wall.Seconds())
		for k, x := range p.layers {
			perPass[k] = append(perPass[k], x)
		}
		for k, d := range p.layerTime {
			layerTotals[k] += d
		}
	}
	m := out.Result.Metrics
	for _, lu := range layerUnits {
		if xs, ok := perPass[lu.name]; ok {
			m[lu.name] = Metric{median(xs), lu.unit}
			out.Detail.Samples[lu.name] = len(xs)
		}
	}

	m["discover.runs"] = Metric{float64(disc.pairs), "count"}
	m["discover.edges"] = Metric{float64(disc.edges), "count"}
	m["discover.useful_frac"] = Metric{frac(float64(disc.useful), float64(disc.pairs)), "frac"}

	base := median(plainWalls)
	m["trace_overhead_frac"] = Metric{frac(median(tracedWalls)-base, base), "frac"}
	out.Detail.Samples["trace_overhead_frac"] = len(plainWalls) + len(tracedWalls)
	m["failed_frac"] = Metric{out.Detail.FailedFrac, "frac"}

	verify := layerTotals["verify"]
	delete(layerTotals, "verify")
	out.Detail.LayerShares = map[string]float64{}
	var best time.Duration
	for name, d := range layerTotals {
		out.Detail.LayerShares[name] = frac(float64(d), float64(verify))
		if d > best {
			best, out.Detail.LargestLayer = d, name
		}
	}
}

// discovered counts what dynamic-CFG discovery finds on a traced pass's
// pairs: the pairs explored, the edges found, and the pairs with at least
// one edge.
type discovered struct{ pairs, edges, useful int }

// discoverEdges re-runs dynamic-CFG discovery through symex.Discover, with
// the pipeline's discovery settings, for every pair whose verification in
// the traced pass ran discovery (it has a discover span).
func discoverEdges(ctx context.Context, ps *passResult) discovered {
	var d discovered
	for _, res := range ps.pairs {
		if res.trace == nil {
			continue
		}
		spans := map[string]time.Duration{}
		spanTotals(res.trace, spans)
		if _, ran := spans["discover"]; !ran {
			continue
		}
		pair := res.spec.Pair
		maxSteps := pair.MaxSteps
		if maxSteps <= 0 {
			maxSteps = vm.DefaultMaxSteps
		}
		// Discover fails only when stopped (the run deadline) or on an
		// injected fault, and then still returns the edges it found; a
		// per-layer count needs no more than that.
		found, _ := symex.Discover(pair.T, symex.NaiveConfig{
			InputSize:   len(pair.PoC) + discoverInputSlack,
			MaxSteps:    maxSteps,
			Stop:        ctx.Done(),
			SolverCache: solver.NewCache(0),
		})
		d.pairs++
		d.edges += len(found)
		if len(found) > 0 {
			d.useful++
		}
	}
	return d
}

// discoverInputSlack mirrors the pipeline's discovery input size: the PoC
// length plus room for a longer guiding prefix.
const discoverInputSlack = 64
