package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"octopocs/internal/core"
	"octopocs/internal/corpus"
)

// spec mirrors the parts of BENCHMARK.json the self-test checks.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return s
}

func shortRun(t *testing.T, workload string, traced bool, corrupt func(*core.Report)) *output {
	t.Helper()
	out, err := run(context.Background(), options{
		workload: workload,
		seed:     7,
		seconds:  1,
		traced:   traced,
		dir:      t.TempDir(),
		short:    true,
		corrupt:  corrupt,
	})
	if err != nil {
		t.Fatalf("%s traced=%v: %v", workload, traced, err)
	}
	return out
}

// TestWorkloadsEmitEveryMetric runs every workload once untraced and once
// traced in the short mode and checks that each passes the verdict gate,
// emits every metric BENCHMARK.json names with its unit (end-to-end ones
// never 0), and repeats its deterministic work vector across the two runs
// of one seed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark implements %v", names, workloadNames())
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			plain := shortRun(t, name, false, nil)
			traced := shortRun(t, name, true, nil)
			for _, out := range []*output{plain, traced} {
				r := out.Result
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d failures=%v",
						out.Detail.Traced, r.Correct, r.Attempted, r.Failed, out.Detail.Failures)
				}
			}
			for _, m := range s.EndToEnd {
				got, ok := plain.Result.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("end-to-end metric %s missing", m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s unit %q, want %q", m.Name, got.Unit, m.Unit)
				case got.Value <= 0:
					t.Errorf("%s = %v, want > 0", m.Name, got.Value)
				}
			}
			if len(plain.Result.Metrics) != len(s.EndToEnd) {
				t.Errorf("untraced run emits %d metrics, BENCHMARK.json names %d", len(plain.Result.Metrics), len(s.EndToEnd))
			}
			for _, m := range s.PerLayer {
				got, ok := traced.Result.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("per-layer metric %s missing", m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s unit %q, want %q", m.Name, got.Unit, m.Unit)
				}
			}
			if len(traced.Result.Metrics) != len(s.PerLayer) {
				t.Errorf("traced run emits %d metrics, BENCHMARK.json names %d", len(traced.Result.Metrics), len(s.PerLayer))
			}
			a, b := plain.Detail.Work, traced.Detail.Work
			if a.PoCSHA256 != b.PoCSHA256 || !reflect.DeepEqual(a.Deterministic, b.Deterministic) {
				t.Errorf("work vector differs between two runs of one seed:\n%+v\n%+v", a, b)
			}
			if traced.Detail.LargestLayer == "" {
				t.Error("traced run names no largest layer")
			}
		})
	}
}

// TestCorruptedPoCCountsAsFailed proves the gate replays poc' independently:
// a poc' damaged after verification must count in failed_frac, leave its
// latency sample in place, and make the run incorrect.
func TestCorruptedPoCCountsAsFailed(t *testing.T) {
	corrupt := func(rep *core.Report) {
		if rep.Pair == corpus.ByIdx(7).Pair.Name {
			for i := range rep.PoCPrime {
				rep.PoCPrime[i] ^= 0xff
			}
		}
	}
	out := shortRun(t, "cold-verify", false, corrupt)
	r := out.Result
	if r.Correct || r.Failed != 1 || out.Detail.FailedFrac <= 0 {
		t.Fatalf("corrupted poc': correct=%v failed=%d failed_frac=%v, want one failed pair",
			r.Correct, r.Failed, out.Detail.FailedFrac)
	}
	if len(out.Detail.Failures) != 1 || !strings.Contains(out.Detail.Failures[0], "replay") {
		t.Errorf("failures = %v, want one replay failure", out.Detail.Failures)
	}
	if n := out.Detail.Samples["verdict_ms_p50"]; n != 21 {
		t.Errorf("verdict samples = %d, want all 21 pairs kept", n)
	}
}

// TestCheckVerdictRejectsMismatch covers the ground-truth half of the gate.
func TestCheckVerdictRejectsMismatch(t *testing.T) {
	s := corpus.ByIdx(16) // statically unreachable: not-triggerable Type-III
	ok := &core.Report{Verdict: core.VerdictNotTriggerable, Type: core.TypeIII}
	if err := checkVerdict(s, ok, nil, false); err != nil {
		t.Fatalf("expected verdict rejected: %v", err)
	}
	bad := &core.Report{Verdict: core.VerdictTriggered, Type: core.TypeII, PoCPrime: []byte{1}}
	if err := checkVerdict(s, bad, nil, false); err == nil {
		t.Error("wrong verdict accepted")
	}
	h := corpus.ByIdx(19) // hybrid pair: a pinned symex reason, rescued with the fallback on
	verdict := core.VerdictNotTriggerable
	if h.ExpectType == core.TypeFailure {
		verdict = core.VerdictFailure
	}
	off := &core.Report{Verdict: verdict, Type: h.ExpectType, Reason: h.ExpectReason}
	if err := checkVerdict(h, off, nil, false); err != nil {
		t.Fatalf("expected fallback-off outcome rejected: %v", err)
	}
	off.Reason = core.ReasonUnsat
	if err := checkVerdict(h, off, nil, false); err == nil {
		t.Error("wrong symex reason accepted")
	}
	off.Reason = h.ExpectReason
	if err := checkVerdict(h, off, nil, true); err == nil {
		t.Error("missing rescue accepted with the fallback on")
	}
}

// TestHDQuantile pins the Harrell–Davis estimator to values computed
// independently from the Beta CDF.
func TestHDQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{5}, 0.5, 5},
		{[]float64{1, 2, 3}, 0.5, 2},
		{[]float64{1, 2, 3, 4, 10}, 0.5, 3.2896},
		{[]float64{1, 2, 3, 4, 10}, 0.9, 9.000795518580475},
	} {
		if got := hdQuantile(c.xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("hdQuantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if got := hdQuantile(nil, 0.5); got != 0 {
		t.Errorf("hdQuantile(nil) = %v, want 0", got)
	}
}
