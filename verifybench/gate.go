package main

import (
	"errors"
	"fmt"
	"time"

	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/vm"
)

// gate checks every verification of a pass against the corpus ground truth
// and replays every poc' on a fresh VM. A mismatch, an error, a
// cancellation or a recovered panic counts as a failed pair; nothing is
// retried and every pair stays in the latency samples.
func (e *passEnv) gate(ps *passResult, tl *tally) {
	for i := range ps.pairs {
		res := &ps.pairs[i]
		if e.opt.corrupt != nil && res.rep != nil {
			e.opt.corrupt(res.rep)
		}
		err := checkVerdict(res.spec, res.rep, res.err, e.w.hybrid)
		if err == nil && res.rep.PoCGenerated() {
			err = res.replay()
		}
		tl.add(fmt.Sprintf("pair %d (%s)", res.spec.Idx, res.spec.Label()), err)
	}
}

// checkVerdict compares one report with the pair's ground truth: type and
// poc' presence always, the symex failure reason where the corpus pins one
// (pairs 18-21 with the fallback off), and a replay-confirmed rescue where
// the fallback is on and the pair expects one.
func checkVerdict(spec *corpus.PairSpec, rep *core.Report, err error, hybridOn bool) error {
	if err != nil {
		return fmt.Errorf("verification error: %w", err)
	}
	if rep == nil {
		return errors.New("no report")
	}
	if hybridOn && spec.ExpectRescue {
		switch {
		case rep.Verdict != core.VerdictTriggeredByFuzzing:
			return fmt.Errorf("verdict %s, want %s", rep.Verdict, core.VerdictTriggeredByFuzzing)
		case rep.Type != core.TypeII:
			return fmt.Errorf("type %s, want %s", rep.Type, core.TypeII)
		case rep.Reason != spec.ExpectReason:
			return fmt.Errorf("reason %q, want the symex provenance %q", rep.Reason, spec.ExpectReason)
		case rep.Hybrid == nil || !rep.Hybrid.Rescued:
			return errors.New("no rescued hybrid outcome")
		case !rep.PoCGenerated():
			return errors.New("rescue without a poc'")
		}
		return nil
	}
	want := core.VerdictFailure
	switch spec.ExpectType {
	case core.TypeI, core.TypeII:
		want = core.VerdictTriggered
	case core.TypeIII:
		want = core.VerdictNotTriggerable
	}
	switch {
	case rep.Verdict != want || rep.Type != spec.ExpectType:
		return fmt.Errorf("verdict %s %s (reason %q), want %s %s", rep.Verdict, rep.Type, rep.Reason, want, spec.ExpectType)
	case rep.PoCGenerated() != spec.ExpectPoC:
		return fmt.Errorf("poc' generated = %v, want %v", rep.PoCGenerated(), spec.ExpectPoC)
	case spec.ExpectReason != core.ReasonNone && rep.Reason != spec.ExpectReason:
		return fmt.Errorf("reason %q, want %q", rep.Reason, spec.ExpectReason)
	}
	return nil
}

// replay runs the reported poc' on a fresh VM over T and requires a crash
// inside ℓ. The run's time and instruction count feed vm.ns_per_inst.
func (res *pairResult) replay() error {
	pair := res.spec.Pair
	t0 := time.Now()
	out := vm.New(pair.T, vm.Config{Input: res.rep.PoCPrime, MaxSteps: pair.MaxSteps}).Run()
	res.replayTime = time.Since(t0)
	res.replaySteps = out.Steps
	if !out.Crashed() || !out.CrashedIn(pair.Lib) {
		return fmt.Errorf("poc' replay on T: %s, want a crash inside ℓ", out)
	}
	return nil
}
