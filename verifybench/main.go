// Command verifybench is the repository's layered verify benchmark. One
// process runs one workload — cold-verify, warm-restart or hybrid-rescue —
// over the corpus pairs in a seed-permuted order, checks every verdict
// against the corpus ground truth, and prints the result as one JSON object
// on the last line of standard output.
//
// With -trace 0 the result carries the end-to-end metrics (set-up time,
// pass time, per-pair verdict latency, allocation, peak RSS). With -trace 1
// it carries the per-layer metrics instead: timed passes alternate between
// untraced and traced ones, per-layer numbers come from the traced passes
// (span trees, engine counters, report timings and direct calls into the
// layers' public functions), and trace_overhead_frac compares the two.
//
// Usage, from the repository root:
//
//	bash verifybench/run.sh --workload cold-verify --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed; permutes the pair order of every pass and batch")
	flag.IntVar(&opt.seconds, "seconds", 30, "measurement budget in seconds; sizes the fixed number of timed passes")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 runs traced passes and reports per-layer metrics")
	flag.StringVar(&opt.dir, "dir", ".bench_build", "scratch directory for the artifact stores of warm-restart")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", *trace)
	}
	opt.traced = *trace == 1
	if lookupWorkload(opt.workload) == nil {
		fatalf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	if opt.seconds < 1 {
		fatalf("-seconds must be at least 1, got %d", opt.seconds)
	}

	res, err := run(context.Background(), opt)
	if err != nil {
		fatalf("%v", err)
	}
	enc := json.NewEncoder(os.Stdout)
	// The detail record (samples, work vector, host metadata, failures)
	// precedes the result, which must be the last line.
	if err := enc.Encode(res.Detail); err != nil {
		fatalf("encode detail: %v", err)
	}
	if err := enc.Encode(res.Result); err != nil {
		fatalf("encode result: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "verifybench: "+format+"\n", args...)
	os.Exit(2)
}
