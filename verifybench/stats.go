package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (the mean of the middle two for an
// even count), or 0 for no values. xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile returns the q-quantile of sorted with linear interpolation
// between closest ranks, or 0 for no values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// hdQuantile is the Harrell–Davis estimate of the q-quantile of sorted: a
// weighted mean of every order statistic, the i-th weighted by the mass
// the Beta(q(n+1), (1-q)(n+1)) distribution puts on ((i-1)/n, i/n]. It is
// 0 for no values.
//
// The latencies are pooled from a few pairs of very different cost, so
// their distribution has gaps: on cold-verify the middle sample is one pair
// (pair 18, ~60-80 ms), with the next pairs near 5 ms and 95 ms on either
// side. A single order statistic there follows that one pair's noise and
// jumps whenever a neighbouring pair's samples cross it. The Harrell–Davis
// weights spread over about sqrt(n) neighbouring samples; over resampled
// passes of one cold-verify run that cut the median's spread by about 40%.
func hdQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var sum, prev float64
	for i, x := range sorted {
		c := regIncBeta(a, b, float64(i+1)/float64(n))
		sum += (c - prev) * x
		prev = c
	}
	return sum
}

// regIncBeta is the regularized incomplete beta function I_x(a, b), from
// its continued fraction (Numerical Recipes, betacf).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 1000
		eps     = 1e-15
		tiny    = 1e-300
	)
	guard := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/guard(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= maxIter; m++ {
		aa := m * (b - m) * x / ((a - 1 + 2*m) * (a + 2*m))
		d = 1 / guard(1+aa*d)
		c = guard(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 1 + 2*m))
		d = 1 / guard(1+aa*d)
		c = guard(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// gcd is the greatest common divisor of two positive integers.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// tailLadder lists the percentiles verdict_ms_tail may report, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest ladder percentile that leaves at least
// ten of n samples beyond it. Runs of one workload and seconds setting
// always have the same n, so they always report the same percentile.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// rssInterval is how often an rssSampler reads the resident set, and
// maxRSSSamples covers a pass as long as the run deadline, so sampling
// never allocates while a pass is measured.
const (
	rssInterval   = 5 * time.Millisecond
	maxRSSSamples = int(runDeadline / rssInterval)
)

// rssSampler reads the process's resident set every rssInterval while a
// pass runs. The pass's peak is the 99th percentile of the readings: the
// level the pass stays under 99% of the time. The absolute maximum is set
// by millisecond-long GC overshoots whose size varies from run to run, and
// would make the metric follow the host's scheduling instead of the program.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	xs := make([]float64, 0, maxRSSSamples)
	statm, err := os.Open("/proc/self/statm")
	if err != nil {
		// No procfs: the Go runtime's total reservation is the closest bound.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.done <- append(xs, float64(ms.Sys)/1e6)
		return s
	}
	go func() {
		defer statm.Close()
		var buf [128]byte
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			if mb, ok := readRSS(statm, buf[:]); ok && len(xs) < cap(xs) {
				xs = append(xs, mb)
			}
			select {
			case <-s.stop:
				s.done <- xs
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the 99th percentile of its readings
// in MB.
func (s *rssSampler) peak() float64 {
	close(s.stop)
	xs := <-s.done
	sort.Float64s(xs)
	return quantile(xs, 0.99)
}

// readRSS parses the resident-set field of /proc/self/statm (the second,
// in pages) into MB without allocating.
func readRSS(statm *os.File, buf []byte) (float64, bool) {
	n, err := statm.ReadAt(buf, 0)
	if n == 0 && err != nil {
		return 0, false
	}
	field, pages := 0, 0
	for _, c := range buf[:n] {
		switch {
		case c == ' ':
			field++
			if field == 2 {
				return float64(pages) * float64(os.Getpagesize()) / 1e6, true
			}
		case field == 1 && c >= '0' && c <= '9':
			pages = pages*10 + int(c-'0')
		}
	}
	return 0, false
}

// hostSample is a point-in-time reading of the host's load.
type hostSample struct {
	loadavg string
	// steal and total are the aggregate CPU jiffies of /proc/stat.
	steal, total uint64
	// calibration is the median time of a fixed integer loop.
	calibration time.Duration
}

func sampleHost() hostSample {
	s := hostSample{calibration: calibrate()}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		s.loadavg = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		fields := strings.Fields(line)
		// cpu user nice system idle iowait irq softirq steal ...
		for i, f := range fields {
			if i == 0 {
				continue
			}
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				break
			}
			if i <= 8 {
				s.total += v
			}
			if i == 8 {
				s.steal = v
			}
		}
	}
	return s
}

// hostInfo is the run metadata recorded with every result.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	LoadStart  string `json:"loadavg_start"`
	LoadEnd    string `json:"loadavg_end"`
	// StealJiffies and StealFrac are the CPU time the hypervisor took from
	// this host during the run, absolute and as a share of all CPU time.
	StealJiffies uint64  `json:"steal_jiffies"`
	StealFrac    float64 `json:"steal_frac"`
	// CalibrationMS times one fixed integer loop at the start and the end
	// of the run: the host's own speed, whatever the program does.
	CalibrationStartMS float64 `json:"calibration_ms_start"`
	CalibrationEndMS   float64 `json:"calibration_ms_end"`
}

// calibrationSink keeps the calibration loop from being optimized away.
var calibrationSink uint64

// calibrate returns the median of five timings of a fixed xorshift loop.
func calibrate() time.Duration {
	var ds []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 10_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibrationSink += x
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds))
}

func hostDelta(start, end hostSample) hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LoadStart:  start.loadavg,
		LoadEnd:    end.loadavg,

		CalibrationStartMS: ms(start.calibration),
		CalibrationEndMS:   ms(end.calibration),
	}
	if end.steal >= start.steal && end.total > start.total {
		h.StealJiffies = end.steal - start.steal
		h.StealFrac = float64(h.StealJiffies) / float64(end.total-start.total)
	}
	return h
}
