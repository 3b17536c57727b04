package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// record is one measured quantity of one arm of one A/B case: every -ab
// suite reports through it, and the -json file is a list of them.
type record struct {
	Suite   string    `json:"suite"`
	Case    string    `json:"case"`
	Arm     string    `json:"arm"`
	Metric  string    `json:"metric"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	Spread  float64   `json:"spread"` // interquartile range of Samples
}

// hostInfo fingerprints the machine the records were measured on.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

// benchFile is the schema of the -json file.
type benchFile struct {
	GeneratedAt string   `json:"generated_at"`
	Quick       bool     `json:"quick"`
	Host        hostInfo `json:"host"`
	Records     []record `json:"records"`
}

func fingerprint() hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metric names one value an arm's run returns.
type metric struct{ name, unit string }

// arm is one side of an A/B case. run performs one repetition and returns
// one value per metric of its case, in the case's order.
type arm struct {
	name string
	run  func() []float64
}

// abCase compares arms[1:] against the baseline arms[0]. Every arm's first
// metric also yields a per-repetition ratio against the baseline's: an
// "overhead" is arm / baseline (> 1 means the arm costs more), a "speedup"
// is baseline / arm (> 1 means the arm is faster).
type abCase struct {
	name    string
	metrics []metric
	ratio   string
	arms    []arm
}

// runner runs A/B cases and collects their records.
type runner struct {
	reps    int
	out     io.Writer // one text line per record
	records []record
}

// run warms every arm up once, untimed, then calls the arms round-robin
// (A/B/A/B… for two arms) reps times, so that load drifting over the run
// hits every arm alike, and records each arm's samples and each
// repetition's ratio against the baseline run just before it.
func (r *runner) run(suite string, c abCase) {
	for _, a := range c.arms {
		a.run()
	}
	samples := make([][][]float64, len(c.arms)) // [arm][metric][rep]
	for i := range samples {
		samples[i] = make([][]float64, len(c.metrics))
	}
	for rep := 0; rep < r.reps; rep++ {
		for i, a := range c.arms {
			v := a.run()
			for m := range c.metrics {
				samples[i][m] = append(samples[i][m], v[m])
			}
		}
	}
	for i, a := range c.arms {
		for m, mt := range c.metrics {
			r.add(suite, c.name, a.name, mt.name, mt.unit, samples[i][m])
		}
	}
	for i := 1; i < len(c.arms); i++ {
		r.add(suite, c.name, c.arms[i].name, c.ratio, "ratio", pairRatios(c.ratio, samples[0][0], samples[i][0]))
	}
}

// pairRatios returns the ratio of each repetition's arm sample to the
// baseline sample of the same round.
func pairRatios(kind string, base, arm []float64) []float64 {
	out := make([]float64, len(base))
	for k := range base {
		if kind == "speedup" {
			out[k] = base[k] / arm[k]
		} else {
			out[k] = arm[k] / base[k]
		}
	}
	return out
}

// count records a counter read once, outside the timed repetitions.
func (r *runner) count(suite, cas, armName, name string, v float64) {
	r.add(suite, cas, armName, name, "count", []float64{v})
}

func (r *runner) add(suite, cas, armName, name, unit string, samples []float64) {
	med, iqr := medianIQR(samples)
	rec := record{Suite: suite, Case: cas, Arm: armName, Metric: name, Unit: unit,
		Samples: samples, Median: med, Spread: iqr}
	r.records = append(r.records, rec)
	if r.out != nil {
		fmt.Fprintf(r.out, "%-8s %-29s %-9s %-19s %12.5g %-8s IQR %-9.3g n=%d\n",
			suite, cas, armName, name, med, unit, iqr, len(samples))
	}
}

// medianIQR returns the median and the interquartile range of xs.
func medianIQR(xs []float64) (median, iqr float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5), quantile(s, 0.75) - quantile(s, 0.25)
}

// quantile returns the p-quantile of the sorted, non-empty xs, linearly
// interpolated between order statistics.
func quantile(sorted []float64, p float64) float64 {
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// writeBench writes every record of the run, under one host block, to path.
func writeBench(path string, quick bool, records []record) error {
	data, err := json.MarshalIndent(benchFile{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Quick:       quick,
		Host:        fingerprint(),
		Records:     records,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// callLoop calls f n times, timing each call, and returns the per-call wall
// times in ns and the heap allocations per call. It is the one way the
// micro-benchmark arms time their work: a fixed count, not an auto-scaled
// duration, so every repetition does the same work. A forced GC and one
// untimed call come first: the partner arm's garbage must not be collected
// on this arm's clock, and refilling the sync.Pools that a collection
// empties is not this arm's steady-state cost.
func callLoop(n int, f func()) (ns []float64, allocsPerCall float64) {
	ns = make([]float64, n)
	runtime.GC()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range ns {
		t0 := time.Now()
		f()
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	runtime.ReadMemStats(&after)
	return ns, float64(after.Mallocs-before.Mallocs) / float64(n)
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
