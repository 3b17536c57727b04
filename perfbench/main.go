// Command perfbench is the repository benchmark. It runs one workload from a
// seed, checks every output for correctness and prints each metric by name
// with its unit and sample count. The last line of standard output is one
// JSON object: {"correct":…, "attempted":…, "failed":…, "metrics":{…}}.
//
//	go run . --workload forest-exact --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 a
// separate traced run reports the per-layer set and writes a Chrome
// trace-event file of the spans it recorded. Result files go to
// .bench_build/results under the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workload is one benchmark input set. run measures it and fills r.
type workload struct {
	name string
	run  func(cfg runConfig, r *result) error
}

var workloads = []workload{
	{"forest-exact", runForestExact},
	{"boost-hist", runBoostHist},
	{"serve-mixed", runServeMixed},
}

// runConfig carries the command-line settings every workload sees.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	tracer  *tracer // nil unless trace
}

func main() {
	name := flag.String("workload", "", "workload to run: forest-exact, boost-hist or serve-mixed")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "results"), "directory for result and trace files")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, outDir string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	cfg := runConfig{seed: seed, seconds: time.Duration(seconds) * time.Second, trace: trace == 1}
	if cfg.trace {
		cfg.tracer = newTracer()
	}
	r := newResult(name, seed, cfg.trace)
	if err := w.run(cfg, r); err != nil {
		return err
	}
	if err := r.complete(); err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("result directory: %w", err)
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, trace))
	if cfg.trace {
		if err := cfg.tracer.writeChrome(base + ".trace.json"); err != nil {
			return err
		}
	}
	if err := r.writeFile(base + ".json"); err != nil {
		return err
	}
	r.printTable(os.Stdout)
	line, err := json.Marshal(r.summary())
	if err != nil {
		return fmt.Errorf("encoding summary: %w", err)
	}
	fmt.Println(string(line))
	return nil
}
