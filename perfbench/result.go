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
)

// metricDef is one metric the benchmark reports.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of a run with --trace 0. Every workload reports
// each of them, each for its own unit of work: an operation is one training
// job on forest-exact and boost-hist and one request on serve-mixed, whose
// latency is read on its batch-1 requests. BENCHMARK.json declares the same
// names with the bound by which each may worsen; the tests hold the two
// lists equal.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_heap_mb", "MB"},
}

// ungated lists end-to-end metrics a serve-mixed run with --trace 0 prints
// and writes to its result file but leaves out of the summary line. The
// tail latencies and max_rate_rps spread wider from run to run on a
// two-core host than any bound a regression gate could use; bulk_p50_ms
// has no counterpart on the training workloads, and the batch-1024 work it
// measures is gated through serve-mixed's cpu_ms_per_op.
var ungated = []metricDef{
	{"small_p99_ms", "ms"},
	{"bulk_p50_ms", "ms"},
	{"bulk_p90_ms", "ms"},
	{"max_rate_rps", "1/s"},
}

// perLayer lists the metrics of a run with --trace 1, named
// <module>.<metric> after the package they measure. A unit ending in /job
// is a per-job average over the traced jobs; a metric whose module the
// workload does not exercise reads 0 and the result file says why.
var perLayer = []metricDef{
	{"split.findbest_ns_per_row", "ns"},
	{"split.fast_path", "count/job"},
	{"split.fallback", "count/job"},
	{"split.categorical", "count/job"},
	{"split.hist_fills", "count/job"},
	{"split.hist_subtractions", "count/job"},
	{"split.scratch_hit_ratio", "ratio"},
	{"dataset.sortindex_s", "s"},
	{"dataset.gather_ns_per_row", "ns"},
	{"core.serial_tree_s", "s"},
	{"cluster.tasks_planned", "count/job"},
	{"cluster.useful_task_ratio", "ratio"},
	{"cluster.plan_to_decide_ms", "ms"},
	{"cluster.confirm_to_split_ms", "ms"},
	{"cluster.worker_comp_s", "s/job"},
	{"cluster.worker_send_s", "s/job"},
	{"cluster.worker_recv_s", "s/job"},
	{"cluster.row_serves", "count/job"},
	{"cluster.row_serve_ms", "ms"},
	{"cluster.rowset_hit_ratio", "ratio"},
	{"cluster.comper_busy_share", "ratio"},
	{"task.pushes_bfs", "count/job"},
	{"task.pushes_dfs", "count/job"},
	{"task.deque_high_water", "count"},
	{"task.pool_high_water", "count"},
	{"loadbal.comp_imbalance", "ratio"},
	{"transport.msgs", "count/job"},
	{"transport.bytes", "bytes/job"},
	{"transport.coldata_bytes", "bytes/job"},
	{"transport.rows_bytes", "bytes/job"},
	{"transport.settarget_bytes", "bytes/job"},
	{"transport.vote_fetch_msgs", "count/job"},
	{"transport.retries", "count/job"},
	{"gbt.settarget_ms", "ms"},
	{"gbt.round_train_ms", "ms"},
	{"gbt.driver_ms", "ms"},
	{"infer.compile_s", "s"},
	{"infer.decode_ns_per_row.b1", "ns"},
	{"infer.decode_ns_per_row.b1024", "ns"},
	{"infer.predict_ns_per_row.b1", "ns"},
	{"infer.predict_ns_per_row.b1024", "ns"},
	{"serve.handler_us.b1", "us"},
	{"serve.handler_us.b1024", "us"},
	{"serve.sheds", "count"},
	{"serve.deadline_exceeded", "count"},
	{"registry.route_ns", "ns"},
	{"obs.trace_overhead_ratio", "ratio"},
	{"loadgen.lag_ms_p99", "ms"},
	{"loadgen.backlog_max", "count"},
	{"loadgen.sent", "count"},
}

// measured is one reported metric value.
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// hostInfo fingerprints the machine a result was measured on.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OSArch     string `json:"os_arch"`
}

func fingerprint() hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
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

// result accumulates one run's metrics, operation counts and notes.
type result struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Trace     bool                `json:"trace"`
	Host      hostInfo            `json:"host"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Failures  []string            `json:"failures,omitempty"`
	Metrics   map[string]measured `json:"metrics"`
	// Ungated holds the ungated end-to-end metrics of a --trace 0 run.
	Ungated map[string]measured `json:"ungated,omitempty"`
	// NotApplicable names each reported metric whose layer or phase the
	// workload does not exercise, with the reason; such metrics read 0.
	NotApplicable map[string]string `json:"not_applicable,omitempty"`
	// Details holds workload-specific breakdowns (per-rate load phases, the
	// correctness margins used) for the result file only.
	Details map[string]any `json:"details,omitempty"`
}

func newResult(workload string, seed int64, trace bool) *result {
	return &result{
		Workload: workload, Seed: seed, Trace: trace, Host: fingerprint(),
		Metrics: map[string]measured{}, Ungated: map[string]measured{},
		NotApplicable: map[string]string{}, Details: map[string]any{},
	}
}

func (r *result) set(name string, value float64, samples int) {
	m := measured{Value: value, Unit: unitOf(name), Samples: samples}
	for _, d := range ungated {
		if d.name == name {
			r.Ungated[name] = m
			return
		}
	}
	r.Metrics[name] = m
}

// na reports a metric the workload does not exercise: value 0, with why.
func (r *result) na(name, why string) {
	r.set(name, 0, 0)
	r.NotApplicable[name] = why
}

// op records one attempted operation; err != nil counts it as failed.
func (r *result) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.Failures) < 20 {
			r.Failures = append(r.Failures, err.Error())
		}
	}
}

func allMetrics() []metricDef {
	var all []metricDef
	for _, l := range [][]metricDef{endToEnd, ungated, perLayer} {
		all = append(all, l...)
	}
	return all
}

func unitOf(name string) string {
	for _, d := range allMetrics() {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: metric " + name + " is not declared")
}

// expected returns the metrics a run of this kind must report.
func (r *result) expected() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// complete checks that the run reported exactly its metric set, and no
// end-to-end metric as 0: each is a time or a size that no real run has 0
// of.
func (r *result) complete() error {
	want := r.expected()
	for _, d := range want {
		m, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not report %s", r.Workload, d.name)
		}
		if !r.Trace && !(m.Value > 0) {
			return fmt.Errorf("workload %s reported %s = %v", r.Workload, d.name, m.Value)
		}
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("workload %s reported %d metrics, want %d", r.Workload, len(r.Metrics), len(want))
	}
	if r.Attempted < 1 {
		return fmt.Errorf("workload %s attempted no operation", r.Workload)
	}
	return nil
}

func (r *result) writeFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing result: %w", err)
	}
	return nil
}

// printTable prints every metric with unit and sample count, the host
// fingerprint and any failures, ahead of the summary line.
func (r *result) printTable(w io.Writer) {
	h := r.Host
	fmt.Fprintf(w, "workload %s seed %d trace %v | nproc %d GOMAXPROCS %d %s | %s\n",
		r.Workload, r.Seed, r.Trace, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		note := ""
		if why, ok := r.NotApplicable[n]; ok {
			note = "  n/a: " + why
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d%s\n", n, m.Value, m.Unit, m.Samples, note)
	}
	names = names[:0]
	for n := range r.Ungated {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Ungated[n]
		fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d  (not gated)\n", n, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintf(w, "  operations attempted %d failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summaryLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

func (r *result) summary() summaryLine {
	s := summaryLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]summaryMetric{}}
	for n, m := range r.Metrics {
		s.Metrics[n] = summaryMetric{Value: m.Value, Unit: m.Unit}
	}
	return s
}
