// Package experiments reproduces every table of the paper's evaluation
// (Section VIII, Tables II–VIII) plus the design ablations called out in
// DESIGN.md. Each experiment is a function returning a Result that renders
// like the paper's table; cmd/benchtab prints them and bench_test.go wraps
// them as testing.B benchmarks.
//
// Workloads are scaled-down synthetic equivalents of the paper's datasets
// (see internal/synth); absolute numbers therefore differ from the paper,
// but the comparisons — who wins, how the curves move — are the
// reproduction target. EXPERIMENTS.md records paper-vs-measured shape.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/forest"
	"treeserver/internal/metrics"
	"treeserver/internal/planet"
	"treeserver/internal/synth"
	"treeserver/internal/task"
)

// Row is one line of a rendered result table.
type Row []string

// Result is one reproduced table.
type Result struct {
	ID     string
	Title  string
	Header Row
	Rows   []Row
	Notes  []string
}

// Fprint renders the result with aligned columns.
func (r *Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "=== %s: %s ===\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	rows := append([]Row{r.Header}, r.Rows...)
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		cells := make([]string, len(row))
		for i, cell := range row {
			cells[i] = pad(cell, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(cells, "  "), " "))
		if ri == 0 {
			total := len(widths)*2 - 2
			for _, wd := range widths {
				total += wd
			}
			fmt.Fprintln(w, strings.Repeat("-", total))
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Scale controls experiment sizes so the suite runs on a laptop. Zero
// values take defaults; Quick shrinks everything further for smoke runs.
type Scale struct {
	// BaseRows is the row count of the largest synthetic dataset
	// (loan_y2-like); others keep the paper's relative sizes. Default 20000.
	BaseRows int
	// Workers/Compers define the simulated cluster (paper: 15 × 10).
	Workers int
	Compers int
	// Quick restricts dataset lists and sweep points for fast smoke runs.
	Quick bool
}

// DefaultScale returns the standard laptop-scale configuration.
func DefaultScale() Scale {
	return Scale{BaseRows: 20000, Workers: 4, Compers: 4}
}

func (s Scale) withDefaults() Scale {
	if s.BaseRows <= 0 {
		s.BaseRows = 20000
	}
	if s.Workers <= 0 {
		s.Workers = 4
	}
	if s.Compers <= 0 {
		s.Compers = 4
	}
	return s
}

// policyFor scales the paper's τ_D / τ_dfs defaults down with the dataset
// so both task kinds occur at laptop row counts (the paper's thresholds
// assume millions of rows).
func policyFor(rows int) task.Policy {
	p := task.Policy{TauD: rows / 10, TauDFS: rows / 2, NPool: 200}
	if p.TauD < 64 {
		p.TauD = 64
	}
	if p.TauDFS <= p.TauD {
		p.TauDFS = 2 * p.TauD
	}
	return p
}

// datasets returns the synthetic Table-I datasets at this scale; Quick mode
// keeps three representative ones (regression + numeric + categorical).
func (s Scale) datasets() []synth.PaperSpec {
	all := synth.PaperSpecs(s.BaseRows)
	if !s.Quick {
		return all
	}
	var out []synth.PaperSpec
	for _, ps := range all {
		switch ps.Spec.Name {
		case "allstate", "higgs_boson", "poker":
			out = append(out, ps)
		}
	}
	return out
}

// genCache avoids regenerating identical datasets across experiments in
// one process.
var genCache = map[string][2]*dataset.Table{}

func generate(ps synth.PaperSpec) (train, test *dataset.Table) {
	key := fmt.Sprintf("%s/%d/%d", ps.Spec.Name, ps.Spec.Rows, ps.Spec.Seed)
	if got, ok := genCache[key]; ok {
		return got[0], got[1]
	}
	train, test = synth.Generate(ps.Spec, 0.2)
	genCache[key] = [2]*dataset.Table{train, test}
	return train, test
}

// mllibConfig is the simulated Spark MLlib deployment matched to the scale.
func (s Scale) mllibConfig(parallel bool) planet.Config {
	cfg := planet.Config{
		Partitions:    s.Workers * 2,
		MaxBins:       32,
		StageOverhead: 4 * time.Millisecond,
		ShuffleBps:    200e6,
	}
	if parallel {
		cfg.Parallelism = s.Workers * s.Compers
	} else {
		cfg.Parallelism = 1
	}
	return cfg
}

// treeServer spins an in-process cluster for a table at this scale; opts
// override the scale's settings. Experiment sweeps construct configurations
// from validated scales, so an error here is a bug.
func (s Scale) treeServer(tbl *dataset.Table, opts ...cluster.Option) *cluster.Cluster {
	opts = append([]cluster.Option{
		cluster.WithWorkers(s.Workers), cluster.WithCompers(s.Compers),
		cluster.WithPolicy(policyFor(tbl.NumRows())),
	}, opts...)
	c, err := cluster.NewInProcess(tbl, opts...)
	if err != nil {
		panic(err)
	}
	return c
}

// evaluate scores trees on the test table: accuracy (classification) or
// RMSE (regression, flagged by the returned bool).
func evaluate(trees []*core.Tree, test *dataset.Table) (score float64, isRMSE bool) {
	f := &forest.Forest{Trees: trees, Task: test.Task(), NumClasses: test.NumClasses()}
	if test.Task() == dataset.Regression {
		return f.RMSE(test), true
	}
	return f.Accuracy(test), false
}

func fmtScore(score float64, isRMSE bool) string {
	if isRMSE {
		return fmt.Sprintf("%.3f", score)
	}
	return fmt.Sprintf("%.2f%%", score*100)
}

func fmtSecs(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

// timeIt runs f and returns its wall-clock duration.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// peakHeapDuring samples heap usage while f runs and returns the peak
// observed HeapAlloc in MB — the Table-III memory column.
func peakHeapDuring(f func()) (time.Duration, float64) {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	peak := base.HeapAlloc
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > peak {
					peak = m.HeapAlloc
				}
			}
		}
	}()
	elapsed := timeIt(f)
	close(done)
	<-sampled
	return elapsed, float64(peak) / (1 << 20)
}

// rfSpecs builds the paper's random-forest configuration: n trees, each on
// a bootstrap bag with |C| = √|A| columns.
func rfSpecs(tbl *dataset.Table, trees int, seed int64) []cluster.TreeSpec {
	return forest.Specs(cluster.SchemaOf(tbl), forest.Config{
		Trees: trees, Params: core.Defaults(), ColFrac: 0, Bootstrap: true, Seed: seed,
	})
}

// singleTreeSpec is one decision tree over all columns, the Table-II(a)
// workload.
func singleTreeSpec() []cluster.TreeSpec {
	return []cluster.TreeSpec{{Params: core.Defaults()}}
}

// accuracyOf evaluates a tree list against a test table as a formatted cell.
func accuracyOf(trees []*core.Tree, test *dataset.Table) string {
	score, isRMSE := evaluate(trees, test)
	return fmtScore(score, isRMSE)
}

// All runs every table experiment at the given scale, in paper order.
func All(s Scale) []*Result {
	return []*Result{
		TableIIa(s), TableIIb(s), TableIIc(s),
		TableIIINPool(s), TableIIITauDFS(s), TableIIITauD(s),
		TableIV(s), TableIVc(s),
		TableV(s), TableVI(s),
		TableVII(s),
		TableVIIIDmax(s), TableVIIICols(s),
		Fairness(s),
	}
}

// Ablations runs the DESIGN.md ablation benches.
func Ablations(s Scale) []*Result {
	return []*Result{
		AblationMasterRelay(s), AblationSchedPolicy(s),
		AblationColumnGroups(s), AblationLoadBal(s),
	}
}

// ByID returns the experiment function registered under the id used by
// cmd/benchtab's -table flag.
func ByID(id string) (func(Scale) *Result, bool) {
	m := map[string]func(Scale) *Result{
		"2a": TableIIa, "2b": TableIIb, "2c": TableIIc,
		"3npool": TableIIINPool, "3tdfs": TableIIITauDFS, "3td": TableIIITauD,
		"4": TableIV, "4c": TableIVc,
		"5": TableV, "6": TableVI, "7": TableVII,
		"8dmax": TableVIIIDmax, "8cols": TableVIIICols,
		"fair":         Fairness,
		"ab-relay":     AblationMasterRelay,
		"ab-sched":     AblationSchedPolicy,
		"ab-colgroups": AblationColumnGroups,
		"ab-loadbal":   AblationLoadBal,
		"ext-gbt":      ExtensionGBT,
	}
	f, ok := m[id]
	return f, ok
}

// IDs lists the registered experiment ids in canonical order.
func IDs() []string {
	return []string{"2a", "2b", "2c", "3npool", "3tdfs", "3td", "4", "4c",
		"5", "6", "7", "8dmax", "8cols", "fair",
		"ab-relay", "ab-sched", "ab-colgroups", "ab-loadbal", "ext-gbt"}
}

var _ = metrics.ArgMax // referenced by sibling files
