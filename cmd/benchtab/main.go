// Command benchtab regenerates the paper's evaluation tables (Tables
// II–VIII) and the DESIGN.md ablation benches on laptop-scale synthetic
// workloads, and runs the repo's A/B suites.
//
// Usage:
//
//	benchtab                      # run every table at the default scale
//	benchtab -table 2a            # run one experiment (see -list)
//	benchtab -quick               # shrunken smoke run
//	benchtab -rows 50000 -workers 8 -compers 4
//	benchtab -ablations           # run only the design ablations
//	benchtab -ab split,obs -json BENCH_ab.json   # A/B suites, machine-readable
//
// The A/B suites (split, obs, ckpt, hedge, hist, failover, serve) each
// warm every arm up once, then alternate the arms in one process for a fixed
// number of repetitions and record samples, median and interquartile range
// per arm and metric, plus the ratio of each interleaved pair. -json writes
// every record of the run under one host fingerprint.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/experiments"
	"treeserver/internal/impurity"
	"treeserver/internal/obs"
	"treeserver/internal/split"
	"treeserver/internal/synth"
	"treeserver/internal/task"
	"treeserver/internal/transport"
)

// reps returns how many interleaved repetitions each A/B case runs.
func reps(quick bool) int {
	if quick {
		return 3
	}
	return 7
}

// suites maps each -ab name to the function that runs it, in the order
// -list prints them.
var suites = []struct {
	name string
	run  func(r *runner, quick bool)
}{
	{"split", splitSuite},
	{"obs", obsSuite},
	{"ckpt", ckptSuite},
	{"hedge", hedgeSuite},
	{"hist", histSuite},
	{"failover", failoverSuite},
	{"serve", serveSuite},
}

// kernelRequest builds a dense two-class FindBest request over n rows, with
// the presorted fast path enabled.
func kernelRequest(n int) split.Request {
	rng := rand.New(rand.NewSource(1))
	num := make([]float64, n)
	ycls := make([]int32, n)
	for i := range num {
		num[i] = rng.NormFloat64()
		if num[i]+rng.NormFloat64()*0.3 > 0 {
			ycls[i] = 1
		}
	}
	rows := dataset.AllRows(n)
	return split.Request{Col: dataset.NewNumeric("x", num),
		Y:    dataset.NewCategorical("y", ycls, []string{"n", "p"}),
		Rows: rows, Measure: impurity.Gini, NumClasses: 2,
		RowSet: dataset.RowSetOf(rows, n), Scratch: split.GetScratch()}
}

// kernelArm times calls FindBest(req) calls per repetition.
func kernelArm(name string, req split.Request, calls int) arm {
	return arm{name, func() []float64 {
		ns, allocs := callLoop(calls, func() { split.FindBest(req) })
		return []float64{mean(ns), allocs}
	}}
}

var kernelMetrics = []metric{{"ns_per_op", "ns"}, {"allocs_per_op", "count"}}

// splitSuite A/Bs the exact numeric splitter's sort+sweep fallback against
// its presorted fast path on one dense node, mirroring the package
// benchmarks in internal/split.
func splitSuite(r *runner, quick bool) {
	rows, calls := 10000, 200
	if quick {
		rows, calls = 2000, 100
	}
	fast := kernelRequest(rows)
	defer split.PutScratch(fast.Scratch)
	fallback := fast
	fallback.RowSet = nil
	r.run("split", abCase{name: "FindBestNumeric", metrics: kernelMetrics, ratio: "speedup",
		arms: []arm{kernelArm("fallback", fallback, calls), kernelArm("presorted", fast, calls)}})
}

// trainCase is one training workload: every arm trains the same specs on
// the same table, on a fresh cluster built from the shared options plus the
// arm's own, so an A/B pair differs only in the feature under test.
type trainCase struct {
	tbl   *dataset.Table
	specs []cluster.TreeSpec
	opts  []cluster.Option
}

// forestCase is the bagged forest job of the obs, ckpt, failover and hedge
// suites: 6 numeric and 2 categorical columns, depth-8 trees, trained on 3
// workers × 2 compers.
func forestCase(quick bool, seed int64) trainCase {
	rows, trees := 12000, 8
	if quick {
		rows, trees = 4000, 4
	}
	tbl := synth.GenerateTrain(synth.Spec{
		Name: "abforest", Rows: rows, NumNumeric: 6, NumCategorical: 2,
		NumClasses: 2, ConceptDepth: 5, LabelNoise: 0.05, Seed: seed,
	})
	params := core.Defaults()
	params.MaxDepth = 8
	specs := make([]cluster.TreeSpec, trees)
	for i := range specs {
		specs[i] = cluster.TreeSpec{Params: params,
			Bag: cluster.BagSpec{NumRows: rows, Sample: rows, Seed: int64(i)}}
	}
	return trainCase{tbl: tbl, specs: specs, opts: []cluster.Option{
		cluster.WithWorkers(3), cluster.WithCompers(2),
		cluster.WithPolicy(task.Policy{TauD: rows / 10, TauDFS: rows / 2, NPool: 16})}}
}

// train runs the job once and returns the trees, Train's wall time and the
// bytes every machine sent.
func (j trainCase) train(extra ...cluster.Option) ([]*core.Tree, time.Duration, int64) {
	opts := append(append([]cluster.Option(nil), j.opts...), extra...)
	c, err := cluster.NewInProcess(j.tbl, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	trees, err := c.Train(j.specs)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)
	m := c.MetricsSince(start)
	return trees, wall, m.WorkerSentBytes + m.MasterSentBytes
}

// wallMs is the run of a training arm: Train's wall time in ms.
func (j trainCase) wallMs(extra ...cluster.Option) []float64 {
	_, wall, _ := j.train(extra...)
	return []float64{float64(wall) / 1e6}
}

// counters trains once more, untimed, with a fresh registry attached, and
// returns what it counted. Count records come from here, so no timed arm
// carries telemetry its partner lacks.
func (j trainCase) counters(extra ...cluster.Option) obs.Snapshot {
	reg := obs.NewRegistry()
	j.train(append(extra, cluster.WithObserver(reg))...)
	return reg.Snapshot()
}

var wallMetric = []metric{{"wall_ms", "ms"}}

// obsSuite A/Bs the two hot paths the telemetry registry instruments: the
// dense FindBest kernel (nil vs live SplitCounters) and a forest job (nil
// vs live Observer).
func obsSuite(r *runner, quick bool) {
	const calls = 40
	kernelRows := 100000
	if quick {
		kernelRows = 20000
	}
	req := kernelRequest(kernelRows)
	defer split.PutScratch(req.Scratch)
	live := req
	// The live counters come from a real registry so the bench exercises
	// the same pointer chain the worker does.
	live.Counters = obs.NewRegistry().Split()
	r.run("obs", abCase{name: "FindBestNumeric", metrics: kernelMetrics, ratio: "overhead",
		arms: []arm{kernelArm("off", req, calls), kernelArm("on", live, calls)}})

	j := forestCase(quick, 51)
	r.run("obs", abCase{name: "cluster.Train/forest", metrics: wallMetric, ratio: "overhead", arms: []arm{
		{"off", func() []float64 { return j.wallMs() }},
		{"on", func() []float64 { return j.wallMs(cluster.WithObserver(obs.NewRegistry())) }},
	}})
}

// ckptSuite measures what durable checkpointing costs a forest job: one
// fsynced snapshot at job start and end plus an fsynced append per
// completed tree. Each checkpointed run writes into a fresh directory.
func ckptSuite(r *runner, quick bool) {
	j := forestCase(quick, 52)
	withDir := func(f func(dir string)) {
		dir, err := os.MkdirTemp("", "benchtab-ckpt-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		f(dir)
	}
	const c = "cluster.Train/forest"
	r.run("ckpt", abCase{name: c, metrics: wallMetric, ratio: "overhead", arms: []arm{
		{"off", func() []float64 { return j.wallMs() }},
		{"on", func() (v []float64) {
			withDir(func(dir string) { v = j.wallMs(cluster.WithCheckpoint(dir, 0)) })
			return v
		}},
	}})
	withDir(func(dir string) {
		m := j.counters(cluster.WithCheckpoint(dir, 0)).Master
		r.count("ckpt", c, "on", "snapshots", float64(m.CheckpointSnapshots))
		r.count("ckpt", c, "on", "records", float64(m.CheckpointRecords))
		r.count("ckpt", c, "on", "checkpoint_bytes", float64(m.CheckpointBytes))
	})
}

// hedgeSuite trains the same forest over a chaos fabric where one worker
// turns ~50× slow shortly into the job and never recovers, with hedging off
// (per-attempt deadlines are the only countermeasure) and on. Every run
// gets a fresh fabric with the same chaos seed and plan, so both arms see
// the identical fault schedule. It trains half the forest's trees: the
// degraded worker's delays, not the tree count, set the job's wall time.
func hedgeSuite(r *runner, quick bool) {
	j := forestCase(quick, 53)
	j.specs = j.specs[:len(j.specs)/2]
	rows := j.tbl.NumRows()
	j.opts = []cluster.Option{
		cluster.WithWorkers(5), cluster.WithCompers(2), cluster.WithReplicas(2),
		cluster.WithPolicy(task.Policy{TauD: rows / 10, TauDFS: rows / 2, NPool: 8}),
		// Generous deadline so per-attempt re-execution stays out of the
		// way and the A/B isolates hedging as the countermeasure.
		cluster.WithTaskRetry(2400*time.Millisecond, 8)}
	plan := transport.FaultPlan{
		Name:  "hedge-bench",
		Links: []transport.LinkFault{{From: "*", To: "*", Delay: 100 * time.Microsecond, Jitter: 100 * time.Microsecond}},
		Degrades: []transport.Degrade{{Name: cluster.WorkerName(1), Factor: 50,
			Delay: 2 * time.Millisecond, Jitter: 500 * time.Microsecond, AfterSends: 30}},
	}
	chaos := func() cluster.Option {
		return cluster.WithEndpointWrapper(transport.NewChaosNetwork(7, plan).Wrap)
	}
	const c = "cluster.Train/degraded-worker"
	r.run("hedge", abCase{name: c, metrics: wallMetric, ratio: "overhead", arms: []arm{
		{"off", func() []float64 { return j.wallMs(chaos()) }},
		{"on", func() []float64 { return j.wallMs(chaos(), cluster.WithHedgeFactor(8)) }},
	}})
	m := j.counters(chaos(), cluster.WithHedgeFactor(8)).Master
	r.count("hedge", c, "on", "hedges_launched", float64(m.HedgesLaunched))
	r.count("hedge", c, "on", "hedges_won", float64(m.HedgesWon))
	r.count("hedge", c, "on", "hedges_wasted", float64(m.HedgesWasted))
}

// histSuite trains the same wide/deep classification job under the exact
// protocol and under hist mode at 32, 64 and 256 bins, on identical
// clusters. Wall clock, link bytes and held-out accuracy show what
// sketch-binned histograms trade away. The job runs with TauD = 1 so every
// split goes through the column-task protocol, the regime hist mode exists
// for; subtree handoff (large TauD) short-circuits both modes into the
// identical serial trainer and measures nothing.
func histSuite(r *runner, quick bool) {
	trainRows, maxDepth := 32000, 12
	if quick {
		trainRows, maxDepth = 8000, 9
	}
	train, test := synth.Generate(synth.Spec{
		Name: "histbench", Rows: trainRows * 5 / 4, NumNumeric: 32, NumCategorical: 2,
		NumClasses: 2, ConceptDepth: 8, LabelNoise: 0.05, Seed: 54,
	}, 0.2)
	params := core.Defaults()
	params.MaxDepth = maxDepth
	n := train.NumRows()
	j := trainCase{tbl: train,
		specs: []cluster.TreeSpec{{Params: params}, {Params: core.Params{
			MaxDepth: params.MaxDepth, MinLeaf: params.MinLeaf, Measure: params.Measure, Seed: 1}}},
		opts: []cluster.Option{cluster.WithWorkers(4), cluster.WithCompers(2),
			cluster.WithPolicy(task.Policy{TauD: 1, TauDFS: n / 2, NPool: 8})}}
	accuracy := func(tr *core.Tree) float64 {
		hits := 0
		for row := 0; row < test.NumRows(); row++ {
			if tr.PredictClass(test, row, 0) == test.Y().Cats[row] {
				hits++
			}
		}
		return float64(hits) / float64(test.NumRows())
	}
	modeArm := func(name string, opts ...cluster.Option) arm {
		return arm{name, func() []float64 {
			trees, wall, linkBytes := j.train(opts...)
			return []float64{float64(wall) / 1e6, float64(linkBytes), accuracy(trees[0])}
		}}
	}
	// The bin sweep spans the tradeoff: at 32 bins the per-node work is far
	// below the exact sort-and-sweep; by 256 bins the deep frontier's nodes
	// hold fewer rows than the histogram holds bins, and clearing + scanning
	// those slots costs more than exact splitting.
	bins := []int{32, 64, 256}
	arms := []arm{modeArm("exact", cluster.WithSplitMode(cluster.SplitExact))}
	for _, b := range bins {
		arms = append(arms, modeArm(fmt.Sprintf("hist-%d", b),
			cluster.WithSplitMode(cluster.SplitHist), cluster.WithMaxBins(b)))
	}
	const c = "cluster.Train/wide-deep"
	r.run("hist", abCase{name: c, ratio: "speedup", arms: arms, metrics: []metric{
		{"wall_ms", "ms"}, {"link_bytes", "bytes"}, {"accuracy", "fraction"}}})
	for _, b := range bins {
		s := j.counters(cluster.WithSplitMode(cluster.SplitHist), cluster.WithMaxBins(b))
		name := fmt.Sprintf("hist-%d", b)
		r.count("hist", c, name, "bin_rounds", float64(s.Master.BinRounds))
		r.count("hist", c, name, "hist_subtractions", float64(s.Split.HistSubtractions))
	}
}

// failoverSuite measures what a hot standby costs a healthy forest job:
// every checkpoint record encoded and streamed, plus the lease renew/ack
// exchange, with no disk in either arm. The primary never fails, so the
// ratio is the steady-state cost the standby adds to the training path.
func failoverSuite(r *runner, quick bool) {
	j := forestCase(quick, 53)
	const c = "cluster.Train/forest"
	standby := cluster.WithLease(250 * time.Millisecond)
	r.run("failover", abCase{name: c, metrics: wallMetric, ratio: "overhead", arms: []arm{
		{"off", func() []float64 { return j.wallMs() }},
		{"standby", func() []float64 { return j.wallMs(standby) }},
	}})
	m := j.counters(standby).Master
	r.count("failover", c, "standby", "stream_records", float64(m.StreamRecords))
	r.count("failover", c, "standby", "stream_bytes", float64(m.StreamBytes))
	r.count("failover", c, "standby", "replica_applied", float64(m.StreamApplied))
	r.count("failover", c, "standby", "lease_renewals", float64(m.LeaseRenewals))
	r.count("failover", c, "standby", "lease_acks", float64(m.LeaseAcks))
}

func main() {
	var (
		table     = flag.String("table", "", "run a single experiment id (see -list)")
		list      = flag.Bool("list", false, "list experiment ids and A/B suites and exit")
		quick     = flag.Bool("quick", false, "shrunken smoke run")
		rows      = flag.Int("rows", 20000, "rows of the largest synthetic dataset")
		workers   = flag.Int("workers", 4, "simulated worker machines")
		compers   = flag.Int("compers", 4, "computing threads per worker")
		ablations = flag.Bool("ablations", false, "run only the design ablations")
		abList    = flag.String("ab", "", "comma-separated A/B suites to run (see -list)")
		jsonPath  = flag.String("json", "", "write every record of the -ab suites to this file")
	)
	flag.Parse()

	if *list {
		fmt.Println("experiments:", strings.Join(experiments.IDs(), " "))
		names := make([]string, len(suites))
		for i, s := range suites {
			names[i] = s.name
		}
		fmt.Println("ab suites:", strings.Join(names, " "))
		return
	}
	if *jsonPath != "" && *abList == "" {
		fmt.Fprintln(os.Stderr, "-json writes A/B records; name the suites with -ab")
		os.Exit(2)
	}

	if *abList != "" {
		var selected []func(*runner, bool)
		for _, name := range strings.Split(*abList, ",") {
			i := 0
			for i < len(suites) && suites[i].name != name {
				i++
			}
			if i == len(suites) {
				fmt.Fprintf(os.Stderr, "unknown A/B suite %q; try -list\n", name)
				os.Exit(2)
			}
			selected = append(selected, suites[i].run)
		}
		r := &runner{reps: reps(*quick), out: os.Stdout}
		for _, run := range selected {
			run(r, *quick)
		}
		if *jsonPath != "" {
			if err := writeBench(*jsonPath, *quick, r.records); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		if *table == "" && !*ablations {
			return
		}
	}

	scale := experiments.Scale{BaseRows: *rows, Workers: *workers, Compers: *compers, Quick: *quick}
	start := time.Now()
	run := func(id string) {
		f, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", id)
			os.Exit(2)
		}
		t0 := time.Now()
		r := f(scale)
		r.Fprint(os.Stdout)
		fmt.Printf("[%s took %s]\n\n", r.ID, time.Since(t0).Round(time.Millisecond))
	}
	switch {
	case *table != "":
		run(*table)
	case *ablations:
		for _, id := range experiments.IDs() {
			if strings.HasPrefix(id, "ab-") {
				run(id)
			}
		}
	default:
		for _, id := range experiments.IDs() {
			run(id)
		}
	}
	fmt.Printf("total: %s\n", time.Since(start).Round(time.Millisecond))
}
