// Command benchtab regenerates the paper's evaluation tables (Tables
// II–VIII) and the DESIGN.md ablation benches on laptop-scale synthetic
// workloads.
//
// Usage:
//
//	benchtab                      # run every table at the default scale
//	benchtab -table 2a            # run one experiment (see -list)
//	benchtab -quick               # shrunken smoke run
//	benchtab -rows 50000 -workers 8 -compers 4
//	benchtab -ablations           # run only the design ablations
//	benchtab -json BENCH_splits.json   # also write machine-readable results
//	benchtab -obs-json BENCH_obs.json  # telemetry on/off overhead A/B
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
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

// splitBenchResult is one microbenchmark row of the split-kernel suite.
type splitBenchResult struct {
	Name        string  `json:"name"`
	Rows        int     `json:"rows"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchOutput is the schema of the -json file: the experiment tables that
// ran plus the FindBest kernel microbenchmarks, for CI trend tracking.
type benchOutput struct {
	GeneratedAt string                `json:"generated_at"`
	GoVersion   string                `json:"go_version"`
	Scale       experiments.Scale     `json:"scale"`
	Experiments []*experiments.Result `json:"experiments"`
	SplitBench  []splitBenchResult    `json:"split_bench"`
}

// runSplitBench measures the exact numeric splitter's presorted fast path
// and sort+sweep fallback on one dense node, mirroring the package
// benchmarks in internal/split.
func runSplitBench(n int) []splitBenchResult {
	rng := rand.New(rand.NewSource(1))
	num := make([]float64, n)
	ycls := make([]int32, n)
	for i := range num {
		num[i] = rng.NormFloat64()
		if num[i]+rng.NormFloat64()*0.3 > 0 {
			ycls[i] = 1
		}
	}
	col := dataset.NewNumeric("x", num)
	y := dataset.NewCategorical("y", ycls, []string{"n", "p"})
	rows := dataset.AllRows(n)
	scratch := split.GetScratch()
	defer split.PutScratch(scratch)

	fast := split.Request{Col: col, Y: y, Rows: rows, Measure: impurity.Gini,
		NumClasses: 2, RowSet: dataset.RowSetOf(rows, n), Scratch: scratch}
	fallback := fast
	fallback.RowSet = nil

	out := make([]splitBenchResult, 0, 2)
	for _, c := range []struct {
		name string
		req  split.Request
	}{{"FindBestNumeric/presorted", fast}, {"FindBestNumeric/fallback", fallback}} {
		req := c.req
		split.FindBest(req) // warm up: sort index + scratch growth
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				split.FindBest(req)
			}
		})
		out = append(out, splitBenchResult{
			Name:        c.name,
			Rows:        n,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	return out
}

// obsOverheadResult is one telemetry A/B measurement: the same workload with
// the registry absent (the production default) and attached.
type obsOverheadResult struct {
	Name        string  `json:"name"`
	BaselineNs  float64 `json:"baseline_ns_per_op"`
	TelemetryNs float64 `json:"telemetry_ns_per_op"`
	Ratio       float64 `json:"ratio"` // telemetry / baseline; ~1.0 means within noise
}

// obsBenchOutput is the schema of the -obs-json file.
type obsBenchOutput struct {
	GeneratedAt string              `json:"generated_at"`
	GoVersion   string              `json:"go_version"`
	Quick       bool                `json:"quick"`
	Results     []obsOverheadResult `json:"results"`
}

// runObsOverhead A/Bs the two hot paths the registry instruments: the dense
// FindBest kernel (nil vs live SplitCounters — the ISSUE's <=2% budget) and
// a short distributed forest job (nil vs live Observer).
func runObsOverhead(quick bool) []obsOverheadResult {
	kernelRows, trainRows, trees := 100000, 12000, 8
	if quick {
		kernelRows, trainRows, trees = 20000, 4000, 4
	}
	var out []obsOverheadResult

	// Kernel A/B. The live counters come from a real registry so the bench
	// exercises the same pointer chain the worker does.
	rng := rand.New(rand.NewSource(1))
	num := make([]float64, kernelRows)
	ycls := make([]int32, kernelRows)
	for i := range num {
		num[i] = rng.NormFloat64()
		if num[i]+rng.NormFloat64()*0.3 > 0 {
			ycls[i] = 1
		}
	}
	col := dataset.NewNumeric("x", num)
	y := dataset.NewCategorical("y", ycls, []string{"n", "p"})
	rows := dataset.AllRows(kernelRows)
	scratch := split.GetScratch()
	defer split.PutScratch(scratch)
	req := split.Request{Col: col, Y: y, Rows: rows, Measure: impurity.Gini,
		NumClasses: 2, RowSet: dataset.RowSetOf(rows, kernelRows), Scratch: scratch}
	benchKernel := func(counters *obs.SplitCounters) float64 {
		r := req
		r.Counters = counters
		split.FindBest(r) // warm up
		b := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				split.FindBest(r)
			}
		})
		return float64(b.T.Nanoseconds()) / float64(b.N)
	}
	base := benchKernel(nil)
	live := benchKernel(obs.NewRegistry().Split())
	out = append(out, obsOverheadResult{
		Name: "FindBestNumeric/presorted", BaselineNs: base, TelemetryNs: live, Ratio: live / base,
	})

	// Forest-job A/B: same specs, fresh cluster per run so transport and
	// scheduling state cannot leak between arms.
	tbl := synth.GenerateTrain(synth.Spec{
		Name: "obsbench", Rows: trainRows, NumNumeric: 6, NumCategorical: 2,
		NumClasses: 2, ConceptDepth: 5, LabelNoise: 0.05, Seed: 51,
	})
	params := core.Defaults()
	params.MaxDepth = 8
	specs := make([]cluster.TreeSpec, trees)
	for i := range specs {
		specs[i] = cluster.TreeSpec{Params: params}
	}
	trainOnce := func(reg *obs.Registry) float64 {
		c, err := cluster.NewInProcess(tbl,
			cluster.WithWorkers(3), cluster.WithCompers(2),
			cluster.WithPolicy(task.Policy{TauD: trainRows / 10, TauDFS: trainRows / 2, NPool: 16}),
			cluster.WithObserver(reg),
		)
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		start := time.Now()
		if _, err := c.Train(specs); err != nil {
			log.Fatal(err)
		}
		return float64(time.Since(start).Nanoseconds())
	}
	trainOnce(nil) // warm up: page in the table, JIT the scratch pools
	baseTrain := trainOnce(nil)
	liveTrain := trainOnce(obs.NewRegistry())
	out = append(out, obsOverheadResult{
		Name: "cluster.Train/forest", BaselineNs: baseTrain, TelemetryNs: liveTrain, Ratio: liveTrain / baseTrain,
	})
	return out
}

func writeObsBench(path string, quick bool) {
	results := runObsOverhead(quick)
	for _, r := range results {
		fmt.Printf("%-28s baseline %.0fns  telemetry %.0fns  ratio %.3f\n",
			r.Name, r.BaselineNs, r.TelemetryNs, r.Ratio)
	}
	data, err := json.MarshalIndent(obsBenchOutput{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		Quick:       quick,
		Results:     results,
	}, "", "  ")
	if err != nil {
		log.Fatalf("marshal obs bench json: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatalf("write %s: %v", path, err)
	}
	fmt.Printf("wrote %s\n", path)
}

// ckptOverheadResult is the checkpointing A/B: the same forest job with
// durable master checkpointing off (the default) and on.
type ckptOverheadResult struct {
	Name            string  `json:"name"`
	BaselineNs      float64 `json:"baseline_ns_per_op"`
	CheckpointNs    float64 `json:"checkpoint_ns_per_op"`
	Ratio           float64 `json:"ratio"` // checkpoint / baseline
	Snapshots       int64   `json:"snapshots"`
	Records         int64   `json:"records"`
	CheckpointBytes int64   `json:"checkpoint_bytes"`
}

// ckptBenchOutput is the schema of the -ckpt-json file.
type ckptBenchOutput struct {
	GeneratedAt string               `json:"generated_at"`
	GoVersion   string               `json:"go_version"`
	Quick       bool                 `json:"quick"`
	Results     []ckptOverheadResult `json:"results"`
}

// runCkptOverhead measures what durable checkpointing costs a forest job:
// one fsynced snapshot at job start and end plus an fsynced append per
// completed tree. The checkpointed arm reports its write telemetry so the
// JSON records how much durability work the ratio paid for.
func runCkptOverhead(quick bool) []ckptOverheadResult {
	trainRows, trees := 12000, 8
	if quick {
		trainRows, trees = 4000, 4
	}
	tbl := synth.GenerateTrain(synth.Spec{
		Name: "ckptbench", Rows: trainRows, NumNumeric: 6, NumCategorical: 2,
		NumClasses: 2, ConceptDepth: 5, LabelNoise: 0.05, Seed: 52,
	})
	params := core.Defaults()
	params.MaxDepth = 8
	specs := make([]cluster.TreeSpec, trees)
	for i := range specs {
		specs[i] = cluster.TreeSpec{Params: params,
			Bag: cluster.BagSpec{NumRows: trainRows, Sample: trainRows, Seed: int64(i)}}
	}
	trainOnce := func(dir string, reg *obs.Registry) float64 {
		opts := []cluster.Option{
			cluster.WithWorkers(3), cluster.WithCompers(2),
			cluster.WithPolicy(task.Policy{TauD: trainRows / 10, TauDFS: trainRows / 2, NPool: 16}),
			cluster.WithObserver(reg),
		}
		if dir != "" {
			opts = append(opts, cluster.WithCheckpoint(dir, 0))
		}
		c, err := cluster.NewInProcess(tbl, opts...)
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		start := time.Now()
		if _, err := c.Train(specs); err != nil {
			log.Fatal(err)
		}
		return float64(time.Since(start).Nanoseconds())
	}
	trainOnce("", nil) // warm up
	base := trainOnce("", nil)
	dir, err := os.MkdirTemp("", "benchtab-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	ck := trainOnce(dir, reg)
	m := reg.Snapshot().Master
	return []ckptOverheadResult{{
		Name: "cluster.Train/forest", BaselineNs: base, CheckpointNs: ck, Ratio: ck / base,
		Snapshots: m.CheckpointSnapshots, Records: m.CheckpointRecords, CheckpointBytes: m.CheckpointBytes,
	}}
}

func writeCkptBench(path string, quick bool) {
	results := runCkptOverhead(quick)
	for _, r := range results {
		fmt.Printf("%-24s baseline %.0fns  checkpointed %.0fns  ratio %.3f  (%d snapshots, %d records, %d bytes)\n",
			r.Name, r.BaselineNs, r.CheckpointNs, r.Ratio, r.Snapshots, r.Records, r.CheckpointBytes)
	}
	data, err := json.MarshalIndent(ckptBenchOutput{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		Quick:       quick,
		Results:     results,
	}, "", "  ")
	if err != nil {
		log.Fatalf("marshal ckpt bench json: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatalf("write %s: %v", path, err)
	}
	fmt.Printf("wrote %s\n", path)
}

// hedgeOverheadResult is the gray-failure A/B: the same forest job through a
// chaos fabric with one degraded (but alive) worker, hedging off vs on.
type hedgeOverheadResult struct {
	Name           string  `json:"name"`
	NoHedgeNs      float64 `json:"no_hedge_ns_per_op"`
	HedgedNs       float64 `json:"hedged_ns_per_op"`
	Ratio          float64 `json:"ratio"` // hedged / no-hedge; < 1.0 means hedging paid off
	HedgesLaunched int64   `json:"hedges_launched"`
	HedgesWon      int64   `json:"hedges_won"`
	HedgesWasted   int64   `json:"hedges_wasted"`
}

// hedgeBenchOutput is the schema of the -hedge-json file.
type hedgeBenchOutput struct {
	GeneratedAt string                `json:"generated_at"`
	GoVersion   string                `json:"go_version"`
	Quick       bool                  `json:"quick"`
	Results     []hedgeOverheadResult `json:"results"`
}

// runHedgeOverhead trains the same forest twice over a chaos fabric where one
// worker turns ~50× slow shortly into the job and never recovers: once with
// hedging off (per-attempt deadlines are the only countermeasure) and once
// with hedging on. Both arms see the identical fault schedule (same chaos
// seed and plan), so the ratio isolates what hedged execution buys.
func runHedgeOverhead(quick bool) []hedgeOverheadResult {
	trainRows, trees := 12000, 6
	if quick {
		trainRows, trees = 4000, 4
	}
	tbl := synth.GenerateTrain(synth.Spec{
		Name: "hedgebench", Rows: trainRows, NumNumeric: 6, NumCategorical: 2,
		NumClasses: 2, ConceptDepth: 5, LabelNoise: 0.05, Seed: 53,
	})
	params := core.Defaults()
	params.MaxDepth = 8
	specs := make([]cluster.TreeSpec, trees)
	for i := range specs {
		specs[i] = cluster.TreeSpec{Params: params,
			Bag: cluster.BagSpec{NumRows: trainRows, Sample: trainRows, Seed: int64(i)}}
	}
	plan := transport.FaultPlan{
		Name:  "hedge-bench",
		Links: []transport.LinkFault{{From: "*", To: "*", Delay: 100 * time.Microsecond, Jitter: 100 * time.Microsecond}},
		Degrades: []transport.Degrade{{Name: cluster.WorkerName(1), Factor: 50,
			Delay: 2 * time.Millisecond, Jitter: 500 * time.Microsecond, AfterSends: 30}},
	}
	trainOnce := func(hedge float64, reg *obs.Registry) float64 {
		chaos := transport.NewChaosNetwork(7, plan)
		c, err := cluster.NewInProcess(tbl,
			cluster.WithWorkers(5), cluster.WithCompers(2), cluster.WithReplicas(2),
			cluster.WithPolicy(task.Policy{TauD: trainRows / 10, TauDFS: trainRows / 2, NPool: 8}),
			// Generous deadline so per-attempt re-execution stays out of the
			// way and the A/B isolates hedging as the countermeasure.
			cluster.WithTaskRetry(2400*time.Millisecond, 8),
			cluster.WithHedgeFactor(hedge),
			cluster.WithEndpointWrapper(chaos.Wrap),
			cluster.WithObserver(reg))
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		start := time.Now()
		if _, err := c.Train(specs); err != nil {
			log.Fatal(err)
		}
		return float64(time.Since(start).Nanoseconds())
	}
	trainOnce(0, nil) // warm up: page in the table, grow the scratch pools
	noHedge := trainOnce(0, obs.NewRegistry())
	reg := obs.NewRegistry()
	hedged := trainOnce(8, reg)
	m := reg.Snapshot().Master
	return []hedgeOverheadResult{{
		Name: "cluster.Train/degraded-worker", NoHedgeNs: noHedge, HedgedNs: hedged, Ratio: hedged / noHedge,
		HedgesLaunched: m.HedgesLaunched, HedgesWon: m.HedgesWon, HedgesWasted: m.HedgesWasted,
	}}
}

func writeHedgeBench(path string, quick bool) {
	results := runHedgeOverhead(quick)
	for _, r := range results {
		fmt.Printf("%-30s no-hedge %.0fns  hedged %.0fns  ratio %.3f  (%d launched, %d won, %d wasted)\n",
			r.Name, r.NoHedgeNs, r.HedgedNs, r.Ratio, r.HedgesLaunched, r.HedgesWon, r.HedgesWasted)
	}
	data, err := json.MarshalIndent(hedgeBenchOutput{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		Quick:       quick,
		Results:     results,
	}, "", "  ")
	if err != nil {
		log.Fatalf("marshal hedge bench json: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatalf("write %s: %v", path, err)
	}
	fmt.Printf("wrote %s\n", path)
}

// histABResult is one row of the exact-vs-hist A/B: the same wide/deep
// training job under both split modes, at one MaxBins setting.
type histABResult struct {
	Name             string  `json:"name"`
	MaxBins          int     `json:"max_bins"`
	ExactNs          float64 `json:"exact_ns"`
	HistNs           float64 `json:"hist_ns"`
	Speedup          float64 `json:"speedup"` // exact / hist wall clock; > 1 means hist is faster
	ExactLinkBytes   int64   `json:"exact_link_bytes"`
	HistLinkBytes    int64   `json:"hist_link_bytes"`
	ByteReduction    float64 `json:"byte_reduction"` // exact / hist link bytes; > 1 means hist ships less
	ExactAccuracy    float64 `json:"exact_accuracy"`
	HistAccuracy     float64 `json:"hist_accuracy"`
	AccuracyDelta    float64 `json:"accuracy_delta"` // exact - hist on held-out rows
	BinRounds        int64   `json:"bin_rounds"`
	HistSubtractions int64   `json:"hist_subtractions"`
}

// histBenchOutput is the schema of the -hist-json file.
type histBenchOutput struct {
	GeneratedAt string         `json:"generated_at"`
	GoVersion   string         `json:"go_version"`
	Quick       bool           `json:"quick"`
	Results     []histABResult `json:"results"`
}

// runHistAB trains the same wide/deep classification job once under the exact
// protocol and once per MaxBins setting under hist mode, on identical
// clusters. Wall clock, total link bytes (worker + master outbound) and
// held-out accuracy quantify what sketch-binned histograms trade away; the
// obs counters show how the hist arm got there. The job runs with TauD = 1 so
// every split goes through the column-task protocol — the regime the hist
// mode exists for; subtree handoff (large TauD) short-circuits both arms into
// the identical serial trainer and measures nothing.
func runHistAB(quick bool) []histABResult {
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
	specs := []cluster.TreeSpec{{Params: params}, {Params: core.Params{
		MaxDepth: params.MaxDepth, MinLeaf: params.MinLeaf, Measure: params.Measure, Seed: 1}}}

	accuracy := func(tr *core.Tree) float64 {
		hits := 0
		for r := 0; r < test.NumRows(); r++ {
			if tr.PredictClass(test, r, 0) == test.Y().Cats[r] {
				hits++
			}
		}
		return float64(hits) / float64(test.NumRows())
	}
	n := train.NumRows()
	trainOnce := func(mode cluster.SplitMode, maxBins int, reg *obs.Registry) (float64, int64, float64) {
		opts := []cluster.Option{
			cluster.WithWorkers(4), cluster.WithCompers(2),
			cluster.WithPolicy(task.Policy{TauD: 1, TauDFS: n / 2, NPool: 8}),
			cluster.WithObserver(reg), cluster.WithSplitMode(mode),
		}
		if maxBins > 0 {
			opts = append(opts, cluster.WithMaxBins(maxBins))
		}
		c, err := cluster.NewInProcess(train, opts...)
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		start := time.Now()
		trained, err := c.Train(specs)
		if err != nil {
			log.Fatal(err)
		}
		m := c.MetricsSince(start)
		return float64(time.Since(start).Nanoseconds()), m.WorkerSentBytes + m.MasterSentBytes, accuracy(trained[0])
	}

	trainOnce(cluster.SplitExact, 0, nil) // warm up: page in the table, grow the pools
	// Both arms carry a live registry so per-message telemetry sizing costs
	// them equally.
	exactNs, exactBytes, exactAcc := trainOnce(cluster.SplitExact, 0, obs.NewRegistry())

	// The bin sweep spans the tradeoff: at 32 bins the per-node work is far
	// below the exact sort-and-sweep; by 256 bins the deep frontier's nodes
	// hold fewer rows than the histogram holds bins, and clearing + scanning
	// those slots costs more than exact splitting — the regime where exact
	// still wins.
	var out []histABResult
	for _, maxBins := range []int{32, 64, 256} {
		reg := obs.NewRegistry()
		histNs, histBytes, histAcc := trainOnce(cluster.SplitHist, maxBins, reg)
		m := reg.Snapshot()
		out = append(out, histABResult{
			Name: "cluster.Train/wide-deep", MaxBins: maxBins,
			ExactNs: exactNs, HistNs: histNs, Speedup: exactNs / histNs,
			ExactLinkBytes: exactBytes, HistLinkBytes: histBytes,
			ByteReduction: float64(exactBytes) / float64(histBytes),
			ExactAccuracy: exactAcc, HistAccuracy: histAcc, AccuracyDelta: exactAcc - histAcc,
			BinRounds: m.Master.BinRounds, HistSubtractions: m.Split.HistSubtractions,
		})
	}
	return out
}

func writeHistBench(path string, quick bool) {
	results := runHistAB(quick)
	for _, r := range results {
		fmt.Printf("%-24s max-bins %-4d exact %.0fms hist %.0fms speedup %.2fx  bytes %.2fx less  acc %.4f vs %.4f (delta %.4f)\n",
			r.Name, r.MaxBins, r.ExactNs/1e6, r.HistNs/1e6, r.Speedup, r.ByteReduction,
			r.ExactAccuracy, r.HistAccuracy, r.AccuracyDelta)
	}
	data, err := json.MarshalIndent(histBenchOutput{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		Quick:       quick,
		Results:     results,
	}, "", "  ")
	if err != nil {
		log.Fatalf("marshal hist bench json: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatalf("write %s: %v", path, err)
	}
	fmt.Printf("wrote %s\n", path)
}

// failoverOverheadResult is the hot-standby A/B: the same forest job with no
// standby (the default) and with a live standby replicating every streamed
// checkpoint record and acking lease renewals. The primary never fails, so
// the ratio is the pure steady-state cost the standby adds to the training
// critical path — the stream send is off-path (a buffered queue drained by
// its own goroutine), so the ratio should sit within run-to-run noise.
type failoverOverheadResult struct {
	Name           string  `json:"name"`
	BaselineNs     float64 `json:"baseline_ns_per_op"`
	StandbyNs      float64 `json:"standby_ns_per_op"`
	Ratio          float64 `json:"ratio"` // standby / baseline; ~1.0 means within noise
	StreamRecords  int64   `json:"stream_records"`
	StreamBytes    int64   `json:"stream_bytes"`
	ReplicaApplied int64   `json:"replica_applied"`
	LeaseRenewals  int64   `json:"lease_renewals"`
	LeaseAcks      int64   `json:"lease_acks"`
}

// failoverBenchOutput is the schema of the -failover-json file.
type failoverBenchOutput struct {
	GeneratedAt string                   `json:"generated_at"`
	GoVersion   string                   `json:"go_version"`
	Quick       bool                     `json:"quick"`
	Results     []failoverOverheadResult `json:"results"`
}

// runFailoverOverhead measures what a hot standby costs a healthy forest
// job: every checkpoint record encoded and streamed, plus the lease
// renew/ack exchange, with no disk in either arm.
func runFailoverOverhead(quick bool) []failoverOverheadResult {
	trainRows, trees := 12000, 8
	if quick {
		trainRows, trees = 4000, 4
	}
	tbl := synth.GenerateTrain(synth.Spec{
		Name: "fobench", Rows: trainRows, NumNumeric: 6, NumCategorical: 2,
		NumClasses: 2, ConceptDepth: 5, LabelNoise: 0.05, Seed: 53,
	})
	params := core.Defaults()
	params.MaxDepth = 8
	specs := make([]cluster.TreeSpec, trees)
	for i := range specs {
		specs[i] = cluster.TreeSpec{Params: params,
			Bag: cluster.BagSpec{NumRows: trainRows, Sample: trainRows, Seed: int64(i)}}
	}
	trainOnce := func(standby bool, reg *obs.Registry) float64 {
		opts := []cluster.Option{
			cluster.WithWorkers(3), cluster.WithCompers(2),
			cluster.WithPolicy(task.Policy{TauD: trainRows / 10, TauDFS: trainRows / 2, NPool: 16}),
			cluster.WithObserver(reg),
		}
		if standby {
			opts = append(opts, cluster.WithLease(250*time.Millisecond))
		}
		c, err := cluster.NewInProcess(tbl, opts...)
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		start := time.Now()
		if _, err := c.Train(specs); err != nil {
			log.Fatal(err)
		}
		return float64(time.Since(start).Nanoseconds())
	}
	trainOnce(false, nil) // warm up
	base := trainOnce(false, nil)
	reg := obs.NewRegistry()
	sb := trainOnce(true, reg)
	m := reg.Snapshot().Master
	return []failoverOverheadResult{{
		Name: "cluster.Train/forest", BaselineNs: base, StandbyNs: sb, Ratio: sb / base,
		StreamRecords: m.StreamRecords, StreamBytes: m.StreamBytes, ReplicaApplied: m.StreamApplied,
		LeaseRenewals: m.LeaseRenewals, LeaseAcks: m.LeaseAcks,
	}}
}

func writeFailoverBench(path string, quick bool) {
	results := runFailoverOverhead(quick)
	for _, r := range results {
		fmt.Printf("%-24s baseline %.0fns  with-standby %.0fns  ratio %.3f  (%d records / %d bytes streamed, %d applied, %d renewals / %d acks)\n",
			r.Name, r.BaselineNs, r.StandbyNs, r.Ratio, r.StreamRecords, r.StreamBytes, r.ReplicaApplied, r.LeaseRenewals, r.LeaseAcks)
	}
	data, err := json.MarshalIndent(failoverBenchOutput{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		Quick:       quick,
		Results:     results,
	}, "", "  ")
	if err != nil {
		log.Fatalf("marshal failover bench json: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatalf("write %s: %v", path, err)
	}
	fmt.Printf("wrote %s\n", path)
}

func main() {
	var (
		table     = flag.String("table", "", "run a single experiment id (see -list)")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		quick     = flag.Bool("quick", false, "shrunken smoke run")
		rows      = flag.Int("rows", 20000, "rows of the largest synthetic dataset")
		workers   = flag.Int("workers", 4, "simulated worker machines")
		compers   = flag.Int("compers", 4, "computing threads per worker")
		ablations = flag.Bool("ablations", false, "run only the design ablations")
		jsonPath  = flag.String("json", "", "write machine-readable results (tables + split kernel bench) to this file")
		obsJSON   = flag.String("obs-json", "", "run the telemetry on/off overhead bench and write it to this file")
		ckptJSON  = flag.String("ckpt-json", "", "run the checkpointing on/off overhead bench and write it to this file")
		hedgeJSON = flag.String("hedge-json", "", "run the hedging off/on A/B under one degraded worker and write it to this file")
		histJSON  = flag.String("hist-json", "", "run the exact-vs-hist split mode A/B and write it to this file")
		failJSON  = flag.String("failover-json", "", "run the hot-standby on/off overhead bench and write it to this file")
		serveJSON = flag.String("serve-json", "", "run the legacy-vs-compiled serving A/B and write it to this file")
	)
	flag.Parse()

	if *list {
		fmt.Println("experiments:", strings.Join(experiments.IDs(), " "))
		return
	}

	if *obsJSON != "" {
		writeObsBench(*obsJSON, *quick)
	}
	if *ckptJSON != "" {
		writeCkptBench(*ckptJSON, *quick)
	}
	if *hedgeJSON != "" {
		writeHedgeBench(*hedgeJSON, *quick)
	}
	if *histJSON != "" {
		writeHistBench(*histJSON, *quick)
	}
	if *failJSON != "" {
		writeFailoverBench(*failJSON, *quick)
	}
	if *serveJSON != "" {
		writeServeBench(*serveJSON, *quick)
	}
	if (*obsJSON != "" || *ckptJSON != "" || *hedgeJSON != "" || *histJSON != "" || *failJSON != "" || *serveJSON != "") && *table == "" && !*ablations && *jsonPath == "" {
		return
	}

	scale := experiments.Scale{BaseRows: *rows, Workers: *workers, Compers: *compers, Quick: *quick}

	var results []*experiments.Result
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
		results = append(results, r)
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

	if *jsonPath != "" {
		benchRows := 10000
		if *quick {
			benchRows = 2000
		}
		out := benchOutput{
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			GoVersion:   runtime.Version(),
			Scale:       scale,
			Experiments: results,
			SplitBench:  runSplitBench(benchRows),
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal bench json: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}
