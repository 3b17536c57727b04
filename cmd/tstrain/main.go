// Command tstrain trains a model directly from a CSV file on an in-process
// TreeServer cluster — the shortest path from data to a servable model.
//
//	tstrain -csv customers.csv -target Default -job rf -trees 50 \
//	        -out default.tsmodel -eval 0.2
//	tsserve -model default.tsmodel
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/forest"
	"treeserver/internal/model"
	"treeserver/internal/obs"
	"treeserver/internal/task"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tstrain: ")
	var (
		csvPath   = flag.String("csv", "", "input CSV file (with header)")
		target    = flag.String("target", "", "name of the Y column")
		job       = flag.String("job", "rf", "dt | rf | xt")
		trees     = flag.Int("trees", 20, "trees for rf/xt")
		dmax      = flag.Int("dmax", 10, "maximum tree depth")
		minLeaf   = flag.Int("tau-leaf", 1, "tau_leaf")
		colFrac   = flag.Float64("col-frac", 0, "|C|/|A| per tree (0 = sqrt|A|, -1 = all)")
		workers   = flag.Int("workers", 4, "in-process workers")
		compers   = flag.Int("compers", 4, "compers per worker")
		evalFrac  = flag.Float64("eval", 0, "hold out this fraction of rows for evaluation")
		out       = flag.String("out", "", "write the model here")
		modelName = flag.String("model-name", "", "registry name stored in the model file (default: the -job name)")
		seed      = flag.Int64("seed", 1, "randomness seed")
		forceCat  = flag.String("force-categorical", "", "comma-separated columns parsed as categorical")
		report    = flag.Bool("report", false, "print the end-of-train telemetry report")
		debugAddr = flag.String("debug", "", "serve /debug/obs, /debug/vars and /debug/pprof on this address")
		ckptDir   = flag.String("checkpoint-dir", "", "enable durable master checkpointing into this directory")
		ckptEvery = flag.Duration("checkpoint-every", 0, "periodic snapshot interval between tree boundaries (0 = tree boundaries only)")
		resume    = flag.Bool("resume", false, "recover the interrupted job from -checkpoint-dir (same CSV and flags as the original run)")
		hedge     = flag.Float64("hedge-factor", 0, "hedge a task attempt outliving this multiple of the fleet latency estimate (0 = off)")
		quarant   = flag.Float64("quarantine-threshold", 0, "quarantine workers whose median-normalised health score drops below this, in [0,1) (0 = off)")
		mode      = flag.String("mode", "exact", "split finding: exact | hist (sketch-binned histograms)")
		maxBins   = flag.Int("max-bins", 0, "hist mode: bins per numeric column (0 = cluster default)")
		standby   = flag.Bool("standby", false, "attach an in-process hot-standby master (diskless failover)")
		leaseTTL  = flag.Duration("lease-ttl", 0, "failover lease duration (0 = default; implies -standby)")
		joinN     = flag.Int("join", 0, "live-join this many extra workers through the membership handshake after the cluster starts")
		drainW    = flag.Int("drain", -1, "gracefully drain this worker index (cordon, hand off columns, retire) before training")
		fleetCap  = flag.Int("fleet-cap", 0, "reject live joins that would grow the fleet past this size (0 = unbounded)")
	)
	flag.Parse()
	if *csvPath == "" || *target == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *resume && *ckptDir == "" {
		log.Fatal("-resume requires -checkpoint-dir")
	}

	f, err := os.Open(*csvPath)
	if err != nil {
		log.Fatalf("opening CSV: %v", err)
	}
	opts := dataset.CSVOptions{Target: *target}
	if *forceCat != "" {
		opts.ForceCategorical = strings.Split(*forceCat, ",")
	}
	full, err := dataset.ReadCSV(f, opts)
	f.Close()
	if err != nil {
		log.Fatalf("parsing CSV: %v", err)
	}

	train, test := dataset.SplitStratified(full, *evalFrac, *seed)
	fmt.Printf("loaded %d rows x %d columns (%s)", full.NumRows(), full.NumCols(), full.Task())
	if test != nil {
		fmt.Printf("; holding out %d rows", test.NumRows())
	}
	fmt.Println()

	var reg *obs.Registry
	if *report || *debugAddr != "" {
		reg = obs.NewRegistry()
		reg.PublishExpvar()
		if *debugAddr != "" {
			dbg := &http.Server{
				Addr:              *debugAddr,
				Handler:           reg.Handler(),
				ReadHeaderTimeout: 5 * time.Second,
			}
			go func() {
				if err := dbg.ListenAndServe(); err != nil {
					log.Printf("debug listener: %v", err)
				}
			}()
		}
	}

	rows := train.NumRows()
	copts := []cluster.Option{
		cluster.WithWorkers(*workers), cluster.WithCompers(*compers),
		cluster.WithPolicy(task.Policy{TauD: max(rows/10, 64), TauDFS: max(rows/2, 128), NPool: 200}),
		cluster.WithObserver(reg),
	}
	if *ckptDir != "" {
		copts = append(copts, cluster.WithCheckpoint(*ckptDir, *ckptEvery))
	}
	if *hedge > 0 {
		copts = append(copts, cluster.WithHedgeFactor(*hedge))
	}
	if *quarant > 0 {
		copts = append(copts, cluster.WithQuarantine(*quarant, 0))
	}
	splitMode, err := cluster.ParseSplitMode(*mode)
	if err != nil {
		log.Fatal(err)
	}
	copts = append(copts, cluster.WithSplitMode(splitMode))
	if *standby {
		copts = append(copts, cluster.WithStandby())
	}
	if *leaseTTL > 0 {
		copts = append(copts, cluster.WithLease(*leaseTTL))
	}
	if *maxBins > 0 {
		copts = append(copts, cluster.WithMaxBins(*maxBins))
	}
	if *fleetCap > 0 {
		copts = append(copts, cluster.WithFleetCap(*fleetCap))
	}
	c, err := cluster.NewInProcess(train, copts...)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// Elastic-fleet transitions: joins and drains go through exactly the
	// membership protocol a mid-job transition uses.
	for i := 0; i < *joinN; i++ {
		w, err := c.Join()
		if err != nil {
			log.Fatalf("live join: %v", err)
		}
		fmt.Printf("worker %d joined the fleet live\n", w.ID())
	}
	if *drainW >= 0 {
		if err := c.Drain(*drainW); err != nil {
			log.Fatalf("draining worker %d: %v", *drainW, err)
		}
		fmt.Printf("worker %d drained gracefully\n", *drainW)
	}

	params := core.Params{MaxDepth: *dmax, MinLeaf: *minLeaf}
	var spec forest.ModelSpec
	switch *job {
	case "dt":
		spec = forest.ModelSpec{Name: "dt", Kind: forest.DecisionTree, Params: params, Seed: *seed}
	case "rf":
		spec = forest.ModelSpec{Name: "rf", Kind: forest.RandomForest, Params: params,
			Trees: *trees, ColFrac: *colFrac, Bootstrap: true, Seed: *seed}
	case "xt":
		spec = forest.ModelSpec{Name: "xt", Kind: forest.ExtraForest, Params: params,
			Trees: *trees, Bootstrap: true, Seed: *seed}
	default:
		log.Fatalf("unknown job %q", *job)
	}

	start := time.Now()
	var fst *forest.Forest
	if *resume {
		// The tree specs come from the checkpoint, so the CSV and flags must
		// match the interrupted run for the model to be meaningful.
		trees, err := c.Resume()
		if err != nil {
			log.Fatalf("resuming: %v", err)
		}
		fst = &forest.Forest{Trees: trees, Task: train.Task(), NumClasses: train.NumClasses()}
		fmt.Printf("resumed %s with %d tree(s) in %s\n",
			spec.Kind, len(fst.Trees), time.Since(start).Round(time.Millisecond))
	} else {
		trained, err := forest.TrainModels(c, cluster.SchemaOf(train), []forest.ModelSpec{spec})
		if err != nil {
			log.Fatalf("training: %v", err)
		}
		fst = trained[0].Forest
		fmt.Printf("trained %s with %d tree(s) in %s\n",
			trained[0].Spec.Kind, len(fst.Trees), time.Since(start).Round(time.Millisecond))
	}

	if test != nil {
		if train.Task() == dataset.Classification {
			fmt.Printf("held-out accuracy: %.2f%%\n", fst.Accuracy(test)*100)
		} else {
			fmt.Printf("held-out RMSE: %.4f\n", fst.RMSE(test))
		}
	}
	if *out != "" {
		name := *modelName
		if name == "" {
			name = *job
		}
		if err := model.SaveForestFile(*out, name, fst, model.SchemaOf(train)); err != nil {
			log.Fatalf("writing model: %v", err)
		}
		fmt.Printf("model written to %s (serve it with tsserve)\n", *out)
	}
	if *report && reg != nil {
		fmt.Print(reg.Snapshot().Report())
	}
}
