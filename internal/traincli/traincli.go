// Package traincli is the one configuration path from command-line flags to
// a TreeServer master, shared by the two training commands: tstrain (CSV in,
// in-process cluster) and treeserver (local, master and standby roles).
//
// Both commands declare the same 21 training flags (Job) through this
// package, with the two defaults that differ per command (-job and
// -compers). On top of those flags it owns the glue both commands need:
// building the MasterConfig and the in-process cluster, telemetry setup,
// live join and drain, turning the job into tree specs through
// forest.ModelSpec and forest.TrainModels, resume with the standby fallback,
// and writing the model file.
package traincli

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/forest"
	"treeserver/internal/model"
	"treeserver/internal/obs"
	"treeserver/internal/task"
)

// Job holds the training flags both commands declare.
type Job struct {
	Job       string
	Trees     int
	MaxDepth  int
	MinLeaf   int
	Compers   int
	Out       string
	ModelName string

	Report bool
	Debug  string

	CheckpointDir   string
	CheckpointEvery time.Duration
	Resume          bool

	HedgeFactor         float64
	QuarantineThreshold float64

	Mode    string
	MaxBins int

	Standby  bool
	LeaseTTL time.Duration

	Join     int
	Drain    int
	FleetCap int

	reg *obs.Registry // built by Telemetry
}

func registerJob(fs *flag.FlagSet, j *Job, job string, compers int) {
	fs.StringVar(&j.Job, "job", job, "dt (decision tree) | rf (random forest) | xt (extra-trees forest)")
	fs.IntVar(&j.Trees, "trees", 20, "trees for rf/xt jobs")
	fs.IntVar(&j.MaxDepth, "dmax", 10, "maximum tree depth")
	fs.IntVar(&j.MinLeaf, "tau-leaf", 1, "tau_leaf: minimum rows before a node becomes a leaf")
	fs.IntVar(&j.Compers, "compers", compers, "computing threads per worker")
	fs.StringVar(&j.Out, "out", "", "write the trained model to this file (tsserve-compatible)")
	fs.StringVar(&j.ModelName, "model-name", "", "registry name stored in the model file (default: the -job name)")
	fs.BoolVar(&j.Report, "report", false, "print the end-of-train telemetry report")
	fs.StringVar(&j.Debug, "debug", "", "serve /debug/obs, /debug/vars and /debug/pprof on this address")
	fs.StringVar(&j.CheckpointDir, "checkpoint-dir", "", "enable durable master checkpointing into this directory")
	fs.DurationVar(&j.CheckpointEvery, "checkpoint-every", 0, "periodic snapshot interval between tree boundaries (0 = tree boundaries only)")
	fs.BoolVar(&j.Resume, "resume", false, "recover the interrupted job from -checkpoint-dir (same data and flags as the original run)")
	fs.Float64Var(&j.HedgeFactor, "hedge-factor", 0, "hedge a task attempt outliving this multiple of the fleet latency estimate (0 = off)")
	fs.Float64Var(&j.QuarantineThreshold, "quarantine-threshold", 0, "quarantine workers whose median-normalised health score drops below this, in [0,1) (0 = off)")
	fs.StringVar(&j.Mode, "mode", "exact", "split finding: exact | hist (sketch-binned histograms)")
	fs.IntVar(&j.MaxBins, "max-bins", 0, "hist mode: bins per numeric column (0 = cluster default)")
	fs.BoolVar(&j.Standby, "standby", false, "attach an in-process hot-standby master (diskless failover)")
	fs.DurationVar(&j.LeaseTTL, "lease-ttl", 0, "failover lease duration (0 = default; implies -standby)")
	fs.IntVar(&j.Join, "join", 0, "live-join this many extra workers through the membership handshake after the cluster starts")
	fs.IntVar(&j.Drain, "drain", -1, "gracefully drain this worker index (cordon, hand off columns, retire) before training")
	fs.IntVar(&j.FleetCap, "fleet-cap", 0, "reject live joins that would grow the fleet past this size (0 = unbounded)")
}

// fleet is what each command decides its own way: how many workers, k, and
// the scheduling thresholds.
type fleet struct {
	workers  int
	replicas int // 0 = the in-process default, 2 clamped to workers
	policy   task.Policy
}

// masterConfig builds the master's configuration from the flags. A hot
// standby is configured when -standby or -lease-ttl (which implies it) is
// set.
func (j *Job) masterConfig(f fleet) (cluster.MasterConfig, error) {
	if j.Resume && j.CheckpointDir == "" {
		return cluster.MasterConfig{}, fmt.Errorf("-resume requires -checkpoint-dir")
	}
	mode, err := cluster.ParseSplitMode(j.Mode)
	if err != nil {
		return cluster.MasterConfig{}, err
	}
	cfg := cluster.MasterConfig{
		NumWorkers:          f.workers,
		Replicas:            f.replicas,
		Policy:              f.policy,
		CheckpointDir:       j.CheckpointDir,
		CheckpointEvery:     j.CheckpointEvery,
		HedgeFactor:         j.HedgeFactor,
		QuarantineThreshold: j.QuarantineThreshold,
		SplitMode:           mode,
		MaxBins:             j.MaxBins,
		FleetCap:            j.FleetCap,
		Obs:                 j.reg,
	}
	if j.Standby || j.LeaseTTL > 0 {
		cfg.StandbyName = cluster.StandbyName
		cfg.LeaseTTL = j.LeaseTTL
	}
	return cfg, nil
}

// model turns -job, -trees, -dmax and -tau-leaf into a model spec.
func (j *Job) model(seed int64, colFrac float64) (forest.ModelSpec, error) {
	spec := forest.ModelSpec{
		Name:   j.Job,
		Params: core.Params{MaxDepth: j.MaxDepth, MinLeaf: j.MinLeaf},
		Seed:   seed,
	}
	switch j.Job {
	case "dt":
		spec.Kind = forest.DecisionTree
	case "rf":
		spec.Kind, spec.Trees, spec.ColFrac, spec.Bootstrap = forest.RandomForest, j.Trees, colFrac, true
	case "xt":
		spec.Kind, spec.Trees, spec.Bootstrap = forest.ExtraForest, j.Trees, true
	default:
		return spec, fmt.Errorf("unknown job %q (want dt, rf or xt)", j.Job)
	}
	return spec, nil
}

// trainLocal trains the job on an in-process cluster over tbl: it starts the
// cluster, runs the -join and -drain transitions against it, trains (or
// resumes) and shuts the cluster down.
func (j *Job) trainLocal(tbl *dataset.Table, f fleet, spec forest.ModelSpec) (*forest.Forest, error) {
	mc, err := j.masterConfig(f)
	if err != nil {
		return nil, err
	}
	c, err := cluster.NewInProcess(tbl, cluster.WithConfig(cluster.Config{
		MasterConfig: mc,
		Compers:      j.Compers,
		Standby:      mc.StandbyName != "",
	}))
	if err != nil {
		return nil, err
	}
	defer c.Close()
	// Joins and drains go through exactly the membership protocol a mid-job
	// transition uses.
	for i := 0; i < j.Join; i++ {
		w, err := c.Join()
		if err != nil {
			return nil, fmt.Errorf("live join: %w", err)
		}
		fmt.Printf("worker %d joined the fleet live\n", w.ID())
	}
	if j.Drain >= 0 {
		if err := c.Drain(j.Drain); err != nil {
			return nil, fmt.Errorf("draining worker %d: %w", j.Drain, err)
		}
		fmt.Printf("worker %d drained gracefully\n", j.Drain)
	}
	return j.Run(c, cluster.SchemaOf(tbl), spec, c.Standby)
}

// Trainer is what a job runs on: an in-process cluster or a TCP master.
type Trainer interface {
	forest.Trainer
	Resume() ([]*core.Tree, error)
}

// Run trains spec on tr, or with -resume recovers the interrupted job from
// the checkpoint directory, then prints the telemetry report. If training
// fails and an in-process standby is attached, the standby's takeover may
// still finish the job from the streamed replica, so Run waits up to a
// minute for it.
func (j *Job) Run(tr Trainer, schema cluster.Schema, spec forest.ModelSpec, standby *cluster.Standby) (*forest.Forest, error) {
	start := time.Now()
	var trees []*core.Tree
	var err error
	if j.Resume {
		// The tree specs come from the checkpoint, so the data and flags
		// must match the interrupted run for the model to be meaningful.
		trees, err = tr.Resume()
	} else {
		var trained []*forest.TrainedModel
		if trained, err = forest.TrainModels(tr, schema, []forest.ModelSpec{spec}); err == nil {
			trees = trained[0].Forest.Trees
		}
	}
	if err != nil && standby != nil {
		select {
		case <-standby.Done():
			trees, err = standby.Result()
		case <-time.After(time.Minute):
		}
	}
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	fmt.Printf("trained %d tree(s) on %d rows in %s\n", len(trees), schema.NumRows, time.Since(start).Round(time.Millisecond))
	j.PrintReport()
	return &forest.Forest{Trees: trees, Task: schema.Task, NumClasses: schema.NumClasses}, nil
}

// WriteModel saves the forest to -out, named -model-name or else the job
// name. Without -out it does nothing.
func (j *Job) WriteModel(f *forest.Forest, tbl *dataset.Table) error {
	if j.Out == "" {
		return nil
	}
	name := j.ModelName
	if name == "" {
		name = j.Job
	}
	if err := model.SaveForestFile(j.Out, name, f, model.SchemaOf(tbl)); err != nil {
		return fmt.Errorf("writing model: %w", err)
	}
	fmt.Printf("model with %d tree(s) written to %s (serve it with tsserve)\n", len(f.Trees), j.Out)
	return nil
}

// Telemetry builds the optional live registry that every cluster and master
// built from these flags reports to: nil unless -report or -debug asks for
// it, so the default run stays on the telemetry-disabled fast path.
func (j *Job) Telemetry() *obs.Registry {
	if j.reg != nil || (!j.Report && j.Debug == "") {
		return j.reg
	}
	reg := obs.NewRegistry()
	reg.PublishExpvar()
	if j.Debug != "" {
		dbg := &http.Server{
			Addr:              j.Debug,
			Handler:           reg.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := dbg.ListenAndServe(); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}
	j.reg = reg
	return reg
}

// PrintReport prints the end-of-train telemetry report when -report is set.
func (j *Job) PrintReport() {
	if j.Report && j.reg != nil {
		fmt.Print(j.reg.Snapshot().Report())
	}
}

// Tstrain holds tstrain's flags: the shared training flags plus its CSV
// input, the in-process fleet size and the job's randomness.
type Tstrain struct {
	Job
	CSV              string
	Target           string
	ForceCategorical string
	Eval             float64
	Workers          int
	ColFrac          float64
	Seed             int64
}

// TstrainFlags declares tstrain's flags on fs.
func TstrainFlags(fs *flag.FlagSet) *Tstrain {
	t := &Tstrain{}
	fs.StringVar(&t.CSV, "csv", "", "input CSV file (with header)")
	fs.StringVar(&t.Target, "target", "", "name of the Y column")
	fs.StringVar(&t.ForceCategorical, "force-categorical", "", "comma-separated columns parsed as categorical")
	fs.Float64Var(&t.Eval, "eval", 0, "hold out this fraction of rows for evaluation")
	fs.IntVar(&t.Workers, "workers", 4, "in-process workers")
	fs.Float64Var(&t.ColFrac, "col-frac", 0, "|C|/|A| per tree (0 = sqrt|A|, -1 = all)")
	fs.Int64Var(&t.Seed, "seed", 1, "randomness seed")
	registerJob(fs, &t.Job, "rf", 4)
	return t
}

// Train trains the job on an in-process cluster of -workers workers. The
// scheduling thresholds scale with the table, since the paper's defaults
// assume millions of rows.
func (t *Tstrain) Train(tbl *dataset.Table) (*forest.Forest, error) {
	spec, err := t.model(t.Seed, t.ColFrac)
	if err != nil {
		return nil, err
	}
	rows := tbl.NumRows()
	return t.trainLocal(tbl, fleet{
		workers: t.Workers,
		policy:  task.Policy{TauD: max(rows/10, 64), TauDFS: max(rows/2, 128), NPool: 200},
	}, spec)
}

// Treeserver holds treeserver's flags: the shared training flags plus the
// process role, its TCP addresses, the DFS table and the fleet shape.
type Treeserver struct {
	Job
	Role           string
	Listen         string
	Master         string
	Workers        string
	ID             int
	Store          string
	Table          string
	TauD           int
	TauDFS         int
	NPool          int
	Replicas       int
	ClusterWorkers int
	StandbyAddr    string
	Advertise      string
	PromoteListen  string
}

// TreeserverFlags declares treeserver's flags on fs.
func TreeserverFlags(fs *flag.FlagSet) *Treeserver {
	s := &Treeserver{}
	fs.StringVar(&s.Role, "role", "local", "master | worker | standby | local")
	fs.StringVar(&s.Listen, "listen", "127.0.0.1:0", "listen address")
	fs.StringVar(&s.Master, "master", "", "master address (worker and standby roles)")
	fs.StringVar(&s.Workers, "workers", "", "comma-separated worker addresses, in id order")
	fs.IntVar(&s.ID, "id", 0, "worker id (worker role)")
	fs.StringVar(&s.Store, "store", "", "DFS store directory")
	fs.StringVar(&s.Table, "table", "table", "table name within the store")
	fs.IntVar(&s.TauD, "tau-d", 10000, "tau_D: subtree-task threshold")
	fs.IntVar(&s.TauDFS, "tau-dfs", 80000, "tau_dfs: depth-first threshold")
	fs.IntVar(&s.NPool, "npool", 200, "n_pool: trees under construction at once")
	fs.IntVar(&s.Replicas, "replicas", 2, "column replication factor k")
	fs.IntVar(&s.ClusterWorkers, "cluster-workers", 4, "workers for -role local")
	fs.StringVar(&s.StandbyAddr, "standby-addr", "", "stream checkpoints to a hot standby at this address (master role)")
	fs.StringVar(&s.Advertise, "advertise", "", "externally reachable master address, sent to rejoining workers (master role)")
	fs.StringVar(&s.PromoteListen, "promote-listen", "", "host:port the promoted master listens on after failover; must be reachable by workers (standby role)")
	registerJob(fs, &s.Job, "dt", 10)
	return s
}

// treeserverSeed drives the randomness of treeserver's forests, which have
// no -seed flag.
const treeserverSeed = 1

func (s *Treeserver) fleet(workers int) fleet {
	return fleet{
		workers:  workers,
		replicas: s.Replicas,
		policy:   task.Policy{TauD: s.TauD, TauDFS: s.TauDFS, NPool: s.NPool},
	}
}

// Model is the job's model spec; the master role trains it with Run.
func (s *Treeserver) Model() (forest.ModelSpec, error) {
	return s.model(treeserverSeed, 0)
}

// TrainLocal trains the job on an in-process cluster of -cluster-workers
// workers (the local role).
func (s *Treeserver) TrainLocal(tbl *dataset.Table) (*forest.Forest, error) {
	spec, err := s.Model()
	if err != nil {
		return nil, err
	}
	return s.trainLocal(tbl, s.fleet(s.ClusterWorkers), spec)
}

// MasterConfig is the master configuration of a TCP fleet of numWorkers
// workers. The master role and the standby role, which runs it after a
// takeover, both build it here; the caller sets only AdvertiseAddr. Over TCP
// the standby is a separate process: the master streams to it when
// -standby-addr names it, and the standby role watches the lease.
func (s *Treeserver) MasterConfig(numWorkers int) (cluster.MasterConfig, error) {
	j := s.Job
	if s.Role == "master" && s.StandbyAddr == "" && (j.Standby || j.LeaseTTL > 0) {
		return cluster.MasterConfig{}, fmt.Errorf("-standby and -lease-ttl need -standby-addr in the master role")
	}
	j.Standby = s.StandbyAddr != "" || s.Role == "standby"
	cfg, err := j.masterConfig(s.fleet(numWorkers))
	if err != nil {
		return cfg, err
	}
	cfg.Heartbeat = time.Second
	return cfg, nil
}
