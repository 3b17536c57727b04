package cluster

import (
	"testing"
	"time"

	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/metrics"
	"treeserver/internal/synth"
	"treeserver/internal/task"
)

// smallPolicy forces both task kinds on laptop-sized data: nodes above 600
// rows go through the column-task protocol, below through subtree-tasks.
func smallPolicy() task.Policy {
	return task.Policy{TauD: 600, TauDFS: 2400, NPool: 8}
}

func testConfig() Config {
	return Config{MasterConfig: MasterConfig{NumWorkers: 4, Replicas: 2, Policy: smallPolicy(), JobTimeout: time.Minute}, Compers: 2}
}

// newTestCluster builds a cluster from a literal Config, failing the test on
// configuration errors.
func newTestCluster(t *testing.T, tbl *dataset.Table, cfg Config) *Cluster {
	t.Helper()
	c, err := NewInProcess(tbl, WithConfig(cfg))
	if err != nil {
		t.Fatalf("NewInProcess: %v", err)
	}
	return c
}

func classifyAll(tr *core.Tree, tbl *dataset.Table) []int32 {
	out := make([]int32, tbl.NumRows())
	for r := range out {
		out[r] = tr.PredictClass(tbl, r, 0)
	}
	return out
}

// TestDistributedMatchesSerial is the paper's core exactness claim: the
// distributed engine must produce the identical tree a conventional serial
// algorithm produces, on every attribute-type mix.
func TestDistributedMatchesSerial(t *testing.T) {
	cases := []synth.Spec{
		{Name: "numeric-clf", Rows: 5000, NumNumeric: 8, NumClasses: 3, ConceptDepth: 5, LabelNoise: 0.05, Seed: 21},
		{Name: "mixed-clf", Rows: 5000, NumNumeric: 4, NumCategorical: 4, CatLevels: 5, NumClasses: 2, ConceptDepth: 5, LabelNoise: 0.05, Seed: 22},
		{Name: "missing-clf", Rows: 4000, NumNumeric: 5, NumCategorical: 2, NumClasses: 2, MissingRate: 0.08, ConceptDepth: 4, Seed: 23},
		{Name: "regression", Rows: 5000, NumNumeric: 6, NumCategorical: 2, NumClasses: 0, ConceptDepth: 4, LabelNoise: 0.2, Seed: 24},
	}
	for _, spec := range cases {
		t.Run(spec.Name, func(t *testing.T) {
			tbl := synth.GenerateTrain(spec)
			c := newTestCluster(t, tbl, testConfig())
			defer c.Close()

			params := core.Defaults()
			params.MaxDepth = 8
			distributed, err := c.TrainOne(params)
			if err != nil {
				t.Fatalf("distributed training: %v", err)
			}
			serial := core.TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), params)
			if err := distributed.Validate(); err != nil {
				t.Fatalf("invalid distributed tree: %v", err)
			}
			if !distributed.Equal(serial) {
				t.Fatalf("distributed tree differs from serial tree (%d vs %d nodes)",
					distributed.NumNodes, serial.NumNodes)
			}
			if distributed.NumNodes != serial.NumNodes || distributed.MaxDepth != serial.MaxDepth {
				t.Fatalf("summary mismatch: nodes %d/%d depth %d/%d",
					distributed.NumNodes, serial.NumNodes, distributed.MaxDepth, serial.MaxDepth)
			}
		})
	}
}

// TestAllSubtreePath drives the degenerate case where the whole tree fits in
// one subtree-task (|D_root| <= τ_D).
func TestAllSubtreePath(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{Name: "tiny", Rows: 500, NumNumeric: 5, NumClasses: 2, ConceptDepth: 3, Seed: 31})
	cfg := testConfig()
	cfg.Policy = task.Policy{TauD: 1000, TauDFS: 2000, NPool: 4}
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()
	got, err := c.TrainOne(core.Defaults())
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	want := core.TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), core.Defaults())
	if !got.Equal(want) {
		t.Fatal("subtree-only path differs from serial")
	}
}

// TestAllColumnPath forces every split through the column-task protocol
// (τ_D below the leaf threshold region).
func TestAllColumnPath(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{Name: "colsonly", Rows: 1500, NumNumeric: 5, NumCategorical: 2, NumClasses: 2, ConceptDepth: 4, Seed: 32})
	cfg := testConfig()
	cfg.Policy = task.Policy{TauD: 1, TauDFS: 800, NPool: 4}
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()
	params := core.Defaults()
	params.MaxDepth = 6
	got, err := c.TrainOne(params)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	want := core.TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), params)
	if !got.Equal(want) {
		t.Fatal("column-only path differs from serial")
	}
}

func TestSingleWorkerCluster(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{Name: "w1", Rows: 2000, NumNumeric: 5, NumClasses: 2, ConceptDepth: 4, Seed: 33})
	cfg := testConfig()
	cfg.NumWorkers = 1
	cfg.Replicas = 1
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()
	got, err := c.TrainOne(core.Defaults())
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	want := core.TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), core.Defaults())
	if !got.Equal(want) {
		t.Fatal("single-worker cluster differs from serial")
	}
}

func TestForestJobWithBaggingAndColumnSampling(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{Name: "forest", Rows: 4000, NumNumeric: 9, NumClasses: 2, ConceptDepth: 5, LabelNoise: 0.05, Seed: 34})
	c := newTestCluster(t, tbl, testConfig())
	defer c.Close()

	var specs []TreeSpec
	for i := 0; i < 6; i++ {
		params := core.Defaults()
		params.Candidates = []int{i % 9, (i + 3) % 9, (i + 6) % 9}
		params.Seed = int64(i)
		specs = append(specs, TreeSpec{
			Params: params,
			Bag:    BagSpec{NumRows: tbl.NumRows(), Sample: 4000, Seed: int64(100 + i)},
		})
	}
	trees, err := c.Train(specs)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	if len(trees) != 6 {
		t.Fatalf("got %d trees, want 6", len(trees))
	}
	for i, tr := range trees {
		if tr == nil {
			t.Fatalf("tree %d missing", i)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("tree %d invalid: %v", i, err)
		}
		// Column restriction must hold.
		tr.Walk(func(n *core.Node) {
			if n.Cond == nil {
				return
			}
			allowed := specs[i].Params.Candidates
			ok := false
			for _, c := range allowed {
				if n.Cond.Col == c {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("tree %d split on column %d outside its C %v", i, n.Cond.Col, allowed)
			}
		})
		// Bagged trees must equal serial training on the same bag.
		bagRows := specs[i].Bag.Rows()
		want := core.TrainLocal(tbl, bagRows, specs[i].Params)
		if !tr.Equal(want) {
			t.Fatalf("tree %d differs from serial training on its bag", i)
		}
	}
}

func TestNPoolOne(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{Name: "npool", Rows: 2000, NumNumeric: 5, NumClasses: 2, ConceptDepth: 4, Seed: 35})
	cfg := testConfig()
	cfg.Policy.NPool = 1
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()
	specs := make([]TreeSpec, 4)
	for i := range specs {
		specs[i] = TreeSpec{Params: core.Defaults()}
	}
	trees, err := c.Train(specs)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	for i := 1; i < len(trees); i++ {
		if !trees[i].Equal(trees[0]) {
			t.Fatal("identical specs must produce identical trees")
		}
	}
}

func TestSequentialJobs(t *testing.T) {
	// Boosting layers and deep-forest levels run as consecutive jobs on one
	// cluster; state must not leak between them.
	tbl := synth.GenerateTrain(synth.Spec{Name: "seq", Rows: 2000, NumNumeric: 5, NumClasses: 2, ConceptDepth: 4, Seed: 36})
	c := newTestCluster(t, tbl, testConfig())
	defer c.Close()
	first, err := c.TrainOne(core.Defaults())
	if err != nil {
		t.Fatalf("job 1: %v", err)
	}
	second, err := c.TrainOne(core.Defaults())
	if err != nil {
		t.Fatalf("job 2: %v", err)
	}
	if !first.Equal(second) {
		t.Fatal("same job produced different trees across runs")
	}
}

func TestMasterNeverShipsRows(t *testing.T) {
	// The Section-V claim: master outbound traffic must be dramatically
	// smaller than with relayed rows on the same workload.
	spec := synth.Spec{Name: "relay", Rows: 6000, NumNumeric: 6, NumClasses: 2, ConceptDepth: 5, Seed: 37}
	tbl := synth.GenerateTrain(spec)

	run := func(relay bool) (int64, *core.Tree) {
		cfg := testConfig()
		if relay {
			cfg.Ablation = AblationRelayRows
		}
		c := newTestCluster(t, tbl, cfg)
		defer c.Close()
		params := core.Defaults()
		params.MaxDepth = 8
		tr, err := c.TrainOne(params)
		if err != nil {
			t.Fatalf("train(relay=%v): %v", relay, err)
		}
		return c.Master.TransportStats().BytesSent, tr
	}
	lean, leanTree := run(false)
	relayed, relayTree := run(true)
	if !leanTree.Equal(relayTree) {
		t.Fatal("relay mode changed the trained tree")
	}
	if relayed < lean*3 {
		t.Fatalf("master bytes: delegate=%d relay=%d; expected relay to be >3x", lean, relayed)
	}
}

func TestRoundRobinAblation(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{Name: "rr", Rows: 3000, NumNumeric: 6, NumClasses: 2, ConceptDepth: 4, Seed: 38})
	cfg := testConfig()
	cfg.Ablation = AblationRoundRobin
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()
	got, err := c.TrainOne(core.Defaults())
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	want := core.TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), core.Defaults())
	if !got.Equal(want) {
		t.Fatal("round-robin assignment changed the tree")
	}
}

func TestExtraTreesDistributed(t *testing.T) {
	train, test := synth.Generate(synth.Spec{Name: "xt", Rows: 5000, NumNumeric: 6, NumClasses: 2, ConceptDepth: 4, Seed: 39}, 0.25)
	c := newTestCluster(t, train, testConfig())
	defer c.Close()
	params := core.Defaults()
	params.ExtraTrees = true
	params.Seed = 7
	tr, err := c.TrainOne(params)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid extra-tree: %v", err)
	}
	acc := metrics.Accuracy(classifyAll(tr, test), test.Y().Cats)
	if acc < 0.55 {
		t.Fatalf("extra-tree accuracy %.3f barely above chance", acc)
	}
}

func TestLoadBalancedBetterOrEqualMasterBytes(t *testing.T) {
	// Sanity: the cost model must not change correctness and the workload
	// matrix must return to ~zero once the job completes.
	tbl := synth.GenerateTrain(synth.Spec{Name: "mwork", Rows: 3000, NumNumeric: 6, NumClasses: 2, ConceptDepth: 4, Seed: 40})
	c := newTestCluster(t, tbl, testConfig())
	defer c.Close()
	if _, err := c.TrainOne(core.Defaults()); err != nil {
		t.Fatalf("train: %v", err)
	}
	for w, row := range c.Master.WorkloadSnapshot() {
		for r, v := range row {
			if v < -1e-6 || v > 1e-6 {
				t.Fatalf("M_work[%d][%d] = %g after completion, want 0", w, r, v)
			}
		}
	}
}

func TestWorkerCrashRecovery(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{Name: "crash", Rows: 6000, NumNumeric: 8, NumClasses: 2, ConceptDepth: 6, LabelNoise: 0.05, Seed: 41})
	cfg := testConfig()
	cfg.NumWorkers = 5
	cfg.Heartbeat = 20 * time.Millisecond
	cfg.JobTimeout = 2 * time.Minute
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()

	params := core.Defaults()
	params.MaxDepth = 8
	specs := make([]TreeSpec, 8)
	for i := range specs {
		specs[i] = TreeSpec{Params: params}
	}

	// Crash a worker shortly after the job starts.
	go func() {
		time.Sleep(30 * time.Millisecond)
		c.CrashWorker(2)
	}()
	trees, err := c.Train(specs)
	if err != nil {
		t.Fatalf("train with crash: %v", err)
	}
	want := core.TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), params)
	for i, tr := range trees {
		if tr == nil {
			t.Fatalf("tree %d missing after recovery", i)
		}
		if !tr.Equal(want) {
			t.Fatalf("tree %d differs from serial after recovery", i)
		}
	}
	alive := c.Master.AliveWorkers()
	if len(alive) != 4 {
		t.Fatalf("alive workers = %v, want 4 of 5", alive)
	}
	// Every surviving worker pair must still jointly cover all columns.
	for _, col := range tbl.FeatureIndexes() {
		held := false
		for _, w := range alive {
			if c.Workers[w].HoldsColumn(col) {
				held = true
			}
		}
		if !held {
			t.Fatalf("column %d lost after recovery", col)
		}
	}
}

func TestBagSpecDeterministicAndSorted(t *testing.T) {
	b := BagSpec{NumRows: 1000, Sample: 500, Seed: 9}
	r1, r2 := b.Rows(), b.Rows()
	if len(r1) != 500 {
		t.Fatalf("bag size %d, want 500", len(r1))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("bag not deterministic")
		}
		if i > 0 && r1[i] < r1[i-1] {
			t.Fatal("bag not sorted")
		}
	}
	all := BagSpec{NumRows: 5}
	if got := all.Rows(); len(got) != 5 || got[0] != 0 || got[4] != 4 {
		t.Fatalf("all-rows bag = %v", got)
	}
	if all.Size() != 5 || b.Size() != 500 {
		t.Fatal("bag sizes wrong")
	}
}

func TestNodeStats(t *testing.T) {
	y := dataset.NewCategorical("y", []int32{0, 1, 1, 1}, []string{"a", "b"})
	s := StatsOf(y, []int32{0, 1, 2, 3}, 2)
	if s.N != 4 || s.Counts[0] != 1 || s.Counts[1] != 3 || s.Pure {
		t.Fatalf("stats = %+v", s)
	}
	var n core.Node
	s.Fill(&n)
	if n.Class != 1 || n.PMF[1] != 0.75 {
		t.Fatalf("filled node = %+v", n)
	}
	pure := StatsOf(y, []int32{1, 2, 3}, 2)
	if !pure.Pure {
		t.Fatal("pure subset not detected")
	}

	yr := dataset.NewNumeric("y", []float64{2, 4, 6})
	sr := StatsOf(yr, []int32{0, 1, 2}, 0)
	if sr.Pure {
		t.Fatal("non-constant regression marked pure")
	}
	var nr core.Node
	sr.Fill(&nr)
	if nr.Mean != 4 {
		t.Fatalf("mean = %g, want 4", nr.Mean)
	}
	constY := dataset.NewNumeric("y", []float64{5, 5})
	if !StatsOf(constY, []int32{0, 1}, 0).Pure {
		t.Fatal("constant regression not pure")
	}
}

func TestWorkerNameRoundTrip(t *testing.T) {
	if WorkerName(0) != "w0" || WorkerName(13) != "w13" {
		t.Fatalf("names: %s %s", WorkerName(0), WorkerName(13))
	}
}
