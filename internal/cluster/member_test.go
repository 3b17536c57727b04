package cluster

import (
	"strings"
	"testing"
	"time"

	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/obs"
	"treeserver/internal/synth"
)

// memberTable is the shared workload for the membership tests: big enough to
// exercise both task kinds under smallPolicy, mixed types so column copies
// carry every column representation.
func memberTable() *dataset.Table {
	return synth.GenerateTrain(synth.Spec{Name: "member", Rows: 3000, NumNumeric: 6,
		NumCategorical: 2, CatLevels: 4, NumClasses: 2, ConceptDepth: 5, Seed: 91})
}

// TestJoinBetweenJobs: a worker that joins an idle cluster is admitted,
// receives column replicas, and the next job trains bit-identically to the
// serial oracle. The join must only ADD replicas — no column loses a holder.
func TestJoinBetweenJobs(t *testing.T) {
	tbl := memberTable()
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Obs = reg
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()

	params := core.Defaults()
	params.MaxDepth = 8
	if _, err := c.TrainOne(params); err != nil {
		t.Fatalf("job before join: %v", err)
	}
	before := c.Master.PlacementSnapshot()

	w, err := c.Join()
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if !w.Joined() {
		t.Fatal("Join returned nil error but worker does not report joined")
	}

	after := c.Master.PlacementSnapshot()
	if after.NumWorkers != before.NumWorkers+1 {
		t.Fatalf("fleet size %d after join, want %d", after.NumWorkers, before.NumWorkers+1)
	}
	joined := 0
	for col, owners := range after.Owners {
		holders := map[int]bool{}
		for _, o := range owners {
			holders[o] = true
			if o == w.ID() {
				joined++
			}
		}
		for _, o := range before.Owners[col] {
			if !holders[o] {
				t.Fatalf("column %d lost holder %d during join — joins must only add replicas", col, o)
			}
		}
	}
	if joined == 0 {
		t.Fatal("joined worker holds no column replicas")
	}

	tr, err := c.TrainOne(params)
	if err != nil {
		t.Fatalf("job after join: %v", err)
	}
	want := core.TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), params)
	if !tr.Equal(want) {
		t.Fatal("post-join tree differs from serial oracle")
	}

	m := reg.Snapshot().Master
	if m.Joins != 1 {
		t.Fatalf("Joins counter %d, want 1", m.Joins)
	}
	if m.RebalancedColumns != int64(joined) {
		t.Fatalf("RebalancedColumns %d, want %d (the joiner's replica count)", m.RebalancedColumns, joined)
	}
	if m.Drains != 0 || m.JoinRejects != 0 || m.DrainSheds != 0 {
		t.Fatalf("unexpected elastic counters: %+v", m)
	}
}

// TestJoinMidJob: a worker joining while a multi-tree job is in flight must
// not perturb the forest — placement never affects split results.
func TestJoinMidJob(t *testing.T) {
	tbl := memberTable()
	c := newTestCluster(t, tbl, testConfig())
	defer c.Close()

	params := core.Defaults()
	params.MaxDepth = 8
	specs := make([]TreeSpec, 4)
	for i := range specs {
		specs[i] = TreeSpec{Params: params}
	}
	trainErr := make(chan error, 1)
	trees := make(chan []*core.Tree, 1)
	go func() {
		got, err := c.Train(specs)
		trees <- got
		trainErr <- err
	}()

	w, err := c.Join()
	if err != nil {
		t.Fatalf("Join during job: %v", err)
	}
	if !w.Joined() {
		t.Fatal("worker not joined")
	}
	got := <-trees
	if err := <-trainErr; err != nil {
		t.Fatalf("train with concurrent join: %v", err)
	}
	want := core.TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), params)
	for i, tr := range got {
		if !tr.Equal(want) {
			t.Fatalf("tree %d differs from serial with a concurrent join", i)
		}
	}
}

// TestJoinCatchesUpTarget: a worker joining mid-boosting is replayed the
// retained SetTarget payload at admission, so the next round matches a fleet
// that never churned.
func TestJoinCatchesUpTarget(t *testing.T) {
	spec := synth.Spec{Name: "member-gbt", Rows: 2500, NumNumeric: 5,
		NumClasses: 0, ConceptDepth: 4, LabelNoise: 0.1, Seed: 92}
	params := core.Defaults()
	params.MaxDepth = 4

	round2 := func(join bool) *core.Tree {
		tbl := synth.GenerateTrain(spec)
		c := newTestCluster(t, tbl, testConfig())
		defer c.Close()
		if _, err := c.TrainOne(params); err != nil {
			t.Fatalf("round 1: %v", err)
		}
		y2 := make([]float64, tbl.NumRows())
		for r := range y2 {
			y2[r] = tbl.Y().Floats[r] * 0.5
		}
		if err := c.SetTarget(y2); err != nil {
			t.Fatalf("SetTarget: %v", err)
		}
		if join {
			if _, err := c.Join(); err != nil {
				t.Fatalf("Join mid-boosting: %v", err)
			}
		}
		tr, err := c.TrainOne(params)
		if err != nil {
			t.Fatalf("round 2: %v", err)
		}
		return tr
	}

	if !round2(true).Equal(round2(false)) {
		t.Fatal("round-2 tree with a mid-boosting join differs from the churn-free fleet")
	}
}

// TestDrainGraceful: draining a worker retires it without failing the job,
// hands its last-replica columns to survivors, and the next job still
// matches the serial oracle.
func TestDrainGraceful(t *testing.T) {
	tbl := memberTable()
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Obs = reg
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()

	params := core.Defaults()
	params.MaxDepth = 8
	if _, err := c.TrainOne(params); err != nil {
		t.Fatalf("job before drain: %v", err)
	}

	const victim = 1
	if err := c.Drain(victim); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	p := c.Master.PlacementSnapshot()
	alive := map[int]bool{}
	for _, w := range c.Master.AliveWorkers() {
		alive[w] = true
	}
	if alive[victim] {
		t.Fatal("drained worker still reported alive")
	}
	for col, owners := range p.Owners {
		if len(owners) < cfg.Replicas {
			t.Fatalf("column %d under-replicated after drain: %d owners", col, len(owners))
		}
		for _, o := range owners {
			if o == victim {
				t.Fatalf("column %d still owned by drained worker", col)
			}
			if !alive[o] {
				t.Fatalf("column %d owned by dead worker %d", col, o)
			}
		}
	}

	tr, err := c.TrainOne(params)
	if err != nil {
		t.Fatalf("job after drain: %v", err)
	}
	want := core.TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), params)
	if !tr.Equal(want) {
		t.Fatal("post-drain tree differs from serial oracle")
	}

	m := reg.Snapshot().Master
	if m.Drains != 1 {
		t.Fatalf("Drains counter %d, want 1", m.Drains)
	}
	if m.DrainSheds != 0 {
		t.Fatalf("graceful drain recorded %d force-sheds", m.DrainSheds)
	}
	if m.TreeRestarts != 0 {
		t.Fatalf("graceful drain triggered %d tree restarts", m.TreeRestarts)
	}
}

// TestDrainDuringJob: cordoning a worker while a job is in flight lets its
// in-flight work finish (or re-execute) and the forest stays bit-identical.
func TestDrainDuringJob(t *testing.T) {
	tbl := memberTable()
	cfg := testConfig()
	cfg.TaskRetry = 300 * time.Millisecond
	cfg.MaxTaskAttempts = 8
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()

	params := core.Defaults()
	params.MaxDepth = 8
	specs := make([]TreeSpec, 4)
	for i := range specs {
		specs[i] = TreeSpec{Params: params}
	}
	trainErr := make(chan error, 1)
	trees := make(chan []*core.Tree, 1)
	go func() {
		got, err := c.Train(specs)
		trees <- got
		trainErr <- err
	}()

	if err := c.Drain(2); err != nil {
		t.Fatalf("Drain during job: %v", err)
	}
	got := <-trees
	if err := <-trainErr; err != nil {
		t.Fatalf("train with concurrent drain: %v", err)
	}
	want := core.TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), params)
	for i, tr := range got {
		if !tr.Equal(want) {
			t.Fatalf("tree %d differs from serial with a concurrent drain", i)
		}
	}
}

// TestFleetCapRejectsJoin: the admission gate refuses joins that would grow
// the fleet past FleetCap, terminally, and counts the rejection.
func TestFleetCapRejectsJoin(t *testing.T) {
	tbl := memberTable()
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.FleetCap = cfg.NumWorkers
	cfg.Obs = reg
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()

	if _, err := c.Join(); err == nil {
		t.Fatal("join beyond FleetCap succeeded")
	} else if !strings.Contains(err.Error(), "cap") {
		t.Fatalf("join rejection reason %q does not mention the cap", err)
	}
	if n := c.Master.PlacementSnapshot().NumWorkers; n != cfg.NumWorkers {
		t.Fatalf("fleet grew to %d despite the cap", n)
	}
	if m := reg.Snapshot().Master; m.JoinRejects == 0 || m.Joins != 0 {
		t.Fatalf("counters after capped join: rejects %d joins %d", m.JoinRejects, m.Joins)
	}
}

// TestJoinGenerationFence: a join request claiming a generation ahead of the
// master's is a fenced ghost and must be terminally rejected.
func TestJoinGenerationFence(t *testing.T) {
	tbl := memberTable()
	c := newTestCluster(t, tbl, testConfig())
	defer c.Close()

	i := len(c.Workers)
	w := NewWorker(i, c.endpoint(WorkerName(i)), c.schema, map[int]*dataset.Column{}, c.y, c.cfg.Compers, nil)
	w.Start()
	c.Workers = append(c.Workers, w)
	w.mu.Lock()
	w.joinGen = 999 // claims a future generation the master has never issued
	w.mu.Unlock()
	if err := w.Join(10 * time.Second); err == nil {
		t.Fatal("join from a future generation was admitted")
	} else if !strings.Contains(err.Error(), "generation") {
		t.Fatalf("fence rejection reason %q does not mention the generation", err)
	}
}

// TestDrainValidation pins the refusals: out-of-range index, double drain,
// and draining away the last survivor.
func TestDrainValidation(t *testing.T) {
	tbl := memberTable()
	cfg := testConfig()
	cfg.NumWorkers = 2
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()

	if err := c.Drain(7); err == nil {
		t.Fatal("drain of an unknown worker succeeded")
	}
	if err := c.Drain(0); err != nil {
		t.Fatalf("first drain: %v", err)
	}
	if err := c.Drain(0); err == nil {
		t.Fatal("double drain succeeded")
	}
	if err := c.Drain(1); err == nil {
		t.Fatal("draining the last alive worker succeeded")
	}
}
