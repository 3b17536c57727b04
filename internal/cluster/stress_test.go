package cluster

import (
	"testing"
	"time"

	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/synth"
	"treeserver/internal/task"
)

// TestManyTreesInterleaved floods the engine with a 40-tree job under a
// tiny task granularity, so thousands of column- and subtree-tasks from
// many trees interleave in the pool. Every tree must come out identical to
// the serial result.
func TestManyTreesInterleaved(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	tbl := synth.GenerateTrain(synth.Spec{
		Name: "stress", Rows: 3000, NumNumeric: 6, NumCategorical: 2,
		NumClasses: 2, ConceptDepth: 5, LabelNoise: 0.05, Seed: 95,
	})
	c := newTestCluster(t, tbl, Config{
		MasterConfig: MasterConfig{
			NumWorkers: 5,
			Policy:     task.Policy{TauD: 120, TauDFS: 700, NPool: 40},
			JobTimeout: 3 * time.Minute,
		},
		Compers: 3,
	})
	defer c.Close()

	params := core.Defaults()
	params.MaxDepth = 8
	specs := make([]TreeSpec, 40)
	for i := range specs {
		specs[i] = TreeSpec{Params: params}
	}
	trees, err := c.Train(specs)
	if err != nil {
		t.Fatalf("stress job: %v", err)
	}
	want := core.TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), params)
	for i, tr := range trees {
		if !tr.Equal(want) {
			t.Fatalf("tree %d differs under stress", i)
		}
	}
}

// TestRepeatedJobsLeaveNoResidue runs many small jobs back to back and
// checks the master's state drains completely between them.
func TestRepeatedJobsLeaveNoResidue(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{
		Name: "residue", Rows: 1200, NumNumeric: 4, NumClasses: 2, ConceptDepth: 3, Seed: 96,
	})
	c := newTestCluster(t, tbl, Config{
		MasterConfig: MasterConfig{
			NumWorkers: 3,
			Policy:     task.Policy{TauD: 200, TauDFS: 600, NPool: 8},
		},
		Compers: 2,
	})
	defer c.Close()
	for round := 0; round < 10; round++ {
		if _, err := c.TrainOne(core.Defaults()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// All load-balance charges must have been reverted.
	for w, row := range c.Master.WorkloadSnapshot() {
		for r, v := range row {
			if v < -1e-6 || v > 1e-6 {
				t.Fatalf("M_work[%d][%d] = %g after 10 jobs", w, r, v)
			}
		}
	}
	// Worker task tables must be empty (delegates fully released).
	time.Sleep(50 * time.Millisecond) // let trailing releases land
	for _, w := range c.Workers {
		w.mu.Lock()
		pending := len(w.tasks)
		waits := len(w.rowWaits)
		w.mu.Unlock()
		if pending != 0 || waits != 0 {
			t.Fatalf("worker %d retains %d tasks / %d row waits after jobs", w.ID(), pending, waits)
		}
	}
}
