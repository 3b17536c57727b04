package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"treeserver/internal/checkpoint"
	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/obs"
	"treeserver/internal/synth"
	"treeserver/internal/task"
)

// recoveryTable is shared by the crash-recovery tests: big enough that an
// 8-tree job survives long enough to kill the master mid-flight.
func recoveryTable() *dataset.Table {
	return synth.GenerateTrain(synth.Spec{
		Name: "recovery", Rows: 2500, NumNumeric: 6, NumCategorical: 2,
		CatLevels: 4, NumClasses: 3, ConceptDepth: 5, LabelNoise: 0.05, Seed: 77,
	})
}

func recoverySpecs(rows, n int) []TreeSpec {
	params := core.Defaults()
	params.MaxDepth = 8
	specs := make([]TreeSpec, n)
	for i := range specs {
		specs[i] = TreeSpec{Params: params, Bag: BagSpec{NumRows: rows, Sample: rows, Seed: int64(100 + i)}}
	}
	return specs
}

// serialOracle trains each spec with the serial trainer — the bit-identity
// reference a resumed job must match.
func serialOracle(tbl *dataset.Table, specs []TreeSpec) []*core.Tree {
	out := make([]*core.Tree, len(specs))
	for i, spec := range specs {
		out[i] = core.TrainLocal(tbl, spec.Bag.Rows(), spec.Params)
	}
	return out
}

func assertBitIdentical(t *testing.T, got, want []*core.Tree) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d trees, want %d", len(got), len(want))
	}
	for i := range want {
		if d := core.DiffTrees(want[i], got[i]); d != "" {
			t.Fatalf("tree %d diverged from serial oracle:\n%s", i, d)
		}
	}
}

// TestMasterKillResumeBitIdentical is the tentpole guarantee: kill the master
// mid-job, restart it, Resume, and the final forest is bit-identical to an
// uninterrupted run — with already-completed trees restored from disk, not
// retrained.
func TestMasterKillResumeBitIdentical(t *testing.T) {
	tbl := recoveryTable()
	specs := recoverySpecs(tbl.NumRows(), 8)

	cfg := testConfig()
	cfg.Policy = task.Policy{TauD: 600, TauDFS: 2400, NPool: 2}
	cfg.CheckpointDir = t.TempDir()
	cfg.Obs = obs.NewRegistry()
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()

	trainErr := make(chan error, 1)
	go func() {
		_, err := c.Train(specs)
		trainErr <- err
	}()

	// Kill once at least two trees are durable but the job is not done.
	deadline := time.After(30 * time.Second)
	for c.Master.CompletedTrees() < 2 {
		select {
		case err := <-trainErr:
			t.Fatalf("job finished before the kill (err=%v); slow the config down", err)
		case <-deadline:
			t.Fatal("no trees completed within 30s")
		case <-time.After(time.Millisecond):
		}
	}
	c.KillMaster()
	if err := <-trainErr; err == nil || !strings.Contains(err.Error(), "master stopped") {
		t.Fatalf("killed Train returned %v, want 'master stopped'", err)
	}

	if err := c.RestartMaster(); err != nil {
		t.Fatalf("RestartMaster: %v", err)
	}
	got, err := c.Resume()
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	assertBitIdentical(t, got, serialOracle(tbl, specs))

	s := cfg.Obs.Snapshot().Master
	if s.Restores != 1 || s.RestoredTrees < 2 {
		t.Fatalf("restore telemetry: restores %d restored %d, want 1 restore of >= 2 trees", s.Restores, s.RestoredTrees)
	}
	if s.CheckpointSnapshots < 2 {
		t.Fatalf("checkpoint snapshots %d, want >= 2 (job start + resume)", s.CheckpointSnapshots)
	}
	// The restored ledger must not regress: planned in the resumed registry
	// covers at least what the checkpoint recorded.
	if s.TasksPlanned <= 0 {
		t.Fatalf("ledger not restored: planned %d", s.TasksPlanned)
	}
}

// TestResumeAfterJobComplete: a master restarted after the job finished
// restores every tree from the final snapshot and trains nothing.
func TestResumeAfterJobComplete(t *testing.T) {
	tbl := recoveryTable()
	specs := recoverySpecs(tbl.NumRows(), 3)

	cfg := testConfig()
	cfg.CheckpointDir = t.TempDir()
	cfg.Obs = obs.NewRegistry()
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()

	want, err := c.Train(specs)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	c.KillMaster()
	if err := c.RestartMaster(); err != nil {
		t.Fatalf("RestartMaster: %v", err)
	}
	got, err := c.Resume()
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	assertBitIdentical(t, got, want)
	if s := cfg.Obs.Snapshot().Master; s.RestoredTrees != 3 {
		t.Fatalf("restored %d trees from final snapshot, want 3", s.RestoredTrees)
	}
}

// TestResumeRejoinSurvivesWorkerLoss: the master dies AND one worker dies.
// Resume must proceed with the workers that answered the rejoin handshake,
// re-replicate the dead worker's columns from survivors, and still finish
// bit-identically.
func TestResumeRejoinSurvivesWorkerLoss(t *testing.T) {
	tbl := recoveryTable()
	specs := recoverySpecs(tbl.NumRows(), 6)

	cfg := testConfig()
	cfg.Policy = task.Policy{TauD: 600, TauDFS: 2400, NPool: 2}
	cfg.CheckpointDir = t.TempDir()
	cfg.RejoinTimeout = 2 * time.Second
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()

	trainErr := make(chan error, 1)
	go func() {
		_, err := c.Train(specs)
		trainErr <- err
	}()
	deadline := time.After(30 * time.Second)
	for c.Master.CompletedTrees() < 1 {
		select {
		case err := <-trainErr:
			t.Fatalf("job finished before the kill (err=%v)", err)
		case <-deadline:
			t.Fatal("no trees completed within 30s")
		case <-time.After(time.Millisecond):
		}
	}
	c.KillMaster()
	<-trainErr
	c.CrashWorker(3) // dies while the master is down; it will miss the rejoin

	if err := c.RestartMaster(); err != nil {
		t.Fatalf("RestartMaster: %v", err)
	}
	got, err := c.Resume()
	if err != nil {
		t.Fatalf("Resume with one dead worker: %v", err)
	}
	assertBitIdentical(t, got, serialOracle(tbl, specs))

	alive := c.Master.AliveWorkers()
	for _, w := range alive {
		if w == 3 {
			t.Fatal("non-rejoining worker still marked alive")
		}
	}
	if len(alive) != 3 {
		t.Fatalf("alive workers %v, want the 3 rejoiners", alive)
	}
}

// TestResumeValidationErrors pins the error surface: Resume without a
// checkpoint directory, and with an empty one.
func TestResumeValidationErrors(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{Name: "tiny", Rows: 300, NumNumeric: 3, NumClasses: 2, ConceptDepth: 2, Seed: 5})

	c := newTestCluster(t, tbl, testConfig())
	if _, err := c.Resume(); err == nil || !strings.Contains(err.Error(), "CheckpointDir") {
		t.Fatalf("Resume without checkpointing: %v, want CheckpointDir error", err)
	}
	c.Close()

	cfg := testConfig()
	cfg.CheckpointDir = t.TempDir()
	c = newTestCluster(t, tbl, cfg)
	defer c.Close()
	if _, err := c.Resume(); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("Resume from empty dir: %v, want ErrNoCheckpoint", err)
	}
}

// TestCheckpointEveryWritesPeriodicSnapshots: with a short interval, multiple
// snapshot files accumulate (pruned to the newest two) during one job.
func TestCheckpointEveryWritesPeriodicSnapshots(t *testing.T) {
	tbl := recoveryTable()
	cfg := testConfig()
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 20 * time.Millisecond
	cfg.Obs = obs.NewRegistry()
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()

	if _, err := c.Train(recoverySpecs(tbl.NumRows(), 4)); err != nil {
		t.Fatalf("train: %v", err)
	}
	if s := cfg.Obs.Snapshot().Master; s.CheckpointSnapshots < 3 {
		t.Fatalf("periodic checkpointing wrote %d snapshots, want >= 3", s.CheckpointSnapshots)
	}
}
