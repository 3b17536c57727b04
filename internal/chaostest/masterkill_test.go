package chaostest

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/core"
	"treeserver/internal/obs"
	"treeserver/internal/synth"
	"treeserver/internal/task"
	"treeserver/internal/transport"
)

// masterKillCell extends a grid Cell with a crash point and an optional
// checkpoint-tampering step applied while the master is down. Every cell
// must still produce a forest bit-identical to the serial trainer.
type masterKillCell struct {
	Cell
	// KillAfterTrees is how many trees must be durably complete before the
	// master is killed. 0 kills as soon as the job-start snapshot is on disk
	// — i.e. during construction of the first tree.
	KillAfterTrees int
	// CheckpointEvery enables periodic snapshots (0 = tree boundaries only).
	CheckpointEvery time.Duration
	// Tamper, when set, damages the checkpoint directory between the kill
	// and the restart — the recovery must survive it.
	Tamper func(t *testing.T, dir string)
	// WantSkippedFiles / WantTruncated assert the restore telemetry noticed
	// the damage Tamper inflicted.
	WantSkippedFiles bool
	WantTruncated    bool
}

func masterKillCells() []masterKillCell {
	data := synth.Spec{Name: "mk", Rows: 2200, NumNumeric: 6, NumCategorical: 3,
		CatLevels: 5, NumClasses: 3, MissingRate: 0.05, ConceptDepth: 6, LabelNoise: 0.05, Seed: 21}
	cfg := cluster.Config{MasterConfig: cluster.MasterConfig{NumWorkers: 4, Replicas: 2,
		Policy:     task.Policy{TauD: 500, TauDFS: 1500, NPool: 2},
		JobTimeout: 2 * time.Minute}, Compers: 2}
	// The lossy cell needs master-side re-execution: send-level retries
	// cannot see a silently dropped delivery.
	lossyCfg := cfg
	lossyCfg.TaskRetry = 250 * time.Millisecond
	lossyCfg.MaxTaskAttempts = 8
	return []masterKillCell{
		{
			// Killed during construction of the first tree: nothing is
			// complete yet, so recovery restarts the whole job from the
			// job-start snapshot.
			Cell: Cell{Name: "kill-during-first-tree", Seed: 31, Data: data, Cluster: cfg,
				Raw: true, Trees: 5, Bag: 1600, MaxDepth: 8},
			KillAfterTrees: 0,
		},
		{
			// Killed at a tree boundary with a lossy, laggy fabric: completed
			// trees come back from disk, the rest retrain through the chaos.
			Cell: Cell{Name: "kill-mid-job-chaos", Seed: 32, Data: data, Cluster: lossyCfg,
				Plan: transport.FaultPlan{Name: "drops-delays", Links: []transport.LinkFault{
					{From: "*", To: "*", Drop: 0.01, Delay: 100 * time.Microsecond, Jitter: 300 * time.Microsecond}}},
				Trees: 6, Bag: 1600, MaxDepth: 8},
			KillAfterTrees: 2,
		},
		{
			// The newest snapshot file is corrupted while the master is down:
			// Load must reject it by CRC and fall back to the previous file.
			Cell: Cell{Name: "kill-corrupt-newest", Seed: 33, Data: data, Cluster: cfg,
				Raw: true, Trees: 5, Bag: 1600, MaxDepth: 8},
			KillAfterTrees:   1,
			CheckpointEvery:  2 * time.Millisecond,
			Tamper:           corruptNewestCheckpoint,
			WantSkippedFiles: true,
		},
		{
			// The newest file loses its tail (torn write): the valid record
			// prefix is kept, the torn record is discarded.
			Cell: Cell{Name: "kill-truncated-tail", Seed: 34, Data: data, Cluster: cfg,
				Raw: true, Trees: 5, Bag: 1600, MaxDepth: 8},
			KillAfterTrees: 2,
			Tamper:         truncateNewestCheckpoint,
			WantTruncated:  true,
		},
	}
}

// TestMasterKillRecovery is the crash-restart equivalence grid: kill the
// master at the cell's chosen point, optionally damage the checkpoint
// directory, restart, Resume, and diff the final forest bit-for-bit against
// the serial trainer.
func TestMasterKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("master-kill grid skipped in -short mode")
	}
	for _, cell := range masterKillCells() {
		cell := cell
		t.Run(cell.Name, func(t *testing.T) {
			t.Parallel()
			runMasterKill(t, cell)
		})
	}
}

func runMasterKill(t *testing.T, cell masterKillCell) {
	tbl := synth.GenerateTrain(cell.Data)
	dir := t.TempDir()

	var chaos *transport.ChaosNetwork
	cfg := cell.Cluster
	if !cell.Raw {
		chaos = transport.NewChaosNetwork(cell.Seed, cell.Plan)
		cfg.WrapEndpoint = chaos.Wrap
	}
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = cell.CheckpointEvery
	reg := obs.NewRegistry()
	cfg.Obs = reg
	c, err := cluster.NewInProcess(tbl, cluster.WithConfig(cfg))
	if err != nil {
		failf(t, cell.Cell, chaos, "NewInProcess: %v", err)
	}
	defer c.Close()

	specs := forestSpecs(cell.Cell, tbl.NumRows())
	trainErr := make(chan error, 1)
	go func() {
		_, err := c.Train(specs)
		trainErr <- err
	}()

	// Kill once the crash point is reached: the job-start snapshot is
	// durable and KillAfterTrees trees have completed.
	deadline := time.After(time.Minute)
	for {
		if len(checkpointFiles(t, dir)) > 0 && c.Master.CompletedTrees() >= cell.KillAfterTrees {
			break
		}
		select {
		case err := <-trainErr:
			failf(t, cell.Cell, chaos, "job finished (err=%v) before the kill point", err)
		case <-deadline:
			failf(t, cell.Cell, chaos, "kill point (%d trees) not reached within 1m", cell.KillAfterTrees)
		case <-time.After(500 * time.Microsecond):
		}
	}
	c.KillMaster()
	if err := <-trainErr; err == nil || !strings.Contains(err.Error(), "master stopped") {
		failf(t, cell.Cell, chaos, "killed Train returned %v, want 'master stopped'", err)
	}

	if cell.Tamper != nil {
		cell.Tamper(t, dir)
	}

	if err := c.RestartMaster(); err != nil {
		failf(t, cell.Cell, chaos, "RestartMaster: %v", err)
	}
	trees, err := c.Resume()
	if err != nil {
		failf(t, cell.Cell, chaos, "Resume: %v", err)
	}

	for i, spec := range specs {
		serial := core.TrainLocal(tbl, spec.Bag.Rows(), spec.Params)
		if d := core.DiffTrees(serial, trees[i]); d != "" {
			failf(t, cell.Cell, chaos, "tree %d diverges from serial after crash-restart:\n%s", i, d)
		}
	}

	// The workers lived through the master crash and all rejoined.
	if alive := c.Master.AliveWorkers(); len(alive) != cfg.NumWorkers {
		failf(t, cell.Cell, chaos, "alive workers %v after rejoin, want all %d", alive, cfg.NumWorkers)
	}
	s := reg.Snapshot().Master
	if s.Restores != 1 {
		failf(t, cell.Cell, chaos, "telemetry: %d restores, want 1", s.Restores)
	}
	if cell.WantSkippedFiles && s.RestoreSkippedFiles == 0 {
		failf(t, cell.Cell, chaos, "telemetry: corrupted file was not skipped")
	}
	if cell.WantTruncated && s.RestoreTruncatedRecords == 0 {
		failf(t, cell.Cell, chaos, "telemetry: torn tail was not detected")
	}
	verifyTelemetry(t, cell.Cell, chaos, reg)
}

// checkpointFiles lists the cell's snapshot files, oldest first.
func checkpointFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading checkpoint dir: %v", err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tsck") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(files)
	return files
}

// corruptNewestCheckpoint flips a byte inside the newest file's snapshot
// record, invalidating its CRC so Load must fall back to the previous file.
func corruptNewestCheckpoint(t *testing.T, dir string) {
	files := checkpointFiles(t, dir)
	if len(files) < 2 {
		t.Fatalf("corruption cell needs >= 2 checkpoint files, have %d (CheckpointEvery too slow?)", len(files))
	}
	name := files[len(files)-1]
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	data[16] ^= 0xff
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// truncateNewestCheckpoint tears the last record of the newest file, as a
// crash mid-append would.
func truncateNewestCheckpoint(t *testing.T, dir string) {
	files := checkpointFiles(t, dir)
	name := files[len(files)-1]
	info, err := os.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(name, info.Size()-7); err != nil {
		t.Fatal(err)
	}
}
