package cluster

import (
	"strings"
	"testing"
	"time"

	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/obs"
	"treeserver/internal/synth"
	"treeserver/internal/task"
	"treeserver/internal/transport"
)

// standbyConfig is the shared deployment for the hot-standby tests: diskless
// (no CheckpointDir — the stream is the only durability), a short lease so
// failover fires fast, and task retries so rejoin-era message loss heals.
func standbyConfig() Config {
	cfg := testConfig()
	cfg.Policy = task.Policy{TauD: 600, TauDFS: 2400, NPool: 2}
	cfg.Standby = true
	cfg.LeaseTTL = 150 * time.Millisecond
	cfg.TaskRetry = 250 * time.Millisecond
	cfg.MaxTaskAttempts = 8
	cfg.RejoinTimeout = 2 * time.Second
	cfg.Obs = obs.NewRegistry()
	return cfg
}

// killAfterTrees starts the job, blocks until the primary has completed at
// least n trees, then kills it without warning. Returns the Train error.
func killAfterTrees(t *testing.T, c *Cluster, specs []TreeSpec, n int) error {
	t.Helper()
	trainErr := make(chan error, 1)
	go func() {
		_, err := c.Train(specs)
		trainErr <- err
	}()
	deadline := time.After(30 * time.Second)
	for c.Master.CompletedTrees() < n {
		select {
		case err := <-trainErr:
			t.Fatalf("job finished before the kill (err=%v); slow the config down", err)
		case <-deadline:
			t.Fatalf("fewer than %d trees completed within 30s", n)
		case <-time.After(time.Millisecond):
		}
	}
	c.KillMaster()
	return <-trainErr
}

// awaitFailover blocks until the standby finishes its takeover job.
func awaitFailover(t *testing.T, c *Cluster) []*core.Tree {
	t.Helper()
	select {
	case <-c.Standby.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("standby did not finish the job within 60s of the primary dying")
	}
	trees, err := c.Standby.Result()
	if err != nil {
		t.Fatalf("standby takeover failed: %v", err)
	}
	return trees
}

// TestStandbyFailoverDisklessBitIdentical is the tentpole guarantee: the
// primary dies mid-job with NO checkpoint directory configured, and the
// standby — fed only by the streamed records — finishes the forest
// bit-identical to the serial oracle, without any disk reload or
// RestartMaster call.
func TestStandbyFailoverDisklessBitIdentical(t *testing.T) {
	tbl := recoveryTable()
	specs := recoverySpecs(tbl.NumRows(), 8)

	cfg := standbyConfig()
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()
	if c.Master.cfg.CheckpointDir != "" {
		t.Fatal("test misconfigured: failover must be diskless")
	}

	trainErr := make(chan error, 1)
	go func() {
		_, err := c.Train(specs)
		trainErr <- err
	}()
	// Kill once at least two trees are replicated AND at least one lease
	// renewal has been acked — so the test covers the renew/ack path, not
	// just the initial grant.
	deadline := time.After(30 * time.Second)
	for {
		s := cfg.Obs.Snapshot().Master
		if c.Master.CompletedTrees() >= 2 && s.LeaseAcks >= 1 {
			break
		}
		select {
		case err := <-trainErr:
			t.Fatalf("job finished before the kill (err=%v); slow the config down", err)
		case <-deadline:
			t.Fatal("kill precondition (2 trees + 1 lease ack) not reached within 30s")
		case <-time.After(time.Millisecond):
		}
	}
	c.KillMaster()
	if err := <-trainErr; err == nil {
		t.Fatal("killed Train returned nil error")
	}
	got := awaitFailover(t, c)
	assertBitIdentical(t, got, serialOracle(tbl, specs))

	s := cfg.Obs.Snapshot().Master
	if s.Failovers != 1 {
		t.Fatalf("failovers %d, want 1", s.Failovers)
	}
	if s.StreamRecords < 3 { // job-start snapshot + >=2 tree-done records
		t.Fatalf("streamed %d records, want >= 3", s.StreamRecords)
	}
	if s.StreamApplied < 1 {
		t.Fatalf("replica applied %d records, want >= 1", s.StreamApplied)
	}
	if s.LeaseRenewals < 1 || s.LeaseAcks < 1 {
		t.Fatalf("lease traffic renewals=%d acks=%d, want both >= 1", s.LeaseRenewals, s.LeaseAcks)
	}
	if s.CheckpointSnapshots != 0 || s.CheckpointBytes != 0 {
		t.Fatalf("diskless run wrote %d snapshots / %d bytes to disk", s.CheckpointSnapshots, s.CheckpointBytes)
	}
}

// TestStandbyIdleWhilePrimaryHealthy: a healthy job with a standby attached
// completes normally on the primary; the standby replicates but never
// promotes, and the forest matches the oracle.
func TestStandbyIdleWhilePrimaryHealthy(t *testing.T) {
	tbl := recoveryTable()
	specs := recoverySpecs(tbl.NumRows(), 4)

	cfg := standbyConfig()
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()

	got, err := c.Train(specs)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	assertBitIdentical(t, got, serialOracle(tbl, specs))
	if c.Standby.Promoted() {
		t.Fatal("standby promoted under a healthy primary")
	}
	if applied, _ := c.Standby.ReplicaStats(); applied < 5 {
		// job-start snapshot + 4 tree-done records, at minimum
		t.Fatalf("replica applied %d records during a healthy job, want >= 5", applied)
	}
}

// TestStandbySetTargetAcrossFailover is the satellite-4 regression: a
// takeover immediately followed by the worker rejoin must leave the
// SetTarget machinery coherent. The workers' sequence fence resets with the
// rejoin (the promoted master counts from zero again), the resumed job keeps
// the regression schema recorded in the replicated snapshot, and the next
// boosting round applies exactly once per worker — no silent drop from a
// stale fence, no double-apply from resends. TargetApplies is the proof.
func TestStandbySetTargetAcrossFailover(t *testing.T) {
	tbl := recoveryTable()
	specs := recoverySpecs(tbl.NumRows(), 6)

	cfg := standbyConfig()
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()

	// Round 1 of a boosting cadence: swap in numeric labels, then train.
	y1 := make([]float64, tbl.NumRows())
	for i := range y1 {
		y1[i] = float64(i%7) - 3
	}
	if err := c.SetTarget(y1); err != nil {
		t.Fatalf("SetTarget round 1: %v", err)
	}
	for _, w := range c.Workers {
		if got := w.TargetApplies(); got != 1 {
			t.Fatalf("worker %d applied %d targets before the kill, want 1", w.ID(), got)
		}
	}

	if err := killAfterTrees(t, c, specs, 1); err == nil {
		t.Fatal("killed Train returned nil error")
	}
	got := awaitFailover(t, c)

	// The resumed regression job must match a serial run over the swapped
	// labels — proving the replicated snapshot carried the schema swap.
	cols := append([]*dataset.Column(nil), tbl.Cols...)
	cols[tbl.Target] = dataset.NewNumeric("Y", y1)
	swapped := &dataset.Table{Cols: cols, Target: tbl.Target}
	want := make([]*core.Tree, len(specs))
	for i, spec := range specs {
		want[i] = core.TrainLocal(swapped, spec.Bag.Rows(), spec.Params)
	}
	assertBitIdentical(t, got, want)

	// Round 2 against the promoted master: its sequence restarts at 1, which
	// the rejoin-reset worker fence must accept — and apply exactly once.
	promoted := c.Standby.Master()
	if promoted == nil {
		t.Fatal("no promoted master after failover")
	}
	y2 := make([]float64, tbl.NumRows())
	for i := range y2 {
		y2[i] = y1[i] * 0.5
	}
	if err := promoted.SetTarget(y2); err != nil {
		t.Fatalf("SetTarget round 2 on promoted master: %v", err)
	}
	for _, w := range c.Workers {
		if got := w.TargetApplies(); got != 2 {
			t.Fatalf("worker %d applied %d targets after failover round, want exactly 2", w.ID(), got)
		}
	}
}

// TestNoStandbyNoStreamTraffic pins the strictly-additive guarantee: with no
// standby configured, not one standby-protocol message crosses the fabric
// and the stream/lease counters stay zero, so scheduling and byte traffic
// are untouched.
func TestNoStandbyNoStreamTraffic(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{Name: "nostandby", Rows: 800, NumNumeric: 4,
		NumClasses: 2, ConceptDepth: 3, Seed: 9})
	cfg := testConfig()
	cfg.Obs = obs.NewRegistry()
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()
	if _, err := c.Train(recoverySpecs(tbl.NumRows(), 2)); err != nil {
		t.Fatalf("train: %v", err)
	}
	snap := cfg.Obs.Snapshot()
	for _, msg := range snap.Messages {
		switch msg.Type {
		case "cluster.CkptRecordMsg", "cluster.LeaseGrantMsg", "cluster.LeaseRenewMsg",
			"cluster.LeaseAckMsg", "cluster.TakeoverMsg":
			t.Fatalf("standby-protocol message %s on the wire without a standby", msg.Type)
		}
	}
	m := snap.Master
	if m.StreamRecords != 0 || m.LeaseRenewals != 0 || m.Failovers != 0 {
		t.Fatalf("standby counters moved without a standby: records=%d renewals=%d failovers=%d",
			m.StreamRecords, m.LeaseRenewals, m.Failovers)
	}
}

// TestStandbyConfigValidation pins the option surface: in-process, a lease
// without WithStandby has no standby to watch it, and NewStandby fills the
// master's default lease.
func TestStandbyConfigValidation(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{Name: "sbv", Rows: 300, NumNumeric: 3,
		NumClasses: 2, ConceptDepth: 2, Seed: 5})
	if _, err := NewInProcess(tbl, WithJobTimeout(time.Minute), func(c *Config) { c.LeaseTTL = time.Second }); err == nil ||
		!strings.Contains(err.Error(), "LeaseTTL set without Standby") {
		t.Fatalf("LeaseTTL without Standby: %v", err)
	}
	sb, err := NewStandby(transport.NewMemNetwork().Endpoint(StandbyName), StandbyConfig{
		MasterCfg: MasterConfig{NumWorkers: 1, StandbyName: StandbyName},
		Rebind:    func() (transport.Endpoint, error) { return nil, nil },
	})
	if err != nil {
		t.Fatalf("NewStandby: %v", err)
	}
	if sb.cfg.MasterCfg.LeaseTTL != DefaultLeaseTTL {
		t.Fatalf("standby lease = %v, want the default %v", sb.cfg.MasterCfg.LeaseTTL, DefaultLeaseTTL)
	}
}
