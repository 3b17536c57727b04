package cluster

import (
	"strings"
	"testing"
	"time"

	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/loadbal"
	"treeserver/internal/synth"
	"treeserver/internal/task"
	"treeserver/internal/transport"
)

// TestPassthroughModeMatchesSerial checks the zero-copy fabric variant
// (used by protocol-overhead benchmarks) still trains the exact tree: the
// protocol must not rely on the gob boundary for copy isolation of row
// index sets (workers must never mutate what they serve).
func TestPassthroughModeMatchesSerial(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{
		Name: "pass", Rows: 2500, NumNumeric: 5, NumCategorical: 2,
		NumClasses: 2, ConceptDepth: 4, Seed: 97,
	})
	c := newTestCluster(t, tbl, Config{
		MasterConfig: MasterConfig{
			NumWorkers: 3,
			Policy:     task.Policy{TauD: 300, TauDFS: 1200, NPool: 4},
		},
		Compers:     2,
		Passthrough: true,
	})
	defer c.Close()
	got, err := c.TrainOne(core.Defaults())
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	want := core.TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), core.Defaults())
	if !got.Equal(want) {
		t.Fatal("passthrough mode changed the tree")
	}
}

// TestBandwidthModelSlowsTraining enables the per-endpoint link model and
// checks the job still completes correctly, slower than unthrottled.
func TestBandwidthModelSlowsTraining(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{
		Name: "bw", Rows: 2500, NumNumeric: 6, NumClasses: 2, ConceptDepth: 4, Seed: 98,
	})
	run := func(bps float64) (time.Duration, *core.Tree) {
		c := newTestCluster(t, tbl, Config{
			MasterConfig: MasterConfig{
				NumWorkers: 3,
				Policy:     task.Policy{TauD: 300, TauDFS: 1200, NPool: 4},
			},
			Compers:      2,
			BandwidthBps: bps,
		})
		defer c.Close()
		start := time.Now()
		tr, err := c.TrainOne(core.Defaults())
		if err != nil {
			t.Fatalf("train(bw=%g): %v", bps, err)
		}
		return time.Since(start), tr
	}
	fastTime, fastTree := run(0)
	slowTime, slowTree := run(2e6) // 2 MB/s links
	if !fastTree.Equal(slowTree) {
		t.Fatal("bandwidth model changed the tree")
	}
	if slowTime <= fastTime {
		t.Fatalf("bandwidth model did not slow training: %v vs %v", slowTime, fastTime)
	}
}

// TestConfigDefaults pins the in-process defaults; NewMaster fills the rest.
func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.NumWorkers != 4 || cfg.Compers != 4 || cfg.Replicas != 2 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.JobTimeout != 5*time.Minute {
		t.Fatalf("timeout = %v", cfg.JobTimeout)
	}
	if one := (Config{MasterConfig: MasterConfig{NumWorkers: 1}}).withDefaults(); one.Replicas != 1 {
		t.Fatalf("defaulted k = %d on one worker, want it clamped to 1", one.Replicas)
	}
	neg := Config{MasterConfig: MasterConfig{JobTimeout: -1}}.withDefaults()
	if neg.JobTimeout != 0 {
		t.Fatal("negative timeout should disable")
	}
	m, err := NewMaster(transport.NewMemNetwork().Endpoint(MasterName), Schema{}, loadbal.Placement{}, cfg.MasterConfig)
	if err != nil {
		t.Fatalf("NewMaster: %v", err)
	}
	if m.cfg.Policy != task.DefaultPolicy() {
		t.Fatalf("policy = %+v", m.cfg.Policy)
	}
}

// TestMasterConfigValidate pins every configuration check. Each lives once,
// in MasterConfig.validate, which both NewMaster and NewInProcess call.
func TestMasterConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  MasterConfig
		want string // error substring; "" = valid
	}{
		{"valid", MasterConfig{NumWorkers: 4, Replicas: 2}, ""},
		{"negative workers", MasterConfig{NumWorkers: -1}, "NumWorkers -1 is negative"},
		{"negative replicas", MasterConfig{NumWorkers: 2, Replicas: -1}, "Replicas -1 is negative"},
		{"replicas exceed workers", MasterConfig{NumWorkers: 2, Replicas: 3}, "Replicas 3 exceeds NumWorkers 2"},
		{"negative fleet cap", MasterConfig{NumWorkers: 2, FleetCap: -1}, "FleetCap -1 is negative"},
		{"fleet cap below fleet", MasterConfig{NumWorkers: 4, FleetCap: 3}, "FleetCap 3 is below the initial fleet of 4"},
		{"unknown ablation", MasterConfig{NumWorkers: 1, Ablation: AblationMode(99)}, "unknown AblationMode(99)"},
		{"negative heartbeat budget", MasterConfig{NumWorkers: 1, HeartbeatBudget: -1}, "HeartbeatBudget -1 is negative"},
		{"negative tree restarts", MasterConfig{NumWorkers: 1, MaxTreeRestarts: -1}, "MaxTreeRestarts -1 is negative"},
		{"snapshots with nowhere to go", MasterConfig{NumWorkers: 1, CheckpointEvery: time.Second}, "CheckpointEvery set without CheckpointDir or StandbyName"},
		{"snapshots to the standby", MasterConfig{NumWorkers: 1, CheckpointEvery: time.Second, StandbyName: StandbyName}, ""},
		{"negative lease", MasterConfig{NumWorkers: 1, StandbyName: StandbyName, LeaseTTL: -time.Second}, "LeaseTTL -1s is negative"},
		{"lease without standby", MasterConfig{NumWorkers: 1, LeaseTTL: time.Second}, "LeaseTTL set without StandbyName"},
		{"negative hedge factor", MasterConfig{NumWorkers: 1, HedgeFactor: -1}, "HedgeFactor -1 is negative"},
		{"quarantine threshold 1", MasterConfig{NumWorkers: 1, QuarantineThreshold: 1}, "QuarantineThreshold 1 outside [0,1)"},
		{"negative quarantine threshold", MasterConfig{NumWorkers: 1, QuarantineThreshold: -0.1}, "QuarantineThreshold -0.1 outside [0,1)"},
		{"negative max quarantined", MasterConfig{NumWorkers: 1, MaxQuarantined: -1}, "MaxQuarantined -1 is negative"},
		{"unknown split mode", MasterConfig{NumWorkers: 1, SplitMode: SplitMode(9)}, "unknown SplitMode(9)"},
		{"one bin", MasterConfig{NumWorkers: 1, MaxBins: 1}, "MaxBins 1 must be"},
		{"negative bins", MasterConfig{NumWorkers: 1, MaxBins: -2}, "MaxBins -2 must be"},
		{"bins past uint16", MasterConfig{NumWorkers: 1, MaxBins: 60001}, "MaxBins 60001 must be"},
		{"most bins", MasterConfig{NumWorkers: 1, MaxBins: 60000}, ""},
	}
	for _, tc := range cases {
		err := tc.cfg.validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}

	// Both constructors report the same check with the same message.
	tbl := synth.GenerateTrain(synth.Spec{Name: "val", Rows: 200, NumNumeric: 3, NumClasses: 2, Seed: 73})
	const want = "cluster: HeartbeatBudget -1 is negative"
	if _, err := NewMaster(transport.NewMemNetwork().Endpoint(MasterName), Schema{}, loadbal.Placement{},
		MasterConfig{NumWorkers: 1, HeartbeatBudget: -1}); err == nil || err.Error() != want {
		t.Errorf("NewMaster: %v, want %q", err, want)
	}
	if _, err := NewInProcess(tbl, WithHeartbeatBudget(-1)); err == nil || err.Error() != want {
		t.Errorf("NewInProcess: %v, want %q", err, want)
	}
}
