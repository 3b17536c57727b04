package traincli

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/core"
	"treeserver/internal/forest"
	"treeserver/internal/synth"
	"treeserver/internal/task"
)

// sharedDefaults are the 21 training flags both commands declare, with the
// defaults they share. -job and -compers default per command.
var sharedDefaults = map[string]string{
	"trees": "20", "dmax": "10", "tau-leaf": "1",
	"out": "", "model-name": "", "report": "false", "debug": "",
	"checkpoint-dir": "", "checkpoint-every": "0s", "resume": "false",
	"hedge-factor": "0", "quarantine-threshold": "0",
	"mode": "exact", "max-bins": "0",
	"standby": "false", "lease-ttl": "0s",
	"join": "0", "drain": "-1", "fleet-cap": "0",
}

func with(own map[string]string) map[string]string {
	all := map[string]string{}
	for k, v := range sharedDefaults {
		all[k] = v
	}
	for k, v := range own {
		all[k] = v
	}
	return all
}

// TestFlagNamesAndDefaults pins every flag of both commands: its name and
// its default. A renamed, dropped, added or re-defaulted flag fails here.
func TestFlagNamesAndDefaults(t *testing.T) {
	cases := []struct {
		command  string
		register func(*flag.FlagSet)
		want     map[string]string
	}{
		{"tstrain", func(fs *flag.FlagSet) { TstrainFlags(fs) }, with(map[string]string{
			"job": "rf", "compers": "4",
			"csv": "", "target": "", "force-categorical": "", "eval": "0",
			"workers": "4", "col-frac": "0", "seed": "1",
		})},
		{"treeserver", func(fs *flag.FlagSet) { TreeserverFlags(fs) }, with(map[string]string{
			"job": "dt", "compers": "10",
			"role": "local", "listen": "127.0.0.1:0", "master": "", "workers": "", "id": "0",
			"store": "", "table": "table",
			"tau-d": "10000", "tau-dfs": "80000", "npool": "200", "replicas": "2",
			"cluster-workers": "4",
			"standby-addr":    "", "advertise": "", "promote-listen": "",
		})},
	}
	if len(sharedDefaults)+2 != 21 {
		t.Fatalf("%d shared flags listed, want 21", len(sharedDefaults)+2)
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet(tc.command, flag.ContinueOnError)
		tc.register(fs)
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		for name, def := range tc.want {
			if g, ok := got[name]; !ok {
				t.Errorf("%s: flag -%s missing", tc.command, name)
			} else if g != def {
				t.Errorf("%s: -%s defaults to %q, want %q", tc.command, name, g, def)
			}
		}
		for name := range got {
			if _, ok := tc.want[name]; !ok {
				t.Errorf("%s: unexpected flag -%s", tc.command, name)
			}
		}
	}
}

func parse(t *testing.T, register func(*flag.FlagSet), args ...string) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
}

// TestCommandsTrainIdenticalTrees trains one table through tstrain's flag
// path and through treeserver's -role local flag path, as each job kind at
// seed 1, and asserts the two commands' trees are identical.
//
// The commands schedule differently: tstrain scales τ_D to the table,
// treeserver keeps the paper's thresholds. Decision trees and random forests
// must still match each other and the serial trainer. Distributed
// extra-trees draw their random columns in task-completion order, so they
// are reproducible only when every tree runs as a single subtree task (a
// known limitation, see DESIGN.md); the xt case uses a table of 64 rows,
// which is within τ_D under both commands.
func TestCommandsTrainIdenticalTrees(t *testing.T) {
	for _, tc := range []struct {
		job    string
		rows   int
		serial bool
	}{{"dt", 1500, true}, {"rf", 1500, true}, {"xt", 64, false}} {
		tbl := synth.GenerateTrain(synth.Spec{Name: "cli", Rows: tc.rows, NumNumeric: 5, NumCategorical: 2,
			CatLevels: 4, NumClasses: 3, MissingRate: 0.05, ConceptDepth: 5, LabelNoise: 0.05, Seed: 31})
		var ts *Tstrain
		parse(t, func(fs *flag.FlagSet) { ts = TstrainFlags(fs) },
			"-csv", "unused.csv", "-target", "y", "-job", tc.job, "-trees", "3", "-compers", "2", "-seed", "1")
		var srv *Treeserver
		parse(t, func(fs *flag.FlagSet) { srv = TreeserverFlags(fs) },
			"-role", "local", "-job", tc.job, "-trees", "3", "-compers", "2")

		viaTstrain, err := ts.Train(tbl)
		if err != nil {
			t.Fatalf("%s via tstrain: %v", tc.job, err)
		}
		viaTreeserver, err := srv.TrainLocal(tbl)
		if err != nil {
			t.Fatalf("%s via treeserver: %v", tc.job, err)
		}
		if len(viaTstrain.Trees) != len(viaTreeserver.Trees) {
			t.Fatalf("%s: %d trees via tstrain, %d via treeserver", tc.job, len(viaTstrain.Trees), len(viaTreeserver.Trees))
		}
		for i := range viaTstrain.Trees {
			if d := core.DiffTrees(viaTstrain.Trees[i], viaTreeserver.Trees[i]); d != "" {
				t.Errorf("%s tree %d: tstrain and treeserver differ: %s", tc.job, i, d)
			}
		}
		if !tc.serial {
			continue
		}
		spec, err := srv.Model()
		if err != nil {
			t.Fatal(err)
		}
		serial, err := forest.TrainModels(&forest.Local{Table: tbl, Parallelism: 1}, cluster.SchemaOf(tbl), []forest.ModelSpec{spec})
		if err != nil {
			t.Fatal(err)
		}
		want := serial[0].Forest.Trees
		if len(want) != len(viaTstrain.Trees) {
			t.Fatalf("%s: %d serial trees, %d distributed", tc.job, len(want), len(viaTstrain.Trees))
		}
		for i := range want {
			if d := core.DiffTrees(viaTstrain.Trees[i], want[i]); d != "" {
				t.Errorf("%s tree %d: differs from the serial trainer: %s", tc.job, i, d)
			}
		}
	}
}

// TestTCPMasterAndStandbyShareConfig: the master role and the standby role,
// which runs the job after a takeover, build the same master configuration
// from the same flags; only AdvertiseAddr, which the caller sets, differs.
func TestTCPMasterAndStandbyShareConfig(t *testing.T) {
	args := []string{"-workers", "h1:1,h2:2,h3:3", "-replicas", "3", "-tau-d", "500",
		"-checkpoint-dir", "/ckpt", "-checkpoint-every", "5s", "-hedge-factor", "4",
		"-quarantine-threshold", "0.3", "-mode", "hist", "-max-bins", "32", "-lease-ttl", "3s"}
	build := func(role string, extra ...string) cluster.MasterConfig {
		var s *Treeserver
		parse(t, func(fs *flag.FlagSet) { s = TreeserverFlags(fs) }, append(append([]string{"-role", role}, args...), extra...)...)
		cfg, err := s.MasterConfig(3)
		if err != nil {
			t.Fatalf("%s: %v", role, err)
		}
		return cfg
	}
	master := build("master", "-standby-addr", "hs:9")
	standby := build("standby")
	if master != standby {
		t.Fatalf("master and standby configs differ:\n%+v\n%+v", master, standby)
	}
	want := cluster.MasterConfig{
		NumWorkers: 3, Replicas: 3, Heartbeat: time.Second,
		Policy:        task.Policy{TauD: 500, TauDFS: 80000, NPool: 200},
		CheckpointDir: "/ckpt", CheckpointEvery: 5 * time.Second,
		StandbyName: cluster.StandbyName, LeaseTTL: 3 * time.Second,
		HedgeFactor: 4, QuarantineThreshold: 0.3, SplitMode: cluster.SplitHist, MaxBins: 32,
	}
	if master != want {
		t.Fatalf("config = %+v, want %+v", master, want)
	}

	// Over TCP a lease needs a standby process to stream to.
	var s *Treeserver
	parse(t, func(fs *flag.FlagSet) { s = TreeserverFlags(fs) }, "-role", "master", "-lease-ttl", "1s")
	if _, err := s.MasterConfig(2); err == nil || !strings.Contains(err.Error(), "-standby-addr") {
		t.Fatalf("lease without -standby-addr: %v", err)
	}
	parse(t, func(fs *flag.FlagSet) { s = TreeserverFlags(fs) }, "-role", "master", "-resume")
	if _, err := s.MasterConfig(2); err == nil || !strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("-resume without -checkpoint-dir: %v", err)
	}
}
