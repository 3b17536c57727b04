package experiments

import (
	"fmt"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/dfs"
	"treeserver/internal/synth"
	"treeserver/internal/task"
)

// AblationMasterRelay quantifies the Section-V design: master outbound
// bytes with delegate-worker row serving vs the naive master-relayed I_x.
// Expected: relayed rows inflate master traffic by an order of magnitude on
// deep trees.
func AblationMasterRelay(s Scale) *Result {
	s = s.withDefaults()
	ps, _ := synth.PaperSpecByName("higgs_boson", s.BaseRows)
	train, _ := generate(ps)
	r := &Result{
		ID: "Ablation: row relaying", Title: "Section V — master outbound traffic with vs without delegate workers",
		Header: Row{"mode", "time(s)", "master sent MB", "workers sent MB"},
	}
	for _, relay := range []bool{false, true} {
		abl := cluster.AblationNone
		if relay {
			abl = cluster.AblationRelayRows
		}
		c := s.treeServer(train, cluster.WithAblation(abl))
		start := time.Now()
		if _, err := c.Train(singleTreeSpec()); err != nil {
			c.Close()
			panic(err)
		}
		met := c.MetricsSince(start)
		c.Close()
		mode := "delegate workers (TreeServer)"
		if relay {
			mode = "master relays I_x (naive)"
		}
		r.Rows = append(r.Rows, Row{
			mode, fmt.Sprintf("%.3f", met.WallSeconds),
			fmt.Sprintf("%.2f", float64(met.MasterSentBytes)/1e6),
			fmt.Sprintf("%.2f", float64(met.WorkerSentBytes)/1e6),
		})
	}
	return r
}

// AblationSchedPolicy compares the hybrid BFS/DFS deque policy against pure
// breadth-first (τ_dfs = 0: everything appended) and pure depth-first
// (τ_dfs = ∞: everything at the head) on a multi-tree job.
func AblationSchedPolicy(s Scale) *Result {
	s = s.withDefaults()
	ps, _ := synth.PaperSpecByName("higgs_boson", s.BaseRows)
	train, _ := generate(ps)
	trees := 20
	if s.Quick {
		trees = 8
	}
	base := policyFor(train.NumRows())
	modes := []struct {
		name string
		pol  task.Policy
	}{
		{"hybrid (paper)", base},
		{"pure BFS", task.Policy{TauD: base.TauD, TauDFS: 0, NPool: base.NPool}},
		{"pure DFS", task.Policy{TauD: base.TauD, TauDFS: 1 << 30, NPool: base.NPool}},
	}
	r := &Result{
		ID: "Ablation: scheduling", Title: fmt.Sprintf("hybrid vs pure BFS/DFS deque policy (%d-tree forest)", trees),
		Header: Row{"policy", "time(s)", "CPU%"},
	}
	for _, m := range modes {
		c := s.treeServer(train, cluster.WithPolicy(m.pol))
		start := time.Now()
		if _, err := c.Train(rfSpecs(train, trees, 37)); err != nil {
			c.Close()
			panic(err)
		}
		met := c.MetricsSince(start)
		c.Close()
		r.Rows = append(r.Rows, Row{m.name, fmt.Sprintf("%.3f", met.WallSeconds), fmt.Sprintf("%.0f%%", met.CPUUtilisation)})
	}
	return r
}

// AblationColumnGroups quantifies the Section-VII storage claim: loading
// all columns from the DFS with one file per column vs grouped columns,
// under HDFS-like connection latency.
func AblationColumnGroups(s Scale) *Result {
	s = s.withDefaults()
	ps, _ := synth.PaperSpecByName("c14b", s.BaseRows) // 700 columns
	train, _ := generate(ps)
	r := &Result{
		ID: "Ablation: column grouping", Title: "Section VII — DFS load cost, one file per column vs column groups",
		Header: Row{"layout", "files opened", "simulated IO", "bytes MB"},
	}
	for _, grouping := range []struct {
		name string
		cols int
	}{{"1 column/file", 1}, {"50 columns/file", 50}} {
		store := dfs.NewStore(dfs.Config{ConnectLatency: 2 * time.Millisecond, ThroughputBps: 500e6})
		layout, err := dfs.PutTable(store, "tbl", train, grouping.cols, train.NumRows()/4+1)
		if err != nil {
			panic(err)
		}
		store.ResetStats()
		if _, err := dfs.LoadColumns(store, "tbl", layout, train.FeatureIndexes()); err != nil {
			panic(err)
		}
		st := store.Stats()
		r.Rows = append(r.Rows, Row{
			grouping.name, fmt.Sprint(st.Opens), st.SimulatedTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", float64(st.BytesRead)/1e6),
		})
	}
	return r
}

// AblationLoadBal compares the Section-VI cost-model assignment against
// round-robin: wall time and the busy-time spread across workers.
func AblationLoadBal(s Scale) *Result {
	s = s.withDefaults()
	ps, _ := synth.PaperSpecByName("kdd99", s.BaseRows)
	train, _ := generate(ps)
	trees := 20
	if s.Quick {
		trees = 8
	}
	r := &Result{
		ID: "Ablation: load balancing", Title: fmt.Sprintf("M_work cost model vs round-robin assignment (%d-tree forest)", trees),
		Header: Row{"assigner", "time(s)", "busiest worker(s)", "idlest worker(s)"},
	}
	for _, rr := range []bool{false, true} {
		mode := cluster.AblationNone
		if rr {
			mode = cluster.AblationRoundRobin
		}
		c := s.treeServer(train, cluster.WithAblation(mode))
		start := time.Now()
		if _, err := c.Train(rfSpecs(train, trees, 41)); err != nil {
			c.Close()
			panic(err)
		}
		met := c.MetricsSince(start)
		c.Close()
		minB, maxB := met.WorkerBusy[0], met.WorkerBusy[0]
		for _, b := range met.WorkerBusy[1:] {
			if b < minB {
				minB = b
			}
			if b > maxB {
				maxB = b
			}
		}
		name := "M_work cost model (paper)"
		if rr {
			name = "round-robin"
		}
		r.Rows = append(r.Rows, Row{name, fmt.Sprintf("%.3f", met.WallSeconds),
			fmt.Sprintf("%.3f", maxB), fmt.Sprintf("%.3f", minB)})
	}
	return r
}
