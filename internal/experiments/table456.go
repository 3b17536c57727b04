package experiments

import (
	"fmt"
	"time"

	"treeserver/internal/boost"
	"treeserver/internal/cluster"
	"treeserver/internal/planet"
	"treeserver/internal/synth"
)

// table4Datasets returns the MS_LTRC- and c14B-like datasets used once
// MLlib became too slow on the bigger ones.
func table4Datasets(s Scale) []synth.PaperSpec {
	var out []synth.PaperSpec
	for _, ps := range synth.PaperSpecs(s.BaseRows) {
		switch ps.Spec.Name {
		case "ms_ltrc", "c14b":
			out = append(out, ps)
		}
	}
	if s.Quick {
		out = out[:1]
	}
	return out
}

// TableIV reproduces Tables IV(a)/(b): running time vs number of trees for
// TreeServer and MLlib. Paper shape: both grow linearly with trees (CPUs
// saturated), TreeServer several times faster throughout; accuracy flat
// for bagging.
func TableIV(s Scale) *Result {
	s = s.withDefaults()
	// Paper: 500/1000/1500/2000 trees; scaled by 10x for laptop runs.
	counts := []int{50, 100, 150, 200}
	if s.Quick {
		counts = []int{10, 20}
	}
	r := &Result{
		ID: "Table IV(a,b)", Title: "running time vs number of trees (random forest)",
		Header: Row{"dataset", "#trees", "TS time(s)", "TS acc", "MLlib time(s)", "MLlib acc"},
	}
	for _, ps := range table4Datasets(s) {
		train, test := generate(ps)
		for _, n := range counts {
			specs := rfSpecs(train, n, 17)
			tsTime, tsAcc := runTreeServer(s, train, test, specs)
			mlTime, mlAcc := runMLlib(s, train, test, specs, true)
			r.Rows = append(r.Rows, Row{
				ps.Spec.Name, fmt.Sprint(n),
				fmtSecs(tsTime), tsAcc, fmtSecs(mlTime), mlAcc,
			})
		}
	}
	r.Notes = append(r.Notes, "tree counts are the paper's 500..2000 scaled by 10x")
	return r
}

// TableIVc reproduces Table IV(c): XGBoost accuracy keeps improving with
// more trees (unlike bagging), at steeply growing cost.
func TableIVc(s Scale) *Result {
	s = s.withDefaults()
	counts := []int{10, 20, 40, 80, 100}
	if s.Quick {
		counts = []int{5, 20}
	}
	r := &Result{
		ID: "Table IV(c)", Title: "XGBoost-style boosting: trees vs time and accuracy",
		Header: Row{"dataset", "#trees", "time(s)", "acc"},
	}
	for _, ps := range table4Datasets(s) {
		train, test := generate(ps)
		for _, n := range counts {
			rounds := boostRounds(train, n)
			var acc string
			elapsed := timeIt(func() {
				m, err := boost.Train(train, boost.Config{Rounds: rounds, MaxDepth: 6})
				if err != nil {
					acc = "ERR:" + err.Error()
					return
				}
				acc = fmt.Sprintf("%.2f%%", m.Accuracy(test)*100)
			})
			r.Rows = append(r.Rows, Row{ps.Spec.Name, fmt.Sprint(n), fmtSecs(elapsed), acc})
		}
	}
	return r
}

// TableV reproduces Tables V(a)–(d): vertical scalability — compers per
// machine from 1 to 10. Paper shape: both systems speed up with threads,
// TreeServer stays a few times faster; gains flatten near the core count.
func TableV(s Scale) *Result {
	s = s.withDefaults()
	threads := []int{1, 2, 4, 8, 10}
	trees := 20
	if s.Quick {
		threads = []int{1, 4}
		trees = 8
	}
	r := &Result{
		ID: "Table V", Title: fmt.Sprintf("vertical scalability (%d-tree forest; time s)", trees),
		Header: Row{"#compers"},
	}
	specs := s.datasets()
	if len(specs) > 2 {
		specs = specs[:2] // the paper uses the first two datasets
	}
	for _, ps := range specs {
		r.Header = append(r.Header, "TS "+ps.Spec.Name, "MLlib "+ps.Spec.Name)
	}
	for _, th := range threads {
		row := Row{fmt.Sprint(th)}
		for _, ps := range specs {
			train, test := generate(ps)
			sc := s
			sc.Compers = th
			tsTime, _ := runTreeServer(sc, train, test, rfSpecs(train, trees, 19))
			mlCfg := s.mllibConfig(true)
			mlCfg.Parallelism = th * s.Workers
			mlTime := timeIt(func() {
				tr := &planet.Trainer{Table: train, Cfg: mlCfg}
				if _, err := tr.Train(rfSpecs(train, trees, 19)); err != nil {
					panic(err)
				}
			})
			row = append(row, fmtSecs(tsTime), fmtSecs(mlTime))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// TableVI reproduces Table VI: horizontal scalability — machines from 4 to
// the full cluster. Paper shape: time drops with machines while CPU% stays
// high and aggregate send rate grows toward the link limit.
func TableVI(s Scale) *Result {
	s = s.withDefaults()
	machines := []int{2, 4, 6, 8}
	trees := 20
	if s.Quick {
		machines = []int{2, 4}
		trees = 8
	}
	r := &Result{
		ID: "Table VI", Title: fmt.Sprintf("horizontal scalability (%d-tree forest)", trees),
		Header: Row{"dataset", "#machines", "time(s)", "CPU%", "send Mbps"},
	}
	specs := s.datasets()
	if len(specs) > 2 {
		specs = specs[:2]
	}
	for _, ps := range specs {
		train, test := generate(ps)
		for _, m := range machines {
			c := s.treeServer(train, cluster.WithWorkers(m))
			start := time.Now()
			if _, err := c.Train(rfSpecs(train, trees, 23)); err != nil {
				c.Close()
				panic(err)
			}
			met := c.MetricsSince(start)
			c.Close()
			_ = test
			r.Rows = append(r.Rows, Row{
				ps.Spec.Name, fmt.Sprint(m), fmt.Sprintf("%.3f", met.WallSeconds),
				fmt.Sprintf("%.0f%%", met.CPUUtilisation), fmt.Sprintf("%.1f", met.SendMbps),
			})
		}
	}
	r.Notes = append(r.Notes,
		"CPU% = average busy compers per machine x100 (paper convention); links unthrottled, so Mbps shows demand rather than a 1GigE ceiling")
	return r
}
