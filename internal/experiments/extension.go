package experiments

import (
	"fmt"
	"time"

	"treeserver/internal/gbt"
	"treeserver/internal/synth"
)

// ExtensionGBT documents the repository's extension beyond the paper:
// gradient boosting driven through the TreeServer engine (sequential rounds,
// distributed exact trees within each round). It reports accuracy vs rounds
// — Table IV(c)'s shape — and compares wall time against the purely serial
// reference to show the within-round parallelism.
func ExtensionGBT(s Scale) *Result {
	s = s.withDefaults()
	rounds := []int{5, 15, 30}
	if s.Quick {
		rounds = []int{3, 10}
	}
	ps, _ := synth.PaperSpecByName("higgs_boson", s.BaseRows)
	train, test := generate(ps)
	r := &Result{
		ID: "Extension: distributed GBT", Title: "gradient boosting on TreeServer (binary logistic, depth-4 trees)",
		Header: Row{"rounds", "cluster time(s)", "serial time(s)", "test accuracy"},
	}
	for _, n := range rounds {
		cfg := gbt.Config{Rounds: n, MaxDepth: 4, LearningRate: 0.3}

		c := s.treeServer(train)
		start := time.Now()
		distModel, err := gbt.Train(c, train, cfg)
		if err != nil {
			c.Close()
			panic(err)
		}
		distTime := time.Since(start)
		c.Close()

		start = time.Now()
		serialModel, err := gbt.Train(&gbt.LocalEngine{Table: train}, train, cfg)
		if err != nil {
			panic(err)
		}
		serialTime := time.Since(start)
		if a, b := distModel.Accuracy(test), serialModel.Accuracy(test); a != b {
			panic(fmt.Sprintf("distributed gbt accuracy %.4f != serial %.4f", a, b))
		}
		r.Rows = append(r.Rows, Row{
			fmt.Sprint(n), fmtSecs(distTime), fmtSecs(serialTime),
			fmt.Sprintf("%.2f%%", distModel.Accuracy(test)*100),
		})
	}
	r.Notes = append(r.Notes,
		"distributed and serial models are verified identical; rounds stay sequential but each round's exact tree trains on the cluster")
	return r
}
