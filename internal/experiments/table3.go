package experiments

import (
	"fmt"

	"treeserver/internal/cluster"
	"treeserver/internal/synth"
	"treeserver/internal/task"
)

// table3Datasets returns the three datasets the paper uses in Table III:
// Allstate, Higgs_boson and KDD99 (their synthetic equivalents).
func table3Datasets(s Scale) []synth.PaperSpec {
	var out []synth.PaperSpec
	for _, ps := range synth.PaperSpecs(s.BaseRows) {
		switch ps.Spec.Name {
		case "allstate", "higgs_boson", "kdd99":
			out = append(out, ps)
		}
	}
	if s.Quick {
		out = out[:1]
	}
	return out
}

// trainWithPolicy runs a 20-tree forest job under an explicit scheduling
// policy and reports wall time + peak heap.
func trainWithPolicy(s Scale, ps synth.PaperSpec, pol task.Policy, trees int) (secs, memMB float64) {
	train, _ := generate(ps)
	c := s.treeServer(train, cluster.WithPolicy(pol))
	defer c.Close()
	specs := rfSpecs(train, trees, 13)
	elapsed, peak := peakHeapDuring(func() {
		if _, err := c.Train(specs); err != nil {
			panic(err)
		}
	})
	return elapsed.Seconds(), peak
}

// TableIIINPool reproduces Tables III(a)–(c): the effect of n_pool on a
// 20-tree random forest. Paper shape: time drops steeply as n_pool grows
// from 1 (strictly sequential trees) and flattens once CPUs saturate;
// memory grows only mildly.
func TableIIINPool(s Scale) *Result {
	s = s.withDefaults()
	trees := 20
	npools := []int{1, 5, 10, 20}
	if s.Quick {
		trees, npools = 8, []int{1, 8}
	}
	r := &Result{
		ID: "Table III(a-c)", Title: fmt.Sprintf("effect of n_pool (%d-tree forest; time s / peak heap MB)", trees),
		Header: Row{"n_pool"},
	}
	specs := table3Datasets(s)
	for _, ps := range specs {
		r.Header = append(r.Header, ps.Spec.Name+" time", ps.Spec.Name+" mem")
	}
	for _, np := range npools {
		row := Row{fmt.Sprint(np)}
		for _, ps := range specs {
			pol := policyFor(ps.Spec.Rows)
			pol.NPool = np
			secs, mem := trainWithPolicy(s, ps, pol, trees)
			row = append(row, fmt.Sprintf("%.3f", secs), fmt.Sprintf("%.1f", mem))
		}
		r.Rows = append(r.Rows, row)
	}
	r.Notes = append(r.Notes, "peak heap sampled process-wide; the paper reports per-machine peaks")
	return r
}

// TableIIITauDFS reproduces Table III(d): sweeping τ_dfs with τ_D fixed at
// its default. Paper shape: a shallow U — too small starves initial
// parallelism, too large delays compute-bound subtree tasks.
func TableIIITauDFS(s Scale) *Result {
	s = s.withDefaults()
	trees := 20
	// The paper sweeps 20k..150k at 13M rows; scale the same fractions.
	fracs := []struct {
		label string
		num   int
		den   int
	}{{"rows/32", 1, 32}, {"rows/8", 1, 8}, {"rows/2", 1, 2}, {"rows*3/4", 3, 4}, {"rows", 1, 1}}
	if s.Quick {
		trees = 8
		fracs = fracs[1:4]
	}
	r := &Result{
		ID: "Table III(d)", Title: fmt.Sprintf("effect of tau_dfs (%d-tree forest, tau_D = rows/10; time s)", trees),
		Header: Row{"tau_dfs"},
	}
	specs := table3Datasets(s)
	for _, ps := range specs {
		r.Header = append(r.Header, ps.Spec.Name)
	}
	for _, f := range fracs {
		row := Row{f.label}
		for _, ps := range specs {
			pol := policyFor(ps.Spec.Rows)
			pol.TauDFS = ps.Spec.Rows * f.num / f.den
			if pol.TauDFS <= pol.TauD {
				pol.TauDFS = pol.TauD + 1
			}
			secs, _ := trainWithPolicy(s, ps, pol, trees)
			row = append(row, fmt.Sprintf("%.3f", secs))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// TableIIITauD reproduces Table III(e): sweeping τ_D with τ_dfs fixed.
// Paper shape: small τ_D makes subtree tasks too tiny to saturate cores,
// large τ_D leaves too few tasks for balance; the middle wins.
func TableIIITauD(s Scale) *Result {
	s = s.withDefaults()
	trees := 20
	// The paper sweeps absolute τ_D = 2k..20k on multi-million-row data; at
	// laptop scale the equivalent fractional sweep starts at rows/24 — a
	// rows/64 point would make subtree tasks of ~75 rows, where the master's
	// per-task overhead dominates everything (the very effect the left edge
	// of the paper's U-curve shows, but far off-scale).
	fracs := []struct {
		label string
		num   int
		den   int
	}{{"rows/24", 1, 24}, {"rows/10", 1, 10}, {"rows/4", 1, 4}, {"rows/2", 1, 2}}
	if s.Quick {
		trees = 8
		fracs = fracs[:3]
	}
	r := &Result{
		ID: "Table III(e)", Title: fmt.Sprintf("effect of tau_D (%d-tree forest, tau_dfs = rows/2; time s)", trees),
		Header: Row{"tau_D"},
	}
	specs := table3Datasets(s)
	for _, ps := range specs {
		r.Header = append(r.Header, ps.Spec.Name)
	}
	for _, f := range fracs {
		row := Row{f.label}
		for _, ps := range specs {
			pol := policyFor(ps.Spec.Rows)
			pol.TauD = ps.Spec.Rows * f.num / f.den
			if pol.TauD < 16 {
				pol.TauD = 16
			}
			if pol.TauDFS <= pol.TauD {
				pol.TauDFS = pol.TauD * 2
			}
			secs, _ := trainWithPolicy(s, ps, pol, trees)
			row = append(row, fmt.Sprintf("%.3f", secs))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}
