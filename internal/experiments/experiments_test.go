package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/dataset"
)

// tinyScale keeps smoke tests fast.
func tinyScale() Scale {
	return Scale{BaseRows: 6000, Workers: 3, Compers: 2, Quick: true}
}

func checkResult(t *testing.T, r *Result, minRows int) {
	t.Helper()
	if r.ID == "" || r.Title == "" {
		t.Fatal("result missing id/title")
	}
	if len(r.Rows) < minRows {
		t.Fatalf("%s: %d rows, want >= %d", r.ID, len(r.Rows), minRows)
	}
	for i, row := range r.Rows {
		if len(row) != len(r.Header) {
			t.Fatalf("%s row %d has %d cells, header has %d", r.ID, i, len(row), len(r.Header))
		}
		for _, cell := range row {
			if strings.HasPrefix(cell, "ERR:") {
				t.Fatalf("%s row %d: %s", r.ID, i, cell)
			}
		}
	}
	var sb strings.Builder
	r.Fprint(&sb)
	if !strings.Contains(sb.String(), r.ID) {
		t.Fatalf("%s: render missing id", r.ID)
	}
}

// parseSecs reads a seconds cell.
func parseSecs(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("bad seconds cell %q: %v", cell, err)
	}
	return v
}

func TestTableIIaShape(t *testing.T) {
	r := TableIIa(tinyScale())
	checkResult(t, r, 3)
	// The headline claim: TreeServer no slower than parallel MLlib on any
	// dataset at this scale (the paper reports consistent wins).
	wins := 0
	for _, row := range r.Rows {
		ts, ml := parseSecs(t, row[1]), parseSecs(t, row[3])
		if ts < ml {
			wins++
		}
	}
	if wins < 2 {
		t.Fatalf("TreeServer won only %d/%d datasets against MLlib", wins, len(r.Rows))
	}
}

func TestTableIIbShape(t *testing.T) {
	checkResult(t, TableIIb(tinyScale()), 3)
}

func TestTableIIcShape(t *testing.T) {
	r := TableIIc(tinyScale())
	checkResult(t, r, 3)
	// Boosting is sequential: TreeServer must be faster on most datasets.
	wins := 0
	for _, row := range r.Rows {
		if parseSecs(t, row[1]) < parseSecs(t, row[3]) {
			wins++
		}
	}
	if wins < 2 {
		t.Fatalf("TreeServer beat boosting on only %d/%d datasets", wins, len(r.Rows))
	}
}

func TestTableIIINPoolShape(t *testing.T) {
	// The paper's 3-6x n_pool effect comes from hiding network latency; in
	// process the latency is microseconds, so the measurable effect is a
	// modest improvement. Assert direction with tolerance at a scale where
	// a tree is non-trivial (see EXPERIMENTS.md for the discussion).
	s := Scale{BaseRows: 40000, Workers: 4, Compers: 4, Quick: true}.withDefaults()
	checkResult(t, TableIIINPool(s), 2)
	ps := table3Datasets(s)[0]
	arm := func(npool int) func() time.Duration {
		pol := policyFor(ps.Spec.Rows)
		pol.NPool = npool
		return func() time.Duration {
			secs, _ := trainWithPolicy(s, ps, pol, 8)
			return time.Duration(secs * float64(time.Second))
		}
	}
	times := fastestRuns(9, arm(1), arm(8))
	if first, last := times[0], times[1]; last > first*115/100 {
		t.Fatalf("larger n_pool slowed the job down: npool=1 %v vs max pool %v (fastest of 9 alternating runs each)", first, last)
	}
}

func TestTableIIITauSweepsRun(t *testing.T) {
	checkResult(t, TableIIITauDFS(tinyScale()), 2)
	checkResult(t, TableIIITauD(tinyScale()), 2)
}

// fastestRuns runs every arm rounds times, alternating the arms, and
// returns each arm's fastest time (each arm times its own training). A table
// cell is one sample taken at one moment, and under `go test ./...` other
// packages' tests share the CPU in bursts, so a burst during one arm's only
// sample would decide a comparison. Outside load only ever adds time: the
// minimum is the run it disturbed least, and alternating keeps a burst from
// landing on one arm alone.
func fastestRuns(rounds int, arms ...func() time.Duration) []time.Duration {
	fastest := make([]time.Duration, len(arms))
	for round := 0; round < rounds; round++ {
		for i, run := range arms {
			if d := run(); round == 0 || d < fastest[i] {
				fastest[i] = d
			}
		}
	}
	return fastest
}

// treeServerArm times TreeServer training of specs at scale s.
func treeServerArm(s Scale, train, test *dataset.Table, specs []cluster.TreeSpec) func() time.Duration {
	return func() time.Duration {
		d, _ := runTreeServer(s, train, test, specs)
		return d
	}
}

func TestTableIVShape(t *testing.T) {
	s := tinyScale().withDefaults()
	checkResult(t, TableIV(s), 2)
	// Time grows with tree count for TreeServer.
	train, test := generate(table4Datasets(s)[0])
	times := fastestRuns(5, treeServerArm(s, train, test, rfSpecs(train, 10, 17)),
		treeServerArm(s, train, test, rfSpecs(train, 20, 17)))
	if times[0] >= times[1] {
		t.Fatalf("time did not grow with trees: 10 trees %v, 20 trees %v (fastest of 5 alternating runs each)", times[0], times[1])
	}
}

func TestTableIVcShape(t *testing.T) {
	checkResult(t, TableIVc(tinyScale()), 2)
}

func TestTableVShape(t *testing.T) {
	s := tinyScale().withDefaults()
	checkResult(t, TableV(s), 2)
	// More compers must not slow TreeServer down substantially: allow
	// scheduling noise but expect the 4-comper run within 1.5x of 1-comper.
	train, test := generate(s.datasets()[0])
	specs := rfSpecs(train, 8, 19)
	one, four := s, s
	one.Compers, four.Compers = 1, 4
	times := fastestRuns(9, treeServerArm(one, train, test, specs), treeServerArm(four, train, test, specs))
	if t1, t4 := times[0], times[1]; t4 > t1*3/2 {
		t.Fatalf("vertical scaling regressed: 1 comper %v, 4 compers %v (fastest of 9 alternating runs each)", t1, t4)
	}
}

func TestTableVIShape(t *testing.T) {
	checkResult(t, TableVI(tinyScale()), 2)
}

func TestTableVIIShape(t *testing.T) {
	r := TableVII(tinyScale())
	checkResult(t, r, 5)
	// Step names mirror the paper's Table VII.
	seen := map[string]bool{}
	for _, row := range r.Rows {
		seen[row[0]] = true
	}
	for _, step := range []string{"slide", "win5train", "win5extract", "CF0train", "CF0extract"} {
		if !seen[step] {
			t.Fatalf("missing step %q", step)
		}
	}
}

func TestTableVIIIShapes(t *testing.T) {
	// The dmax direction (accuracy keeps improving with depth) needs enough
	// rows per leaf; the tiny scale floors at 2000 rows and inverts, so
	// this one experiment runs at a higgs-like size of ~12k rows.
	r := TableVIIIDmax(Scale{BaseRows: 60000, Workers: 3, Compers: 4, Quick: true})
	checkResult(t, r, 3)
	parse := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
		if err != nil {
			t.Fatalf("bad accuracy cell %q", cell)
		}
		return v
	}
	if parse(r.Rows[0][2]) >= parse(r.Rows[len(r.Rows)-1][2]) {
		t.Fatalf("1-tree accuracy did not improve with dmax: %s -> %s",
			r.Rows[0][2], r.Rows[len(r.Rows)-1][2])
	}
	checkResult(t, TableVIIICols(tinyScale()), 2)
}

func TestFairnessShape(t *testing.T) {
	checkResult(t, Fairness(tinyScale()), 3)
}

func TestAblationsRun(t *testing.T) {
	relay := AblationMasterRelay(tinyScale())
	checkResult(t, relay, 2)
	// The relay row must show strictly more master traffic.
	lean, _ := strconv.ParseFloat(relay.Rows[0][2], 64)
	relayed, _ := strconv.ParseFloat(relay.Rows[1][2], 64)
	if relayed <= lean {
		t.Fatalf("relay mode master traffic %.2fMB not above delegate mode %.2fMB", relayed, lean)
	}
	checkResult(t, AblationSchedPolicy(tinyScale()), 3)

	groups := AblationColumnGroups(tinyScale())
	checkResult(t, groups, 2)
	opens1, _ := strconv.Atoi(groups.Rows[0][1])
	opensG, _ := strconv.Atoi(groups.Rows[1][1])
	if opensG >= opens1 {
		t.Fatalf("grouping did not reduce opens: %d vs %d", opensG, opens1)
	}
	checkResult(t, AblationLoadBal(tinyScale()), 2)
}

func TestByIDAndIDsAgree(t *testing.T) {
	for _, id := range IDs() {
		if _, ok := ByID(id); !ok {
			t.Fatalf("id %q not resolvable", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id resolved")
	}
}
