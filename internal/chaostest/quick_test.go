package chaostest

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/synth"
	"treeserver/internal/task"
)

// TestPropertyFaultFreeEquivalence is the fault-free half of the harness: a
// quick-style property test asserting that on a clean in-memory fabric the
// distributed forest and boosted-model trainers equal the serial trainer
// bit-for-bit, over randomly drawn datasets, policies and cluster shapes.
// quick.Check draws trial seeds from a fixed-seed source, so the run is
// reproducible; every trial derives all of its parameters from its one seed,
// which is logged before the trial starts.
func TestPropertyFaultFreeEquivalence(t *testing.T) {
	trials := 5
	if testing.Short() {
		trials = 2
	}
	prop := func(seed int64) bool {
		propertyTrial(t, seed)
		return !t.Failed()
	}
	cfg := &quick.Config{MaxCount: trials, Rand: rand.New(rand.NewSource(0x7ee5))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatalf("property violated: %v", err)
	}
}

// propertyTrial derives one random configuration from seed and runs it
// through the same harness as the grid, minus the chaos wrap (Raw).
func propertyTrial(t *testing.T, seed int64) {
	t.Helper()
	t.Logf("property trial seed=%d", seed)
	rng := rand.New(rand.NewSource(seed))

	classes := []int{0, 2, 2, 3}[rng.Intn(4)] // regression, binary (×2), 3-class
	spec := synth.Spec{
		Name:           fmt.Sprintf("prop-%d", seed),
		Rows:           400 + rng.Intn(900),
		NumNumeric:     3 + rng.Intn(6),
		NumCategorical: rng.Intn(4),
		CatLevels:      4 + rng.Intn(5),
		NumClasses:     classes,
		MissingRate:    float64(rng.Intn(3)) * 0.05,
		ConceptDepth:   4 + rng.Intn(3),
		LabelNoise:     0.05,
		Seed:           rng.Int63(),
	}
	tauD := 100 + rng.Intn(300)
	cell := Cell{
		Name: spec.Name,
		Raw:  true,
		Seed: seed,
		Data: spec,
		Cluster: cluster.Config{
			MasterConfig: cluster.MasterConfig{
				NumWorkers: 2 + rng.Intn(4),
				Replicas:   1 + rng.Intn(2),
				Policy:     task.Policy{TauD: tauD, TauDFS: 2*tauD + rng.Intn(800), NPool: 4 + rng.Intn(8)},
				JobTimeout: time.Minute,
			},
			Compers:     1 + rng.Intn(3),
			Passthrough: rng.Intn(2) == 0, // cover both fabric serialisation modes
		},
		Trees:    1 + rng.Intn(2),
		MaxDepth: 5 + rng.Intn(4),
	}
	if rng.Intn(2) == 0 {
		cell.Bag = spec.Rows * 3 / 4
	}
	if classes != 3 { // boosting needs regression or binary labels
		cell.GBTRounds = 1 + rng.Intn(2)
	}
	Run(t, cell)
}
