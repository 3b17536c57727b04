package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestRunnerAlternatesArmsAfterWarmup pins the runner's schedule: one
// untimed warm-up per arm, then the arms round-robin, and only the timed
// calls become samples.
func TestRunnerAlternatesArmsAfterWarmup(t *testing.T) {
	var calls []string
	counter := map[string]int{}
	mk := func(name string) arm {
		return arm{name, func() []float64 {
			calls = append(calls, name)
			counter[name]++
			if counter[name] == 1 {
				return []float64{1000} // the warm-up: must not become a sample
			}
			return []float64{float64(counter[name] - 1)}
		}}
	}
	r := &runner{reps: 3}
	r.run("s", abCase{name: "c", metrics: []metric{{"wall_ms", "ms"}}, ratio: "overhead",
		arms: []arm{mk("A"), mk("B")}})
	want := []string{"A", "B", "A", "B", "A", "B", "A", "B"}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("call order %v, want %v", calls, want)
	}
	if len(r.records) != 3 {
		t.Fatalf("got %d records, want A and B samples plus one ratio", len(r.records))
	}
	for _, rec := range r.records[:2] {
		if !reflect.DeepEqual(rec.Samples, []float64{1, 2, 3}) {
			t.Fatalf("%s samples %v, want the three timed calls [1 2 3]", rec.Arm, rec.Samples)
		}
	}
	if ratio := r.records[2]; ratio.Arm != "B" || ratio.Metric != "overhead" || ratio.Unit != "ratio" {
		t.Fatalf("ratio record %+v", ratio)
	}
}

func TestMedianIQRAndPairRatios(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		median, iqr float64
	}{
		{[]float64{3, 1, 2}, 2, 1},
		{[]float64{4, 1, 3, 2}, 2.5, 1.5},
		{[]float64{7}, 7, 0},
		{[]float64{10, 10, 10, 40, 10}, 10, 0},
	} {
		med, iqr := medianIQR(c.xs)
		if med != c.median || iqr != c.iqr {
			t.Errorf("medianIQR(%v) = %v, %v; want %v, %v", c.xs, med, iqr, c.median, c.iqr)
		}
	}
	base, arm := []float64{10, 20, 40}, []float64{20, 20, 10}
	if got := pairRatios("overhead", base, arm); !reflect.DeepEqual(got, []float64{2, 1, 0.25}) {
		t.Errorf("overhead ratios %v", got)
	}
	if got := pairRatios("speedup", base, arm); !reflect.DeepEqual(got, []float64{0.5, 1, 4}) {
		t.Errorf("speedup ratios %v", got)
	}
}

// TestWrittenRecordsHaveEveryField writes a file and checks every record
// carries every field of the schema and the host block is filled in.
func TestWrittenRecordsHaveEveryField(t *testing.T) {
	r := &runner{reps: 3}
	n := 0.0
	tick := func() []float64 { n++; return []float64{n, 2 * n} }
	r.run("s", abCase{name: "c", metrics: []metric{{"wall_ms", "ms"}, {"bytes", "bytes"}},
		ratio: "speedup", arms: []arm{{"a", tick}, {"b", tick}}})
	r.count("s", "c", "b", "events", 0)
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := writeBench(path, true, r.records); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		GeneratedAt string                       `json:"generated_at"`
		Quick       *bool                        `json:"quick"`
		Host        map[string]any               `json:"host"`
		Records     []map[string]json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.GeneratedAt == "" || f.Quick == nil || !*f.Quick {
		t.Fatalf("header generated_at %q quick %v", f.GeneratedAt, f.Quick)
	}
	for _, k := range []string{"nproc", "gomaxprocs"} {
		if v, ok := f.Host[k].(float64); !ok || v < 1 {
			t.Errorf("host %s = %v", k, f.Host[k])
		}
	}
	for _, k := range []string{"go_version", "cpu_model"} {
		if v, ok := f.Host[k].(string); !ok || v == "" {
			t.Errorf("host %s = %v", k, f.Host[k])
		}
	}
	if len(f.Records) != 6 { // 2 arms × 2 metrics, 1 ratio, 1 count
		t.Fatalf("got %d records", len(f.Records))
	}
	fields := []string{"suite", "case", "arm", "metric", "unit", "samples", "median", "spread"}
	for i, rec := range f.Records {
		for _, k := range fields {
			v, ok := rec[k]
			if !ok || string(v) == `""` || string(v) == "null" || string(v) == "[]" {
				t.Errorf("record %d: field %s = %s", i, k, v)
			}
		}
		if len(rec) != len(fields) {
			t.Errorf("record %d has fields outside the schema: %v", i, rec)
		}
	}
}

// TestSplitSuiteEndToEnd runs the split suite at its quick size.
func TestSplitSuiteEndToEnd(t *testing.T) {
	var out strings.Builder
	r := &runner{reps: 3, out: &out}
	splitSuite(r, true)
	got := map[string]record{}
	for _, rec := range r.records {
		if len(rec.Samples) != 3 {
			t.Errorf("%s/%s has %d samples, want 3", rec.Arm, rec.Metric, len(rec.Samples))
		}
		got[rec.Arm+"/"+rec.Metric] = rec
	}
	for _, k := range []string{"fallback/ns_per_op", "presorted/ns_per_op",
		"fallback/allocs_per_op", "presorted/allocs_per_op", "presorted/speedup"} {
		rec, ok := got[k]
		if !ok {
			t.Fatalf("no %s record; have %v", k, r.records)
		}
		if rec.Suite != "split" || rec.Case != "FindBestNumeric" || math.IsNaN(rec.Median) {
			t.Errorf("%s record %+v", k, rec)
		}
	}
	if got["presorted/ns_per_op"].Median <= 0 || got["presorted/speedup"].Median <= 0 {
		t.Errorf("non-positive timing: %+v %+v", got["presorted/ns_per_op"], got["presorted/speedup"])
	}
	if strings.Count(out.String(), "\n") != len(r.records) {
		t.Errorf("want one text line per record:\n%s", out.String())
	}
}
