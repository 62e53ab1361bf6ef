package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"
)

// jobList renders the inputs of jobs 0..k-1 of a workload, byte for byte
// as the program receives them.
func jobList(name string, seed uint64, k int) ([]byte, error) {
	var out []byte
	for i := 0; i < k; i++ {
		switch name {
		case "engine-heavy":
			b, err := json.Marshal(engineJobAt(seed, i))
			if err != nil {
				return nil, err
			}
			out = append(append(out, b...), '\n')
		case "sweep-grid":
			out = append(out, sweepSpecAt(seed, i)...)
		case "serve-jobs":
			out = append(out, serveSpec(seed, servePoolIndex(i))...)
		default:
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

func TestJobListIsPureFunctionOfSeed(t *testing.T) {
	for name := range workloads {
		a, err := jobList(name, 7, 6)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := jobList(name, 7, 6)
		c, _ := jobList(name, 8, 6)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different job lists", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same job list", name)
		}
	}
}

// inRepoRoot runs f from the repository root, where the benchmark runs
// and where the golden files it checks against live.
func inRepoRoot(t *testing.T, f func()) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	f()
}

// okFrac runs one job of a workload and returns its ok_frac.
func okFrac(t *testing.T, b bench) float64 {
	t.Helper()
	prepErr := b.prepare()
	p, err := measure(b, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return endToEnd(p, prepErr)["ok_frac"].Value
}

func TestCorruptReferenceDrivesOkFracBelowOne(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one job of every workload")
	}
	inRepoRoot(t, func() {
		for _, tc := range []struct {
			name          string
			clean, broken bench
		}{
			{"engine-heavy", &engineHeavy{seed: 1}, &engineHeavy{seed: 1, corrupt: true}},
			{"sweep-grid", &sweepGrid{seed: 1}, &sweepGrid{seed: 1, corrupt: true}},
			{"serve-jobs", &serveJobs{seed: 1}, &serveJobs{seed: 1, corrupt: true}},
		} {
			if got := okFrac(t, tc.clean); got != 1 {
				t.Errorf("%s: ok_frac %v with the true reference, want 1", tc.name, got)
			}
			if got := okFrac(t, tc.broken); got >= 1 {
				t.Errorf("%s: ok_frac %v with a corrupted reference, want < 1", tc.name, got)
			}
		}
	})
}

func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name, Unit string }) (out []string) {
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	wantLayers := append([]string(nil), perLayerNames...)
	for _, n := range endToEndOrder {
		wantLayers = append(wantLayers, "trace.overhead."+n)
	}
	if got := names(doc.EndToEnd); !reflect.DeepEqual(got, endToEndOrder) {
		t.Errorf("end_to_end %v, benchmark reports %v", got, endToEndOrder)
	}
	if got := names(doc.PerLayer); !reflect.DeepEqual(got, wantLayers) {
		t.Errorf("per_layer %v, benchmark reports %v", got, wantLayers)
	}
	units := map[string]string{}
	for name, m := range endToEnd(phase{}, nil) {
		units[name] = m.Unit
		units["trace.overhead."+name] = m.Unit
	}
	for _, name := range perLayerNames {
		units[name] = layerUnit(name)
	}
	for _, m := range append(doc.EndToEnd, doc.PerLayer...) {
		if units[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json says unit %q, benchmark reports %q", m.Name, m.Unit, units[m.Name])
		}
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

func TestSelfTimesSubtractMergedChildren(t *testing.T) {
	// A 100 ns parent with two overlapping children covering [10, 60)
	// and one child partly outside it covering [90, 100).
	spans := []span{
		{ID: 0, Parent: -1, Name: "job", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "a", Start: 30, End: 60},
		{ID: 3, Parent: 0, Name: "b", Start: 90, End: 120},
	}
	got := map[string]time.Duration{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt.Self
	}
	want := map[string]time.Duration{"job": 40, "a": 60, "b": 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}
