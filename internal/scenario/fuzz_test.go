package scenario

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"congame/internal/events"
)

// FuzzEventSchedule fuzzes the spec parser with a focus on the version-2
// events block: any input either parses into a spec that re-validates
// cleanly or is rejected with an error wrapping scenario.ErrInvalid —
// never a panic, never an anonymous error. The committed corpus under
// testdata/fuzz/FuzzEventSchedule seeds the interesting shapes (every
// event kind, recurring churn, topology mutations, and a range of
// malformed schedules).
func FuzzEventSchedule(f *testing.F) {
	seeds := []string{
		`{"version":2,"name":"ok","instance":{"family":"uniform-singletons","params":{"m":4,"n":32}},"dynamics":{"kind":"imitation"},"rounds":50,"reps":2,"seed":1,"metrics":["mean_rounds"],"events":[{"round":1,"every":2,"kind":"arrive","count":3,"strategy":1}]}`,
		`{"version":2,"name":"topo","instance":{"family":"uniform-singletons","params":{"m":4,"n":32}},"dynamics":{"kind":"imitation"},"rounds":50,"reps":2,"seed":1,"metrics":["mean_rounds"],"events":[{"round":2,"kind":"add-link","latency":{"kind":"affine","a":1,"b":0.5},"strategies":[[4]]},{"round":4,"kind":"remove-link","resource":1,"fallback":0}]}`,
		`{"version":2,"name":"bad","instance":{"family":"uniform-singletons","params":{"m":4,"n":32}},"dynamics":{"kind":"imitation"},"rounds":50,"reps":2,"seed":1,"metrics":["mean_rounds"],"events":[{"round":-3,"kind":"depart","count":1}]}`,
		`{"version":1,"name":"v1","instance":{"family":"uniform-singletons","params":{"m":4,"n":32}},"dynamics":{"kind":"imitation"},"rounds":50,"reps":2,"seed":1,"metrics":["mean_rounds"]}`,
		`{"version":2,"events":[{"kind":`,
		`[{"round":0,"kind":"arrive","count":1}]`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		spec, err := Parse(strings.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("Parse error %q does not wrap scenario.ErrInvalid", err)
			}
			if spec != nil {
				t.Fatal("non-nil spec alongside an error")
			}
			return
		}
		// Accepted specs must be stable under re-validation, and an
		// accepted events block must build into a schedule.
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted spec fails re-validation: %v", err)
		}
		if len(spec.Events) > 0 {
			if _, err := events.NewSchedule(spec.Events); err != nil {
				t.Fatalf("accepted events block fails NewSchedule: %v", err)
			}
		}
	})
}

// manifestSpec is the tiny eventful, quiet-stopped spec
// FuzzCheckpointManifest resumes. Its committed corpus was written for
// exactly this spec, so the seeds pass the fingerprint check and reach
// the record and snapshot paths.
func manifestSpec() *Spec {
	return &Spec{
		Version:  2,
		Name:     "fuzz-ckpt",
		Instance: InstanceSpec{Family: "uniform-singletons", Params: Params{"m": 6, "n": 400}},
		Dynamics: DynamicsSpec{Kind: "imitation"},
		Rounds:   40,
		Reps:     2,
		Seed:     7,
		Stop:     &StopSpec{Kind: "quiet", Params: Params{"rounds": 3}},
		Events:   []events.Event{{Round: 2, Kind: events.LatencyScale, Resource: 0, Factor: 1.5}},
		Metrics:  []string{"mean_rounds", "mean_final_potential"},
	}
}

// FuzzCheckpointManifest fuzzes the checkpoint manifest loader: each
// input is installed as a state directory's checkpoint.json and
// manifestSpec is resumed from it. Any input must end in a result or an
// error — never a panic, never a hang. The committed corpus under
// testdata/fuzz/FuzzCheckpointManifest holds a mid-run manifest written
// by an earlier build of this package (seed-midrun-v1: one replication
// done, the other snapshotted at round 11) and the same manifest with a
// CRC-valid snapshot whose quiet streak is 2^40 (seed-huge-streak); the
// inline seeds add malformed shapes.
func FuzzCheckpointManifest(f *testing.F) {
	for _, s := range []string{
		``,
		`{`,
		`{"name":"fuzz-ckpt","version":2,"family":"uniform-singletons","dynamics":"imitation","seed":7,"cells":1,"reps":2,"rounds":40,"done":[]}`,
		`{"name":"fuzz-ckpt","version":2,"family":"uniform-singletons","dynamics":"imitation","seed":7,"cells":1,"reps":2,"rounds":40,"done":[{"cell":0,"rep":1,"result":{"rounds":-5}},{"cell":9,"rep":-1}],"snapshot":{"cell":0,"rep":0,"data":"AAAA"}}`,
		`{"name":"other","version":2,"family":"uniform-singletons","dynamics":"imitation","seed":7,"cells":1,"reps":2,"rounds":40,"done":[]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		type outcome struct {
			res *Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := Run(context.Background(), manifestSpec(), Options{Checkpoint: &CheckpointConfig{Dir: dir, Every: 1000}})
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			if (o.res == nil) == (o.err == nil) {
				t.Fatalf("Run returned result %v and error %v; want exactly one", o.res != nil, o.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("resume did not return within 10s")
		}
	})
}

// TestCheckpointManifestFormatStable resumes the corpus's mid-run
// manifest, written by an earlier build of this package: the on-disk
// schema must still load, and the resumed run must equal an
// uninterrupted one.
func TestCheckpointManifestFormatStable(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzCheckpointManifest", "seed-midrun-v1"))
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(body, ")") {
		t.Fatalf("corpus file is not a single []byte value:\n%s", raw)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(body, ")"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := loadManifest(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Done) != 1 || m.Snap == nil || m.Snap.Rep != 1 {
		t.Fatalf("seed is not mid-run: %d done records, snapshot %+v", len(m.Done), m.Snap)
	}
	want, err := Run(context.Background(), manifestSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), manifestSpec(), Options{Checkpoint: &CheckpointConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, got, want)
}
