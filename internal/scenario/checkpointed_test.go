package scenario

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"congame/internal/checkpoint"
	"congame/internal/dynamics"
	"congame/internal/events"
)

// ckptSpec is an eventful exact-engine spec with a quiet stop and a sweep
// axis — the checkpoint path's hardest exact case: runtime strategy
// registration (add-link), retirement (remove-link), churn, latency
// rescaling, and a stateful stop condition, across two cells.
func ckptSpec() *Spec {
	return &Spec{
		Version:  2,
		Name:     "ckpt",
		Instance: InstanceSpec{Family: "uniform-singletons", Params: Params{"m": 4}},
		Dynamics: DynamicsSpec{Kind: "imitation"},
		Sweep:    []AxisSpec{{Param: "n", Values: []float64{32, 48}}},
		Rounds:   40,
		Reps:     3,
		Seed:     5,
		Stop:     &StopSpec{Kind: "quiet", Params: Params{"rounds": 5}},
		Events: []events.Event{
			{Round: 2, Kind: events.Arrive, Count: 6, Strategy: 1},
			{Round: 3, Kind: events.Depart, Count: 4, Strategy: 2},
			{Round: 5, Kind: events.LatencyScale, Resource: 0, Factor: 1.5},
			{Round: 8, Kind: events.AddLink, Latency: &events.LatencySpec{Kind: "affine", A: 1, B: 0.5}, Strategies: [][]int{{4}}},
			{Round: 12, Kind: events.RemoveLink, Resource: 2, Fallback: 0},
		},
		Metrics: []string{"mean_rounds", "converged_frac", "mean_moves", "mean_final_potential"},
	}
}

// limitedCtx reports cancellation after a fixed number of Err polls — a
// deterministic kill for a checkpointed Run, which only ever consults
// ctx.Err() (never Done), so the poll count fully determines where the
// run is interrupted.
type limitedCtx struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func (c *limitedCtx) Err() error {
	if c.calls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// suspendAndResume drives a checkpointed Run to completion through repeated
// deterministic kills: each attempt gets `polls` ctx.Err() calls before
// the context cancels, so the run is interrupted — and resumed — at
// every few rounds of every replication. Returns the completed result
// and the number of suspended attempts it took.
func suspendAndResume(t *testing.T, spec *Spec, dir string, every, polls int) (*Result, int) {
	t.Helper()
	cfg := CheckpointConfig{Dir: dir, Every: every}
	for attempt := 0; attempt < 2000; attempt++ {
		ctx := &limitedCtx{Context: context.Background(), limit: int64(polls)}
		res, err := Run(ctx, spec, Options{Checkpoint: &cfg})
		if err == nil {
			return res, attempt
		}
		if !errors.Is(err, ErrSuspended) {
			t.Fatalf("attempt %d failed with a non-suspension error: %v", attempt, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("suspension does not wrap the context error: %v", err)
		}
	}
	t.Fatal("run never completed within 2000 kill-and-resume attempts")
	return nil, 0
}

// bitsEqualStats compares round stats with floats as raw bit patterns,
// so NaN potentials (families that do not track potential) compare equal
// and a last-ulp drift still fails.
func bitsEqualStats(a, b dynamics.RoundStats) bool {
	return a.Round == b.Round && a.Players == b.Players && a.Movers == b.Movers &&
		a.NewStrategies == b.NewStrategies &&
		math.Float64bits(a.Potential) == math.Float64bits(b.Potential) &&
		math.Float64bits(a.AvgLatency) == math.Float64bits(b.AvgLatency) &&
		math.Float64bits(a.MaxLatency) == math.Float64bits(b.MaxLatency)
}

func bitsEqualResult(a, b dynamics.RunResult) bool {
	return a.Rounds == b.Rounds && a.Converged == b.Converged &&
		a.TotalMoves == b.TotalMoves && bitsEqualStats(a.Final, b.Final)
}

// assertSameResult pins the acceptance criterion: a checkpointed run's
// table is byte-identical to an uninterrupted Run's, and the raw cells
// (per-replication results, aggregates, drifts) match bit for bit.
func assertSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if g, w := got.Table.Text(), want.Table.Text(); g != w {
		t.Errorf("checkpointed table differs from uninterrupted run:\ngot:\n%s\nwant:\n%s", g, w)
	}
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("got %d cells, want %d", len(got.Cells), len(want.Cells))
	}
	for i := range got.Cells {
		g, w := got.Cells[i], want.Cells[i]
		if !reflect.DeepEqual(g.Cell, w.Cell) || g.Reps != w.Reps {
			t.Errorf("cell %d identity differs: %+v vs %+v", i, g.Cell, w.Cell)
		}
		if len(g.Results) != len(w.Results) {
			t.Fatalf("cell %d: %d results, want %d", i, len(g.Results), len(w.Results))
		}
		for r := range g.Results {
			if !bitsEqualResult(g.Results[r], w.Results[r]) {
				t.Errorf("cell %d rep %d differs:\ngot  %+v\nwant %+v", i, r, g.Results[r], w.Results[r])
			}
		}
		// Summaries and drifts derive from the results; %+v renders NaN
		// stably, and the metric columns are already pinned byte-exactly
		// by the table comparison above.
		if gs, ws := fmt.Sprintf("%+v %+v", g.Rounds, g.Agg), fmt.Sprintf("%+v %+v", w.Rounds, w.Agg); gs != ws {
			t.Errorf("cell %d aggregates differ:\ngot  %s\nwant %s", i, gs, ws)
		}
		if gs, ws := fmt.Sprintf("%+v", g.Drifts), fmt.Sprintf("%+v", w.Drifts); gs != ws {
			t.Errorf("cell %d drifts differ:\ngot  %s\nwant %s", i, gs, ws)
		}
	}
}

// TestCheckpointedFreshMatchesRun: with no interruption at all,
// a checkpointed Run must reproduce an uncheckpointed one exactly (probe semantics, stop
// evaluation order, and final-stats shape all ride through the manual
// step loop).
func TestCheckpointedFreshMatchesRun(t *testing.T) {
	want, err := Run(context.Background(), ckptSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	got, err := Run(context.Background(), ckptSpec(), Options{Checkpoint: &CheckpointConfig{Dir: dir, Every: 5}})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, got, want)
	m, err := loadManifest(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("no manifest written")
	}
	if len(m.Done) != 2*3 {
		t.Errorf("manifest records %d completed replications, want 6", len(m.Done))
	}
	if m.Snap != nil {
		t.Error("completed run left a dangling mid-replication snapshot")
	}
}

// TestCheckpointedKillAndResumeExact interrupts an exact-engine run every
// couple of rounds and resumes it until done; the final result must be
// bit-identical to the uninterrupted run. This crosses snapshot/restore
// with every event kind and with quiet-stop streak priming.
func TestCheckpointedKillAndResumeExact(t *testing.T) {
	want, err := Run(context.Background(), ckptSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, attempts := suspendAndResume(t, ckptSpec(), t.TempDir(), 5, 3)
	if attempts == 0 {
		t.Fatal("run completed without a single suspension — the kill harness is not exercising resume")
	}
	assertSameResult(t, got, want)
}

// TestCheckpointedKillAndResumeFluid does the same for the fluid family:
// mass vectors, wrapper chains (latency-scale), and churn restore
// bit-identically across kills.
func TestCheckpointedKillAndResumeFluid(t *testing.T) {
	spec := func() *Spec {
		s := fluidSpec()
		s.Version = 2
		s.Rounds = 30
		s.Stop = &StopSpec{Kind: "quiet", Params: Params{"rounds": 5}}
		s.Events = []events.Event{
			{Round: 3, Kind: events.LatencyScale, Resource: 0, Factor: 1.4},
			{Round: 6, Kind: events.Arrive, Count: 32, Strategy: 1},
			{Round: 9, Kind: events.Depart, Count: 16, Strategy: 2},
		}
		return s
	}
	want, err := Run(context.Background(), spec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, attempts := suspendAndResume(t, spec(), t.TempDir(), 4, 3)
	if attempts == 0 {
		t.Fatal("run completed without a single suspension")
	}
	assertSameResult(t, got, want)
}

// TestCheckpointedSequentialRepGranularity: the sequential family has no
// mid-replication snapshots — interruption granularity is the whole
// replication, and the manifest must never hold a snapshot for it.
func TestCheckpointedSequentialRepGranularity(t *testing.T) {
	spec := func() *Spec {
		s := minimalSpec()
		s.Dynamics = DynamicsSpec{Kind: "sequential-imitation"}
		return s
	}
	want, err := Run(context.Background(), spec(), Options{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx := &limitedCtx{Context: context.Background(), limit: 1}
	if _, err := Run(ctx, spec(), Options{Checkpoint: &CheckpointConfig{Dir: dir}}); !errors.Is(err, ErrSuspended) {
		t.Fatalf("one-poll attempt did not suspend: %v", err)
	}
	m, err := loadManifest(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Done) != 1 {
		t.Errorf("first attempt completed %d replications, want exactly 1 (rep granularity)", len(m.Done))
	}
	if m.Snap != nil {
		t.Error("sequential family persisted a mid-replication snapshot")
	}

	got, _ := suspendAndResume(t, spec(), dir, 0, 1)
	assertSameResult(t, got, want)
}

// TestCheckpointedDriftRecords: drift-tracked replications run whole (the
// tracker's observer state is not snapshotted) and their drift summaries
// persist bit-exactly in the manifest, so a resume that skips them still
// computes identical fluid_drift_* columns.
func TestCheckpointedDriftRecords(t *testing.T) {
	spec := func() *Spec {
		s := fluidSpec()
		s.Dynamics = DynamicsSpec{Kind: "imitation", Params: Params{"disableNu": 1}}
		s.Rounds = 20
		s.Metrics = []string{"mean_rounds", "fluid_drift_linf", "fluid_drift_final_l1"}
		return s
	}
	want, err := Run(context.Background(), spec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, attempts := suspendAndResume(t, spec(), t.TempDir(), 5, 1)
	if attempts == 0 {
		t.Fatal("run completed without a single suspension")
	}
	assertSameResult(t, got, want)
}

// TestCheckpointedTracedRepResumes: the traced replication re-runs on
// resume so the recorder holds the full trajectory; the recorded rounds
// must match an uninterrupted run's exactly.
func TestCheckpointedTracedRepResumes(t *testing.T) {
	spec := func() *Spec {
		s := ckptSpec()
		s.Trace = &TraceSpec{Rep: 1}
		return s
	}
	want, err := Run(context.Background(), spec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every attempt re-runs both cells' traced replication whole before
	// reaching new work, so the poll budget must cover those plus the
	// between-rep check plus at least one round of fresh progress.
	got, _ := suspendAndResume(t, spec(), t.TempDir(), 5, 6)
	assertSameResult(t, got, want)
	for i := range got.Cells {
		if got.Cells[i].Trace == nil {
			t.Fatalf("cell %d: resumed run has no trace", i)
		}
		if !reflect.DeepEqual(got.Cells[i].Trace.Rounds(), want.Cells[i].Trace.Rounds()) {
			t.Errorf("cell %d: traced trajectory differs after resume", i)
		}
	}
}

// TestCheckpointedRejectsSpecMismatch: a state directory holding progress
// for one spec must refuse a resume under a different one rather than
// silently mixing trajectories.
func TestCheckpointedRejectsSpecMismatch(t *testing.T) {
	dir := t.TempDir()
	ctx := &limitedCtx{Context: context.Background(), limit: 3}
	if _, err := Run(ctx, ckptSpec(), Options{Checkpoint: &CheckpointConfig{Dir: dir, Every: 5}}); !errors.Is(err, ErrSuspended) {
		t.Fatalf("seed run did not suspend: %v", err)
	}
	other := ckptSpec()
	other.Seed = 6
	_, err := Run(context.Background(), other, Options{Checkpoint: &CheckpointConfig{Dir: dir, Every: 5}})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("mismatched spec accepted: %v", err)
	}
}

// TestCheckpointedRejectsOutOfRangeSnapshot: a resumed snapshot's
// counters must satisfy 0 ≤ quiet streak ≤ round < spec rounds. A
// CRC-valid snapshot outside that range would otherwise drive the quiet
// stop's priming loop for 2^40 iterations, or skip the step loop and
// report a round count the budget never allowed.
func TestCheckpointedRejectsOutOfRangeSnapshot(t *testing.T) {
	for name, tamper := range map[string]func(*checkpoint.Snapshot){
		"huge quiet streak": func(s *checkpoint.Snapshot) { s.QuietStreak = 1 << 40 },
		"streak past round": func(s *checkpoint.Snapshot) { s.QuietStreak = s.Round + 1 },
		"round at budget":   func(s *checkpoint.Snapshot) { s.Round = int64(ckptSpec().Rounds) },
		"huge round":        func(s *checkpoint.Snapshot) { s.Round = 1 << 40 },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeTamperedManifest(t, dir, tamper)
			done := make(chan error, 1)
			go func() {
				_, err := Run(context.Background(), ckptSpec(), Options{Checkpoint: &CheckpointConfig{Dir: dir, Every: 5}})
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, ErrInvalid) {
					t.Fatalf("tampered snapshot accepted: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("resume from a tampered snapshot did not return within 5s")
			}
		})
	}
}

// writeTamperedManifest suspends ckptSpec mid-replication into dir, then
// rewrites the manifest's snapshot through tamper and a fresh Encode (so
// its CRC stays valid).
func writeTamperedManifest(t *testing.T, dir string, tamper func(*checkpoint.Snapshot)) {
	t.Helper()
	ctx := &limitedCtx{Context: context.Background(), limit: 3}
	if _, err := Run(ctx, ckptSpec(), Options{Checkpoint: &CheckpointConfig{Dir: dir, Every: 5}}); !errors.Is(err, ErrSuspended) {
		t.Fatalf("seed run did not suspend: %v", err)
	}
	path := filepath.Join(dir, manifestName)
	m, err := loadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Snap == nil {
		t.Fatal("suspended run left no mid-replication snapshot")
	}
	snap, err := checkpoint.Decode(m.Snap.Data)
	if err != nil {
		t.Fatal(err)
	}
	tamper(snap)
	m.Snap.Data = snap.Encode()
	m.path = path
	if err := m.save(); err != nil {
		t.Fatal(err)
	}
}
