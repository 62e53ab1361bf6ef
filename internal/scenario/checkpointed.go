package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"congame/internal/checkpoint"
	"congame/internal/dynamics"
	"congame/internal/fluid"
)

// ErrSuspended reports a checkpointed run that stopped on context
// cancellation after persisting its progress; invoking Run again with the
// same spec and state directory resumes it.
var ErrSuspended = errors.New("scenario: run suspended")

// CheckpointConfig configures a checkpointed Run (Options.Checkpoint).
type CheckpointConfig struct {
	// Dir is the state directory holding the progress manifest
	// (checkpoint.json). Required; created if missing.
	Dir string
	// Every is the mid-replication snapshot cadence in rounds for the
	// engine and fluid families; ≤ 0 selects DefaultCheckpointEvery.
	// Snapshot cadence never changes results — only how much work a crash
	// can lose.
	Every int
}

// DefaultCheckpointEvery is the snapshot cadence when CheckpointConfig
// leaves Every unset.
const DefaultCheckpointEvery = 200

// manifestName is the single progress file inside the state directory.
// Everything — the spec fingerprint, completed replication results, and
// the in-flight binary snapshot — lives in this one atomically replaced
// file, so no crash window can leave the pieces inconsistent with each
// other.
const manifestName = "checkpoint.json"

// statsRecord is dynamics.RoundStats with floats as IEEE-754 bit
// patterns, so a result survives the JSON round trip bit for bit (and NaN
// survives at all).
type statsRecord struct {
	Round          int    `json:"round"`
	Players        int    `json:"players"`
	Movers         int    `json:"movers"`
	NewStrategies  int    `json:"new_strategies"`
	PotentialBits  uint64 `json:"potential_bits"`
	AvgLatencyBits uint64 `json:"avg_latency_bits"`
	MaxLatencyBits uint64 `json:"max_latency_bits"`
}

func toStatsRecord(r dynamics.RoundStats) statsRecord {
	return statsRecord{
		Round:          r.Round,
		Players:        r.Players,
		Movers:         r.Movers,
		NewStrategies:  r.NewStrategies,
		PotentialBits:  math.Float64bits(r.Potential),
		AvgLatencyBits: math.Float64bits(r.AvgLatency),
		MaxLatencyBits: math.Float64bits(r.MaxLatency),
	}
}

func (r statsRecord) stats() dynamics.RoundStats {
	return dynamics.RoundStats{
		Round:         r.Round,
		Players:       r.Players,
		Movers:        r.Movers,
		NewStrategies: r.NewStrategies,
		Potential:     math.Float64frombits(r.PotentialBits),
		AvgLatency:    math.Float64frombits(r.AvgLatencyBits),
		MaxLatency:    math.Float64frombits(r.MaxLatencyBits),
	}
}

// runRecord is dynamics.RunResult in manifest form.
type runRecord struct {
	Rounds     int         `json:"rounds"`
	Converged  bool        `json:"converged"`
	TotalMoves int         `json:"total_moves"`
	Final      statsRecord `json:"final"`
}

func toRunRecord(r dynamics.RunResult) runRecord {
	return runRecord{Rounds: r.Rounds, Converged: r.Converged, TotalMoves: r.TotalMoves, Final: toStatsRecord(r.Final)}
}

func (r runRecord) result() dynamics.RunResult {
	return dynamics.RunResult{Rounds: r.Rounds, Converged: r.Converged, TotalMoves: r.TotalMoves, Final: r.Final.stats()}
}

// driftRecord is fluid.Drift in manifest form (bit-exact floats).
type driftRecord struct {
	SupLinfBits   uint64 `json:"sup_linf_bits"`
	SupL1Bits     uint64 `json:"sup_l1_bits"`
	FinalLinfBits uint64 `json:"final_linf_bits"`
	FinalL1Bits   uint64 `json:"final_l1_bits"`
	Rounds        int    `json:"rounds"`
}

func toDriftRecord(d fluid.Drift) driftRecord {
	return driftRecord{
		SupLinfBits:   math.Float64bits(d.SupLinf),
		SupL1Bits:     math.Float64bits(d.SupL1),
		FinalLinfBits: math.Float64bits(d.FinalLinf),
		FinalL1Bits:   math.Float64bits(d.FinalL1),
		Rounds:        d.Rounds,
	}
}

func (r driftRecord) drift() fluid.Drift {
	return fluid.Drift{
		SupLinf:   math.Float64frombits(r.SupLinfBits),
		SupL1:     math.Float64frombits(r.SupL1Bits),
		FinalLinf: math.Float64frombits(r.FinalLinfBits),
		FinalL1:   math.Float64frombits(r.FinalL1Bits),
		Rounds:    r.Rounds,
	}
}

// repRecord is one completed replication.
type repRecord struct {
	Cell   int          `json:"cell"`
	Rep    int          `json:"rep"`
	Result runRecord    `json:"result"`
	Drift  *driftRecord `json:"drift,omitempty"`
}

// snapRecord is the in-flight mid-replication snapshot: which (cell, rep)
// it belongs to, the stats of the last completed round (so a resume that
// steps zero further rounds still reports the right Final), and the
// encoded checkpoint.Snapshot (JSON base64).
type snapRecord struct {
	Cell int         `json:"cell"`
	Rep  int         `json:"rep"`
	Last statsRecord `json:"last"`
	Data []byte      `json:"data"`
}

// manifest is the checkpoint.json schema. The fingerprint fields pin the
// effective spec the progress belongs to; a resume under a different spec
// is rejected rather than silently mixing trajectories.
type manifest struct {
	Name     string `json:"name"`
	Version  int    `json:"version"`
	Family   string `json:"family"`
	Dynamics string `json:"dynamics"`
	Seed     uint64 `json:"seed"`
	Cells    int    `json:"cells"`
	Reps     int    `json:"reps"`
	Rounds   int    `json:"rounds"`

	Done []repRecord `json:"done"`
	Snap *snapRecord `json:"snapshot,omitempty"`

	path  string // the manifest file; not persisted
	every int    // snapshot cadence in rounds; not persisted
}

func (m *manifest) matches(s *Spec, cells int) error {
	if m.Name != s.Name || m.Version != s.Version || m.Family != s.Instance.Family ||
		m.Dynamics != s.Dynamics.Kind || m.Seed != s.Seed || m.Cells != cells ||
		m.Reps != s.Reps || m.Rounds != s.Rounds {
		return fmt.Errorf("%w: state directory holds progress for %q (v%d, seed %d, %d cells × %d reps × %d rounds), not this spec",
			ErrInvalid, m.Name, m.Version, m.Seed, m.Cells, m.Reps, m.Rounds)
	}
	return nil
}

// find returns the completed record for (cell, rep), if any. A nil
// manifest (an uncheckpointed run) holds none.
func (m *manifest) find(cell, rep int) *repRecord {
	if m == nil {
		return nil
	}
	for i := range m.Done {
		if m.Done[i].Cell == cell && m.Done[i].Rep == rep {
			return &m.Done[i]
		}
	}
	return nil
}

// record appends a finished replication (with its drift summary, when
// the spec tracks drift) to the manifest, drops the replication's
// now-stale snapshot, and saves. A nil manifest records nothing.
func (m *manifest) record(cell, rep int, res dynamics.RunResult, drift *fluid.Drift) error {
	if m == nil {
		return nil
	}
	rec := repRecord{Cell: cell, Rep: rep, Result: toRunRecord(res)}
	if drift != nil {
		dr := toDriftRecord(*drift)
		rec.Drift = &dr
	}
	m.Done = append(m.Done, rec)
	if m.Snap != nil && m.Snap.Cell == cell && m.Snap.Rep == rep {
		m.Snap = nil
	}
	return m.save()
}

// saveSnapshot stores a mid-replication snapshot in the manifest and
// writes it out.
func (m *manifest) saveSnapshot(snap *checkpoint.Snapshot, cell, rep int, last dynamics.RoundStats) error {
	m.Snap = &snapRecord{Cell: cell, Rep: rep, Last: toStatsRecord(last), Data: snap.Encode()}
	return m.save()
}

// suspension reports a checkpointed run's cancellation as ErrSuspended.
// runner.Map's poll before each replication returns the bare context
// error; a mid-replication cancellation already wraps ErrSuspended.
func (m *manifest) suspension(err error, cell int) error {
	if m == nil || errors.Is(err, ErrSuspended) ||
		!(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return err
	}
	return fmt.Errorf("%w at cell %d: %w", ErrSuspended, cell, err)
}

// save atomically replaces the manifest file (temp + fsync + rename, the
// same protocol as checkpoint.WriteFile).
func (m *manifest) save() error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("scenario: checkpoint manifest: %w", err)
	}
	if err := checkpoint.WriteBytes(m.path, data); err != nil {
		return fmt.Errorf("scenario: checkpoint manifest: %w", err)
	}
	return nil
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("scenario: checkpoint manifest: %w", err)
	}
	m := &manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("scenario: checkpoint manifest %s: %w", path, err)
	}
	return m, nil
}

// openManifest loads (or starts) the progress manifest a checkpointed
// run of the effective spec s persists into cfg.Dir. A nil cfg means an
// uncheckpointed run: no manifest.
func openManifest(cfg *CheckpointConfig, s *Spec, cells int) (*manifest, error) {
	if cfg == nil {
		return nil, nil
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("%w: checkpointed run needs a state directory", ErrInvalid)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	path := filepath.Join(cfg.Dir, manifestName)
	m, err := loadManifest(path)
	if err != nil {
		return nil, err
	}
	if m == nil {
		m = &manifest{
			Name: s.Name, Version: s.Version, Family: s.Instance.Family,
			Dynamics: s.Dynamics.Kind, Seed: s.Seed, Cells: cells,
			Reps: s.Reps, Rounds: s.Rounds,
		}
	} else if err := m.matches(s, cells); err != nil {
		return nil, err
	}
	m.path, m.every = path, cfg.Every
	if m.every <= 0 {
		m.every = DefaultCheckpointEvery
	}
	// The traced replication must re-run on resume so the recorder holds
	// the full trajectory; determinism makes the re-run result identical
	// to the recorded one, so dropping the record is safe.
	if s.Trace != nil {
		kept := m.Done[:0]
		for _, r := range m.Done {
			if r.Rep != s.Trace.Rep {
				kept = append(kept, r)
			}
		}
		m.Done = kept
		if m.Snap != nil && m.Snap.Rep == s.Trace.Rep {
			m.Snap = nil
		}
	}
	return m, nil
}

// snapshotOps is the checkpoint pair for a family with mid-replication
// snapshot support, plus the lifetime move count its Run would report as
// RunResult.TotalMoves (zero for the fluid family: a continuum has no
// move count).
type snapshotOps struct {
	capture func(quietStreak int) *checkpoint.Snapshot
	restore func(*checkpoint.Snapshot) error
	moves   func() int
}

// snapshotter returns d's snapshotOps, or nil when its family has no
// mid-replication snapshot support. Restores replay the cell's schedule.
func (c *cellRun) snapshotter(d dynamics.Dynamics) *snapshotOps {
	switch a := d.(type) {
	case *dynamics.Engine:
		e := a.Engine()
		return &snapshotOps{
			capture: func(q int) *checkpoint.Snapshot { return checkpoint.CaptureEngine(e, q) },
			restore: func(s *checkpoint.Snapshot) error { return checkpoint.RestoreEngine(e, s, c.sched) },
			moves:   e.TotalMoves,
		}
	case *dynamics.Fluid:
		sim := a.Sim()
		return &snapshotOps{
			capture: func(q int) *checkpoint.Snapshot { return checkpoint.CaptureFluid(sim, q) },
			restore: func(s *checkpoint.Snapshot) error { return checkpoint.RestoreFluid(sim, s, c.sched) },
			moves:   func() int { return 0 },
		}
	}
	return nil
}

// runRep builds and runs one replication. Without a manifest, and for
// replications a snapshot cannot capture — families without snapshot
// support, and the traced and drift-tracked replications, whose observer
// state is not snapshotted — it runs whole through the family's own Run
// (the sequential adapter has absorption semantics a manual step loop
// would not reproduce), so their interruption granularity is the
// replication. Otherwise it steps round by round, snapshotting into the
// manifest every m.every rounds and on cancellation, and resumes from
// the manifest's snapshot when it belongs to this replication.
func (c *cellRun) runRep(ctx context.Context, rep int, m *manifest) (dynamics.RunResult, error) {
	d, err := c.build(rep)
	if err != nil {
		return dynamics.RunResult{}, fmt.Errorf("replication %d: %w", rep, err)
	}
	s, cell, stop := c.s, c.cell.Index, c.stops[rep]
	var ops *snapshotOps
	if m != nil && c.trackers == nil && (c.recorder == nil || rep != s.Trace.Rep) {
		ops = c.snapshotter(d)
	}
	if ops == nil {
		res := d.Run(s.Rounds, stop)
		if f, ok := d.(interface{ Err() error }); ok && f.Err() != nil {
			return res, fmt.Errorf("replication %d: %w", rep, f.Err())
		}
		return res, nil
	}

	rounds, streak := 0, 0
	var last dynamics.RoundStats
	if m.Snap != nil && m.Snap.Cell == cell && m.Snap.Rep == rep {
		snap, err := checkpoint.Decode(m.Snap.Data)
		if err != nil {
			return dynamics.RunResult{}, fmt.Errorf("cell %d rep %d snapshot: %w", cell, rep, err)
		}
		// A snapshot is only ever taken strictly inside the round budget,
		// and its streak counts rounds it executed. Outside those bounds
		// the counters would skip the step loop or drive an unbounded
		// priming loop, so reject them before restoring anything.
		if snap.QuietStreak < 0 || snap.QuietStreak > snap.Round || snap.Round >= int64(s.Rounds) {
			return dynamics.RunResult{}, fmt.Errorf("%w: cell %d rep %d snapshot has round %d and quiet streak %d, want 0 ≤ streak ≤ round < %d",
				ErrInvalid, cell, rep, snap.Round, snap.QuietStreak, s.Rounds)
		}
		if err := ops.restore(snap); err != nil {
			return dynamics.RunResult{}, fmt.Errorf("cell %d rep %d: %w", cell, rep, err)
		}
		rounds = int(snap.Round)
		streak = int(snap.QuietStreak)
		last = m.Snap.Last.stats()
		// Re-prime the only stateful stop condition: feed the fresh
		// "quiet" counter the trailing zero-migration streak the
		// interrupted run had seen. The streak is strictly below the stop
		// threshold (the run would have stopped otherwise), so priming
		// never fires.
		if stop != nil && s.Stop != nil && s.Stop.Kind == "quiet" {
			for i := 0; i < streak; i++ {
				stop(d, dynamics.RoundStats{Movers: 0})
			}
		}
	} else {
		// The pre-run stop probe, exactly as Dynamics.Run performs it
		// (and with its early-return RunResult). A resumed run skips the
		// probe: its original run already performed it, and the families'
		// probe guards key off Round < 0, which no longer holds.
		probe := d.Run(0, stop)
		if probe.Converged || s.Rounds <= 0 {
			return probe, nil
		}
		last = probe.Final
	}

	converged := false
	for rounds < s.Rounds {
		if err := ctx.Err(); err != nil {
			if serr := m.saveSnapshot(ops.capture(streak), cell, rep, last); serr != nil {
				return dynamics.RunResult{}, serr
			}
			return dynamics.RunResult{}, fmt.Errorf("%w at cell %d rep %d round %d: %w", ErrSuspended, cell, rep, rounds, err)
		}
		last = d.Step()
		rounds++
		if last.Movers == 0 {
			streak++
		} else {
			streak = 0
		}
		if stop != nil && stop(d, last) {
			converged = true
			break
		}
		if rounds%m.every == 0 && rounds < s.Rounds {
			if err := m.saveSnapshot(ops.capture(streak), cell, rep, last); err != nil {
				return dynamics.RunResult{}, err
			}
		}
	}
	return dynamics.RunResult{Rounds: rounds, Converged: converged, TotalMoves: ops.moves(), Final: last}, nil
}
