package scenario

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"congame/internal/dynamics"
	"congame/internal/events"
	"congame/internal/fluid"
	"congame/internal/obs"
	"congame/internal/prng"
	"congame/internal/runner"
	"congame/internal/sim"
	"congame/internal/stats"
	"congame/internal/trace"
)

// Options override a spec's execution knobs at run time (CLI flags).
type Options struct {
	// Quick applies the spec's quick-mode overrides.
	Quick bool
	// Par overrides the spec's replication parallelism when > 0.
	Par int
	// Workers overrides the spec's engine worker count when non-zero.
	Workers int
	// Registry, when non-nil, collects sweep progress and per-backend
	// engine metrics for every replication (served live by cmd/sweep's
	// -metrics-addr exporter). Purely read-only instrumentation: results
	// are bit-identical with or without it.
	Registry *obs.Registry
	// Journal, when non-nil, receives the run's NDJSON event stream:
	// run/cell boundaries and, for each cell's replication 0, per-round
	// stats, phase timings, and event-schedule firings. Replication 0 is
	// the journaled representative to bound journal volume independently
	// of the replication count.
	Journal *obs.Journal
	// Checkpoint, when non-nil, persists progress into a state directory
	// so an interrupted run resumes where it left off (see Run).
	Checkpoint *CheckpointConfig
}

// CellResult is one finished grid cell: the cell, its per-replication
// results in replication order, and the aggregates metrics read.
type CellResult struct {
	Cell Cell
	// Reps is the replication count the cell ran with.
	Reps int
	// Results holds the per-replication outcomes in replication order.
	Results []dynamics.RunResult
	// Rounds summarizes the per-replication round counts (the most
	// common aggregate; computed once, shared by the rounds metrics).
	Rounds stats.Summary
	// Agg is the runner's standard fold over the results.
	Agg runner.Aggregate
	// Trace is the recorded per-round trajectory of the traced
	// replication, when the spec requests one.
	Trace *trace.Recorder
	// Drifts holds the per-replication fluid-vs-exact drift summaries in
	// replication order, populated only when the spec requests a
	// fluid_drift_* metric.
	Drifts []fluid.Drift
}

// Result is a finished sweep: the rendered table plus the raw cells.
type Result struct {
	// Spec is the effective (quick-resolved) spec the sweep ran.
	Spec *Spec
	// Table renders the per-cell aggregates: one row per cell, axis
	// columns first, then the spec's metrics.
	Table sim.Table
	// Cells are the raw per-cell results in grid order.
	Cells []CellResult
}

// prngNew builds the policy rng for sequential dynamics kinds.
func prngNew(seed uint64) *rand.Rand { return prng.New(seed) }

// Run executes every cell of the spec's grid. Within a cell the
// replications fan out through runner.Map across the configured worker
// pool and fold in replication order; cells run sequentially in grid
// order. Output is bit-identical for every par and workers setting (the
// determinism contract of DESIGN.md §4/§6).
//
// With opts.Checkpoint set, Run also persists progress into
// opts.Checkpoint.Dir, so an interrupted run resumes where it left off
// and produces a table byte-identical to an uninterrupted run.
// Completed replications are recorded in the manifest and never
// re-executed. Within an in-flight replication of the engine and fluid
// families a binary snapshot (internal/checkpoint) is written every
// Checkpoint.Every rounds and on context cancellation, and a resume
// restores it and continues bit-identically — including the "quiet"
// stop condition, whose trailing zero-migration streak rides along in
// the snapshot. Sequential-family replications, the traced replication,
// and drift-tracked replications re-run from round 0 on resume (their
// observer state is not snapshotted); determinism makes the re-run
// bit-identical, it just repeats work. On cancellation the error wraps
// both ErrSuspended and ctx.Err().
//
// A checkpointed run ignores opts.Par: replications run sequentially
// (the engine worker count is unconstrained, since trajectories are
// worker-invariant). It consults the context only through ctx.Err(),
// never Done: exactly one poll per replication it has yet to run, just
// before starting it, and one per round a snapshotting replication
// steps. The poll count therefore fully determines where a run is
// interrupted.
func Run(ctx context.Context, spec *Spec, opts Options) (*Result, error) {
	if spec == nil {
		return nil, fmt.Errorf("%w: nil spec", ErrInvalid)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := spec.Effective(opts.Quick)
	if opts.Par > 0 {
		s.Par = opts.Par
	}
	if opts.Checkpoint != nil {
		s.Par = 1 // the manifest records one replication at a time
	}
	if opts.Workers != 0 {
		s.Workers = opts.Workers
	}
	cells, err := Grid(s, false) // quick already applied to s
	if err != nil {
		return nil, err
	}
	m, err := openManifest(opts.Checkpoint, s, len(cells))
	if err != nil {
		return nil, err
	}

	var sm *obs.SweepMetrics
	if opts.Registry != nil {
		sm = obs.NewSweepMetrics(opts.Registry)
		sm.CellsTotal.Set(float64(len(cells)))
		sm.RunComplete.Set(0) // the registry may still hold an earlier run's 1
		runner.SetMetrics(obs.NewRunnerMetrics(opts.Registry))
	}
	if opts.Journal != nil {
		opts.Journal.RunStart(s.Name, len(cells), s.Reps)
	}
	runStart := time.Now()

	res := &Result{Spec: s, Table: s.tableSkeleton()}
	for _, cell := range cells {
		if opts.Journal != nil {
			opts.Journal.CellStart(cell.Index, cell.Label())
		}
		cellStart := time.Now()
		cr, err := s.runCell(ctx, cell, opts, m)
		if errors.Is(err, ErrSuspended) {
			return nil, err
		}
		if err != nil {
			return nil, fmt.Errorf("scenario: %s cell %d (%s): %w", s.Name, cell.Index, cell.Label(), err)
		}
		elapsed := time.Since(cellStart)
		if sm != nil {
			sm.CellsDone.Inc()
			sm.RepsDone.Add(uint64(s.Reps))
			sm.CellSeconds.ObserveDuration(elapsed)
		}
		if opts.Journal != nil {
			opts.Journal.CellFinish(cell.Index, s.Reps, elapsed.Seconds())
		}
		res.Cells = append(res.Cells, cr)
		if err := s.addRow(&res.Table, &res.Cells[len(res.Cells)-1]); err != nil {
			return nil, err
		}
	}
	res.Table.AddNote("scenario %s v%d: %d cells × %d reps, seed %d, dynamics %s on %s",
		s.Name, s.Version, len(cells), s.Reps, s.Seed, s.Dynamics.Kind, s.Instance.Family)
	if opts.Journal != nil {
		opts.Journal.RunFinish(time.Since(runStart).Seconds())
		if err := opts.Journal.Err(); err != nil {
			return nil, fmt.Errorf("scenario: journal: %w", err)
		}
	}
	if sm != nil {
		sm.RunComplete.Set(1)
	}
	return res, nil
}

// tableSkeleton prepares the output table: axis columns, then metrics.
func (s *Spec) tableSkeleton() sim.Table {
	t := sim.Table{ID: s.Name, Title: s.Title, Claim: s.Claim}
	for _, a := range s.Sweep {
		t.Headers = append(t.Headers, a.Param)
	}
	t.Headers = append(t.Headers, s.Metrics...)
	return t
}

// engineWorkers resolves the per-replication engine worker count: an
// explicit value wins; on auto (0), replication-parallel runs use
// sequential engines so the two axes don't multiply into GOMAXPROCS²
// goroutines. Output-invariant either way.
func (s *Spec) engineWorkers() int {
	if s.Workers == 0 && runner.Parallelism(s.Par) > 1 {
		return 1
	}
	return s.Workers
}

// cellRun bundles one cell's shared construction state — schedule, trace
// recorder, per-replication stop conditions and drift trackers — that
// every replication of the cell is built from.
type cellRun struct {
	s        *Spec
	cell     Cell
	workers  int
	sched    *events.Schedule
	recorder *trace.Recorder
	// stops[rep] is written by build and read afterwards for the same rep
	// on the same goroutine (runRep builds, then runs), so
	// per-replication stop conditions can close over the replication's
	// own Built context without synchronization. trackers follows the
	// same discipline.
	stops    []dynamics.StopCondition
	trackers []*fluid.DriftTracker
	reg      *obs.Registry
	j        *obs.Journal
}

// newCellRun prepares the per-cell shared state. The schedule is
// stateless (per-round application reads only the passed state), so one
// instance is shared by every replication; the per-instance validation
// happens inside SetEvents.
func (s *Spec) newCellRun(cell Cell, reg *obs.Registry, j *obs.Journal) (*cellRun, error) {
	c := &cellRun{s: s, cell: cell, workers: s.engineWorkers(), reg: reg, j: j}
	if len(s.Events) > 0 {
		var err error
		c.sched, err = events.NewSchedule(s.Events)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalid, err)
		}
	}
	if s.Trace != nil {
		var err error
		if s.Trace.Capacity > 0 {
			c.recorder, err = trace.NewRing(s.Trace.Capacity)
		} else {
			c.recorder = trace.NewRecorder()
		}
		if err != nil {
			return nil, err
		}
	}
	c.stops = make([]dynamics.StopCondition, s.Reps)
	if s.wantsDrift() {
		c.trackers = make([]*fluid.DriftTracker, s.Reps)
	}
	return c, nil
}

// build constructs one replication's dynamics: instance, dynamics kind,
// event schedule, instrumentation, stop condition (stored in
// c.stops[rep]), trace recorder, and drift tracker.
func (c *cellRun) build(rep int) (dynamics.Dynamics, error) {
	s, cell := c.s, c.cell
	fam := families[s.Instance.Family]
	kind := dynKinds[s.Dynamics.Kind]

	rng := prng.New(s.InstanceSeed(cell, rep))
	inst, err := fam.Build(cell.Instance, rng)
	if err != nil {
		return nil, err
	}
	built, err := kind.Build(inst, cell.Dynamics, s.DynamicsSeed(cell, rep), c.workers)
	if err != nil {
		return nil, err
	}
	// Replication 0 is the journaled representative: its rounds,
	// phase timings, and event firings stream to the journal.
	var repJ *obs.Journal
	if rep == 0 {
		repJ = c.j
	}
	if c.sched != nil {
		var fobs []events.FiringObserver
		if repJ != nil {
			fobs = append(fobs, func(round, index int, kind events.Kind) {
				repJ.EventFired(cell.Index, rep, round, index, string(kind))
			})
		}
		switch d := built.Dyn.(type) {
		case *dynamics.Engine:
			err = d.SetEvents(c.sched, fobs...)
		case *dynamics.Fluid:
			err = d.SetEvents(c.sched, fobs...)
		default:
			err = fmt.Errorf("%w: dynamics %s does not support event schedules", ErrInvalid, s.Dynamics.Kind)
		}
		if err != nil {
			return nil, err
		}
	}
	dynamics.Instrument(built.Dyn, c.reg, repJ, cell.Index, rep)
	if s.Stop != nil {
		stop, err := stopKinds[s.Stop.Kind].Build(cell.Stop, built)
		if err != nil {
			return nil, err
		}
		c.stops[rep] = stop
	}
	if c.recorder != nil && rep == s.Trace.Rep {
		if obs, ok := built.Dyn.(dynamics.Observable); ok {
			obs.SetObserver(c.recorder)
		} else {
			return nil, fmt.Errorf("%w: dynamics %s cannot record traces", ErrInvalid, s.Dynamics.Kind)
		}
	}
	if c.trackers != nil {
		tr, err := newDriftTracker(built, cell.Dynamics, s.DynamicsSeed(cell, rep))
		if err != nil {
			return nil, err
		}
		obs, ok := built.Dyn.(dynamics.Observable)
		if !ok {
			return nil, fmt.Errorf("%w: dynamics %s cannot attach a drift tracker", ErrInvalid, s.Dynamics.Kind)
		}
		obs.SetObserver(tr)
		c.trackers[rep] = tr
	}
	return built.Dyn, nil
}

// runCell executes one cell. Replications the manifest already holds
// (m non-nil) fill their slots first, so they cost no context poll;
// runner.Map runs the rest across the spec's worker pool, and each
// finished one is recorded in the manifest. Results fold in replication
// order, so aggregates are bit-identical however (and in however many
// processes) the replications ran.
func (s *Spec) runCell(ctx context.Context, cell Cell, opts Options, m *manifest) (CellResult, error) {
	c, err := s.newCellRun(cell, opts.Registry, opts.Journal)
	if err != nil {
		return CellResult{}, err
	}
	results := make([]dynamics.RunResult, s.Reps)
	var drifts []fluid.Drift
	if c.trackers != nil {
		drifts = make([]fluid.Drift, s.Reps)
	}
	pending := make([]int, 0, s.Reps)
	for rep := range s.Reps {
		rec := m.find(cell.Index, rep)
		if rec == nil {
			pending = append(pending, rep)
			continue
		}
		results[rep] = rec.Result.result()
		if drifts != nil {
			if rec.Drift == nil {
				return CellResult{}, fmt.Errorf("%w: manifest record for cell %d rep %d lacks the drift summary this spec needs", ErrInvalid, cell.Index, rep)
			}
			drifts[rep] = rec.Drift.drift()
		}
	}
	_, err = runner.Map(ctx, len(pending), s.Par, func(ctx context.Context, i int) (struct{}, error) {
		rep := pending[i]
		res, err := c.runRep(ctx, rep, m)
		if err != nil {
			return struct{}{}, err
		}
		results[rep] = res
		var drift *fluid.Drift
		if drifts != nil {
			drifts[rep] = c.trackers[rep].Drift()
			drift = &drifts[rep]
		}
		return struct{}{}, m.record(cell.Index, rep, res, drift)
	})
	if err != nil {
		return CellResult{}, m.suspension(err, cell.Index)
	}
	rounds := make([]float64, len(results))
	for i, r := range results {
		rounds[i] = float64(r.Rounds)
	}
	summary, err := stats.Summarize(rounds)
	if err != nil {
		return CellResult{}, err
	}
	return CellResult{
		Cell:    cell,
		Reps:    s.Reps,
		Results: results,
		Rounds:  summary,
		Agg:     runner.Summarize(results),
		Trace:   c.recorder,
		Drifts:  drifts,
	}, nil
}

// addRow appends the cell's table row: axis values, then metric values.
func (s *Spec) addRow(t *sim.Table, cr *CellResult) error {
	row := make([]any, 0, len(cr.Cell.Values)+len(s.Metrics))
	for _, v := range cr.Cell.Values {
		row = append(row, formatValue(v))
	}
	for _, name := range s.Metrics {
		v, err := metrics[name].Value(cr)
		if err != nil {
			return fmt.Errorf("scenario: metric %s on cell %d: %w", name, cr.Cell.Index, err)
		}
		row = append(row, v)
	}
	t.AddRow(row...)
	return nil
}
