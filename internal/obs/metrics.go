package obs

import "congame/internal/core"

// DefTimeBuckets is the default bucket layout for phase and job duration
// histograms: log-spaced from 1µs to 10s, wide enough to span both a
// single engine phase on a small instance and a whole heavyweight cell.
var DefTimeBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}

// RoundMetrics is the backend-independent round accounting shared by all
// dynamics families: rounds stepped, migrations applied, and the current
// population.
type RoundMetrics struct {
	Rounds  *Counter
	Moves   *Counter
	Players *Gauge
}

// NewRoundMetrics registers the round counters for one backend label.
func NewRoundMetrics(r *Registry, backend string) *RoundMetrics {
	lbl := L("backend", backend)
	return &RoundMetrics{
		Rounds:  r.Counter("engine_rounds_total", "Rounds stepped.", lbl),
		Moves:   r.Counter("engine_moves_total", "Player migrations applied.", lbl),
		Players: r.Gauge("engine_players", "Population of the most recent round.", lbl),
	}
}

type roundMetricsObserver struct{ m *RoundMetrics }

func (o roundMetricsObserver) Observe(s core.RoundStats) {
	o.m.Rounds.Inc()
	o.m.Moves.Add(uint64(s.Movers))
	o.m.Players.Set(float64(s.Players))
}

// Observer returns a core.RoundObserver that feeds the counters. It never
// mutates engine state and never allocates per round.
func (m *RoundMetrics) Observer() core.RoundObserver { return roundMetricsObserver{m} }

// EngineMetrics instruments any backend that reports core.StepTimings
// (core, weighted, fluid): the shared round counters plus one duration
// histogram per Step phase in the family
// engine_phase_seconds{backend=...,phase=...}.
type EngineMetrics struct {
	*RoundMetrics
	PreRound *Histogram
	Sync     *Histogram
	Decide   *Histogram
	Apply    *Histogram
	Step     *Histogram
}

// NewEngineMetrics registers the phase-timed metric set for one backend
// label ("core", "weighted", "fluid").
func NewEngineMetrics(r *Registry, backend string) *EngineMetrics {
	phase := func(name string) *Histogram {
		return r.Histogram("engine_phase_seconds", "Wall-clock seconds per engine step phase.",
			DefTimeBuckets, L("backend", backend), L("phase", name))
	}
	return &EngineMetrics{
		RoundMetrics: NewRoundMetrics(r, backend),
		PreRound:     phase("pre_round"),
		Sync:         phase("sync"),
		Decide:       phase("decide"),
		Apply:        phase("apply"),
		Step:         phase("step"),
	}
}

// StepTimer returns a core.StepTimer feeding the phase histograms. Round
// counting is left to the Observer so a journal timer can be composed in
// without double-counting rounds.
func (m *EngineMetrics) StepTimer() core.StepTimer {
	return func(_ core.RoundStats, t core.StepTimings) {
		m.PreRound.ObserveDuration(t.PreRound)
		m.Sync.ObserveDuration(t.Sync)
		m.Decide.ObserveDuration(t.Decide)
		m.Apply.ObserveDuration(t.Apply)
		m.Step.ObserveDuration(t.Step)
	}
}

// RunnerMetrics instruments runner.Map's worker pool: jobs completed, job
// and queue-wait durations, and total busy time (busy nanoseconds over
// wall nanoseconds × workers gives utilization).
type RunnerMetrics struct {
	Jobs      *Counter
	JobSec    *Histogram
	QueueWait *Histogram
	BusyNanos *Counter
}

// NewRunnerMetrics registers the worker-pool metric set.
func NewRunnerMetrics(r *Registry) *RunnerMetrics {
	return &RunnerMetrics{
		Jobs:      r.Counter("runner_jobs_total", "Jobs completed by the worker pool."),
		JobSec:    r.Histogram("runner_job_seconds", "Wall-clock seconds per job.", DefTimeBuckets),
		QueueWait: r.Histogram("runner_queue_wait_seconds", "Seconds a job waited between dispatch and pickup.", DefTimeBuckets),
		BusyNanos: r.Counter("runner_busy_nanoseconds_total", "Total nanoseconds workers spent running jobs."),
	}
}

// SweepMetrics instruments a scenario sweep: cell/rep progress counters,
// per-cell durations, and a completion gauge a scraper can poll for.
type SweepMetrics struct {
	CellsTotal  *Gauge
	CellsDone   *Counter
	RepsDone    *Counter
	CellSeconds *Histogram
	RunComplete *Gauge
}

// NewSweepMetrics registers the sweep metric set.
func NewSweepMetrics(r *Registry) *SweepMetrics {
	return &SweepMetrics{
		CellsTotal:  r.Gauge("sweep_cells_total", "Cells in the running sweep."),
		CellsDone:   r.Counter("sweep_cells_done_total", "Cells completed."),
		RepsDone:    r.Counter("sweep_reps_done_total", "Replications completed."),
		CellSeconds: r.Histogram("sweep_cell_seconds", "Wall-clock seconds per completed cell.", DefTimeBuckets),
		RunComplete: r.Gauge("sweep_run_complete", "1 once the sweep has finished."),
	}
}
