package dynamics

import (
	"congame/internal/core"
	"congame/internal/obs"
)

// Instrument attaches observability to one dynamics instance: registry
// metrics (per-backend round counters and phase histograms) and/or a run
// journal attributed to (cell, rep) — either may be nil, and negative
// cell/rep are omitted from journal rows. Metrics for the same backend
// accumulate across instances (the registry is idempotent), so calling
// this once per replication is the intended pattern; a journal is
// typically attached to a single representative replication to bound its
// volume.
//
// Timed dynamics (the core, weighted, and fluid adapters) get the phase
// histograms and journal phase rows through one core.StepTimer; any other
// Observable dynamics get round accounting only. Everything installed
// here only reads the completed round's statistics and timings, so an
// instrumented run's trajectory is bit-identical to a bare one (pinned by
// TestInstrumentPreservesTrajectory).
func Instrument(d Dynamics, reg *obs.Registry, j *obs.Journal, cell, rep int) {
	if reg == nil && j == nil {
		return
	}
	o, ok := d.(Observable)
	if !ok {
		return
	}
	var label string
	switch d.(type) {
	case *Engine:
		label = "core"
	case *Weighted:
		label = "weighted"
	case *Fluid:
		label = "fluid"
	default:
		label = "sequential"
	}
	timed, isTimed := d.(Timed)
	var timer core.StepTimer
	if reg != nil {
		if isTimed {
			em := obs.NewEngineMetrics(reg, label)
			timer = em.StepTimer()
			o.SetObserver(em.Observer())
		} else {
			o.SetObserver(obs.NewRoundMetrics(reg, label).Observer())
		}
	}
	if j != nil {
		if isTimed {
			timer = core.ComposeStepTimers(timer, j.StepTimer(cell, rep, label))
		}
		o.SetObserver(j.RoundObserver(cell, rep))
	}
	if isTimed {
		timed.SetStepTimer(timer)
	}
}
