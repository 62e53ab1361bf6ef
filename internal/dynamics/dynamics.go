// Package dynamics unifies the repo's dynamics families behind one
// interface. The paper's experiments compare the concurrent IMITATION
// PROTOCOL (core.Engine), its weighted-player extension (weighted.Engine),
// the sequential baselines of Section 3.2 (package baseline), and the
// mean-field fluid limit of the protocol (fluid.Sim); each historically
// exposed its own run API. This package defines the common Dynamics
// interface — Step, Run, and potential/round accessors over a shared
// RoundStats/RunResult vocabulary — plus thin adapters for every family.
//
// The adapters are deliberately transparent: each delegates to the wrapped
// implementation without re-deriving randomness or re-ordering work, so a
// run through an adapter is bit-identical to a run against the underlying
// engine. That transparency is what lets internal/runner fan replications
// of *any* family out across a worker pool while reproducing the exact
// tables the hand-rolled per-family loops produced (see DESIGN.md §6).
package dynamics

import "congame/internal/core"

// RoundStats summarizes one executed round (or, for sequential dynamics,
// one activation batch). It is core.RoundStats; the adapters document
// which fields they populate. The fluid adapter reports the rounded
// absolute population as Players for FromGame-scaled systems and 0 for
// hand-built ones; adapters that cannot track the potential cheaply
// report NaN (use Dynamics.Potential for ground truth); NewStrategies is
// only ever non-zero on the concurrent engine.
type RoundStats = core.RoundStats

// RunResult summarizes a full Run. It is core.RunResult: Rounds counts
// the rounds (sequential dynamics: activations) this Run executed, and
// TotalMoves the migrations over the dynamics' lifetime — all rounds
// ever executed, not just this Run, as core.Engine.Run reports it —
// where the family tracks them (0 for the fluid and Goldberg families).
type RunResult = core.RunResult

// StopCondition inspects the dynamics after each round and reports whether
// the run should stop. Conditions receive the Dynamics itself so that
// family-specific predicates (equilibrium checks on snapshots, weighted
// Nash tests) can type-assert down to the adapter they understand; see
// FromCore and WeightedNash. Conditions must treat the dynamics as
// read-only.
type StopCondition func(d Dynamics, r RoundStats) bool

// Observable is implemented by dynamics that can attach a per-round
// observer (e.g. a trace.Recorder) after construction. Every adapter
// family implements it: the core-engine adapter forwards to
// core.Engine.AddObserver, while the others invoke observers themselves
// after every executed Step (roundHooks). Repeated calls
// attach ADDITIONAL observers on every family (there is no detach).
// Observers see the same RoundStats the Step returns.
type Observable interface {
	SetObserver(obs core.RoundObserver)
}

// Timed is implemented by dynamics that report per-round phase timings in
// the one core.StepTimings record: the core, weighted, and fluid
// adapters. The timer runs after each Step with the same RoundStats the
// observers see, before them (as core.Engine orders it), so a journal
// writes each round's phase row ahead of its round row. Only one timer is
// kept; compose several with core.ComposeStepTimers, and pass nil to
// remove it.
type Timed interface {
	SetStepTimer(t core.StepTimer)
}

// roundHooks is the per-round fan-out the weighted, fluid, and
// sequential adapters share: the attached observers, plus (weighted,
// fluid) a step timer fed the wrapped engine's timings of the round just
// stepped. core.Engine does the same internally, so the core adapter
// needs none of it.
type roundHooks struct {
	obs   []core.RoundObserver
	timer core.StepTimer
	last  core.StepTimings
}

// SetObserver implements Observable: the observer sees the RoundStats of
// every round stepped from now on. Repeated calls attach additional
// observers, like core.Engine.AddObserver.
func (h *roundHooks) SetObserver(obs core.RoundObserver) {
	if obs != nil {
		h.obs = append(h.obs, obs)
	}
}

// setTimer records t and returns the engine-side hook to install: nil
// when t is nil, so an untimed engine keeps its timestamp-free round.
func (h *roundHooks) setTimer(t core.StepTimer) func(core.StepTimings) {
	h.timer = t
	if t == nil {
		return nil
	}
	return h.keep
}

func (h *roundHooks) keep(t core.StepTimings) { h.last = t }

// emit reports a stepped round: timer first, then observers.
func (h *roundHooks) emit(s RoundStats) {
	if h.timer != nil {
		h.timer(s, h.last)
	}
	for _, obs := range h.obs {
		obs.Observe(s)
	}
}

// Dynamics is the unified run API over all dynamics families.
type Dynamics interface {
	// Step executes one round (sequential dynamics: one activation batch)
	// and returns its statistics.
	Step() RoundStats
	// Run executes rounds until the stop condition fires or maxRounds
	// rounds have been executed. A nil stop runs exactly maxRounds rounds
	// (sequential dynamics additionally stop when absorbed). The stop
	// condition is also evaluated once before the first round, so an
	// already-stable state reports Converged with zero rounds.
	Run(maxRounds int, stop StopCondition) RunResult
	// Round returns the number of completed rounds.
	Round() int
	// Potential returns the current potential (NaN where the family has
	// none, e.g. weighted games with non-linear latencies).
	Potential() float64
}
