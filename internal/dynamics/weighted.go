package dynamics

import (
	"math"

	"congame/internal/core"
	"congame/internal/weighted"
)

// Weighted adapts a *weighted.Engine to the Dynamics interface. Run
// reproduces weighted.Engine.Run's semantics exactly — the stop condition
// is probed once before the first round and after every round — so
// Run(maxRounds, WeightedNash(eps)) returns the same (rounds, converged)
// pair as the engine's own Run(maxRounds, eps).
type Weighted struct {
	e *weighted.Engine
	// slopes caches the per-link slopes of the exact weighted linear
	// potential, extracted once at wrap time (the game is immutable); nil
	// when some latency is non-linear, in which case potentials report
	// NaN. Caching kills the per-round type-switch fold and allocation
	// LinearPotential would otherwise pay inside every Step.
	slopes []float64
	// moves counts migrations over every round stepped through the
	// adapter (RunResult.TotalMoves).
	moves int
	roundHooks
}

var _ Dynamics = (*Weighted)(nil)
var _ Observable = (*Weighted)(nil)
var _ Timed = (*Weighted)(nil)

// SetStepTimer implements Timed with the weighted engine's phase timings
// (see weighted.Engine.SetStepTimer).
func (a *Weighted) SetStepTimer(t core.StepTimer) { a.e.SetStepTimer(a.setTimer(t)) }

// FromWeighted wraps a weighted engine.
func FromWeighted(e *weighted.Engine) *Weighted {
	slopes, err := e.State().Game().LinearSlopes()
	if err != nil {
		slopes = nil
	}
	return &Weighted{e: e, slopes: slopes}
}

// Engine returns the wrapped engine.
func (a *Weighted) Engine() *weighted.Engine { return a.e }

// State returns the engine's live state.
func (a *Weighted) State() *weighted.State { return a.e.State() }

// Round returns the number of completed rounds.
func (a *Weighted) Round() int { return a.e.Round() }

// Potential returns the exact weighted linear potential (folded from the
// slopes cached at wrap time), or NaN when some link latency is non-linear
// (the weighted family has no general exact potential).
func (a *Weighted) Potential() float64 {
	if a.slopes == nil {
		return math.NaN()
	}
	return a.e.State().LinearPotentialWith(a.slopes)
}

// Step executes one concurrent weighted round. NewStrategies is always 0
// (weighted games have a fixed link set).
func (a *Weighted) Step() RoundStats {
	round := a.e.Round()
	moves := a.e.Step()
	a.moves += moves
	st := a.e.State()
	stats := RoundStats{
		Round:      round,
		Players:    st.Game().NumPlayers(),
		Movers:     moves,
		Potential:  a.Potential(),
		AvgLatency: st.AvgLatency(),
		MaxLatency: st.MaxLatency(),
	}
	a.emit(stats)
	return stats
}

// currentStats summarizes the current state attributed to the last
// completed round, mirroring core.Engine's convention.
func (a *Weighted) currentStats() RoundStats {
	st := a.e.State()
	return RoundStats{
		Round:      a.e.Round() - 1,
		Players:    st.Game().NumPlayers(),
		Potential:  a.Potential(),
		AvgLatency: st.AvgLatency(),
		MaxLatency: st.MaxLatency(),
	}
}

// Run executes rounds until the stop condition fires or the budget runs
// out, with the same probe order as weighted.Engine.Run.
func (a *Weighted) Run(maxRounds int, stop StopCondition) RunResult {
	if stop != nil && stop(a, a.currentStats()) {
		return RunResult{Rounds: 0, Converged: true, TotalMoves: a.moves, Final: a.currentStats()}
	}
	if maxRounds <= 0 {
		return RunResult{Rounds: 0, Converged: false, TotalMoves: a.moves, Final: a.currentStats()}
	}
	var last RoundStats
	for r := 1; r <= maxRounds; r++ {
		last = a.Step()
		if stop != nil && stop(a, last) {
			return RunResult{Rounds: r, Converged: true, TotalMoves: a.moves, Final: last}
		}
	}
	return RunResult{Rounds: maxRounds, Converged: false, TotalMoves: a.moves, Final: last}
}
