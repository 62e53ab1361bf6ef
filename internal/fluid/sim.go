package fluid

import (
	"fmt"
	"math"
	"time"

	"congame/internal/core"
	"congame/internal/game"
	"congame/internal/latency"
)

// This file promotes the two-file ODE sketch into a full simulator: Sim
// carries the strategy-mass state round by round with per-round RoundStats,
// a choice of explicit integrators (Euler or classic RK4, optionally
// sub-stepped for stiff latency functions), and zero steady-state
// allocations per round. The per-round cost is O(m log m) in the number of
// links — independent of the player count the system models — which is
// what makes million-player sweeps cheap (DESIGN.md §9).

// RoundStats summarizes one fluid round (unit time Δt = 1).
type RoundStats struct {
	// Round is the 0-based index of the completed round.
	Round int
	// MigrationMass is the total probability mass that migrated between
	// links this round (the fluid analogue of the atomic Movers count,
	// normalized by n; summed over substeps).
	MigrationMass float64
	// Potential is the continuous Rosenthal potential after the round,
	// maintained incrementally (Sim.ExactPotential recomputes from
	// scratch).
	Potential float64
	// AvgLatency is L_av(y) after the round.
	AvgLatency float64
	// MaxLatency is the highest latency among links carrying mass — the
	// fluid makespan.
	MaxLatency float64
}

// SimConfig configures a Sim.
type SimConfig struct {
	// Substeps is the number of integrator steps per unit-time protocol
	// round (0 = 1). Stiff latency functions — high-degree monomials near
	// full load — need substeps > 1 for an explicit integrator to track
	// the ODE; 4 matches the E11/E15 experiments.
	Substeps int
	// Euler selects the explicit Euler integrator instead of the default
	// classic RK4: 4× cheaper per substep, one order of accuracy.
	Euler bool
}

// Sim integrates a System round by round. All integrator and statistics
// buffers are allocated at construction, so Step performs no allocations;
// trajectories are deterministic in (system, y0, config) — there is no
// randomness anywhere in the fluid model.
type Sim struct {
	sys      *System
	y        []float64
	round    int
	substeps int
	euler    bool
	phi      float64
	moveMass float64

	// integrator workspaces
	k1, k2, k3, k4, tmp []float64
	yPrev               []float64 // state before the current substep
	roundPrev           []float64 // state at the start of the current round
	dw                  derivWorkspace

	timer func(core.StepTimings)
}

// SetStepTimer installs (or, with nil, removes) a per-round phase timer
// reporting in the exact engine's phase record: Decide covers the
// substepped ODE integration (the mean-field decide step), Apply the
// incremental Simpson potential fold, and Step the whole round including
// the stats fold; PreRound and Sync stay zero. The timer runs
// synchronously after each Step; with none installed the round takes no
// timestamps (nil checks only), and the timed round stays on the
// zero-allocation path.
func (s *Sim) SetStepTimer(fn func(core.StepTimings)) { s.timer = fn }

// Population returns the absolute player population n the system's
// latency functions are scaled by (systems built with FromGame), or
// ok=false for hand-built systems that model no particular n.
func (s *Sim) Population() (pop float64, ok bool) {
	if len(s.sys.fns) == 0 {
		return 0, false
	}
	return unwrapPopulation(s.sys.fns[0])
}

// NewSim builds a simulator over sys starting from the mass vector y0
// (copied; must lie on the simplex).
func NewSim(sys *System, y0 []float64, cfg SimConfig) (*Sim, error) {
	if sys == nil {
		return nil, fmt.Errorf("%w: nil system", ErrInvalid)
	}
	if err := sys.validState(y0); err != nil {
		return nil, err
	}
	substeps := cfg.Substeps
	if substeps == 0 {
		substeps = 1
	}
	if substeps < 1 || substeps > 1<<16 {
		return nil, fmt.Errorf("%w: substeps = %d", ErrInvalid, cfg.Substeps)
	}
	m := len(y0)
	s := &Sim{
		sys:       sys,
		y:         append([]float64(nil), y0...),
		substeps:  substeps,
		euler:     cfg.Euler,
		k1:        make([]float64, m),
		k2:        make([]float64, m),
		k3:        make([]float64, m),
		k4:        make([]float64, m),
		tmp:       make([]float64, m),
		yPrev:     make([]float64, m),
		roundPrev: make([]float64, m),
	}
	s.dw.init(m)
	s.phi = sys.Potential(s.y)
	return s, nil
}

// System returns the system the simulator integrates.
func (s *Sim) System() *System { return s.sys }

// Round returns the number of completed rounds.
func (s *Sim) Round() int { return s.round }

// Potential returns the incrementally maintained continuous potential.
func (s *Sim) Potential() float64 { return s.phi }

// ExactPotential recomputes the potential from scratch (Simpson over
// [0, y_e] per link) — the ground truth the incremental value tracks.
func (s *Sim) ExactPotential() float64 { return s.sys.Potential(s.y) }

// Mass returns the live strategy-mass vector. Callers must treat it as
// read-only; it changes on every Step.
func (s *Sim) Mass() []float64 { return s.y }

// MigrationMass returns the mass that migrated in the last completed
// round.
func (s *Sim) MigrationMass() float64 { return s.moveMass }

// Step advances the state by one unit-time protocol round (substeps
// integrator steps) and returns the round's statistics. It allocates
// nothing.
func (s *Sim) Step() RoundStats {
	var (
		t     core.StepTimings
		start time.Time
		mark  time.Time
	)
	if s.timer != nil {
		start = time.Now()
		mark = start
	}
	copy(s.roundPrev, s.y)
	dt := 1.0 / float64(s.substeps)
	move := 0.0
	for k := 0; k < s.substeps; k++ {
		copy(s.yPrev, s.y)
		if s.euler {
			s.stepEuler(dt)
		} else {
			s.stepRK4(dt)
		}
		for e, v := range s.y {
			if d := v - s.yPrev[e]; d > 0 {
				move += d
			}
		}
	}
	if s.timer != nil {
		now := time.Now()
		t.Decide = now.Sub(mark)
		mark = now
	}
	// Incremental potential: ΔΦ = Σ_e ∫_{y_e}^{y'_e} ℓ_e(u) du over the
	// round's (small) per-link intervals — Simpson on each segment keeps
	// the running value within integrator accuracy of ExactPotential.
	for e, v := range s.y {
		if v != s.roundPrev[e] {
			s.phi += simpsonSegment(s.sys.fns[e].Value, s.roundPrev[e], v)
		}
	}
	if s.timer != nil {
		t.Apply = time.Since(mark)
	}
	s.moveMass = move
	s.round++
	stats := s.currentStats()
	if s.timer != nil {
		t.Step = time.Since(start)
		s.timer(t)
	}
	return stats
}

// Current summarizes the current state attributed to the last completed
// round (Round −1 before any Step), without advancing anything — the
// pre-run probe the dynamics adapters use.
func (s *Sim) Current() RoundStats { return s.currentStats() }

// currentStats summarizes the current state attributed to the last
// completed round.
func (s *Sim) currentStats() RoundStats {
	maxLat := 0.0
	for e, v := range s.y {
		if v > 0 {
			if l := s.sys.fns[e].Value(v); l > maxLat {
				maxLat = l
			}
		}
	}
	return RoundStats{
		Round:         s.round - 1,
		MigrationMass: s.moveMass,
		Potential:     s.phi,
		AvgLatency:    s.sys.AvgLatency(s.y),
		MaxLatency:    maxLat,
	}
}

// stepEuler advances y by one explicit Euler substep.
func (s *Sim) stepEuler(dt float64) {
	s.sys.fastDerivative(s.y, s.k1, &s.dw)
	for i := range s.y {
		s.y[i] += dt * s.k1[i]
	}
	clampSimplex(s.y)
}

// stepRK4 advances y by one classic RK4 substep — the same tableau as
// System.Step, with the workspaces preallocated and the O(m log m)
// derivative.
func (s *Sim) stepRK4(dt float64) {
	s.sys.fastDerivative(s.y, s.k1, &s.dw)
	for i := range s.tmp {
		s.tmp[i] = s.y[i] + dt/2*s.k1[i]
	}
	s.sys.fastDerivative(s.tmp, s.k2, &s.dw)
	for i := range s.tmp {
		s.tmp[i] = s.y[i] + dt/2*s.k2[i]
	}
	s.sys.fastDerivative(s.tmp, s.k3, &s.dw)
	for i := range s.tmp {
		s.tmp[i] = s.y[i] + dt*s.k3[i]
	}
	s.sys.fastDerivative(s.tmp, s.k4, &s.dw)
	for i := range s.y {
		s.y[i] += dt / 6 * (s.k1[i] + 2*s.k2[i] + 2*s.k3[i] + s.k4[i])
	}
	clampSimplex(s.y)
}

// clampSimplex clips tiny negative drift and renormalizes total mass to 1,
// exactly like System.Step.
func clampSimplex(y []float64) {
	total := 0.0
	for i, v := range y {
		if v < 0 {
			v = 0
			y[i] = 0
		}
		total += v
	}
	if total > 0 {
		for i := range y {
			y[i] /= total
		}
	}
}

// simpsonSegment integrates f over the (signed) segment [a,b] with 4
// subintervals — plenty for the per-round increments, which span a tiny
// fraction of a link's domain.
func simpsonSegment(f func(float64) float64, a, b float64) float64 {
	h := (b - a) / 4
	return (f(a) + 4*f(a+h) + 2*f(a+2*h) + 4*f(a+3*h) + f(b)) * h / 3
}

// derivWorkspace holds the fast derivative's buffers: a persistent
// near-sorted link order plus prefix/suffix sums over it.
type derivWorkspace struct {
	order []int32 // links sorted by (latency, index); kept across calls
	lat   []float64
	// prefix sums over the sorted order (index k = links strictly before
	// position k): Σ y and Σ y·ℓ — the "cheaper than me" side.
	preY, preYL []float64
	// suffix sums from position k: Σ y and Σ y/ℓ — the "dearer" side.
	sufY, sufYinvL []float64
}

func (w *derivWorkspace) init(m int) {
	w.order = make([]int32, m)
	for i := range w.order {
		w.order[i] = int32(i)
	}
	w.lat = make([]float64, m)
	w.preY = make([]float64, m+1)
	w.preYL = make([]float64, m+1)
	w.sufY = make([]float64, m+1)
	w.sufYinvL = make([]float64, m+1)
}

// fastDerivative writes ẏ into dy like Derivative, in O(m log m) instead
// of O(m²): with links sorted by latency, each link's pairwise sum
// telescopes into prefix/suffix sums —
//
//	A_P = Σ_{Q:ℓ_Q>ℓ_P} y_Q·(ℓ_Q−ℓ_P)/ℓ_Q = Σ y_Q − ℓ_P·Σ y_Q/ℓ_Q
//	B_P = Σ_{Q:ℓ_Q<ℓ_P} y_Q·(ℓ_P−ℓ_Q)/ℓ_P = Σ y_Q − (Σ y_Q·ℓ_Q)/ℓ_P
//
// and ẏ_P = (λ/d)·y_P·(A_P − B_P). Ties contribute nothing to either sum
// (equal-latency links never exchange mass), so tie groups share one rate.
// The sort itself is insertion sort over the previous call's order:
// trajectories move slowly, so the order is nearly sorted and the pass is
// ~O(m) after the first call. Agreement with the O(m²) reference is pinned
// by a differential test.
func (s *System) fastDerivative(y, dy []float64, w *derivWorkspace) {
	m := len(y)
	lat := w.lat
	for e := 0; e < m; e++ {
		lat[e] = s.fns[e].Value(y[e])
	}
	ord := w.order
	for i := 1; i < m; i++ {
		v := ord[i]
		lv := lat[v]
		j := i - 1
		for j >= 0 && (lat[ord[j]] > lv || (lat[ord[j]] == lv && ord[j] > v)) {
			ord[j+1] = ord[j]
			j--
		}
		ord[j+1] = v
	}

	w.preY[0], w.preYL[0] = 0, 0
	for k := 0; k < m; k++ {
		e := ord[k]
		w.preY[k+1] = w.preY[k] + y[e]
		w.preYL[k+1] = w.preYL[k] + y[e]*lat[e]
	}
	w.sufY[m], w.sufYinvL[m] = 0, 0
	for k := m - 1; k >= 0; k-- {
		e := ord[k]
		w.sufY[k] = w.sufY[k+1] + y[e]
		inv := 0.0
		if lat[e] > 0 {
			inv = y[e] / lat[e]
		}
		w.sufYinvL[k] = w.sufYinvL[k+1] + inv
	}

	scale := s.lambda / s.d
	for k := 0; k < m; {
		g := k + 1
		lp := lat[ord[k]]
		for g < m && lat[ord[g]] == lp {
			g++
		}
		rate := w.sufY[g] - lp*w.sufYinvL[g]
		if lp > 0 {
			rate -= w.preY[k] - w.preYL[k]/lp
		}
		for j := k; j < g; j++ {
			e := ord[j]
			dy[e] = scale * y[e] * rate
		}
		k = g
	}
}

// massLatency evaluates a base (atomic) latency at absolute load y·n, so
// unit fluid mass corresponds to a game's n players.
type massLatency struct {
	base latency.Function
	n    float64
}

func (f massLatency) Value(y float64) float64      { return f.base.Value(y * f.n) }
func (f massLatency) Derivative(y float64) float64 { return f.base.Derivative(y*f.n) * f.n }
func (f massLatency) String() string               { return fmt.Sprintf("(%s)@%g·y", f.base, f.n) }

// ElasticityBound: the mass rescaling x = y·n preserves elasticity
// pointwise, so the bound over (0, y] equals the base bound over (0, y·n].
func (f massLatency) ElasticityBound(y float64) float64 {
	return latency.Elasticity(f.base, y*f.n)
}

// FromGame builds the mean-field twin of a singleton game: link e's fluid
// latency is ℓ_e(y·n), so the instance family's n players map onto unit
// mass, and the elasticity damping d is the game's own — the exact value
// the atomic IMITATION PROTOCOL divides its migration probability by.
// Non-singleton games (network strategies spanning several resources) have
// no strategy-mass ↔ link-mass correspondence and are rejected; weighted
// populations never reach this package (game.Game is unweighted).
func FromGame(g *game.Game, lambda float64) (*System, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil game", ErrInvalid)
	}
	if !g.IsSingleton() {
		return nil, fmt.Errorf("%w: game %q is not a singleton game — the fluid model needs one link per strategy", ErrInvalid, g.Name())
	}
	if lambda <= 0 || lambda > 1 {
		return nil, fmt.Errorf("%w: lambda = %v, need (0,1]", ErrInvalid, lambda)
	}
	n := float64(g.NumPlayers())
	m := g.NumResources()
	fns := make([]latency.Function, m)
	for e := 0; e < m; e++ {
		fns[e] = massLatency{base: g.Resource(e).Latency, n: n}
	}
	return &System{fns: fns, lambda: lambda, d: math.Max(1, g.Elasticity())}, nil
}

// EmpiricalDistribution writes a singleton-game state's per-link load
// fractions into buf (grown as needed) and returns it: buf[e] = load_e/n,
// the strategy-mass vector the fluid model evolves.
func EmpiricalDistribution(st *game.State, buf []float64) []float64 {
	g := st.Game()
	m := g.NumResources()
	if cap(buf) < m {
		buf = make([]float64, m)
	}
	buf = buf[:m]
	n := float64(g.NumPlayers())
	for e := 0; e < m; e++ {
		buf[e] = float64(st.Load(e)) / n
	}
	return buf
}

// Distance returns the L∞ and L1 distances between two equal-length mass
// vectors.
func Distance(a, b []float64) (linf, l1 float64) {
	for i := range a {
		d := math.Abs(a[i] - b[i])
		l1 += d
		if d > linf {
			linf = d
		}
	}
	return linf, l1
}

// Drift summarizes the distance between an atomic trajectory and its fluid
// twin over an observed run: the sup over all observed rounds and the
// value after the last one, in both norms.
type Drift struct {
	SupLinf   float64
	SupL1     float64
	FinalLinf float64
	FinalL1   float64
	// Rounds is the number of observed rounds.
	Rounds int
}

// DriftTracker advances a shadow trajectory in lockstep with observed
// dynamics and records the distance between the atomic empirical strategy
// distribution and the fluid mass vector after every round. It implements
// core.RoundObserver, so it attaches wherever a trace recorder does.
// Exactly one side is primary: NewDriftTracker shadows an observed atomic
// run with a fluid Sim it steps itself; NewAtomicShadowTracker inverts
// this for an observed fluid run, advancing the atomic side through the
// supplied step function.
type DriftTracker struct {
	sim     *Sim
	st      *game.State
	advance func()
	d       Drift
	buf     []float64
}

var _ core.RoundObserver = (*DriftTracker)(nil)

// NewDriftTracker shadows an atomic run: every observed round advances sim
// by one round and measures the distance against st.
func NewDriftTracker(sim *Sim, st *game.State) *DriftTracker {
	t := &DriftTracker{sim: sim, st: st}
	t.advance = func() { sim.Step() }
	return t
}

// NewAtomicShadowTracker shadows a fluid run: every observed round calls
// step (typically one atomic engine round over st) and measures the same
// distance.
func NewAtomicShadowTracker(sim *Sim, st *game.State, step func()) *DriftTracker {
	return &DriftTracker{sim: sim, st: st, advance: step}
}

// Observe implements core.RoundObserver.
func (t *DriftTracker) Observe(core.RoundStats) {
	t.advance()
	t.buf = EmpiricalDistribution(t.st, t.buf)
	linf, l1 := Distance(t.buf, t.sim.Mass())
	t.d.Rounds++
	t.d.FinalLinf, t.d.FinalL1 = linf, l1
	if linf > t.d.SupLinf {
		t.d.SupLinf = linf
	}
	if l1 > t.d.SupL1 {
		t.d.SupL1 = l1
	}
}

// Drift returns the accumulated summary.
func (t *DriftTracker) Drift() Drift { return t.d }
