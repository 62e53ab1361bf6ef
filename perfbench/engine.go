package main

import (
	"fmt"
	"math"
	"time"

	"congame/internal/core"
	"congame/internal/game"
	"congame/internal/obs"
	"congame/internal/prng"
	"congame/internal/workload"
)

// engineHeavy drives the library path one caller at a time:
// workload.HeavyTraffic → core.NewImitation → core.NewEngine → Engine.Run.
// No scenario, runner, checkpoint or serve code runs.
type engineHeavy struct {
	seed uint64
	// corrupt perturbs the rerun reference (checker self-test).
	corrupt bool
	reg     *obs.Registry
	// outcomes holds sampled jobs' results for the workers = 1 rerun.
	outcomes map[int]engineOutcome
}

// engineOutcome is what a rerun must reproduce bit for bit.
type engineOutcome struct {
	res    core.RunResult
	phi    uint64 // incremental potential, as bits
	assign uint64 // hash of the final assignment
}

// engineSampleEvery selects the jobs rerun at workers = 1.
const engineSampleEvery = 50

func (w *engineHeavy) clients() int                    { return 1 }
func (w *engineHeavy) registry() *obs.Registry         { return w.reg }
func (w *engineHeavy) open() error                     { return nil }
func (w *engineHeavy) close() ([]time.Duration, error) { return nil, nil }

func (w *engineHeavy) prepare() error {
	w.reg = obs.NewRegistry()
	w.outcomes = map[int]engineOutcome{}
	return nil
}

// build is the per-job set-up: the instance and its engine.
func (w *engineHeavy) build(in engineJob, workers int, tr *tracer, root, i int) (*core.Engine, float64, error) {
	b := tr.begin("workload.build", root, i)
	inst, err := workload.HeavyTraffic(heavyPlayers, heavyLinks, prng.New(in.InstanceSeed))
	tr.end(b)
	if err != nil {
		return nil, 0, err
	}
	c := tr.begin("core.new", root, i)
	defer tr.end(c)
	im, err := core.NewImitation(inst.Game, core.ImitationConfig{})
	if err != nil {
		return nil, 0, err
	}
	e, err := core.NewEngine(inst.State, im, core.WithSeed(in.EngineSeed), core.WithWorkers(workers))
	if err != nil {
		return nil, 0, err
	}
	return e, im.Nu(), nil
}

func (w *engineHeavy) job(i int, tr *tracer, root int) jobResult {
	r := jobResult{index: i, start: time.Now()}
	e, nu, err := w.build(engineJobAt(w.seed, i), heavyWorkers, tr, root, i)
	r.setup = time.Since(r.start)
	if err != nil {
		r.end, r.err = time.Now(), err.Error()
		return r
	}
	stop := core.StopWhenApproxEq(heavyDelta, heavyEps, nu)
	run := tr.begin("core.run", root, i)
	if tr != nil {
		stop = traceEngine(e, w.reg, tr, run, i, stop)
	}
	res := e.Run(heavyRoundCap, stop)
	tr.end(run)
	v := tr.begin("verify", root, i)
	err = verifyEngine(e, res)
	tr.end(v)
	r.end = time.Now()
	r.playerRounds = int64(res.Rounds) * heavyPlayers
	if err != nil {
		r.err = err.Error()
		return r
	}
	r.ok = true
	if i%engineSampleEvery == 0 {
		w.outcomes[i] = outcomeOf(e, res)
	}
	return r
}

// traceEngine installs the traced run's hooks: the obs phase timer and
// round counters, a timer that places each round's phases on the clock
// as spans, and a stop condition wrapped in a span.
func traceEngine(e *core.Engine, reg *obs.Registry, tr *tracer, run, i int, stop core.StopCondition) core.StopCondition {
	em := obs.NewEngineMetrics(reg, "core")
	e.AddObserver(em.Observer())
	e.SetStepTimer(core.ComposeStepTimers(em.StepTimer(), func(_ core.RoundStats, t core.StepTimings) {
		end := time.Now()
		at := end.Add(-t.Step)
		step := tr.add("core.step", run, i, at, end)
		for _, ph := range []struct {
			name string
			d    time.Duration
		}{{"events.pre_round", t.PreRound}, {"game.sync", t.Sync}, {"core.decide", t.Decide}, {"game.apply", t.Apply}} {
			tr.add(ph.name, step, i, at, at.Add(ph.d))
			at = at.Add(ph.d)
		}
	}))
	return func(v game.Snapshot, s core.RoundStats) bool {
		c := tr.begin("dynamics.stop_check", run, i)
		defer tr.end(c)
		return stop(v, s)
	}
}

// verifyEngine checks a finished job: it converged under the cap, the
// incrementally maintained potential matches a recomputation to 1e-9
// relative, and every player is still placed exactly once.
func verifyEngine(e *core.Engine, res core.RunResult) error {
	if !res.Converged {
		return fmt.Errorf("no (%g, %g)-equilibrium within %d rounds", heavyDelta, heavyEps, heavyRoundCap)
	}
	st := e.State()
	if phi, want := e.Potential(), st.Potential(); math.Abs(phi-want) > 1e-9*math.Abs(want) {
		return fmt.Errorf("incremental potential %v, recomputed %v", phi, want)
	}
	g := st.Game()
	var byStrategy, byLink int64
	for s := 0; s < g.NumStrategies(); s++ {
		byStrategy += st.Count(s)
	}
	for l := 0; l < g.NumResources(); l++ {
		byLink += st.Load(l)
	}
	if n := int64(heavyPlayers); int64(g.NumPlayers()) != n || int64(len(st.AssignmentView())) != n || byStrategy != n || byLink != n {
		return fmt.Errorf("population not conserved: game %d, assignment %d, strategy counts %d, link loads %d, want %d",
			g.NumPlayers(), len(st.AssignmentView()), byStrategy, byLink, n)
	}
	return nil
}

func outcomeOf(e *core.Engine, res core.RunResult) engineOutcome {
	words := make([]uint64, 0, heavyPlayers)
	for _, s := range e.State().AssignmentView() {
		words = append(words, uint64(s))
	}
	return engineOutcome{res: res, phi: math.Float64bits(e.Potential()), assign: prng.Mix(words...)}
}

// check reruns the sampled jobs with one engine worker; the trajectory
// must not depend on the worker count.
func (w *engineHeavy) check(results []jobResult) {
	for k := range results {
		r := &results[k]
		want, sampled := w.outcomes[r.index]
		if !r.ok || !sampled {
			continue
		}
		e, nu, err := w.build(engineJobAt(w.seed, r.index), 1, nil, -1, r.index)
		if err != nil {
			r.ok, r.err = false, "rerun: "+err.Error()
			continue
		}
		got := outcomeOf(e, e.Run(heavyRoundCap, core.StopWhenApproxEq(heavyDelta, heavyEps, nu)))
		if w.corrupt {
			got.phi ^= 1
		}
		if got != want {
			r.ok, r.err = false, fmt.Sprintf("workers=1 rerun differs: %+v vs %+v", got, want)
		}
	}
	w.outcomes = map[int]engineOutcome{}
}

func (w *engineHeavy) layers(p phase) map[string]float64 {
	jobs := float64(max(len(p.results), 1))
	return map[string]float64{
		"dynamics.stop_check_s": spanTotal(p.tr.spans, "dynamics.stop_check").Seconds() / jobs,
		"workload.build_s":      spanTotal(p.tr.spans, "workload.build").Seconds() / jobs,
	}
}
