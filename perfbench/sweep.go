package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"congame/internal/obs"
	"congame/internal/scenario"
)

// sweepGrid drives the cmd/sweep path one caller at a time: spec decode →
// Validate → scenario.Run (par = 2, workers = 1) → CSV render.
type sweepGrid struct {
	seed uint64
	// corrupt perturbs the references (checker self-test).
	corrupt bool
	reg     *obs.Registry
	// csvs holds sampled jobs' CSVs for the par = 1, workers = 1 rerun.
	csvs map[int]string
}

const sweepSampleEvery = 40

// The golden e2 table, pinned by `make sweep-check`, checked at start-up.
var (
	e2Spec   = filepath.Join("examples", "scenarios", "e2-monomial-singletons.json")
	e2Golden = filepath.Join("examples", "scenarios", "golden", "e2-monomial-singletons.csv")
)

func (w *sweepGrid) clients() int                    { return 1 }
func (w *sweepGrid) registry() *obs.Registry         { return w.reg }
func (w *sweepGrid) open() error                     { return nil }
func (w *sweepGrid) close() ([]time.Duration, error) { return nil, nil }

// prepare checks that the seed-1 quick e2 spec reproduces its golden CSV.
func (w *sweepGrid) prepare() error {
	w.reg = obs.NewRegistry()
	w.csvs = map[int]string{}
	spec, err := scenario.Load(e2Spec)
	if err != nil {
		return err
	}
	res, err := scenario.Run(context.Background(), spec, scenario.Options{Quick: true})
	if err != nil {
		return err
	}
	want, err := os.ReadFile(e2Golden)
	if err != nil {
		return err
	}
	if w.corrupt {
		want = append(want, '\n')
	}
	if got := res.Table.CSV(); got != string(want) {
		return fmt.Errorf("%s does not reproduce %s:\n%s", e2Spec, e2Golden, got)
	}
	return nil
}

// sweep decodes, validates and runs one spec and renders its CSV.
func (w *sweepGrid) sweep(raw []byte, opts scenario.Options, tr *tracer, root, i int) (csv string, pr int64, setup time.Duration, err error) {
	t0 := time.Now()
	d := tr.begin("scenario.decode", root, i)
	spec, err := scenario.Parse(bytes.NewReader(raw))
	if err == nil {
		err = spec.Validate()
	}
	tr.end(d)
	setup = time.Since(t0)
	if err != nil {
		return "", 0, setup, err
	}
	s := tr.begin("scenario.run", root, i)
	res, err := scenario.Run(context.Background(), spec, opts)
	tr.end(s)
	if err != nil {
		return "", 0, setup, err
	}
	rd := tr.begin("scenario.render", root, i)
	csv = res.Table.CSV()
	tr.end(rd)
	for _, c := range res.Cells {
		for _, r := range c.Results {
			pr += int64(r.Rounds) * int64(r.Final.Players)
		}
	}
	return csv, pr, setup, nil
}

func (w *sweepGrid) job(i int, tr *tracer, root int) jobResult {
	r := jobResult{index: i, start: time.Now()}
	opts := scenario.Options{Par: sweepPar, Workers: sweepWorkers}
	if tr != nil {
		opts.Registry = w.reg
	}
	csv, pr, setup, err := w.sweep(sweepSpecAt(w.seed, i), opts, tr, root, i)
	r.end, r.setup, r.playerRounds = time.Now(), setup, pr
	if err != nil {
		r.err = err.Error()
		return r
	}
	r.ok = true
	if i%sweepSampleEvery == 0 {
		w.csvs[i] = csv
	}
	return r
}

// check reruns the sampled jobs sequentially (par = 1, workers = 1); the
// table must not depend on the parallelism.
func (w *sweepGrid) check(results []jobResult) {
	for k := range results {
		r := &results[k]
		got, sampled := w.csvs[r.index]
		if !r.ok || !sampled {
			continue
		}
		want, _, _, err := w.sweep(sweepSpecAt(w.seed, r.index), scenario.Options{Par: 1, Workers: 1}, nil, -1, r.index)
		if w.corrupt {
			want += "\n"
		}
		if err != nil || got != want {
			r.ok, r.err = false, fmt.Sprintf("par=1 rerun differs (err %v)", err)
		}
	}
	w.csvs = map[int]string{}
}

func (w *sweepGrid) layers(p phase) map[string]float64 {
	jobs := float64(max(len(p.results), 1))
	run := spanTotal(p.tr.spans, "scenario.run").Seconds()
	v := map[string]float64{
		"runner.busy_s":       p.reg.runnerBusy / jobs,
		"runner.queue_wait_s": p.reg.runnerWait / jobs,
		"scenario.run_s":      run / jobs,
		"scenario.cell_s":     p.reg.cell / jobs,
		"scenario.render_s":   spanTotal(p.tr.spans, "scenario.render").Seconds() / jobs,
	}
	if run > 0 {
		v["runner.busy_frac"] = p.reg.runnerBusy / (run * sweepPar)
	}
	if p.reg.runnerBusy > 0 {
		v["scenario.non_step_frac"] = 1 - p.reg.step/p.reg.runnerBusy
	}
	return v
}
