// Command perfbench is the repository's end-to-end benchmark. It drives
// one of three seeded closed-loop workloads through the program's public
// entry points for a fixed number of seconds (serve-jobs: a fixed number
// of jobs sized from the seconds), verifies every job's output, and
// prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) ending with one JSON line.
//
//	bash perfbench/run.sh --workload engine-heavy --seed 1 --seconds 30 --trace 0
//
// README.md in this directory explains the workloads, the metrics and the
// layer each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"congame/internal/obs"
)

// buildDir is the checkout-local directory for build output, serve state
// and span files.
const buildDir = ".bench_build"

// bench is one workload.
type bench interface {
	// clients is the number of closed-loop callers.
	clients() int
	// prepare runs the untimed start-up: reference outputs and checks.
	prepare() error
	// job runs job i end to end and verifies its output; tr is nil when
	// untraced, and job uses it to record spans under the root span.
	job(i int, tr *tracer, root int) jobResult
	// open readies the workload for one measured loop.
	open() error
	// check re-verifies sampled jobs against independent reruns after
	// the loop, clearing ok on those that do not reproduce.
	check(results []jobResult)
	// registry is the obs registry the workload's public hooks feed in
	// traced jobs.
	registry() *obs.Registry
	// layers reports the workload's own per-layer metrics of a traced
	// phase; layerMetrics adds the ones every workload shares.
	layers(p phase) map[string]float64
	// close stops everything open started. It returns the samples of a
	// set-up step the workload times once per loop, after the loop,
	// rather than once per job (serve-jobs' daemon restarts), or nil.
	close() ([]time.Duration, error)
}

// jobResult is one job's outcome.
type jobResult struct {
	index int
	// start and end bound the job: inputs handed over → verified output
	// in hand (and, for a lone caller, the job's garbage collected).
	start, end time.Time
	setup      time.Duration // the workload's per-job set-up step, if any
	// playerRounds is Σ over rounds of every replication of the round's
	// population.
	playerRounds int64
	ok           bool
	err          string
	// extra holds per-job layer values of traced jobs.
	extra map[string]float64
}

func (r jobResult) latency() time.Duration { return r.end.Sub(r.start) }

// phase is one measured loop: its results and the process counters
// around it.
type phase struct {
	results    []jobResult
	starts     []time.Duration // the set-up samples close returned
	tr         *tracer
	wall       time.Duration
	mem0, mem1 runtime.MemStats
	reg        hookSums // registry totals accrued during the loop
	peakRSS    float64
}

var workloads = map[string]func(seed uint64) bench{
	"engine-heavy": func(seed uint64) bench { return &engineHeavy{seed: seed} },
	"sweep-grid":   func(seed uint64) bench { return &sweepGrid{seed: seed} },
	"serve-jobs":   func(seed uint64) bench { return &serveJobs{seed: seed} },
}

// tracedJobsPerSecond sizes each half of a traced run: job counts are
// fixed by --seconds, so the traced counts repeat exactly per seed.
var tracedJobsPerSecond = map[string]float64{
	"engine-heavy": 1.5,
	"sweep-grid":   3,
	"serve-jobs":   5,
}

// fixedJobsPerSecond sizes the untraced runs of workloads that run a
// fixed number of jobs rather than for --seconds. The serve daemon keeps
// every job it has run, so its heap and time per job grow with the jobs
// served; a fixed count makes that growth the same on every run, and ten
// jobs per second keeps the heap near 200 MB.
var fixedJobsPerSecond = map[string]float64{
	"serve-jobs": 10,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "engine-heavy, sweep-grid or serve-jobs")
	seed := fs.Uint64("seed", 1, "workload seed; jobs are a pure function of it")
	seconds := fs.Int("seconds", 30, "measured seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload engine-heavy|sweep-grid|serve-jobs, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	b := mk(*seed)
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *traced)
	fmt.Fprintf(stdout, "env: %s\n", environment())

	prepErr := b.prepare()
	if prepErr != nil {
		fmt.Fprintf(stdout, "start-up check failed: %v\n", prepErr)
	}
	var out result
	if *traced == 0 {
		count := -1
		if rate, ok := fixedJobsPerSecond[*name]; ok {
			count = int(math.Round(float64(*seconds) * rate))
		}
		p, err := measure(b, count, time.Duration(*seconds)*time.Second, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		out = result{Metrics: endToEnd(p, prepErr)}
		out.tally(p, prepErr)
		printEndToEnd(stdout, p, out.Metrics)
	} else {
		k := int(math.Max(4, math.Round(float64(*seconds)*tracedJobsPerSecond[*name]/2)))
		plain, err := measure(b, k, 0, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		tp, err := measure(b, k, 0, newTracer())
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		base, withTrace := endToEnd(plain, prepErr), endToEnd(tp, prepErr)
		out = result{Metrics: layerMetrics(b, tp, base, withTrace)}
		out.tally(plain, prepErr)
		out.tally(tp, prepErr)
		path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := writeSpans(path, tp.tr.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "traced %d jobs after %d untraced; spans in %s\n", k, k, path)
		printSelfTimes(stdout, selfTimes(tp.tr.spans), k)
		printLayers(stdout, out.Metrics)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure opens the workload and runs the closed loop: b.clients()
// callers take job indices in order until count jobs are done (count ≥ 0)
// or d has elapsed. A lone caller collects each job's garbage before the
// job's interval ends, so that each job starts from the same heap, the
// high-water RSS does not depend on when the collector last ran, and the
// collection is counted in the job's time.
func measure(b bench, count int, d time.Duration, tr *tracer) (phase, error) {
	p := phase{tr: tr}
	if err := b.open(); err != nil {
		_, cerr := b.close()
		return p, errors.Join(err, cerr)
	}
	reg0 := readHooks(b.registry())
	runtime.GC()
	runtime.ReadMemStats(&p.mem0)
	var (
		next int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	n := b.clients()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1) - 1)
				if (count >= 0 && i >= count) || (count < 0 && !time.Now().Before(deadline)) {
					return
				}
				root := tr.begin("job", -1, i)
				r := b.job(i, tr, root)
				if n == 1 {
					runtime.GC()
					r.end = time.Now()
				}
				tr.end(root)
				mu.Lock()
				p.results = append(p.results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.peakRSS = peakRSSMB()
	runtime.ReadMemStats(&p.mem1)
	p.reg = readHooks(b.registry()).minus(reg0)
	sort.Slice(p.results, func(i, j int) bool { return p.results[i].index < p.results[j].index })
	b.check(p.results)
	var err error
	p.starts, err = b.close()
	return p, err
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON writes a value with no samples (every job failed) as 0;
// the result's correct and failed fields report why.
func (m metric) MarshalJSON() ([]byte, error) {
	v := m.Value
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return json.Marshal(struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}{v, m.Unit})
}

// tally adds a phase's jobs to the counts. A failed start-up check fails
// every job: the outputs were checked against a reference that is wrong.
func (r *result) tally(p phase, prepErr error) {
	if r.Attempted == 0 {
		r.Correct = true
	}
	ok := okCount(p, prepErr)
	r.Attempted += len(p.results)
	r.Failed += len(p.results) - ok
	r.Correct = r.Correct && r.Failed == 0 && r.Attempted > 0
}

func okCount(p phase, prepErr error) int {
	if prepErr != nil {
		return 0
	}
	n := 0
	for _, r := range p.results {
		if r.ok {
			n++
		}
	}
	return n
}

// sampleSet holds a phase's per-sample values.
type sampleSet struct {
	setups []float64 // the loop's set-up samples if it has them, else each job's
	lats   []float64 // latency of each verified job
	rates  []float64 // player-rounds per second of each verified job
}

func samples(p phase) sampleSet {
	var s sampleSet
	for _, d := range p.starts {
		s.setups = append(s.setups, d.Seconds())
	}
	for _, r := range p.results {
		if p.starts == nil {
			s.setups = append(s.setups, r.setup.Seconds())
		}
		if r.ok {
			s.lats = append(s.lats, r.latency().Seconds())
			s.rates = append(s.rates, float64(r.playerRounds)/r.latency().Seconds())
		}
	}
	return s
}

// endToEnd computes the six end-to-end metrics of a phase.
func endToEnd(p phase, prepErr error) map[string]metric {
	s := samples(p)
	var pr int64
	for _, r := range p.results {
		if r.ok {
			pr += r.playerRounds
		}
	}
	okFrac := 0.0
	if len(p.results) > 0 {
		okFrac = float64(okCount(p, prepErr)) / float64(len(p.results))
	}
	rate := 0.0
	if p.wall > 0 {
		rate = float64(pr) / p.wall.Seconds()
	}
	return map[string]metric{
		"setup_s":             {quantile(s.setups, 0.5), "s"},
		"player_rounds_per_s": {rate, "1/s"},
		"job_latency_p50_s":   {quantile(s.lats, 0.5), "s"},
		"job_latency_p90_s":   {quantile(s.lats, 0.9), "s"},
		"ok_frac":             {okFrac, "frac"},
		"peak_rss_mb":         {p.peakRSS, "MB"},
	}
}

var endToEndOrder = []string{"setup_s", "player_rounds_per_s", "job_latency_p50_s", "job_latency_p90_s", "ok_frac", "peak_rss_mb"}

// layerMetrics reports every per-layer metric of a traced phase: the
// engine and runtime layers every workload shares, the workload's own,
// and the tracing overhead (traced minus untraced, per end-to-end
// metric). A layer the workload does not run reports 0.
func layerMetrics(b bench, p phase, base, traced map[string]metric) map[string]metric {
	jobs := float64(max(len(p.results), 1))
	var decisions float64
	for _, r := range p.results {
		decisions += float64(r.playerRounds)
	}
	v := map[string]float64{
		"core.step_s":        p.reg.step / jobs,
		"core.decide_s":      p.reg.decide / jobs,
		"game.sync_s":        p.reg.sync / jobs,
		"game.apply_s":       p.reg.apply / jobs,
		"events.pre_round_s": p.reg.preRound / jobs,
		"core.rounds":        p.reg.rounds / jobs,
		"core.movers":        p.reg.moves / jobs,
		"core.decisions":     decisions / jobs,
		// Each imitation decision draws a peer and a coin.
		"prng.draws":                  2 * decisions / jobs,
		"runtime.alloc_bytes_per_job": float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc) / jobs,
		// Automatic cycles only: the collections a lone caller forces
		// after each job are excluded.
		"runtime.gc_cycles_per_job": float64((p.mem1.NumGC-p.mem1.NumForcedGC)-(p.mem0.NumGC-p.mem0.NumForcedGC)) / jobs,
	}
	if decisions > 0 {
		v["core.mover_frac"] = p.reg.moves / decisions
	}
	for name, x := range b.layers(p) {
		v[name] = x
	}
	out := map[string]metric{}
	for _, name := range perLayerNames {
		out[name] = metric{v[name], layerUnit(name)}
	}
	for _, name := range endToEndOrder {
		out["trace.overhead."+name] = metric{traced[name].Value - base[name].Value, base[name].Unit}
	}
	return out
}

// perLayerNames lists the per-layer metrics, as BENCHMARK.json does
// (without the trace.overhead.* entries, which layerMetrics derives).
var perLayerNames = []string{
	"core.step_s", "core.decide_s", "game.sync_s", "game.apply_s", "events.pre_round_s",
	"core.rounds", "core.decisions", "core.movers", "core.mover_frac", "prng.draws",
	"dynamics.stop_check_s", "workload.build_s",
	"runner.busy_s", "runner.queue_wait_s", "runner.busy_frac",
	"scenario.run_s", "scenario.cell_s", "scenario.render_s", "scenario.non_step_frac",
	"serve.submit_s", "serve.queue_wait_s", "serve.run_s", "serve.sse_lag_s", "serve.result_s",
	"serve.rejected", "serve.overhead_frac",
	"checkpoint.bytes_per_job", "obs.journal_rows", "obs.sse_bytes",
	"runtime.alloc_bytes_per_job", "runtime.gc_cycles_per_job",
}

// hookSums are the totals the program's public obs hooks accumulate.
type hookSums struct {
	step, decide, sync, apply, preRound float64 // engine_phase_seconds{backend="core"}
	rounds, moves                       float64 // engine_{rounds,moves}_total{backend="core"}
	cell                                float64 // sweep_cell_seconds
	runnerBusy, runnerWait              float64 // runner_busy_nanoseconds_total, runner_queue_wait_seconds
}

// readHooks reads the registry's current totals (all zero for nil).
func readHooks(reg *obs.Registry) hookSums {
	if reg == nil {
		return hookSums{}
	}
	em := obs.NewEngineMetrics(reg, "core")
	rm := obs.NewRunnerMetrics(reg)
	return hookSums{
		step: em.Step.Sum(), decide: em.Decide.Sum(), sync: em.Sync.Sum(), apply: em.Apply.Sum(), preRound: em.PreRound.Sum(),
		rounds: float64(em.Rounds.Value()), moves: float64(em.Moves.Value()),
		cell:       obs.NewSweepMetrics(reg).CellSeconds.Sum(),
		runnerBusy: float64(rm.BusyNanos.Value()) / 1e9, runnerWait: rm.QueueWait.Sum(),
	}
}

func (a hookSums) minus(b hookSums) hookSums {
	return hookSums{
		step: a.step - b.step, decide: a.decide - b.decide, sync: a.sync - b.sync, apply: a.apply - b.apply,
		preRound: a.preRound - b.preRound, rounds: a.rounds - b.rounds, moves: a.moves - b.moves,
		cell: a.cell - b.cell, runnerBusy: a.runnerBusy - b.runnerBusy, runnerWait: a.runnerWait - b.runnerWait,
	}
}

// meanExtra averages a traced per-job value over a phase's jobs.
func meanExtra(p phase, key string) float64 {
	var s float64
	for _, r := range p.results {
		s += r.extra[key]
	}
	return s / float64(max(len(p.results), 1))
}

// layerUnit derives a per-layer metric's unit from its name suffix.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_frac"):
		return "frac"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "bytes_per_job"), strings.HasSuffix(name, "sse_bytes"):
		return "bytes"
	default:
		return "count"
	}
}

// quantile is the linearly interpolated q-quantile of xs (NaN if empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// printEndToEnd prints every end-to-end metric with its unit, the
// median and quartiles of its per-job samples, and the sample count.
func printEndToEnd(w io.Writer, p phase, m map[string]metric) {
	s := samples(p)
	perSample := map[string][]float64{
		"setup_s":             s.setups,
		"player_rounds_per_s": s.rates,
		"job_latency_p50_s":   s.lats,
		"job_latency_p90_s":   s.lats,
	}
	fmt.Fprintf(w, "jobs=%d wall=%.3fs\n", len(p.results), p.wall.Seconds())
	fmt.Fprintf(w, "%-20s %-5s %14s %14s %14s %14s %6s\n", "metric", "unit", "value", "p25", "median", "p75", "n")
	for _, name := range endToEndOrder {
		xs, n := perSample[name], 1
		if xs != nil {
			n = len(xs)
		} else {
			xs = []float64{m[name].Value}
		}
		if name == "ok_frac" {
			n = len(p.results)
		}
		fmt.Fprintf(w, "%-20s %-5s %14.6g %14.6g %14.6g %14.6g %6d\n", name, m[name].Unit, m[name].Value,
			quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75), n)
	}
	for _, r := range p.results {
		if !r.ok {
			fmt.Fprintf(w, "job %d failed: %s\n", r.index, r.err)
		}
	}
}

func printLayers(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %-6s %.6g\n", n, m[n].Unit, m[n].Value)
	}
}

// environment describes the host and build the numbers came from.
func environment() string {
	pgo := "none"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-pgo" {
				pgo = filepath.Base(s.Value)
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s pgo=%s serve_state_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), pgo, fsType(buildDir))
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
