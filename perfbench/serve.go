package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"congame/internal/obs"
	"congame/internal/scenario"
	"congame/internal/serve"
)

// serveJobs drives an in-process serve.Server (one job slot) over
// loopback HTTP from two closed-loop clients: POST the spec, follow its
// SSE journal to the end frame, GET the CSV result. Each measured loop
// gets a fresh daemon on an empty state directory.
type serveJobs struct {
	seed uint64
	// corrupt perturbs the references (checker self-test).
	corrupt bool
	reg     *obs.Registry
	refs    []serveRef

	loops  int    // loops opened, naming their state dirs
	dir    string // the loop's state directory
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
}

// serveRef is a pool spec's untimed in-process result.
type serveRef struct {
	csv          string
	playerRounds int64
	inProcess    time.Duration
}

func (w *serveJobs) clients() int            { return serveClients }
func (w *serveJobs) registry() *obs.Registry { return w.reg }
func (w *serveJobs) check([]jobResult)       {}

// prepare computes every pool spec's reference with scenario.Run in this
// process.
func (w *serveJobs) prepare() error {
	w.refs = make([]serveRef, servePool)
	for k := range w.refs {
		spec, err := scenario.Parse(bytes.NewReader(serveSpec(w.seed, k)))
		if err != nil {
			return err
		}
		t0 := time.Now()
		// Par 1 runs the replications in sequence, as the daemon does.
		res, err := scenario.Run(context.Background(), spec, scenario.Options{Par: 1})
		if err != nil {
			return err
		}
		w.refs[k].inProcess = time.Since(t0)
		w.refs[k].csv = res.Table.CSV()
		if w.corrupt {
			w.refs[k].csv += "\n"
		}
		if w.refs[k].playerRounds, err = servePlayerRounds(res); err != nil {
			return err
		}
	}
	w.reg = obs.NewRegistry()
	return nil
}

// open starts the loop's daemon on an empty state directory.
func (w *serveJobs) open() error {
	w.loops++
	w.dir = filepath.Join(buildDir, fmt.Sprintf("serve-state-%d-%d", os.Getpid(), w.loops))
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	_, err := w.start()
	return err
}

// start runs a daemon on the loop's state directory and returns the time
// from serve.New to its first answered /healthz.
func (w *serveJobs) start() (time.Duration, error) {
	t0 := time.Now()
	srv, err := serve.New(serve.Config{StateDir: w.dir, MaxConcurrent: 1, Registry: w.reg})
	if err != nil {
		return 0, err
	}
	w.srv, w.hs = srv, httptest.NewServer(srv)
	w.client = w.hs.Client()
	code, body, err := w.do(http.MethodGet, "/healthz", nil)
	d := time.Since(t0)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", code, body)
	}
	if err != nil {
		return 0, fmt.Errorf("daemon start: healthz: %w", err)
	}
	return d, nil
}

// stop shuts the daemon down, if one runs.
func (w *serveJobs) stop() error {
	var err error
	if w.hs != nil {
		w.client.CloseIdleConnections()
		w.hs.Close()
	}
	if w.srv != nil {
		err = w.srv.Close()
	}
	w.srv, w.hs = nil, nil
	return err
}

// close stops the loop's daemon, then restarts a daemon serveRestarts
// times over the state directory, which now holds every job the loop
// ran, and returns each restart's time: serve.New reloads every job
// record and spec, and a restart counts until its first /healthz
// answers. Each restart starts from a collected heap, so that collecting
// the previous daemon is not counted in it. It deletes the state
// directory last.
func (w *serveJobs) close() ([]time.Duration, error) {
	err := w.stop()
	var restarts []time.Duration
	for k := 0; err == nil && k < serveRestarts; k++ {
		runtime.GC()
		var d time.Duration
		if d, err = w.start(); err == nil {
			restarts = append(restarts, d)
			err = w.stop()
		}
	}
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return restarts, err
}

// servePlayerRounds counts a churn job's player-rounds. Every replication
// runs all serveRounds rounds (the spec has no stop condition); the
// population is n before the arrivals, n + serveArrivals until the
// departures, and the replication's final population after them (the
// departures clamp, and no later event changes the population).
func servePlayerRounds(res *scenario.Result) (int64, error) {
	var pr int64
	for _, c := range res.Cells {
		n := int64(c.Cell.Instance.Int("n", 0))
		for rep, r := range c.Results {
			if r.Rounds != serveRounds {
				return 0, fmt.Errorf("cell %d rep %d ran %d rounds, want %d", c.Cell.Index, rep, r.Rounds, serveRounds)
			}
			pr += serveArriveAt*n + (serveDepartAt-serveArriveAt)*(n+serveArrivals) +
				(serveRounds-serveDepartAt)*int64(r.Final.Players)
		}
	}
	return pr, nil
}

// jobRecord is the part of the daemon's job record the trace reads.
type jobRecord struct {
	ID       string     `json:"id"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
}

func (w *serveJobs) job(i int, tr *tracer, root int) jobResult {
	k := servePoolIndex(i)
	raw := serveSpec(w.seed, k)
	r := jobResult{index: i, start: time.Now()}
	if tr != nil {
		r.extra = map[string]float64{}
	}
	fail := func(format string, args ...any) jobResult {
		r.end, r.err = time.Now(), fmt.Sprintf(format, args...)
		return r
	}
	s := tr.begin("serve.submit", root, i)
	code, body, err := w.do(http.MethodPost, "/v1/jobs", raw)
	tr.end(s)
	if err != nil {
		return fail("submit: %v", err)
	}
	if code != http.StatusAccepted {
		if r.extra != nil {
			r.extra["serve.rejected"] = 1
		}
		return fail("submit: HTTP %d: %s", code, body)
	}
	var rec jobRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		return fail("submit: %v", err)
	}

	e := tr.begin("serve.sse", root, i)
	st, rows, sseBytes, err := w.follow(rec.ID)
	endFrame := time.Now()
	tr.end(e)
	if err != nil {
		return fail("events: %v", err)
	}
	if st != string(serve.StatusDone) {
		return fail("job %s ended %s", rec.ID, st)
	}

	g := tr.begin("serve.result", root, i)
	code, csv, err := w.do(http.MethodGet, "/v1/jobs/"+rec.ID+"/result?format=csv", nil)
	tr.end(g)
	if err != nil || code != http.StatusOK {
		return fail("result: HTTP %d: %v", code, err)
	}
	if string(csv) != w.refs[k].csv {
		return fail("job %s CSV differs from the in-process run of pool spec %d", rec.ID, k)
	}
	r.end, r.ok, r.playerRounds = time.Now(), true, w.refs[k].playerRounds
	if tr != nil {
		if err := w.traceJob(rec.ID, endFrame, rows, sseBytes, w.refs[k].inProcess, r.extra); err != nil {
			r.ok, r.err = false, err.Error()
		}
	}
	return r
}

// traceJob reads the finished job's record and checkpoint directory.
func (w *serveJobs) traceJob(id string, endFrame time.Time, rows, sseBytes int, inProcess time.Duration, x map[string]float64) error {
	code, body, err := w.do(http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("status: HTTP %d: %v", code, err)
	}
	var rec jobRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		return fmt.Errorf("status: %v", err)
	}
	if rec.Started == nil || rec.Finished == nil {
		return fmt.Errorf("job %s record lacks start or finish times", id)
	}
	var ckpt int64
	err = filepath.WalkDir(filepath.Join(w.dir, "jobs", id, "state"), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			ckpt += info.Size()
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("checkpoint dir: %v", err)
	}
	x["serve.queue_wait_s"] = rec.Started.Sub(rec.Created).Seconds()
	x["serve.run_s"] = rec.Finished.Sub(*rec.Started).Seconds()
	x["serve.sse_lag_s"] = endFrame.Sub(*rec.Finished).Seconds()
	x["in_process_s"] = inProcess.Seconds()
	x["checkpoint.bytes_per_job"] = float64(ckpt)
	x["obs.journal_rows"] = float64(rows)
	x["obs.sse_bytes"] = float64(sseBytes)
	return nil
}

// do sends one request and reads the whole response.
func (w *serveJobs) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, w.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// follow reads a job's SSE stream to its end frame and returns the final
// status, the journal rows streamed and the bytes read. A stream the
// daemon dropped for falling behind is reopened; it replays from the
// start.
func (w *serveJobs) follow(id string) (status string, rows, n int, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		status, rows, n, err = w.followOnce(id)
		if err != nil || status != "" {
			return status, rows, n, err
		}
	}
	return "", rows, n, fmt.Errorf("stream for %s dropped 3 times", id)
}

func (w *serveJobs) followOnce(id string) (status string, rows, n int, err error) {
	resp, err := w.client.Get(w.hs.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, 0, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	inEnd := false
	for {
		line, err := br.ReadString('\n')
		n += len(line)
		if err == io.EOF {
			return "", rows, n, nil // dropped before the end frame
		}
		if err != nil {
			return "", rows, n, err
		}
		switch {
		case line == "event: end\n":
			inEnd = true
		case strings.HasPrefix(line, "data: ") && inEnd:
			var end struct{ Status string }
			if err := json.Unmarshal([]byte(line[len("data: "):]), &end); err != nil {
				return "", rows, n, fmt.Errorf("end frame: %v", err)
			}
			return end.Status, rows, n, nil
		case strings.HasPrefix(line, "data: "):
			rows++
		}
	}
}

func (w *serveJobs) layers(p phase) map[string]float64 {
	jobs := float64(max(len(p.results), 1))
	v := map[string]float64{
		"serve.submit_s":  spanTotal(p.tr.spans, "serve.submit").Seconds() / jobs,
		"serve.result_s":  spanTotal(p.tr.spans, "serve.result").Seconds() / jobs,
		"scenario.cell_s": p.reg.cell / jobs,
	}
	for _, key := range []string{"serve.queue_wait_s", "serve.run_s", "serve.sse_lag_s",
		"checkpoint.bytes_per_job", "obs.journal_rows", "obs.sse_bytes"} {
		v[key] = meanExtra(p, key)
	}
	v["serve.rejected"] = meanExtra(p, "serve.rejected") * jobs
	if run := meanExtra(p, "serve.run_s"); run > 0 {
		v["serve.overhead_frac"] = 1 - meanExtra(p, "in_process_s")/run
	}
	return v
}
