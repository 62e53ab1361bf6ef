// Package serve implements the simulation-as-a-service daemon behind
// cmd/serve: an HTTP API that accepts scenario specs (internal/scenario,
// including the version-2 event schedules), queues them with bounded
// concurrency, executes each through scenario.Run with checkpointing on
// (Options.Checkpoint), and streams every job's NDJSON journal live over
// Server-Sent Events. All state lives under one directory, so a
// killed daemon restarted on the same directory requeues interrupted jobs
// and resumes them bit-identically (DESIGN.md §13).
//
// State directory layout, one subdirectory per job:
//
//	<state>/jobs/<id>/spec.json       the submitted spec, verbatim
//	<state>/jobs/<id>/job.json        lifecycle record (status, timestamps)
//	<state>/jobs/<id>/journal.ndjson  obs.Journal rows, append-only across resumes
//	<state>/jobs/<id>/state/          scenario.Run's checkpoint manifest
//	<state>/jobs/<id>/result.{txt,csv,md,json}  rendered table, on completion
//
// Every mutation of job.json and the checkpoint manifest goes through the
// atomic write protocol (checkpoint.WriteBytes), so a crash at any point
// leaves a state directory the next daemon can load.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"congame/internal/checkpoint"
	"congame/internal/obs"
	"congame/internal/scenario"
)

// Status is a job's lifecycle state.
type Status string

// The job lifecycle. queued → running → {done, failed, canceled,
// suspended}; suspended and queued jobs are requeued when a daemon starts
// on the state directory, so suspended is terminal only within a process.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCanceled  Status = "canceled"
	StatusSuspended Status = "suspended"
)

func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled || s == StatusSuspended
}

// Config configures a Server.
type Config struct {
	// StateDir is the root state directory. Required; created if missing.
	StateDir string
	// MaxConcurrent is the number of jobs executing at once; ≤ 0 means 1.
	// Replications within a job always run sequentially (a checkpointed
	// scenario.Run ignores par), so this is the daemon's only parallelism
	// knob.
	MaxConcurrent int
	// CheckpointEvery is the mid-replication snapshot cadence in rounds;
	// ≤ 0 selects scenario.DefaultCheckpointEvery.
	CheckpointEvery int
	// QueueDepth bounds the backlog of accepted-but-not-started jobs;
	// ≤ 0 means 64. Submissions beyond it are rejected with 503.
	QueueDepth int
	// Registry receives job metrics and is served at /metrics; nil means
	// a fresh private registry.
	Registry *obs.Registry
	// wrapJobCtx, when non-nil, wraps each job's run context — a test
	// seam for deterministic suspension. Set before New so requeued jobs
	// picked up at startup see it too.
	wrapJobCtx func(context.Context) context.Context
}

// jobRecord is the job.json schema.
type jobRecord struct {
	ID       string     `json:"id"`
	Name     string     `json:"name"`
	Quick    bool       `json:"quick,omitempty"`
	Status   Status     `json:"status"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Resumes counts how many times the job was requeued after a daemon
	// restart found it interrupted.
	Resumes int `json:"resumes,omitempty"`
}

// Job is one submitted simulation run.
type Job struct {
	id  string
	dir string

	mu       sync.Mutex
	rec      jobRecord
	spec     *scenario.Spec
	canceled bool // user asked; distinguishes canceled from suspended
	cancel   context.CancelFunc

	bcast *broadcaster
}

// record returns a snapshot of the lifecycle record.
func (j *Job) record() jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// persistLocked writes job.json atomically. Callers hold j.mu.
func (j *Job) persistLocked() error {
	data, err := json.MarshalIndent(&j.rec, "", "  ")
	if err != nil {
		return err
	}
	return checkpoint.WriteBytes(filepath.Join(j.dir, "job.json"), data)
}

// serveMetrics is the daemon's obs family.
type serveMetrics struct {
	submitted *obs.Counter
	done      *obs.Counter
	failed    *obs.Counter
	canceled  *obs.Counter
	suspended *obs.Counter
	running   *obs.Gauge
	queued    *obs.Gauge
}

func newServeMetrics(r *obs.Registry) *serveMetrics {
	return &serveMetrics{
		submitted: r.Counter("serve_jobs_submitted_total", "jobs accepted by POST /v1/jobs or requeued at startup"),
		done:      r.Counter("serve_jobs_done_total", "jobs that finished successfully"),
		failed:    r.Counter("serve_jobs_failed_total", "jobs that finished with an error"),
		canceled:  r.Counter("serve_jobs_canceled_total", "jobs canceled by DELETE /v1/jobs/{id}"),
		suspended: r.Counter("serve_jobs_suspended_total", "jobs suspended by daemon shutdown (resumed on restart)"),
		running:   r.Gauge("serve_jobs_running", "jobs currently executing"),
		queued:    r.Gauge("serve_jobs_queued", "jobs accepted and waiting for a worker"),
	}
}

// Server is the daemon: an http.Handler plus a worker pool. Create with
// New, serve it (net/http or httptest), and Close it to suspend running
// jobs and persist their checkpoints.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	mux     *http.ServeMux
	metrics *serveMetrics

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	queue  chan *Job

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // job IDs in creation order
	nextID int
}

// New loads the state directory (requeueing every interrupted job) and
// starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("serve: Config.StateDir is required")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if err := os.MkdirAll(filepath.Join(cfg.StateDir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		metrics: newServeMetrics(cfg.Registry),
		ctx:     ctx,
		cancel:  cancel,
		queue:   make(chan *Job, cfg.QueueDepth),
		jobs:    map[string]*Job{},
	}
	if err := s.loadJobs(); err != nil {
		cancel()
		return nil, err
	}
	s.routes()
	for i := 0; i < cfg.MaxConcurrent; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// ServeHTTP dispatches to the daemon's mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Registry returns the registry served at /metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Close stops accepting work from the queue and cancels every running
// job's context; scenario.Run persists each job's snapshot and the job is
// recorded as suspended, so a New on the same state directory resumes
// it. Blocks until the workers have drained.
func (s *Server) Close() error {
	s.cancel()
	s.wg.Wait()
	return nil
}

// loadJobs scans <state>/jobs, rebuilding the in-memory table and
// requeueing everything a previous daemon left unfinished.
func (s *Server) loadJobs() error {
	root := filepath.Join(s.cfg.StateDir, "jobs")
	entries, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // job-%06d: lexicographic == numeric
	for _, name := range names {
		dir := filepath.Join(root, name)
		data, err := os.ReadFile(filepath.Join(dir, "job.json"))
		if err != nil {
			return fmt.Errorf("serve: job %s: %w", name, err)
		}
		j := &Job{id: name, dir: dir, bcast: newBroadcaster()}
		if err := json.Unmarshal(data, &j.rec); err != nil {
			return fmt.Errorf("serve: job %s: %w", name, err)
		}
		if n, ok := strings.CutPrefix(name, "job-"); ok {
			if v, err := strconv.Atoi(n); err == nil && v >= s.nextID {
				s.nextID = v + 1
			}
		}
		spec, err := scenario.Load(filepath.Join(dir, "spec.json"))
		if err != nil {
			// A job whose spec no longer parses can never run again;
			// surface that as its terminal state instead of refusing to
			// start the daemon.
			j.rec.Status = StatusFailed
			j.rec.Error = err.Error()
			j.mu.Lock()
			perr := j.persistLocked()
			j.mu.Unlock()
			if perr != nil {
				return fmt.Errorf("serve: job %s: %w", name, perr)
			}
		} else {
			j.spec = spec
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if st := j.rec.Status; st == StatusQueued || st == StatusRunning || st == StatusSuspended {
			if st != StatusQueued {
				j.rec.Resumes++
			}
			j.rec.Status = StatusQueued
			j.mu.Lock()
			err := j.persistLocked()
			j.mu.Unlock()
			if err != nil {
				return fmt.Errorf("serve: job %s: %w", name, err)
			}
			select {
			case s.queue <- j:
				s.metrics.submitted.Inc()
				s.metrics.queued.Add(1)
			default:
				return fmt.Errorf("serve: queue depth %d cannot hold the %d interrupted jobs in %s",
					s.cfg.QueueDepth, len(s.queue)+1, s.cfg.StateDir)
			}
		} else {
			// Finished in an earlier process: its SSE stream replays
			// from the on-disk journal.
			j.bcast.finish()
		}
	}
	return nil
}

// submit registers a new job for the parsed spec and enqueues it. It
// returns the record as accepted: a worker may start the job before the
// caller reads it again.
func (s *Server) submit(raw []byte, spec *scenario.Spec, quick bool) (jobRecord, error) {
	s.mu.Lock()
	id := fmt.Sprintf("job-%06d", s.nextID)
	s.nextID++
	s.mu.Unlock()

	dir := filepath.Join(s.cfg.StateDir, "jobs", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return jobRecord{}, fmt.Errorf("serve: %w", err)
	}
	if err := checkpoint.WriteBytes(filepath.Join(dir, "spec.json"), raw); err != nil {
		return jobRecord{}, fmt.Errorf("serve: %w", err)
	}
	j := &Job{
		id: id, dir: dir, spec: spec, bcast: newBroadcaster(),
		rec: jobRecord{ID: id, Name: spec.Name, Quick: quick, Status: StatusQueued, Created: time.Now().UTC()},
	}
	j.mu.Lock()
	err := j.persistLocked()
	accepted := j.rec
	j.mu.Unlock()
	if err != nil {
		return jobRecord{}, fmt.Errorf("serve: %w", err)
	}

	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	select {
	case s.queue <- j:
		s.metrics.submitted.Inc()
		s.metrics.queued.Add(1)
		return accepted, nil
	default:
		j.mu.Lock()
		j.rec.Status = StatusFailed
		j.rec.Error = "queue full at submission"
		_ = j.persistLocked()
		j.mu.Unlock()
		j.bcast.finish()
		return jobRecord{}, errQueueFull
	}
}

var errQueueFull = errors.New("serve: job queue is full")

// job looks a job up by ID.
func (s *Server) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// worker executes queued jobs until the server closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case j := <-s.queue:
			s.metrics.queued.Add(-1)
			s.runJob(j)
		}
	}
}

// cancelJob handles DELETE: a queued job is canceled in place, a running
// one gets its context canceled (scenario.Run checkpoints and returns
// ErrSuspended, which runJob records as canceled). Terminal jobs return
// false.
func (s *Server) cancelJob(j *Job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.rec.Status {
	case StatusQueued:
		j.canceled = true
		j.rec.Status = StatusCanceled
		now := time.Now().UTC()
		j.rec.Finished = &now
		_ = j.persistLocked()
		s.metrics.canceled.Inc()
		j.bcast.finish()
		return true
	case StatusRunning:
		j.canceled = true
		if j.cancel != nil {
			j.cancel()
		}
		return true
	}
	return false
}

// runJob executes one job: journal to file + SSE broadcaster, a
// checkpointed scenario.Run, persist the outcome.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	if s.cfg.wrapJobCtx != nil {
		ctx = s.cfg.wrapJobCtx(ctx)
	}

	j.mu.Lock()
	if j.rec.Status != StatusQueued || j.canceled {
		// Canceled while waiting in the queue.
		j.mu.Unlock()
		return
	}
	j.rec.Status = StatusRunning
	now := time.Now().UTC()
	j.rec.Started = &now
	j.cancel = cancel
	quick := j.rec.Quick
	spec := j.spec
	err := j.persistLocked()
	j.mu.Unlock()
	if err != nil {
		s.finishJob(j, StatusFailed, err, nil)
		return
	}
	s.metrics.running.Add(1)
	defer s.metrics.running.Add(-1)

	// Replay the journal a previous daemon wrote into the broadcaster, so
	// SSE subscribers of a resumed job see the full history, then append.
	jpath := filepath.Join(j.dir, "journal.ndjson")
	if prev, err := os.ReadFile(jpath); err == nil && len(prev) > 0 {
		_, _ = j.bcast.Write(prev)
	}
	jf, err := os.OpenFile(jpath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.finishJob(j, StatusFailed, err, nil)
		return
	}
	journal := obs.NewJournal(io.MultiWriter(jf, j.bcast))
	// The journal buffers 64 KiB; flush on a short cadence so SSE clients
	// see rounds while they happen, not when the buffer fills.
	flushDone := make(chan struct{})
	var flushWG sync.WaitGroup
	flushWG.Add(1)
	go func() {
		defer flushWG.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-flushDone:
				return
			case <-t.C:
				_ = journal.Flush()
			}
		}
	}()

	res, runErr := scenario.Run(ctx, spec, scenario.Options{
		Quick: quick, Registry: s.reg, Journal: journal,
		Checkpoint: &scenario.CheckpointConfig{Dir: filepath.Join(j.dir, "state"), Every: s.cfg.CheckpointEvery},
	})

	close(flushDone)
	flushWG.Wait()
	_ = journal.Close() // flushes; jf stays ours
	if cerr := jf.Close(); runErr == nil && cerr != nil {
		runErr = cerr
	}

	switch {
	case runErr == nil:
		s.finishJob(j, StatusDone, nil, res)
	case errors.Is(runErr, scenario.ErrSuspended):
		j.mu.Lock()
		userCanceled := j.canceled
		j.mu.Unlock()
		if userCanceled {
			s.finishJob(j, StatusCanceled, nil, nil)
		} else {
			s.finishJob(j, StatusSuspended, nil, nil)
		}
	default:
		s.finishJob(j, StatusFailed, runErr, nil)
	}
}

// finishJob records a terminal status, writes the rendered result files
// on success, and ends the SSE stream.
func (s *Server) finishJob(j *Job, st Status, cause error, res *scenario.Result) {
	if res != nil {
		if err := writeResults(j.dir, res); err != nil && cause == nil {
			st, cause = StatusFailed, err
		}
	}
	j.mu.Lock()
	j.rec.Status = st
	now := time.Now().UTC()
	j.rec.Finished = &now
	if cause != nil {
		j.rec.Error = cause.Error()
	}
	_ = j.persistLocked()
	// Count under the lock, so whoever reads the terminal status also
	// sees it counted.
	switch st {
	case StatusDone:
		s.metrics.done.Inc()
	case StatusFailed:
		s.metrics.failed.Inc()
	case StatusCanceled:
		s.metrics.canceled.Inc()
	case StatusSuspended:
		s.metrics.suspended.Inc()
	}
	j.mu.Unlock()
	j.bcast.finish()
}

// resultFiles maps result formats to their file and content type.
var resultFiles = map[string]struct{ file, contentType string }{
	"text":     {"result.txt", "text/plain; charset=utf-8"},
	"csv":      {"result.csv", "text/csv; charset=utf-8"},
	"markdown": {"result.md", "text/markdown; charset=utf-8"},
	"json":     {"result.json", "application/json"},
}

// writeResults renders the finished table in every served format so a
// restarted daemon can serve results without re-running anything.
func writeResults(dir string, res *scenario.Result) error {
	jsonOut, err := res.Table.JSON()
	if err != nil {
		return fmt.Errorf("serve: render result: %w", err)
	}
	for format, out := range map[string][]byte{
		"text":     []byte(res.Table.Text()),
		"csv":      []byte(res.Table.CSV()),
		"markdown": []byte(res.Table.Markdown()),
		"json":     jsonOut,
	} {
		if err := checkpoint.WriteBytes(filepath.Join(dir, resultFiles[format].file), out); err != nil {
			return fmt.Errorf("serve: write result: %w", err)
		}
	}
	return nil
}
