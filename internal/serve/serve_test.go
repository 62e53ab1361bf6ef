package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"congame/internal/obs"
	"congame/internal/scenario"
)

// specJSON is the version-2 spec the HTTP tests submit: two cells, an
// event schedule, and enough rounds that a poll-limited context suspends
// it mid-replication.
const specJSON = `{
  "version": 2, "name": "serve-t",
  "instance": {"family": "uniform-singletons", "params": {"m": 4}},
  "dynamics": {"kind": "imitation"},
  "sweep": [{"param": "n", "values": [48, 64]}],
  "rounds": 60, "reps": 2, "seed": 11,
  "events": [{"round": 3, "kind": "latency-scale", "resource": 0, "factor": 1.3}],
  "metrics": ["mean_rounds", "mean_final_potential", "converged_frac"]
}`

// bigSpecJSON runs long enough that a DELETE lands while it is running.
const bigSpecJSON = `{
  "version": 2, "name": "serve-big",
  "instance": {"family": "uniform-singletons", "params": {"m": 8, "n": 2000}},
  "dynamics": {"kind": "imitation"},
  "rounds": 200000, "reps": 1, "seed": 3,
  "metrics": ["mean_rounds"]
}`

// wantResult runs the spec directly through scenario.Run — the byte-level
// reference every daemon result must match.
func wantResult(t *testing.T, spec string) *scenario.Result {
	t.Helper()
	s, err := scenario.Parse(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(context.Background(), s, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// pollLimitCtx cancels deterministically after a fixed number of Err
// polls, while still honoring its parent's cancellation.
type pollLimitCtx struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func (c *pollLimitCtx) Err() error {
	if err := c.Context.Err(); err != nil {
		return err
	}
	if c.calls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

func newServer(t *testing.T, dir string, wrap func(context.Context) context.Context) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{StateDir: dir, CheckpointEvery: 7, wrapJobCtx: wrap})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = s.Close() })
	return s, ts
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s (%s)", url, resp.Status, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func submit(t *testing.T, ts *httptest.Server, spec string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s (%s)", resp.Status, body)
	}
	var rec jobRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID == "" || rec.Status != StatusQueued {
		t.Fatalf("submit returned %+v", rec)
	}
	return rec.ID
}

// waitStatus polls the status endpoint until the job reaches want.
func waitStatus(t *testing.T, ts *httptest.Server, id string, want Status) jobRecord {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var rec jobRecord
		getJSON(t, ts.URL+"/v1/jobs/"+id, &rec)
		if rec.Status == want {
			return rec
		}
		if rec.Status.terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, rec.Status, rec.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, rec.Status, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func fetch(t *testing.T, url string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: %s (%s), want %d", url, resp.Status, body, wantCode)
	}
	return body
}

// TestJobLifecycle runs one job start to finish through the API and pins
// the result renderings against a direct scenario.Run.
func TestJobLifecycle(t *testing.T) {
	want := wantResult(t, specJSON)
	_, ts := newServer(t, t.TempDir(), nil)

	fetch(t, ts.URL+"/healthz", http.StatusOK)
	id := submit(t, ts, specJSON)
	rec := waitStatus(t, ts, id, StatusDone)
	if rec.Name != "serve-t" || rec.Started == nil || rec.Finished == nil {
		t.Errorf("done record incomplete: %+v", rec)
	}

	if got := string(fetch(t, ts.URL+"/v1/jobs/"+id+"/result?format=csv", http.StatusOK)); got != want.Table.CSV() {
		t.Errorf("result csv differs:\ngot:\n%s\nwant:\n%s", got, want.Table.CSV())
	}
	if got := string(fetch(t, ts.URL+"/v1/jobs/"+id+"/result", http.StatusOK)); got != want.Table.Text() {
		t.Errorf("result text differs:\ngot:\n%s\nwant:\n%s", got, want.Table.Text())
	}
	wantJSON, err := want.Table.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if got := fetch(t, ts.URL+"/v1/jobs/"+id+"/result?format=json", http.StatusOK); string(got) != string(wantJSON) {
		t.Errorf("result json differs")
	}
	fetch(t, ts.URL+"/v1/jobs/"+id+"/result?format=bogus", http.StatusBadRequest)

	var list struct {
		Jobs []jobRecord `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != id {
		t.Errorf("list = %+v", list.Jobs)
	}

	metrics := fetch(t, ts.URL+"/metrics", http.StatusOK)
	if err := obs.ValidatePrometheus(metrics); err != nil {
		t.Errorf("/metrics is not valid exposition format: %v", err)
	}
	for _, m := range []string{"serve_jobs_submitted_total 1", "serve_jobs_done_total 1", "sweep_run_complete 1", "runner_jobs_total"} {
		if !strings.Contains(string(metrics), m) {
			t.Errorf("/metrics lacks %q", m)
		}
	}
}

// readSSE consumes an SSE stream until its end event, returning the data
// lines and the terminal status.
func readSSE(t *testing.T, url string) (lines []string, endStatus string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	ending := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: end":
			ending = true
		case strings.HasPrefix(line, "data: ") && ending:
			var v struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &v); err != nil {
				t.Fatalf("end frame %q: %v", line, err)
			}
			return lines, v.Status
		case strings.HasPrefix(line, "data: "):
			lines = append(lines, line[len("data: "):])
		}
	}
	t.Fatalf("SSE stream ended without an end event (err %v, %d lines)", sc.Err(), len(lines))
	return nil, ""
}

// journalLines reads the job's on-disk journal as lines.
func journalLines(t *testing.T, dir, id string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "jobs", id, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// TestSSEStreamMatchesJournal subscribes while the job runs and checks
// the streamed rows are byte-identical to the on-disk journal — the SSE
// stream and cmd/sweep -journal share one row schema by construction.
func TestSSEStreamMatchesJournal(t *testing.T) {
	dir := t.TempDir()
	_, ts := newServer(t, dir, nil)
	id := submit(t, ts, specJSON)

	live, endStatus := readSSE(t, ts.URL+"/v1/jobs/"+id+"/events")
	if endStatus != string(StatusDone) {
		t.Fatalf("stream ended with status %q", endStatus)
	}
	waitStatus(t, ts, id, StatusDone)
	want := journalLines(t, dir, id)
	if len(live) != len(want) {
		t.Fatalf("streamed %d rows, journal has %d", len(live), len(want))
	}
	for i := range want {
		if live[i] != want[i] {
			t.Fatalf("row %d differs:\nsse:     %s\njournal: %s", i, live[i], want[i])
		}
	}
	var seen struct{ run, cell, round bool }
	for _, l := range want {
		var row struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal([]byte(l), &row); err != nil {
			t.Fatalf("journal row %q: %v", l, err)
		}
		seen.run = seen.run || row.T == "run-start"
		seen.cell = seen.cell || row.T == "cell-start"
		seen.round = seen.round || row.T == "round"
	}
	if !seen.run || !seen.cell || !seen.round {
		t.Errorf("journal lacks expected event types: %+v", seen)
	}

	// The streamed round rows carry the shared golden schema
	// (internal/obs/testdata): same keys, same order, as an attributed
	// journal row.
	golden, err := os.ReadFile("../obs/testdata/round-rows.golden.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	keyRe := regexp.MustCompile(`"([a-z_]+)":`)
	wantKeys := fmt.Sprint(keyRe.FindAllStringSubmatch(strings.SplitN(string(golden), "\n", 2)[0], -1))
	for _, l := range want {
		if !strings.HasPrefix(l, `{"t":"round"`) {
			continue
		}
		if gotKeys := fmt.Sprint(keyRe.FindAllStringSubmatch(l, -1)); gotKeys != wantKeys {
			t.Errorf("round row keys drifted from the golden schema:\nrow %s\nkeys %s\nwant %s", l, gotKeys, wantKeys)
		}
		break
	}

	// A replay after completion serves from disk and must match too.
	replay, endStatus := readSSE(t, ts.URL+"/v1/jobs/"+id+"/events")
	if endStatus != string(StatusDone) || len(replay) != len(want) {
		t.Errorf("terminal replay: status %q, %d rows (want %d)", endStatus, len(replay), len(want))
	}
}

// TestKillAndResumeOverHTTP is the end-to-end resume wall: a daemon is
// killed mid-run (deterministically, via a poll-limited job context), a
// fresh daemon on the same state directory requeues and finishes the
// job, and the final table is byte-identical to an uninterrupted run.
func TestKillAndResumeOverHTTP(t *testing.T) {
	want := wantResult(t, specJSON)
	dir := t.TempDir()

	s1, ts1 := newServer(t, dir, func(ctx context.Context) context.Context {
		return &pollLimitCtx{Context: ctx, limit: 25}
	})
	id := submit(t, ts1, specJSON)
	rec := waitStatus(t, ts1, id, StatusSuspended)
	if rec.Error != "" {
		t.Fatalf("suspended with error %q", rec.Error)
	}
	fetch(t, ts1.URL+"/v1/jobs/"+id+"/result", http.StatusConflict)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	_, ts2 := newServer(t, dir, nil)
	rec = waitStatus(t, ts2, id, StatusDone)
	if rec.Resumes != 1 {
		t.Errorf("record reports %d resumes, want 1", rec.Resumes)
	}
	if got := string(fetch(t, ts2.URL+"/v1/jobs/"+id+"/result?format=csv", http.StatusOK)); got != want.Table.CSV() {
		t.Errorf("resumed result differs from uninterrupted run:\ngot:\n%s\nwant:\n%s", got, want.Table.CSV())
	}

	// The SSE replay spans the kill: history from the first daemon's
	// journal, then the resumed rounds, in one stream.
	lines, endStatus := readSSE(t, ts2.URL+"/v1/jobs/"+id+"/events")
	if endStatus != string(StatusDone) {
		t.Errorf("stream ended with status %q", endStatus)
	}
	if wantLines := journalLines(t, dir, id); len(lines) != len(wantLines) {
		t.Errorf("streamed %d rows, journal has %d", len(lines), len(wantLines))
	}
}

// TestCancelRunningJob cancels mid-run through the API: the job lands in
// "canceled" and its result endpoint reports the state honestly.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newServer(t, t.TempDir(), nil)
	id := submit(t, ts, bigSpecJSON)
	waitStatus(t, ts, id, StatusRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %s", resp.Status)
	}
	rec := waitStatus(t, ts, id, StatusCanceled)
	if rec.Error != "" {
		t.Errorf("canceled with error %q", rec.Error)
	}
	fetch(t, ts.URL+"/v1/jobs/"+id+"/result", http.StatusConflict)

	// Canceling again is a conflict, not a crash.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("second cancel: %s, want 409", resp.Status)
	}
}

// TestSubmitValidation pins the 4xx paths.
func TestSubmitValidation(t *testing.T) {
	_, ts := newServer(t, t.TempDir(), nil)
	for name, body := range map[string]string{
		"garbage":      "{not json",
		"invalid spec": `{"version":1,"name":"x","instance":{"family":"nope","params":{}},"dynamics":{"kind":"imitation"},"rounds":5,"reps":1,"seed":1,"metrics":["mean_rounds"]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %s (%s), want 400", name, resp.Status, b)
		}
	}
	fetch(t, ts.URL+"/v1/jobs/job-999999", http.StatusNotFound)
}

// TestBroadcasterReassemblesLines pins the chunk-to-line reassembly the
// SSE stream depends on: journal flushes split lines arbitrarily.
func TestBroadcasterReassemblesLines(t *testing.T) {
	b := newBroadcaster()
	history, ch, id, _ := b.subscribe()
	defer b.unsubscribe(id)
	if len(history) != 0 {
		t.Fatalf("fresh broadcaster has %d history lines", len(history))
	}
	payload := "{\"t\":\"a\"}\n{\"t\":\"b\"}\n{\"t\":\"c\"}\n"
	for i := 0; i < len(payload); i += 7 {
		end := i + 7
		if end > len(payload) {
			end = len(payload)
		}
		if _, err := b.Write([]byte(payload[i:end])); err != nil {
			t.Fatal(err)
		}
	}
	b.finish()
	var got []string
	for line := range ch {
		got = append(got, string(line))
	}
	want := []string{`{"t":"a"}`, `{"t":"b"}`, `{"t":"c"}`}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	// Finish releases the history; a late subscriber is told to replay
	// the on-disk journal instead.
	if history, _, _, closed := b.subscribe(); !closed || history != nil {
		t.Errorf("subscribe after finish: closed %v, %d history lines; want closed, none", closed, len(history))
	}
	if b.lines != nil || b.pending != nil {
		t.Errorf("finished broadcaster retains %d lines, %d pending bytes", len(b.lines), len(b.pending))
	}
}

// TestFinishedJobReleasesHistory: once a job finishes, its broadcaster
// holds no journal lines, and a stream opened afterwards — served from
// journal.ndjson — still matches the journal line for line.
func TestFinishedJobReleasesHistory(t *testing.T) {
	dir := t.TempDir()
	s, ts := newServer(t, dir, nil)
	id := submit(t, ts, specJSON)
	// Following the live stream to its end frame guarantees finish ran.
	if _, endStatus := readSSE(t, ts.URL+"/v1/jobs/"+id+"/events"); endStatus != string(StatusDone) {
		t.Fatalf("stream ended with status %q", endStatus)
	}
	b := s.job(id).bcast
	b.mu.Lock()
	lines, pending, closed := len(b.lines), len(b.pending), b.closed
	b.mu.Unlock()
	if !closed || lines != 0 || pending != 0 {
		t.Errorf("finished job's broadcaster: closed %v, %d lines, %d pending bytes; want closed, none", closed, lines, pending)
	}

	replay, endStatus := readSSE(t, ts.URL+"/v1/jobs/"+id+"/events")
	if endStatus != string(StatusDone) {
		t.Errorf("replay ended with status %q", endStatus)
	}
	want := journalLines(t, dir, id)
	if len(replay) != len(want) {
		t.Fatalf("replayed %d rows, journal has %d", len(replay), len(want))
	}
	for i := range want {
		if replay[i] != want[i] {
			t.Fatalf("row %d differs:\nsse:     %s\njournal: %s", i, replay[i], want[i])
		}
	}
}
