// Command serve runs the simulation-as-a-service daemon
// (internal/serve): an HTTP API that accepts scenario specs, executes
// them through a checkpointed scenario.Run with bounded concurrency, and
// streams per-round telemetry over Server-Sent Events.
//
// Usage:
//
//	serve -addr 127.0.0.1:8642 -state serve-state
//	      [-jobs 1] [-queue 64] [-checkpoint-every 200]
//
// The API (see OPERATIONS.md for the full reference with curl examples):
//
//	POST   /v1/jobs              submit a scenario spec (body = spec JSON, ?quick=1)
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         job status
//	DELETE /v1/jobs/{id}         cancel (checkpoint is kept on disk)
//	GET    /v1/jobs/{id}/events  SSE stream of the run journal
//	GET    /v1/jobs/{id}/result  rendered table (?format=text|csv|markdown|json)
//	GET    /healthz, /metrics, /metrics.json, /debug/pprof/
//
// All state lives under -state. On SIGINT/SIGTERM the daemon suspends
// running jobs — each persists a checkpoint snapshot — and exits;
// restarting on the same -state directory requeues and resumes them
// bit-identically to an uninterrupted run (DESIGN.md §13).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"congame/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addrFlag  = flag.String("addr", "127.0.0.1:8642", "listen address for the HTTP API")
		stateFlag = flag.String("state", "serve-state", "state directory (jobs, checkpoints, journals, results)")
		jobsFlag  = flag.Int("jobs", 1, "jobs executing concurrently")
		queueFlag = flag.Int("queue", 64, "accepted-but-not-started job backlog before submissions get 503")
		everyFlag = flag.Int("checkpoint-every", 0, "mid-replication snapshot cadence in rounds (0 = default)")
	)
	flag.Parse()

	s, err := serve.New(serve.Config{
		StateDir:        *stateFlag,
		MaxConcurrent:   *jobsFlag,
		QueueDepth:      *queueFlag,
		CheckpointEvery: *everyFlag,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: s, ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "[serve: listening on http://%s, state in %s]\n", ln.Addr(), *stateFlag)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		_ = s.Close()
		return 1
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "[serve: %v — suspending jobs and checkpointing]\n", got)
	}

	// Suspend the workers first so every running job persists its
	// snapshot, then hard-close the HTTP server (SSE streams never drain
	// on their own, so a graceful Shutdown would hang on them).
	if err := s.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
	}
	_ = srv.Close()
	fmt.Fprintln(os.Stderr, "[serve: state saved; restart on the same -state to resume]")
	return 0
}
