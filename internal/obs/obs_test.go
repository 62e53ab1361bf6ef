package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"congame/internal/core"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(1.5)
	g.Add(-0.5)
	if got := g.Value(); got != 1.0 {
		t.Fatalf("gauge = %g, want 1", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h, err := newHistogram([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	// le=1 gets 0.5 and 1 (bound is inclusive), le=2 gets 1.5, le=4 gets 3,
	// +Inf gets 100.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.BucketCount(i); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); math.Abs(got-106.0) > 1e-12 {
		t.Errorf("sum = %g, want 106", got)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	if _, err := newHistogram([]float64{1, 1}); err == nil {
		t.Fatal("expected error for non-ascending bounds")
	}
}

func TestRegistryIdempotentAndConcurrent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", L("k", "v"))
	b := r.Counter("x_total", "x", L("k", "v"))
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	other := r.Counter("x_total", "x", L("k", "w"))
	if other == a {
		t.Fatal("different labels must be a different series")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("x_total", "x", L("k", "v")).Inc()
			}
		}()
	}
	wg.Wait()
	if got := a.Value(); got != 8000 {
		t.Fatalf("concurrent Inc lost updates: %d", got)
	}

	// Concurrent FIRST registrations (parallel replications instrumenting
	// a fresh registry) must all get the one collector.
	hs := make([]*Histogram, 8)
	for i := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hs[i] = r.Histogram("y_seconds", "y", DefTimeBuckets, L("k", "v"))
		}()
	}
	wg.Wait()
	for _, h := range hs {
		if h == nil || h != hs[0] {
			t.Fatal("concurrent first registrations returned different histograms")
		}
	}
}

func TestRegistryPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("ok_total", "")
	expectPanic("bad name", func() { r.Counter("1bad", "") })
	expectPanic("bad label", func() { r.Counter("ok2_total", "", L("0k", "v")) })
	expectPanic("type clash", func() { r.Gauge("ok_total", "") })
	expectPanic("family clash", func() { r.Gauge("ok_total", "", L("a", "b")) })
}

func TestWritePrometheusAndValidate(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "Jobs done.", L("kind", "a")).Add(3)
	r.Gauge("temp", "Temperature.").Set(1.25)
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1}, L("q", "p\"x\\y"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE jobs_total counter",
		`jobs_total{kind="a"} 3`,
		"temp 1.25",
		`lat_seconds_bucket{q="p\"x\\y",le="0.1"} 1`,
		`lat_seconds_bucket{q="p\"x\\y",le="+Inf"} 3`,
		`lat_seconds_sum{q="p\"x\\y"} 5.55`,
		`lat_seconds_count{q="p\"x\\y"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	if err := ValidatePrometheus(buf.Bytes()); err != nil {
		t.Fatalf("self-render failed validation: %v\n%s", err, text)
	}
	if err := RequireFamilies(buf.Bytes(), []string{"jobs_total", "lat_seconds"}); err != nil {
		t.Fatalf("RequireFamilies: %v", err)
	}
	if err := RequireFamilies(buf.Bytes(), []string{"missing_total"}); err == nil {
		t.Fatal("RequireFamilies must fail on absent families")
	}
}

func TestValidatePrometheusRejects(t *testing.T) {
	bad := []string{
		"no_type_sample 1\n",
		"# TYPE x counter\nx notanumber\n",
		"# TYPE x counter\n# TYPE x counter\nx 1\n",
		"# TYPE x histogram\nx 1\n",
		"# TYPE x counter\nx{a=b} 1\n",
	}
	for _, s := range bad {
		if err := ValidatePrometheus([]byte(s)); err == nil {
			t.Errorf("accepted invalid exposition %q", s)
		}
	}
	if err := ValidatePrometheus([]byte("# TYPE x counter\nx{a=\"b\"} 1 1700000000\n")); err != nil {
		t.Errorf("rejected valid sample with timestamp: %v", err)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "", L("kind", "a")).Add(2)
	r.Histogram("lat_seconds", "", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out) != 2 {
		t.Fatalf("got %d series, want 2", len(out))
	}
}

func TestMetricSetsRegisterCleanly(t *testing.T) {
	r := NewRegistry()
	em := NewEngineMetrics(r, "core")
	em2 := NewEngineMetrics(r, "core")
	if em.Decide != em2.Decide {
		t.Fatal("re-registering the same backend must share series")
	}
	NewEngineMetrics(r, "weighted")
	NewEngineMetrics(r, "fluid")
	NewRunnerMetrics(r)
	NewSweepMetrics(r)
	em.StepTimer()(core.RoundStats{}, core.StepTimings{Step: time.Millisecond})
	em.Observer().Observe(core.RoundStats{Players: 7, Movers: 3})
	if em.Rounds.Value() != 1 || em.Moves.Value() != 3 || em.Players.Value() != 7 {
		t.Fatalf("observer did not feed counters: rounds=%d moves=%d players=%g",
			em.Rounds.Value(), em.Moves.Value(), em.Players.Value())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePrometheus(buf.Bytes()); err != nil {
		t.Fatalf("full metric set failed validation: %v\n%s", err, buf.String())
	}
}

func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", DefTimeBuckets)
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(1)
		h.Observe(0.001)
	}); n != 0 {
		t.Fatalf("metric hot path allocates %v per op", n)
	}
}
