package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"congame/internal/core"
)

func decodeLines(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q is not JSON: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	return out
}

func TestJournalEvents(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.RunStart("e2", 3, 5)
	j.CellStart(0, `n=4096 "quick"`)
	j.Round(0, 1, core.RoundStats{Round: 2, Players: 10, Movers: 3, NewStrategies: 1,
		Potential: 5.5, AvgLatency: 1.25, MaxLatency: 3})
	j.Phase(0, 1, "core", 2, core.StepTimings{Decide: 2 * time.Millisecond, Step: 3 * time.Millisecond})
	j.EventFired(0, 1, 7, 0, "arrive")
	j.CellFinish(0, 5, 0.25)
	j.RunFinish(1.5)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	lines := decodeLines(t, buf.Bytes())
	if len(lines) != 7 {
		t.Fatalf("got %d lines, want 7:\n%s", len(lines), buf.String())
	}
	wantTypes := []string{"run-start", "cell-start", "round", "phase", "event", "cell-finish", "run-finish"}
	for i, w := range wantTypes {
		if lines[i]["t"] != w {
			t.Errorf("line %d: t=%v, want %s", i, lines[i]["t"], w)
		}
	}
	round := lines[2]
	if round["cell"] != 0.0 || round["rep"] != 1.0 || round["players"] != 10.0 || round["movers"] != 3.0 {
		t.Errorf("round row wrong: %v", round)
	}
	phase := lines[3]
	if phase["decide_s"] != 0.002 || phase["step_s"] != 0.003 || phase["backend"] != "core" {
		t.Errorf("phase row wrong: %v", phase)
	}
	if lines[4]["kind"] != "arrive" || lines[4]["round"] != 7.0 {
		t.Errorf("event row wrong: %v", lines[4])
	}
	if !strings.Contains(buf.String(), `\"quick\"`) {
		t.Errorf("label not escaped: %s", buf.String())
	}
}

func TestJournalOmitsNegativeCellRepAndNaN(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Round(-1, -1, core.RoundStats{Round: 0, Potential: math.NaN(), MaxLatency: math.Inf(1)})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines := decodeLines(t, buf.Bytes())
	if _, ok := lines[0]["cell"]; ok {
		t.Error("cell must be omitted for negative index")
	}
	if v, ok := lines[0]["potential"]; !ok || v != nil {
		t.Errorf("NaN potential must render as null, got %v", v)
	}
	if v := lines[0]["max_latency"]; v != nil {
		t.Errorf("+Inf must render as null, got %v", v)
	}
}

func TestJournalObserverAndTimers(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.RoundObserver(2, 0).Observe(core.RoundStats{Round: 9, Players: 4})
	j.StepTimer(2, 0, "core")(core.RoundStats{Round: 9}, core.StepTimings{Sync: time.Microsecond})
	j.StepTimer(-1, -1, "weighted")(core.RoundStats{Round: 4}, core.StepTimings{Sync: time.Millisecond})
	j.StepTimer(-1, -1, "fluid")(core.RoundStats{Round: 5}, core.StepTimings{Decide: time.Millisecond})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines := decodeLines(t, buf.Bytes())
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	if lines[1]["sync_s"] != 1e-6 {
		t.Errorf("core phase row wrong: %v", lines[1])
	}
	if lines[2]["backend"] != "weighted" || lines[2]["sync_s"] != 0.001 || lines[2]["round"] != 4.0 {
		t.Errorf("weighted phase row wrong: %v", lines[2])
	}
	if lines[3]["backend"] != "fluid" || lines[3]["decide_s"] != 0.001 || lines[3]["round"] != 5.0 {
		t.Errorf("fluid phase row wrong: %v", lines[3])
	}
	// One record, one schema: every phase row carries all five phases,
	// whichever backend wrote it and whichever phases it filled.
	for _, row := range lines[1:] {
		for _, k := range []string{"pre_round_s", "sync_s", "decide_s", "apply_s", "step_s"} {
			if _, ok := row[k]; !ok {
				t.Errorf("%v phase row lacks %s: %v", row["backend"], k, row)
			}
		}
	}
}

func TestJournalConcurrentLinesIntact(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				j.Round(w, i, core.RoundStats{Round: i, Players: w})
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines := decodeLines(t, buf.Bytes())
	if len(lines) != 2000 {
		t.Fatalf("got %d intact lines, want 2000", len(lines))
	}
}

func TestJournalRoundAllocFree(t *testing.T) {
	j := NewJournal(bufio.NewWriter(&bytes.Buffer{}))
	s := core.RoundStats{Round: 1, Players: 65536, Movers: 12, Potential: 123.456,
		AvgLatency: 1.5, MaxLatency: 9}
	j.Round(0, 0, s) // warm the scratch buffer
	if n := testing.AllocsPerRun(100, func() {
		j.Round(0, 0, s)
	}); n != 0 {
		t.Fatalf("Journal.Round allocates %v per call", n)
	}
}
