package main

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"automap/internal/driver"
	"automap/internal/search"
	"automap/internal/telemetry"
)

// searchBytes runs one search of p at seed and returns its report and
// telemetry event stream as bytes; wrap selects the timing wrapper.
func searchBytes(t *testing.T, p program, seed uint64, workers int, wrap bool) []byte {
	t.Helper()
	m, g, opts, err := p.build()
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	sink := telemetry.NewJSONLSink(&events)
	opts.Seed = seed
	opts.Workers = workers
	opts.Observer = &telemetry.Observer{Sink: sink, Metrics: telemetry.NewRegistry()}
	var alg search.Algorithm = search.NewCCD()
	var timed *timedAlg
	if wrap {
		timed = &timedAlg{inner: alg, tr: newTracer(), trace: "test"}
		alg = timed
	}
	rep, err := driver.Search(m, g, alg, opts, search.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if wrap {
		if timed.ev.calls != rep.Suggested {
			t.Fatalf("wrapper saw %d Evaluate calls, report suggested %d", timed.ev.calls, rep.Suggested)
		}
		// Prefetch is a no-op at one worker; at more it must reach the
		// driver through the wrapper.
		if workers > 1 && timed.ev.prefetched == 0 {
			t.Fatal("no Prefetch call reached the driver through the wrapper")
		}
	}
	best, err := rep.Best.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	r := *rep
	r.Best = nil
	return []byte(fmt.Sprintf("%s\n%+v\n%s", best, r, events.Bytes()))
}

// TestTimingWrapperLeavesSearchUnchanged checks that a search through the
// timing Algorithm/Evaluator wrapper reports exactly what a plain
// driver.Search with the same seed reports, event stream included, with
// one worker and with one per core.
func TestTimingWrapperLeavesSearchUnchanged(t *testing.T) {
	for _, name := range []string{"stencil", "circuit", "htr"} {
		for _, workers := range []int{1, runtime.NumCPU()} {
			p := programs[name]
			plain := searchBytes(t, p, 7, workers, false)
			wrapped := searchBytes(t, p, 7, workers, true)
			if !bytes.Equal(plain, wrapped) {
				t.Errorf("%s at %d workers: wrapped search differs from plain search", name, workers)
			}
		}
	}
}

// TestSimReplayReproducesDeltaCounts checks that replaying a traced
// search's fresh candidates classifies them exactly as the search's
// commit path did.
func TestSimReplayReproducesDeltaCounts(t *testing.T) {
	p := programs["htr"]
	m, g, opts, err := p.build()
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = 3
	timed := &timedAlg{inner: search.NewCCD()}
	if _, err := driver.Search(m, g, timed, opts, search.Budget{}); err != nil {
		t.Fatal(err)
	}
	inc, fb := timed.ev.inner.DeltaEvalStats()
	if inc == 0 || fb == 0 {
		t.Fatalf("want both delta paths exercised, got %d incremental / %d fallback", inc, fb)
	}
	var acc simTimes
	if err := replaySim(m, g, timed.ev.log, opts.NoiseSigma, inc, fb, &acc); err != nil {
		t.Fatal(err)
	}
}
