package driver

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"automap/internal/cluster"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/profile"
	"automap/internal/telemetry"
)

// forceParallel raises GOMAXPROCS so resolveWorkers does not clamp
// multi-worker configurations to 1 on a single-core CI host; restored on
// cleanup. GOMAXPROCS above the physical core count is valid — the
// runtime preemptively interleaves the goroutines — so -race still
// exercises the real concurrent paths.
func forceParallel(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestConcurrentPrefetchAndDB runs the search goroutine's Prefetch batches
// (eight concurrent Measure calls on the evaluator's shared sim.Instance)
// and its sequential commit stream while other goroutines read the
// profiles database — the scenario a metrics scrape during a search
// creates. Run under -race this pins the locking of profile.DB and of the
// simulator instance's plan cache and state pool.
func TestConcurrentPrefetchAndDB(t *testing.T) {
	forceParallel(t, 8)
	m := cluster.Shepard(2)
	g := driverGraph(t)
	md := m.Model()
	opts := quickOpts()
	opts.Workers = 8
	ev := NewEvaluator(m, g, opts)

	// A pool of distinct candidates (different proc kinds × distribution).
	var cands []*mapping.Mapping
	for _, k := range []machine.ProcKind{machine.CPU, machine.GPU} {
		for _, dist := range []bool{true, false} {
			for _, dist2 := range []bool{true, false} {
				mp := mapping.Default(g, md)
				mp.SetProc(0, k)
				mp.RebuildPriorityLists(md, 0)
				mp.SetDistribute(0, dist)
				mp.SetDistribute(1, dist2)
				cands = append(cands, mp)
			}
		}
	}

	var wg sync.WaitGroup
	// Concurrent readers of the shared database.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				for _, mp := range cands {
					key := mp.Key()
					ev.DB.Lookup(key)
					ev.DB.MeanOf(key)
				}
				ev.DB.Len()
				ev.DB.Keys()
			}
		}()
	}
	// The search goroutine: batches over overlapping candidate sets, each
	// followed by the sequential commits, the CCD pattern.
	for r := 0; r < 5; r++ {
		for i, mp := range cands {
			ev.Prefetch(cands[i:])
			ev.Evaluate(mp)
		}
	}
	wg.Wait()

	if ev.Evaluated != len(cands) {
		t.Fatalf("Evaluated = %d, want %d distinct", ev.Evaluated, len(cands))
	}
	// Every candidate must be recorded exactly once (Evaluate committed
	// each key a single time), and every speculative result committed.
	if ev.DB.Len() != len(cands) {
		t.Fatalf("DB.Len() = %d, want %d", ev.DB.Len(), len(cands))
	}
	if len(ev.spec) != 0 {
		t.Fatalf("%d speculative results left uncommitted", len(ev.spec))
	}
	for _, mp := range cands {
		s, ok := ev.DB.Lookup(mp.Key())
		if !ok || s.Failed {
			t.Fatalf("candidate %s missing or failed", mp.Key())
		}
		if len(s.Times) != opts.Repeats {
			t.Fatalf("candidate has %d samples, want %d (double commit?)", len(s.Times), opts.Repeats)
		}
	}
}

// TestConcurrentBasePublish pins the incumbent/delta-base publish path:
// the search loop accepts improvements (SetDeltaBase) between batches that
// eight Prefetch goroutines measured against the OLD base, and commits
// those results afterwards. Under -race this catches any mutation of a
// base snapshot a measurement read, and the final database must be
// byte-identical to the same trajectory at workers=1 (speculation and
// base swaps may change wall-clock time only).
func TestConcurrentBasePublish(t *testing.T) {
	forceParallel(t, 8)
	m := cluster.Shepard(2)
	g := driverGraph(t)
	md := m.Model()

	var cands []*mapping.Mapping
	for _, k := range []machine.ProcKind{machine.CPU, machine.GPU} {
		for _, k2 := range []machine.ProcKind{machine.CPU, machine.GPU} {
			for _, dist := range []bool{true, false} {
				for _, dist2 := range []bool{true, false} {
					mp := mapping.Default(g, md)
					mp.SetProc(0, k)
					mp.RebuildPriorityLists(md, 0)
					mp.SetProc(1, k2)
					mp.RebuildPriorityLists(md, 1)
					mp.SetDistribute(0, dist)
					mp.SetDistribute(1, dist2)
					cands = append(cands, mp)
				}
			}
		}
	}

	run := func(workers int) *profile.DB {
		opts := quickOpts()
		opts.Workers = workers
		opts.WallMetrics = telemetry.NewRegistry()
		ev := NewEvaluator(m, g, opts)
		best := math.Inf(1)
		for i, mp := range cands {
			// Re-batch from the remaining pool before every commit —
			// the CCD pattern after each accept.
			ev.Prefetch(cands[i:])
			v := ev.Evaluate(mp)
			if !v.Failed && v.MeanSec < best {
				best = v.MeanSec
				// Publish a new incumbent while results measured
				// against the old one wait in the speculative cache.
				ev.SetDeltaBase(mp)
			}
		}
		ev.discardSpec()
		return ev.DB
	}

	db1 := run(1)
	db8 := run(8)
	if db1.Len() != db8.Len() {
		t.Fatalf("DB.Len() differs: workers=1 %d, workers=8 %d", db1.Len(), db8.Len())
	}
	for _, mp := range cands {
		key := mp.Key()
		s1, ok1 := db1.Lookup(key)
		s8, ok8 := db8.Lookup(key)
		if ok1 != ok8 {
			t.Fatalf("key %s present=%v at workers=1 but %v at workers=8", key, ok1, ok8)
		}
		if !ok1 {
			continue
		}
		if s1.Failed != s8.Failed {
			t.Fatalf("key %s failed=%v vs %v", key, s1.Failed, s8.Failed)
		}
		if !reflect.DeepEqual(s1.Times, s8.Times) {
			t.Fatalf("key %s measured %v at workers=1 but %v at workers=8", key, s1.Times, s8.Times)
		}
	}
}

// TestConcurrentDBRecord pins profile.DB's own locking: concurrent Record,
// RecordFailure, Lookup, MeanOf, Save-path iteration (Keys) on overlapping
// keys.
func TestConcurrentDBRecord(t *testing.T) {
	db := profile.NewDB()
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 500; r++ {
				k := keys[(i+r)%len(keys)]
				switch r % 4 {
				case 0:
					db.Record(k, []float64{float64(r)})
				case 1:
					db.Lookup(k)
				case 2:
					db.MeanOf(k)
				case 3:
					db.Keys()
				}
			}
		}(i)
	}
	wg.Wait()
	if db.Len() != len(keys) {
		t.Fatalf("DB.Len() = %d, want %d", db.Len(), len(keys))
	}
}
