package driver

import (
	"fmt"
	"sync"
	"testing"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/mapping"
	"automap/internal/overlap"
	"automap/internal/profile"
	"automap/internal/search"
	"automap/internal/sim"
	"automap/internal/telemetry"
)

// runKey is one simulated run: a candidate and the noise seed of one of
// its repeats.
type runKey struct {
	key  string
	seed uint64
}

// countingRunner wraps a simRunner and counts the runs it measures per
// (key, seed) pair.
type countingRunner struct {
	inner simRunner
	mu    sync.Mutex
	runs  map[runKey]int
}

func (c *countingRunner) Measure(key string, mp *mapping.Mapping, cfgs []sim.Config) ([]*sim.Result, error) {
	c.mu.Lock()
	for _, cfg := range cfgs {
		c.runs[runKey{key, cfg.Seed}]++
	}
	c.mu.Unlock()
	return c.inner.Measure(key, mp, cfgs)
}

// TestEachRepeatMeasuredOnce runs the search phase of CCD with a counting
// runner and requires every (candidate, seed) run to be simulated at most
// once: each committed candidate's repeats exactly once, Evaluated ×
// Repeats in all, and every other run a speculative measurement that
// driver.prefetch.discarded accounts for. A Prefetch measuring a key that
// is already measured or committed, or a speculative result dropped before
// its key is suggested again, shows up as a pair counted twice.
func TestEachRepeatMeasuredOnce(t *testing.T) {
	for _, ac := range []struct {
		name, size string
		nodes      int
	}{
		{"stencil", "500x500", 2},
		{"circuit", "n50w200", 2},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", ac.name, workers), func(t *testing.T) {
				forceParallel(t, workers)
				app, err := apps.Get(ac.name)
				if err != nil {
					t.Fatal(err)
				}
				g, err := app.Build(ac.size, ac.nodes)
				if err != nil {
					t.Fatal(err)
				}
				m := cluster.Shepard(ac.nodes)
				opts := DefaultOptions()
				opts.Workers = workers
				opts.WallMetrics = telemetry.NewRegistry()
				ev := NewEvaluator(m, g, opts)
				cr := &countingRunner{inner: ev.runner, runs: make(map[runKey]int)}
				ev.runner = cr

				start := mapping.Default(g, m.Model())
				sp, err := profile.Extract(m, g, start, sim.Config{})
				if err != nil {
					t.Fatal(err)
				}
				prob := &search.Problem{
					Graph: g, Model: m.Model(), Space: sp, Overlap: overlap.Build(g),
					Start: start, Seed: opts.Seed,
				}
				search.NewCCD().Search(prob, ev, search.Budget{})
				ev.discardSpec()

				for rk, n := range cr.runs {
					if n > 1 {
						t.Errorf("candidate %s seed %x measured %d times", rk.key, rk.seed, n)
					}
				}
				committed, total := 0, 0
				for _, key := range ev.DB.Keys() {
					s, _ := ev.DB.Lookup(key)
					for _, cfg := range ev.cfgs {
						n := cr.runs[runKey{key, cfg.Seed}]
						if !s.Failed && n != 1 {
							t.Errorf("committed candidate %s seed %x measured %d times", key, cfg.Seed, n)
						}
						if !s.Failed {
							committed += n
						}
						total += n
					}
				}
				if want := ev.Evaluated * opts.Repeats; committed != want {
					t.Errorf("committed candidates measured %d runs, want Evaluated × Repeats = %d", committed, want)
				}
				if ev.Evaluated == 0 {
					t.Fatal("search evaluated nothing")
				}
				all := 0
				for _, n := range cr.runs {
					all += n
				}
				discarded := opts.WallMetrics.Counter("driver.prefetch.discarded").Value()
				if got := int64(all - total); got != discarded*int64(opts.Repeats) {
					t.Errorf("%d runs measured for candidates never committed, driver.prefetch.discarded = %d (× %d repeats)", got, discarded, opts.Repeats)
				}
				t.Logf("evaluated %d, runs %d, committed-key runs %d, discarded %d", ev.Evaluated, all, total, discarded)
				if workers == 1 && all != total {
					t.Errorf("workers=1 measured %d runs outside the committed candidates", all-total)
				}
			})
		}
	}
}
