// Micro-benchmarks of the simulator hot path: one-shot Simulate (topology
// and placement rebuilt per call) against the reusable Instance (cached
// topology, plan cache, pooled run state and schedule buffers), per-candidate
// Measure calls under the driver's 7-repeat protocol, and the plan-cache
// hit and miss paths in isolation. Allocation counts are part of the contract: the
// search runs hundreds of thousands of simulations, so allocs/op here
// dominate its GC load.
package sim

import (
	"strconv"
	"testing"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/taskir"
)

// benchProblem is a mid-size multi-node problem (pennant on 4 Shepard
// nodes), representative of one candidate evaluation during a search.
func benchProblem(b *testing.B) (*machine.Machine, *taskir.Graph, *mapping.Mapping) {
	b.Helper()
	app, err := apps.Get("pennant")
	if err != nil {
		b.Fatal(err)
	}
	g, err := app.Build("320x720", 4)
	if err != nil {
		b.Fatal(err)
	}
	m := cluster.Shepard(4)
	return m, g, mapping.Default(g, m.Model())
}

func BenchmarkSimulateOneShot(b *testing.B) {
	m, g, mp := benchProblem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(m, g, mp, Config{NoiseSigma: 0.04, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInstanceRun(b *testing.B) {
	m, g, mp := benchProblem(b)
	inst := New(m, g)
	key := mp.Key()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.RunKeyed(key, mp, Config{NoiseSigma: 0.04, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstanceRunParallel is BenchmarkInstanceRun with concurrent
// runners sharing one Instance — the worker-pool shape the driver creates.
// Run with -cpu 1,4,8: near-flat ns/op across the -cpu values means the
// shared state (sharded plan cache, copy-on-publish noise tapes, pooled
// scratch) is not serializing independent candidate evaluations;
// ns/op growing with -cpu is the contention regression this benchmark
// exists to catch.
func BenchmarkInstanceRunParallel(b *testing.B) {
	m, g, mp := benchProblem(b)
	inst := New(m, g)
	key := mp.Key()
	// Warm the plan cache and the noise tapes so the parallel section
	// measures the steady-state record-and-fold path, as a mid-search
	// worker pool would.
	if _, err := inst.RunKeyed(key, mp, Config{NoiseSigma: 0.04, Seed: 0}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var i uint64
		for pb.Next() {
			i++
			if _, err := inst.RunKeyed(key, mp, Config{NoiseSigma: 0.04, Seed: i % 7}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// measureConfigs are the driver's search-phase protocol: 7 noisy repeats
// of one candidate, folded from one recorded schedule.
var measureConfigs = func() []Config {
	cfgs := make([]Config, 7)
	for i := range cfgs {
		cfgs[i] = Config{NoiseSigma: 0.04, Seed: uint64(i)}
	}
	return cfgs
}()

// BenchmarkDeltaMeasureOneFlip measures the cost of one CCD candidate
// evaluation on the incremental path: one Measure call with the 7
// protocol configs, which classifies, patches the base schedule into
// pooled buffers, and folds it 7 times. Like BenchmarkInstanceRun, the
// placement plan stays cached — planning cost is identical on both paths
// — so the ns/op of the two delta benchmarks are directly comparable.
func BenchmarkDeltaMeasureOneFlip(b *testing.B) {
	m, g, mp := benchProblem(b)
	d := NewDelta(New(m, g))
	d.SetBase(mp)
	cand := mp.CloneCOW()
	cand.SetDistribute(0, !mp.Decision(0).Distribute)
	key := cand.Key()
	if !d.Classify(key, cand) {
		b.Fatal("one-flip candidate not classified incremental")
	}
	// Build the base's deep record outside the timed loop: a search pays
	// it once per accepted incumbent, not per candidate.
	if _, err := d.Measure(key, cand, measureConfigs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Measure(key, cand, measureConfigs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaMeasureFallback is BenchmarkDeltaMeasureOneFlip's
// counterpart for a candidate beyond the flip budget: classification
// rejects it and each Measure pays a full structure pass instead of a
// patch.
func BenchmarkDeltaMeasureFallback(b *testing.B) {
	m, g, mp := benchProblem(b)
	d := NewDelta(New(m, g))
	d.SetBase(mp)
	cand := mp.CloneCOW()
	for i := 0; i <= d.MaxFlips; i++ {
		tid := taskir.TaskID(i)
		cand.SetDistribute(tid, !mp.Decision(tid).Distribute)
	}
	key := cand.Key()
	if d.Classify(key, cand) {
		b.Fatal("over-budget candidate classified incremental")
	}
	if _, err := d.Measure(key, cand, measureConfigs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Measure(key, cand, measureConfigs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanCacheHit(b *testing.B) {
	m, g, mp := benchProblem(b)
	inst := New(m, g)
	if _, err := inst.PlanPlacement(mp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.PlanPlacement(mp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanCacheMiss(b *testing.B) {
	m, g, mp := benchProblem(b)
	inst := New(m, g)
	key := mp.Key()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A unique key per iteration forces the miss path (plan built
		// from the cached topology) without paying Key() on a mutated
		// mapping each round.
		if _, err := inst.planFor(key+strconv.Itoa(i), mp); err != nil {
			b.Fatal(err)
		}
	}
}
