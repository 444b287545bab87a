package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"automap/internal/machine"
	"automap/internal/sim"
	"automap/internal/taskir"
)

// simTimes accumulates the simulator's per-candidate costs over replays.
type simTimes struct {
	n                                      int
	plan, record, fold, classify, deltaRun time.Duration
	deltaAllocBytes                        uint64
	inc, fb                                int64
}

// replaySim re-runs a traced search's fresh candidates, in commit order,
// against fresh simulator instances, timing each simulator entry point
// separately: placement planning, the first keyed run (the structure
// pass), a repeat keyed run (the timing fold), and delta classification
// plus a delta run against the incumbent the search had at that point.
// The replay classifies exactly the candidates the driver's commit path
// classifies (fresh, valid ones), so its incremental/fallback counts must
// equal the search's DeltaEvalStats; wantInc/wantFb are those counts.
func replaySim(m *machine.Machine, g *taskir.Graph, log []step, noise float64, wantInc, wantFb int64, acc *simTimes) error {
	full := sim.New(m, g)
	delta := sim.NewDelta(sim.New(m, g))
	md := m.Model()
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	cfg0 := sim.Config{NoiseSigma: noise, Seed: 1}
	cfg1 := sim.Config{NoiseSigma: noise, Seed: 2}
	var inc, fb int64
	for _, s := range log {
		if s.base {
			delta.SetBase(s.mp)
			continue
		}
		if s.mp.Validate(g, md) != nil {
			continue
		}
		key := s.mp.Key()
		t0 := time.Now()
		_, planErr := full.PlanPlacement(s.mp)
		t1 := time.Now()
		acc.plan += t1.Sub(t0)
		if planErr == nil {
			full.RunKeyed(key, s.mp, cfg0)
			t2 := time.Now()
			full.RunKeyed(key, s.mp, cfg1)
			t3 := time.Now()
			acc.record += t2.Sub(t1)
			acc.fold += t3.Sub(t2)
		}
		t4 := time.Now()
		ok := delta.Classify(key, s.mp)
		t5 := time.Now()
		acc.classify += t5.Sub(t4)
		if ok {
			inc++
		} else {
			fb++
		}
		metrics.Read(allocs)
		before := allocs[0].Value.Uint64()
		t6 := time.Now()
		delta.RunKeyed(key, s.mp, cfg0)
		acc.deltaRun += time.Since(t6)
		metrics.Read(allocs)
		acc.deltaAllocBytes += allocs[0].Value.Uint64() - before
		acc.n++
	}
	acc.inc += inc
	acc.fb += fb
	if inc != wantInc || fb != wantFb {
		return fmt.Errorf("sim replay classified %d incremental / %d fallback, the search reported %d / %d", inc, fb, wantInc, wantFb)
	}
	return nil
}

func (s *simTimes) metrics(out map[string]float64) {
	n := float64(s.n)
	us := func(d time.Duration) float64 { return ratio(float64(d.Nanoseconds())/1e3, n) }
	out["sim.plan_us"] = us(s.plan)
	out["sim.record_us"] = us(s.record)
	out["sim.fold_us"] = us(s.fold)
	out["sim.classify_us"] = us(s.classify)
	out["sim.delta_run_us"] = us(s.deltaRun)
	out["sim.delta.incremental_ratio"] = ratio(float64(s.inc), float64(s.inc+s.fb))
	out["sim.alloc_kb_per_eval"] = ratio(float64(s.deltaAllocBytes)/1024, n)
}
