package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"automap/internal/driver"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/profile"
	"automap/internal/search"
	"automap/internal/sim"
	"automap/internal/taskir"
	"automap/internal/xrand"
)

// searchWindow is how many distinct seeds of each program a search
// workload searches directly in one run. The rest of the program's
// reference pool, after its set-up seed, goes to the fleet as cold
// requests.
const searchWindow = 8

// cycles is how many times a run goes through its three phases: cold
// requests, the search loop, warm requests. The host's speed drifts over
// tens of seconds, so each metric samples the whole run instead of one
// contiguous share of it, and a cycle that meets a host stall does not
// set the run's value.
const cycles = 16

// warmFrac is the share of each cycle given to warm requests; cold
// requests and the search loop share the rest.
const warmFrac = 0.2

// searchInput is one program with its set-up seed (setup: the warm-up
// search and the fleet's warm key) and the reference seeds a run searches
// directly (refs) and sends to the fleet as cold requests (cold).
type searchInput struct {
	prog  program
	m     *machine.Machine
	g     *taskir.Graph
	opts  driver.Options
	setup reference
	refs  []reference
	cold  []reference
}

func newSearchInput(b *bench, name string) (*searchInput, error) {
	p := programs[name]
	m, g, opts, err := p.build()
	if err != nil {
		return nil, err
	}
	pool := b.o.rotation(name, b.seed)
	return &searchInput{prog: p, m: m, g: g, opts: opts, setup: b.o.setupRef(name),
		refs: pool[:searchWindow], cold: pool[searchWindow:]}, nil
}

// search runs one CCD search of in at ref's seed through alg (nil: plain
// CCD) and checks the report against ref.
func (in *searchInput) search(b *bench, ref reference, alg search.Algorithm) (*driver.Report, error) {
	if alg == nil {
		alg = search.NewCCD()
	}
	opts := in.opts
	opts.Seed = ref.Seed
	opts.Workers = b.workers
	rep, err := driver.Search(in.m, in.g, alg, opts, search.Budget{})
	if err == nil {
		err = ref.check(rep.Best.Key(), rep.FinalSec, rep.SearchSec, rep.StartSec)
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", in.prog.Name, err)
	}
	return rep, err
}

// timedSetups runs setup setupRepeats times, records the median as
// setup_s, tears down all but the last result, and returns it.
func timedSetups[T any](b *bench, setup func(i int) (T, error), teardown func(T)) (T, error) {
	var last T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		v, err := setup(i)
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i > 0 {
			teardown(last)
		}
		last = v
	}
	b.out["setup_s"] = median(times)
	return last, nil
}

// runSearch is the search-htr and search-small workload. Each of
// `cycles` cycles sends cold requests (fresh fingerprints of the
// workload's programs) through the fleet's router one after another,
// then runs a closed loop of back-to-back driver.Search calls, round-robin
// over the programs and over searchWindow reference seeds of each, and
// ends with a closed loop of warm requests to the fleet.
func runSearch(b *bench, names []string) error {
	type state struct {
		inputs []*searchInput
		srv    *serving
	}
	st, err := timedSetups(b, func(i int) (state, error) {
		var s state
		var warm []servedSearch
		for _, name := range names {
			in, err := newSearchInput(b, name)
			if err != nil {
				return s, err
			}
			_, err = in.search(b, in.setup, nil) // untimed warm-up
			b.record(err)
			s.inputs = append(s.inputs, in)
			warm = append(warm, servedSearch{in.prog, in.g, in.setup})
		}
		tiny := programs["circuit-tiny"]
		_, tg, _, err := tiny.build()
		if err != nil {
			return s, err
		}
		for _, ref := range b.o[tiny.Name] {
			warm = append(warm, servedSearch{tiny, tg, ref})
		}
		s.srv, err = setupServing(b, fmt.Sprintf("fleet%d", i), warm)
		return s, err
	}, func(s state) { s.srv.f.shutdown() })
	if err != nil {
		return err
	}
	srv := st.srv
	defer srv.f.shutdown()

	acc := newLayerAcc()
	// One entry per cycle: that cycle's figure.
	var searchP50, searchRate, warmP50, warmP90, capacity []float64
	var cold []float64 // every cold request's seconds
	speedup := map[string]float64{}
	simSearch := map[string]float64{}
	var gc goStats
	cycleDur := b.seconds / cycles
	n := 0
	for cycle := 0; cycle < cycles; cycle++ {
		cycleStart := time.Now()
		runtime.GC() // start every phase from a collected heap
		for _, in := range st.inputs {
			per := len(in.cold) / cycles
			for _, ref := range in.cold[cycle*per : (cycle+1)*per] {
				lat, err := srv.cold(b, servedSearch{in.prog, in.g, ref})
				b.record(err)
				if err == nil {
					cold = append(cold, lat)
				}
			}
		}

		runtime.GC()
		g0 := readGo()
		start := time.Now()
		deadline := cycleStart.Add(time.Duration((1 - warmFrac) * cycleDur * float64(time.Second)))
		var walls []float64
		searches := 0
		// At least one search per cycle, even when the cold requests
		// overran the cycle's share.
		for ; searches == 0 || time.Now().Before(deadline); n++ {
			searches++
			in := st.inputs[n%len(st.inputs)]
			round := n / len(st.inputs)
			ref := in.refs[round%len(in.refs)]
			traced := b.tr != nil && round%2 == 1
			var rep *driver.Report
			var wall float64
			var err error
			if traced {
				rep, wall, err = acc.tracedSearch(b, in, ref)
			} else {
				t0 := time.Now()
				rep, err = in.search(b, ref, nil)
				wall = time.Since(t0).Seconds()
			}
			b.record(err)
			if err != nil {
				continue
			}
			if traced {
				acc.traced[in.prog.Name] = append(acc.traced[in.prog.Name], wall)
				continue
			}
			acc.plain[in.prog.Name] = append(acc.plain[in.prog.Name], wall)
			walls = append(walls, wall)
			k := fmt.Sprintf("%s/%d", in.prog.Name, ref.Seed)
			speedup[k] = rep.StartSec / rep.FinalSec
			simSearch[k] = rep.SearchSec
		}
		searchRate = append(searchRate, float64(searches)/time.Since(start).Seconds())
		if len(walls) > 0 {
			searchP50 = append(searchP50, median(walls))
		}
		gc = gc.plus(readGo().minus(g0))

		runtime.GC()
		rng := xrand.New(b.seed<<8 | uint64(cycle))
		lats, d := srv.closedLoop(b, rng, time.Duration(warmFrac*cycleDur*float64(time.Second)))
		capacity = append(capacity, float64(len(lats))/d.Seconds())
		warmP50 = append(warmP50, median(lats))
		warmP90 = append(warmP90, quantile(lats, 0.9))
	}
	gc.report(n, b.out)

	// Search and warm figures are medians over cycles of each cycle's
	// figure. Cold requests are too few per cycle for that, so their
	// percentiles are over all of the run's cold requests.
	b.out["search_s_p50"] = median(searchP50)
	b.out["searches_per_s"] = median(searchRate)
	b.out["cold_s_p50"] = median(cold)
	b.out["cold_s_p90"] = quantile(cold, 0.9)
	b.out["sim_speedup_geomean"] = geomean(sortedValues(speedup))
	b.out["sim_search_s_geomean"] = geomean(sortedValues(simSearch))
	b.out["warm_ms_p50"] = median(warmP50)
	b.out["warm_ms_p90"] = median(warmP90)
	b.out["warm_capacity_rps"] = median(capacity)

	if b.tr != nil {
		acc.replay(b)
		acc.metrics(b.out)
		openLoopProbe(b, srv, xrand.New(b.seed^0x5e7e), openProbeDur)
		return serveProbes(b, srv)
	}
	return nil
}

// sortedValues returns m's values in key order, so a geomean over them
// does not depend on map iteration order.
func sortedValues(m map[string]float64) []float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// layerAcc accumulates per-layer measurements over traced searches.
type layerAcc struct {
	searches                               int
	setup, final, evalBusy, self           time.Duration
	calls, cached, prefetched, useful, pfN int
	suggested, evaluated                   int
	sim                                    simTimes
	replayed                               map[string]bool
	replays                                []replayJob
	extract                                []float64
	traced, plain                          map[string][]float64 // search walls by program
}

func newLayerAcc() *layerAcc {
	return &layerAcc{replayed: map[string]bool{}, traced: map[string][]float64{}, plain: map[string][]float64{}}
}

// replayJob is a traced search's evaluator log awaiting its simulator
// replay.
type replayJob struct {
	in      *searchInput
	log     []step
	inc, fb int64
	trace   string
}

// tracedSearch runs one search through the timing wrapper, returns its
// report and wall seconds, and folds its layer times into acc. The first
// traced search of each program is kept for a simulator replay, and every
// traced search is followed by one timed profile.Extract of its program
// (outside the search's wall time).
func (acc *layerAcc) tracedSearch(b *bench, in *searchInput, ref reference) (*driver.Report, float64, error) {
	trace := fmt.Sprintf("search-%s-%d-%d", in.prog.Name, ref.Seed, acc.searches)
	t0 := time.Now()
	root := b.tr.start(trace, 0, "driver.Search")
	alg := &timedAlg{inner: search.NewCCD(), tr: b.tr, trace: trace, parent: root}
	rep, err := in.search(b, ref, alg)
	b.tr.end(root)
	t1 := time.Now()
	wall := t1.Sub(t0).Seconds()
	if alg.ev == nil {
		return rep, wall, err
	}
	b.tr.add(trace, root, "driver.setup", t0, alg.algStart)
	b.tr.add(trace, root, "driver.final_phase", alg.algEnd, t1)
	ev := alg.ev
	acc.searches++
	acc.setup += alg.algStart.Sub(t0)
	acc.final += t1.Sub(alg.algEnd)
	acc.evalBusy += ev.evalBusy
	acc.self += alg.algEnd.Sub(alg.algStart) - ev.busy
	acc.calls += ev.calls
	acc.cached += ev.cached
	acc.prefetched += ev.prefetched
	u, total := ev.prefetchUseful()
	acc.useful += u
	acc.pfN += total
	if rep != nil {
		acc.suggested += rep.Suggested
		acc.evaluated += rep.Evaluated
	}
	if err == nil && !acc.replayed[in.prog.Name] {
		acc.replayed[in.prog.Name] = true
		inc, fb := ev.inner.DeltaEvalStats()
		acc.replays = append(acc.replays, replayJob{in, ev.log, inc, fb, trace})
	}
	start := mapping.Default(in.g, in.m.Model())
	e0 := time.Now()
	if _, perr := profile.Extract(in.m, in.g, start, sim.Config{NoiseSigma: in.opts.NoiseSigma, Seed: ref.Seed ^ 0x9e37}); perr == nil {
		acc.extract = append(acc.extract, float64(time.Since(e0))/1e6)
	}
	return rep, wall, err
}

// replay runs the kept simulator replays (see replaySim). It runs after
// the timed phases, so the replays' allocations stay out of the GC
// figures.
func (acc *layerAcc) replay(b *bench) {
	for _, j := range acc.replays {
		start := time.Now()
		b.record(replaySim(j.in.m, j.in.g, j.log, j.in.opts.NoiseSigma, j.inc, j.fb, &acc.sim))
		b.tr.add(j.trace, 0, "sim.replay", start, time.Now())
	}
}

func (acc *layerAcc) metrics(out map[string]float64) {
	n := float64(acc.searches)
	sec := func(d time.Duration) float64 { return ratio(d.Seconds(), n) }
	out["driver.setup_s"] = sec(acc.setup)
	out["driver.final_phase_s"] = sec(acc.final)
	out["driver.evaluate_s"] = sec(acc.evalBusy)
	out["driver.evaluate_calls"] = ratio(float64(acc.calls), n)
	out["driver.cache_hit_ratio"] = ratio(float64(acc.cached), float64(acc.calls))
	out["driver.prefetch_cands"] = ratio(float64(acc.prefetched), n)
	out["driver.prefetch_useful_ratio"] = ratio(float64(acc.useful), float64(acc.pfN))
	out["search.ccd_self_s"] = sec(acc.self)
	out["search.suggested"] = ratio(float64(acc.suggested), n)
	out["search.evaluated"] = ratio(float64(acc.evaluated), n)
	out["profile.extract_ms"] = mean(acc.extract)
	acc.sim.metrics(out)
	// Tracing overhead: traced against untraced search wall time, by
	// median per program, summed over the programs measured both ways.
	var tr, pl float64
	for name, t := range acc.traced {
		if p := acc.plain[name]; len(p) > 0 && len(t) > 0 {
			tr += median(t)
			pl += median(p)
		}
	}
	if pl > 0 {
		out["bench.trace_overhead_frac"] = tr/pl - 1
	}
}

// goStats is a snapshot of the Go runtime's GC and allocation counters.
type goStats struct{ gcCPU, totalCPU, allocBytes, cycles float64 }

func readGo() goStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return goStats{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: float64(s[2].Value.Uint64()),
		cycles:     float64(s[3].Value.Uint64()),
	}
}

func (z goStats) minus(a goStats) goStats {
	return goStats{z.gcCPU - a.gcCPU, z.totalCPU - a.totalCPU, z.allocBytes - a.allocBytes, z.cycles - a.cycles}
}

func (z goStats) plus(a goStats) goStats {
	return goStats{z.gcCPU + a.gcCPU, z.totalCPU + a.totalCPU, z.allocBytes + a.allocBytes, z.cycles + a.cycles}
}

// report records the GC cost of the measured phases, whose counter
// deltas d holds, per search completed in them.
func (d goStats) report(searches int, out map[string]float64) {
	out["go.gc_cpu_frac"] = ratio(d.gcCPU, d.totalCPU)
	out["go.alloc_mb_per_search"] = ratio(d.allocBytes/(1<<20), float64(searches))
	out["go.gc_cycles_per_search"] = ratio(d.cycles, float64(searches))
}
