// Instance: the search-facing simulator entry point. A search evaluates
// thousands of mappings of ONE (machine, program) pair, and the paper's
// measurement protocol runs each candidate several times (7 repeats, 31 for
// finals). Instance amortizes everything that is invariant across those
// runs:
//
//   - topology tables (alias resolution, per-node inventories, channel
//     parameters) are built once at New;
//   - placement plans are cached by mapping key — placement is a pure
//     function of the mapping, so the repeats of one candidate (and any
//     revisit of the same mapping) plan placement exactly once, and OOM
//     verdicts are cached the same way;
//   - a candidate's repeats are one Measure call: the structure pass runs
//     once, into the pooled state's reusable schedule buffers, and every
//     repeat only folds it (schedule.go). The schedule lives for that one
//     call, so no schedule is cached or allocated per candidate;
//   - structure-pass scratch (coherence state and schedule buffers) and
//     fold scratch are recycled through sync.Pools instead of reallocated
//     per run.
//
// Measure and Run are safe for concurrent use. Simulate is New followed by
// one Run.
//
// Concurrency design (DESIGN §15): the worker pool evaluates independent
// candidates, so the hot path is built to share nothing mutable between
// concurrent runs. Shared state is read-mostly and partitioned:
//
//   - the plan cache is sharded by key hash — concurrent runs of different
//     candidates touch different shards, so a cache probe is an
//     uncontended RLock instead of a fight over one global mutex;
//   - noise tapes publish their draw prefix by pointer (copy-on-publish):
//     the fold's read is one atomic load, and the tape mutex is taken
//     only to extend the prefix — which happens O(distinct lengths) times
//     per search, not O(runs). Each pooled fold scratch additionally
//     memoizes its own (seed, sigma) → tape table, so steady-state folds
//     resolve their tape without touching any shared map;
//   - run scratch and fold scratch come from sync.Pools, which are per-P
//     free lists — effectively per-worker run state with no coordination.
//
// Every cache stays a pure function of its key, so a worker can never
// observe a stale-but-wrong entry; duplicate computation under races is
// byte-identical and the second store is harmless.

package sim

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/taskir"
	"automap/internal/xrand"
)

// planCacheLimit bounds the plan cache; when a shard fills, that shard is
// dropped (searches revisit recent mappings heavily, so an occasional
// partial reset is cheaper than tracking recency).
const planCacheLimit = 8192

// planShardCount partitions the plan cache by key hash. 64 shards make a
// concurrent probe by 8–16 workers effectively collision-free while
// keeping the per-Instance footprint trivial. Must be a power of two.
const planShardCount = 64

// planEntry is one cached placement outcome: the committed plan, or the
// *OOMError placement failed with.
type planEntry struct {
	plan *PlacementPlan
	err  error
}

// planShard is one partition of the plan cache.
type planShard struct {
	mu sync.RWMutex
	m  map[string]planEntry
}

// shardSeed keys the shard hash. One process-wide seed is fine: sharding
// is a performance partition, not a security boundary, and a fixed seed
// keeps shard assignment deterministic within a process.
var shardSeed = maphash.MakeSeed()

// planShardFor returns the plan-cache shard of key.
func (in *Instance) planShardFor(key string) *planShard {
	return &in.plans[maphash.String(shardSeed, key)&(planShardCount-1)]
}

// Instance is a reusable simulator for one (machine, program) pair. Create
// one with New and call Run for each (mapping, config); concurrent Run
// calls are safe.
type Instance struct {
	m    *machine.Machine
	g    *taskir.Graph
	topo *topology

	plans [planShardCount]planShard

	pool sync.Pool // *state

	foldPool sync.Pool // *foldScratch

	// Noise tapes by (seed, sigma): the simulator's noise stream is a
	// pure function of the config, not of the mapping, so folds replay a
	// cached tape of draw values instead of re-deriving the log-normal
	// transcendentals (two thirds of a fold's cost otherwise). The map
	// is read-mostly (a search uses a few dozen distinct seeds) and each
	// fold scratch carries its own L1 over it, so the RWMutex is a
	// cold-path cost only.
	noiseMu sync.RWMutex
	noise   map[noiseKey]*noiseTape
}

// noiseCacheLimit bounds the noise-tape cache; the driver derives seeds
// from (base seed, repeat index) alone, so a search touches only a
// handful of distinct tapes.
const noiseCacheLimit = 64

// noiseKey identifies one noise stream.
type noiseKey struct {
	seed  uint64
	sigma float64
}

// noiseTape is the memoized prefix of one noise stream. The drawn prefix
// is published by pointer as an immutable snapshot: readers take one
// atomic load; the mutex guards only the parked RNG and the
// copy-on-publish extension, so concurrent folds of warmed tapes never
// serialize.
type noiseTape struct {
	factors atomic.Pointer[[]float64]
	sigma   float64

	mu  sync.Mutex
	rng xrand.RNG
}

// prefix returns the first n draws of the tape, extending it as needed.
// The returned slice is immutable: extensions publish a fresh copy and
// never touch a snapshot readers may hold.
func (tp *noiseTape) prefix(n int) []float64 {
	if f := tp.factors.Load(); f != nil && len(*f) >= n {
		return (*f)[:n:n]
	}
	tp.mu.Lock()
	defer tp.mu.Unlock()
	var cur []float64
	if f := tp.factors.Load(); f != nil {
		cur = *f
	}
	if len(cur) < n {
		next := make([]float64, len(cur), n)
		copy(next, cur)
		for len(next) < n {
			next = append(next, tp.rng.UnitMeanLogNormal(tp.sigma))
		}
		tp.factors.Store(&next)
		cur = next
	}
	return cur[:n:n]
}

// noiseFactors returns the first n draws of the (seed, sigma) noise
// stream. The returned slice is a stable snapshot: later extensions
// publish new slices and never mutate it. fs, when non-nil, is the
// caller's fold scratch whose local tape table short-circuits the shared
// map.
func (in *Instance) noiseFactors(fs *foldScratch, seed uint64, sigma float64, n int) []float64 {
	k := noiseKey{seed: seed, sigma: sigma}
	if fs != nil {
		if tp, ok := fs.noise[k]; ok {
			return tp.prefix(n)
		}
	}
	tp := in.noiseTape(k)
	if fs != nil {
		if fs.noise == nil {
			fs.noise = make(map[noiseKey]*noiseTape, 8)
		}
		fs.noise[k] = tp
	}
	return tp.prefix(n)
}

// noiseTape resolves (and on first use registers) the tape for k in the
// shared table.
func (in *Instance) noiseTape(k noiseKey) *noiseTape {
	in.noiseMu.RLock()
	tp := in.noise[k]
	in.noiseMu.RUnlock()
	if tp != nil {
		return tp
	}
	in.noiseMu.Lock()
	defer in.noiseMu.Unlock()
	if tp = in.noise[k]; tp != nil {
		return tp
	}
	if len(in.noise) >= noiseCacheLimit {
		in.noise = make(map[noiseKey]*noiseTape)
	}
	tp = newNoiseTape(k)
	in.noise[k] = tp
	return tp
}

// newNoiseTape returns an undrawn tape of k's noise stream: unit-mean
// log-normal factors of sigma k.sigma from an RNG seeded by k.seed.
func newNoiseTape(k noiseKey) *noiseTape {
	return &noiseTape{sigma: k.sigma, rng: *xrand.New(k.seed ^ 0x5bd1e995)}
}

// New builds a reusable simulator instance for program g on machine m.
func New(m *machine.Machine, g *taskir.Graph) *Instance {
	in := &Instance{
		m:     m,
		g:     g,
		topo:  newTopology(m, g),
		noise: make(map[noiseKey]*noiseTape),
	}
	for i := range in.plans {
		in.plans[i].m = make(map[string]planEntry)
	}
	return in
}

// Run executes g under mapping mp and returns the execution result, or an
// *OOMError if the mapping does not fit, reusing the Instance's topology,
// placement plans, and scratch. Callers that already know the mapping's
// key should use RunKeyed to skip recomputing it.
func (in *Instance) Run(mp *mapping.Mapping, cfg Config) (*Result, error) {
	return in.RunKeyed(mp.Key(), mp, cfg)
}

// RunKeyed is Run with the mapping's canonical key (mapping.Key) supplied
// by the caller: Measure with one config.
func (in *Instance) RunKeyed(key string, mp *mapping.Mapping, cfg Config) (*Result, error) {
	return first(in.Measure(key, mp, []Config{cfg}))
}

// Measure runs mp (whose canonical key is key) once per config and returns
// the results in config order, or the *OOMError placement fails with. The
// structure pass runs once, into pooled buffers, and is folded under each
// config. The key must belong to mp: it is the plan-cache identity, and two
// mappings with equal keys have identical decisions and therefore
// identical plans.
func (in *Instance) Measure(key string, mp *mapping.Mapping, cfgs []Config) ([]*Result, error) {
	plan, err := in.planFor(key, mp)
	if err != nil {
		return nil, err
	}
	s := in.getState(plan, nil)
	s.run()
	return in.foldAll(s, cfgs), nil
}

// first returns the single result of a one-config Measure.
func first(res []*Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// getState returns a pooled structure-pass state bound to plan, recording
// into sch — or, when sch is nil, into the state's own reusable buffers.
func (in *Instance) getState(plan *PlacementPlan, sch *schedule) *state {
	s, _ := in.pool.Get().(*state)
	if s == nil {
		s = &state{}
	}
	if sch == nil {
		s.buf.ops, s.buf.execs, s.buf.launches = s.buf.ops[:0], s.buf.execs[:0], s.buf.launches[:0]
		sch = &s.buf
	}
	s.init(plan, sch)
	return s
}

// putState returns s to the pool.
func (in *Instance) putState(s *state) {
	s.PlacementPlan, s.sch = nil, nil
	in.pool.Put(s)
}

// recordBase runs the deep structure pass of plan — the schedule plus the
// coherence pre-states the delta patcher splices against — into a fresh
// schedule that outlives the call (a DeltaInstance base).
func (in *Instance) recordBase(plan *PlacementPlan) *schedule {
	sch := &schedule{deep: true}
	s := in.getState(plan, sch)
	s.run()
	in.putState(s)
	sch.finalize()
	return sch
}

// foldAll finalizes the schedule s recorded, folds it once per config with
// pooled scratch and each config's cached noise tape, and returns s to the
// pool. The results share no storage with the schedule, which the pool
// reuses.
func (in *Instance) foldAll(s *state, cfgs []Config) []*Result {
	sch := s.sch
	sch.finalize()
	fs, _ := in.foldPool.Get().(*foldScratch)
	if fs == nil {
		fs = &foldScratch{}
	}
	out := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		var noise []float64
		if cfg.NoiseSigma > 0 {
			noise = in.noiseFactors(fs, cfg.Seed, cfg.NoiseSigma, len(sch.execs))
		}
		out[i] = foldSchedule(in.topo, s.PlacementPlan, sch, cfg, noise, fs)
	}
	in.foldPool.Put(fs)
	in.putState(s)
	return out
}

// PlanPlacement returns the (possibly cached) placement plan for mp, or
// the *OOMError placement fails with. It is the cached equivalent of the
// package-level PlanPlacement.
func (in *Instance) PlanPlacement(mp *mapping.Mapping) (*PlacementPlan, error) {
	return in.planFor(mp.Key(), mp)
}

// planFor returns the cached placement outcome for key, planning (and
// caching) it on a miss.
func (in *Instance) planFor(key string, mp *mapping.Mapping) (*PlacementPlan, error) {
	sh := in.planShardFor(key)
	sh.mu.RLock()
	e, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		return e.plan, e.err
	}
	// Plan outside the lock: planning is pure, so a racing duplicate
	// computes an identical entry and the second store is harmless.
	plan, err := planPlacement(in.topo, mp)
	e = planEntry{plan: plan, err: err}
	sh.mu.Lock()
	if len(sh.m) >= planCacheLimit/planShardCount {
		sh.m = make(map[string]planEntry)
	}
	sh.m[key] = e
	sh.mu.Unlock()
	return e.plan, e.err
}
