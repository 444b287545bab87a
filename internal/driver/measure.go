// The shared measurement path: every repeated-run protocol in the driver —
// candidate evaluation (7 repeats), final re-measurement (31 repeats), and
// baseline MeasureMapping — is simulator Measure calls (one structure pass,
// one fold per repeat) with order-independent noise seeds. A Prefetch batch
// measures each candidate with one call; measureRuns measures one mapping
// by splitting its repeats into at most `workers` contiguous chunks,
// measured concurrently, one call per chunk.
//
// Seed derivation: each run's seed is a hash of (base seed, repeat index).
// This replaced a sequential runSeed++ counter, whose seeds depended on how
// many runs had executed before — meaning the measurement of a mapping
// changed with suggestion order, and concurrent or speculative evaluation
// would have perturbed results. With derived seeds a mapping's measurement
// is a pure function of (base seed, mapping), so repeats may run in any
// order and on any number of workers, speculative results are exactly the
// results a later sequential evaluation would produce, and the search
// trajectory is identical at every worker count.
//
// The seed deliberately does NOT include the mapping key: every candidate's
// repeat i experiences the same noise draw sequence (common random numbers,
// the standard variance-reduction protocol for comparing alternatives
// under simulated noise), and the simulator can memoize the per-seed noise
// tape across the thousands of candidate evaluations of a search instead
// of re-deriving log-normal draws for every run (see sim's noise tapes and
// DESIGN §14).

package driver

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"

	"automap/internal/mapping"
	"automap/internal/sim"
)

// runSeed derives the noise seed of one simulation run from the search's
// base seed and the repeat index (FNV-1a).
func runSeed(base uint64, repeat int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], base)
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(repeat))
	h.Write(b[:])
	return h.Sum64()
}

// resolveWorkers maps an Options.Workers value to the effective pool width:
// non-positive means GOMAXPROCS, and positive values are clamped to
// GOMAXPROCS. Simulations are pure CPU work, so workers beyond the
// scheduler's parallelism cannot add throughput — they only add context
// switches: a Prefetch batch or a chunked measurement spreads over
// `workers` goroutines, and on a single-core host an unclamped
// `-workers 8` would have eight of them take turns on the one core. The
// clamp makes `-workers N` mean "up to N", never "pretend you have N
// cores".
func resolveWorkers(w int) int {
	max := runtime.GOMAXPROCS(0)
	if w <= 0 || w > max {
		return max
	}
	return w
}

// simRunner is the simulator surface the measurement path needs: one
// candidate measured under a list of configs. Satisfied by both
// *sim.Instance (full structure pass) and *sim.DeltaInstance (incremental
// re-simulation against the search incumbent); both return bit-identical
// results for any input, so which one backs an evaluator never affects what
// is measured — only how fast.
type simRunner interface {
	Measure(key string, mp *mapping.Mapping, cfgs []sim.Config) ([]*sim.Result, error)
}

// runConfigs returns the configs of `repeats` runs at noise level noise,
// run i seeded runSeed(base, i). A non-positive repeat count returns none.
func runConfigs(repeats int, noise float64, base uint64) []sim.Config {
	cfgs := make([]sim.Config, max(repeats, 0))
	for i := range cfgs {
		cfgs[i] = sim.Config{NoiseSigma: noise, Seed: runSeed(base, i)}
	}
	return cfgs
}

// measureRuns measures mp (whose canonical key is key) under cfgs. The
// configs are split into at most `workers` contiguous chunks, measured
// concurrently by one Measure call each: a chunk pays one structure pass,
// so fewer chunks save work and more chunks use idle workers. Its callers
// (the search loop, the final phase, MeasureMapping) are sequential, so
// nothing else measures meanwhile. Results are returned in config order
// and are deterministic regardless of scheduling; a run that failed has a
// nil result, and the first chunk's error in config order is returned
// (placement failure is a function of the mapping, so every chunk fails
// alike).
func measureRuns(inst simRunner, key string, mp *mapping.Mapping, cfgs []sim.Config, workers int) ([]*sim.Result, error) {
	results := make([]*sim.Result, len(cfgs))
	n := min(workers, len(cfgs))
	errs := make([]error, n)
	parallel(n, n, nil, func(_, c int) {
		lo, hi := c*len(cfgs)/n, (c+1)*len(cfgs)/n
		res, err := inst.Measure(key, mp, cfgs[lo:hi])
		copy(results[lo:hi], res)
		errs[c] = err
	})
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// parallel calls fn(w, i) for every i < n on at most `workers` goroutines,
// w being the goroutine's index. Each goroutine takes the next i from a
// shared counter, and stops before taking one once stop (if non-nil)
// reports true. parallel returns when every goroutine has.
func parallel(n, workers int, stop func() bool, fn func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stop == nil || !stop() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
