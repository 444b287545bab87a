package main

import (
	"fmt"
	"time"

	"automap/internal/mapping"
	"automap/internal/search"
)

// timedAlg wraps the search algorithm handed to driver.Search. It records
// when the driver hands over to the algorithm and when the algorithm
// returns, and passes the algorithm a timedEval around the driver's
// evaluator. It changes nothing the search computes: every call is
// forwarded unchanged. The driver's evaluators implement both optional
// evaluator interfaces, and so does the wrapper.
type timedAlg struct {
	inner  search.Algorithm
	tr     *tracer
	trace  string
	parent int

	algStart, algEnd time.Time
	ev               *timedEval
}

func (a *timedAlg) Name() string { return a.inner.Name() }

func (a *timedAlg) Search(p *search.Problem, ev search.Evaluator, b search.Budget) *search.Outcome {
	inner, ok := ev.(fullEvaluator)
	if !ok {
		panic(fmt.Sprintf("perfbench: evaluator %T lacks Prefetch or SetDeltaBase", ev))
	}
	a.ev = &timedEval{inner: inner, tr: a.tr, trace: a.trace, keys: map[string]bool{}}
	a.algStart = time.Now()
	a.ev.span = a.tr.start(a.trace, a.parent, "search.Algorithm.Search")
	out := a.inner.Search(p, a.ev, b)
	a.tr.end(a.ev.span)
	a.algEnd = time.Now()
	return out
}

// step is one entry of the evaluator call log the sim replay consumes: a
// candidate the driver measured fresh, or a new delta base.
type step struct {
	mp   *mapping.Mapping
	base bool
}

// fullEvaluator is what the driver hands the algorithm: an evaluator with
// both optional extensions.
type fullEvaluator interface {
	search.BatchEvaluator
	search.DeltaEvaluator
}

// timedEval times and counts calls into the driver's evaluator. All calls
// arrive on the search goroutine, so it needs no locking.
type timedEval struct {
	inner fullEvaluator
	tr    *tracer
	trace string
	span  int

	busy        time.Duration // all forwarded calls
	evalBusy    time.Duration // Evaluate only
	calls       int
	cached      int
	prefetched  int
	prefetchSet map[string]bool
	keys        map[string]bool // keys evaluated fresh
	log         []step
}

func (t *timedEval) Evaluate(mp *mapping.Mapping) search.Evaluation {
	start := time.Now()
	res := t.inner.Evaluate(mp)
	end := time.Now()
	t.tr.add(t.trace, t.span, "driver.Evaluate", start, end)
	t.busy += end.Sub(start)
	t.evalBusy += end.Sub(start)
	t.calls++
	if res.Cached {
		t.cached++
	} else {
		t.keys[mp.Key()] = true
		t.log = append(t.log, step{mp: mp.Clone()})
	}
	return res
}

func (t *timedEval) SearchTimeSec() float64 {
	start := time.Now()
	v := t.inner.SearchTimeSec()
	t.busy += time.Since(start)
	return v
}

func (t *timedEval) ChargeOverhead(sec float64) {
	start := time.Now()
	t.inner.ChargeOverhead(sec)
	t.busy += time.Since(start)
}

func (t *timedEval) Prefetch(cands []*mapping.Mapping) {
	start := time.Now()
	t.inner.Prefetch(cands)
	end := time.Now()
	t.tr.add(t.trace, t.span, "driver.Prefetch", start, end)
	t.busy += end.Sub(start)
	t.prefetched += len(cands)
	if t.prefetchSet == nil {
		t.prefetchSet = map[string]bool{}
	}
	for _, mp := range cands {
		t.prefetchSet[mp.Key()] = true
	}
}

func (t *timedEval) SetDeltaBase(mp *mapping.Mapping) {
	start := time.Now()
	t.inner.SetDeltaBase(mp)
	t.busy += time.Since(start)
	t.log = append(t.log, step{mp: mp.Clone(), base: true})
}

func (t *timedEval) DeltaEvalStats() (int64, int64) {
	start := time.Now()
	inc, fb := t.inner.DeltaEvalStats()
	t.busy += time.Since(start)
	return inc, fb
}

// prefetchUseful returns how many distinct prefetched keys were later
// evaluated fresh, and how many distinct keys were prefetched.
func (t *timedEval) prefetchUseful() (useful, total int) {
	for k := range t.prefetchSet {
		if t.keys[k] {
			useful++
		}
	}
	return useful, len(t.prefetchSet)
}
