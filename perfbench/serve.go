package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"automap/internal/fleet"
	"automap/internal/serve"
	"automap/internal/serve/store"
	"automap/internal/taskir"
	"automap/internal/xrand"
)

// Serving parameters. warmRate sits well below the fleet's warm capacity
// on a 2-core host (about 2,000 requests/s for htr results), and quotaRPS
// far above both, so admission runs on every submission but never sheds.
const (
	warmRate     = 400.0           // offered warm requests/s in the open-loop probe
	openProbeDur = 2 * time.Second // length of the open-loop probe
	quotaRPS     = 1e6
	zipfS        = 1.1
)

// serving is a booted fleet with its warm keys and their popularity.
type serving struct {
	f       *fleetHandle
	keys    []warmKey
	z       zipf
	scrape0 map[string]float64
}

// servedSearch is one search request to the fleet and its reference.
type servedSearch struct {
	prog program
	g    *taskir.Graph
	ref  reference
}

// setupServing boots a fleet in directory name under the run's scratch
// directory and finishes each search on it, in order, checking each
// result against its reference. The finished searches are the warm keys,
// in order of popularity.
func setupServing(b *bench, name string, specs []servedSearch) (*serving, error) {
	f, err := startFleet(filepath.Join(b.dir, name), 2, quotaRPS, b.workers)
	if err != nil {
		return nil, err
	}
	s := &serving{f: f, z: newZipf(len(specs), zipfS)}
	if s.scrape0, err = f.scrape(); err != nil {
		f.shutdown()
		return nil, err
	}
	for _, sp := range specs {
		body := sp.prog.requestBody(sp.ref.Seed)
		r, err := f.await(body)
		if err == nil {
			err = checkServed(r.doc.Result, sp.g, sp.ref)
		}
		b.record(err)
		if err != nil {
			f.shutdown()
			return nil, fmt.Errorf("warming %s seed %d: %w", sp.prog.Name, sp.ref.Seed, err)
		}
		s.keys = append(s.keys, warmKey{body: body, id: r.doc.ID, owner: r.routed, result: r.doc.Result})
	}
	return s, nil
}

// checkWarm verifies a reply to a warm request: success, finished, and the
// exact result bytes the fleet returned when the search first finished.
func checkWarm(r reply, err error, k warmKey) error {
	if err == nil {
		err = r.err()
	}
	if err == nil && (!r.done() || !bytes.Equal(r.doc.Result, k.result)) {
		err = fmt.Errorf("warm request %s: result differs from the warm-up result", k.id)
	}
	return err
}

// zipf draws indexes in [0, n) with weight 1/(i+1)^s.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) zipf {
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return zipf{cum}
}

func (z zipf) draw(rng *xrand.RNG) int {
	i := sort.SearchFloat64s(z.cum, rng.Float64())
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return i
}

// cold sends one new fingerprint through the router and waits until a
// reply carries its finished result. It returns the seconds from sending
// (the request's due time: the caller's previous request has just
// finished) to that reply, and checks the result against its reference.
func (s *serving) cold(b *bench, c servedSearch) (float64, error) {
	trace := fmt.Sprintf("cold-%s-%d", c.prog.Name, c.ref.Seed)
	due := time.Now()
	id := b.tr.start(trace, 0, "cold_request")
	r, err := s.f.await(c.prog.requestBody(c.ref.Seed))
	b.tr.end(id)
	lat := time.Since(due).Seconds()
	if err == nil {
		err = checkServed(r.doc.Result, c.g, c.ref)
	}
	if err != nil {
		err = fmt.Errorf("cold %s seed %d: %w", c.prog.Name, c.ref.Seed, err)
	}
	return lat, err
}

// closedLoop runs b.workers clients that send warm requests back to back
// for dur, each drawing keys Zipf(1.1) from its own split of rng. A
// client's next request is due when its previous one finished, and
// latency is timed from then. It returns the latencies of the completed
// requests in ms and the time the loop ran.
func (s *serving) closedLoop(b *bench, rng *xrand.RNG, dur time.Duration) ([]float64, time.Duration) {
	var (
		mu   sync.Mutex
		lats []float64
		wg   sync.WaitGroup
	)
	rngs := make([]*xrand.RNG, b.workers)
	for c := range rngs {
		rngs[c] = rng.Split()
	}
	start := time.Now()
	deadline := start.Add(dur)
	for _, crng := range rngs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := s.keys[s.z.draw(crng)]
				due := time.Now()
				r, err := s.f.submit(s.f.url, k.body)
				lat := float64(time.Since(due)) / 1e6
				err = checkWarm(r, err, k)
				b.record(err)
				if err == nil {
					mu.Lock()
					lats = append(lats, lat)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return lats, time.Since(start)
}

// openLoopProbe offers an open-loop load of warm requests through the
// router for dur: warmRate requests/s at the times of a Poisson process
// conditioned on its count (uniform times, sorted), keys drawn Zipf(1.1).
// Each request is checked like any warm request, and the generator's
// lateness goes to bench.gen_lag_ms_p99.
func openLoopProbe(b *bench, s *serving, rng *xrand.RNG, dur time.Duration) {
	at := make([]float64, int(warmRate*dur.Seconds()))
	for i := range at {
		at[i] = rng.Float64() * dur.Seconds()
	}
	sort.Float64s(at)
	start := time.Now().Add(10 * time.Millisecond)
	jobs := make([]job, len(at))
	for i, t := range at {
		k := s.keys[s.z.draw(rng)]
		trace := fmt.Sprintf("warm-%d-%d", b.seed, i)
		jobs[i] = job{due: start.Add(time.Duration(t * float64(time.Second))), run: func(due time.Time) {
			id := b.tr.start(trace, 0, "warm_request")
			r, err := s.f.submit(s.f.url, k.body)
			b.tr.end(id)
			b.record(checkWarm(r, err, k))
		}}
	}
	for _, l := range openLoop(b.workers, jobs) {
		b.lag(l)
	}
}

// serveProbes measures the serving layers from outside, on the run's
// fleet and warm keys: submit and status latency straight to the owning
// replica, the router hop, request fingerprinting, queue/search/coalescing
// figures from /metrics deltas since the fleet booted, store operations on
// a scratch store, and the admission check.
func serveProbes(b *bench, srv *serving) error {
	const n = 200
	f := srv.f
	var routed, direct, status, fp []float64
	for i := 0; i < n; i++ {
		k := srv.keys[i%len(srv.keys)]
		owner := f.replicas[k.owner]
		if owner == "" {
			return fmt.Errorf("warm key %s has no known owner", k.id)
		}
		trace := fmt.Sprintf("probe-%d", i)

		t0 := time.Now()
		r, err := f.submit(f.url, k.body)
		t1 := time.Now()
		b.record(checkWarm(r, err, k))
		r, err = f.submit(owner, k.body)
		t2 := time.Now()
		b.record(checkWarm(r, err, k))
		r, err = f.status(owner, k.id)
		t3 := time.Now()
		b.record(checkWarm(r, err, k))
		b.tr.add(trace, 0, "router.submit", t0, t1)
		b.tr.add(trace, 0, "replica.submit", t1, t2)
		b.tr.add(trace, 0, "replica.status", t2, t3)
		routed = append(routed, float64(t1.Sub(t0))/1e6)
		direct = append(direct, float64(t2.Sub(t1))/1e6)
		status = append(status, float64(t3.Sub(t2))/1e6)

		var req serve.Request
		if err := json.Unmarshal(k.body, &req); err != nil {
			return err
		}
		t4 := time.Now()
		err = req.Normalize()
		if err == nil {
			_, err = req.Fingerprint()
		}
		fp = append(fp, float64(time.Since(t4))/1e3)
		b.record(err)
	}
	b.out["serve.submit_ms_p50"] = median(direct)
	b.out["serve.status_ms_p50"] = median(status)
	b.out["fleet.router_hop_ms_p50"] = median(routed) - median(direct)
	b.out["serve.fingerprint_us"] = mean(fp)

	s1, err := f.scrape()
	if err != nil {
		return err
	}
	d := func(name string) float64 { return s1[name] - srv.scrape0[name] }
	b.out["serve.queue_wait_ms_mean"] = 1000 * ratio(d("serve.queue.wait_sec.sum"), d("serve.queue.wait_sec.count"))
	b.out["serve.search_s_mean"] = ratio(d("serve.search.duration_sec.sum"), d("serve.search.duration_sec.count"))
	b.out["serve.coalesce_hit_ratio"] = ratio(d("serve.searches.coalesced"), d("serve.searches.coalesced")+d("serve.searches.started"))

	if err := storeProbe(b, srv.keys[0]); err != nil {
		return err
	}
	a := fleet.NewAdmission(fleet.Quota{RPS: quotaRPS}, nil, nil)
	const admits = 100000
	t0 := time.Now()
	for i := 0; i < admits; i++ {
		if ok, _ := a.Admit("default"); !ok {
			return fmt.Errorf("admission shed under a %g rps quota", float64(quotaRPS))
		}
	}
	b.out["fleet.admit_us"] = float64(time.Since(t0)) / 1e3 / admits
	return nil
}

// storeProbe times Store.Begin on an existing finished entry and
// Entry.Complete with a result-sized document, on a scratch store.
func storeProbe(b *bench, k warmKey) error {
	st, err := store.Open(filepath.Join(b.dir, "store-probe"))
	if err != nil {
		return err
	}
	const n = 100
	var complete, hit time.Duration
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%024x", i+1)
		e, owner, err := st.Begin(key, k.body)
		if err != nil {
			return err
		}
		if !owner {
			return fmt.Errorf("store probe: fresh key %s already present", key)
		}
		e.Start()
		t0 := time.Now()
		if err := e.Complete(k.result); err != nil {
			return err
		}
		t1 := time.Now()
		if _, owner, err = st.Begin(key, k.body); err != nil || owner {
			return fmt.Errorf("store probe: finished key %s not found (owner %v, err %v)", key, owner, err)
		}
		hit += time.Since(t1)
		complete += t1.Sub(t0)
	}
	b.out["store.complete_ms"] = float64(complete) / 1e6 / n
	b.out["store.begin_hit_us"] = float64(hit) / 1e3 / n
	return nil
}
