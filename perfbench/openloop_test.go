package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopCountsStall runs an open loop with one sender against a
// handler that stalls its first request. Requests due during the stall
// must carry it in their latency, because latency is timed from the due
// time; timed from the actual send, as internal/loadgen does, they would
// look fast.
func TestOpenLoopCountsStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	const gap = 10 * time.Millisecond
	var first atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	const n = 15 // all due before the stall ends
	var mu sync.Mutex
	fromDue := make([]time.Duration, n)
	fromSend := make([]time.Duration, n)
	start := time.Now().Add(5 * time.Millisecond)
	jobs := make([]job, n)
	for i := range jobs {
		i := i
		jobs[i] = job{due: start.Add(time.Duration(i) * gap), run: func(due time.Time) {
			sent := time.Now()
			resp, err := srv.Client().Get(srv.URL)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			mu.Lock()
			fromDue[i] = time.Since(due)
			fromSend[i] = time.Since(sent)
			mu.Unlock()
		}}
	}
	lags := openLoop(1, jobs)

	if len(lags) != n {
		t.Fatalf("got %d lateness samples, want %d", len(lags), n)
	}
	var maxLag time.Duration
	for _, l := range lags {
		if l > maxLag {
			maxLag = l
		}
	}
	if maxLag < stall-2*gap {
		t.Errorf("generator lateness %v does not show the %v stall", maxLag, stall)
	}
	for i := 1; i < n; i++ {
		// Request i was due i gaps after the stalled one and could not
		// be sent before it returned.
		if want := stall - time.Duration(i)*gap; fromDue[i] < want {
			t.Errorf("request %d: latency from due %v, want at least %v", i, fromDue[i], want)
		}
		if fromSend[i] > stall/2 {
			t.Errorf("request %d: latency from send %v includes the stall", i, fromSend[i])
		}
	}
}
