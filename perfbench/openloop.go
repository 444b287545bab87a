package main

import (
	"sort"
	"sync"
	"time"
)

// job is one scheduled request. run sends it at (or after) due and times
// its latency from due, never from the actual send, so a stall in the
// service or the generator shows in every request it delays.
type job struct {
	due time.Time
	run func(due time.Time)
}

// openLoop sends jobs at their due times from `senders` goroutines, one
// connection's worth of work each, and returns once every job has run. A
// job that falls due while every sender is busy waits for one; the
// returned lateness (send time minus due time, one entry per job)
// measures how far behind schedule the generator ran.
func openLoop(senders int, jobs []job) []time.Duration {
	jobs = append([]job(nil), jobs...)
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].due.Before(jobs[j].due) })
	var (
		mu   sync.Mutex
		lags []time.Duration
		wg   sync.WaitGroup
	)
	work := make(chan job)
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				lag := time.Since(j.due)
				j.run(j.due)
				mu.Lock()
				lags = append(lags, lag)
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		if d := time.Until(j.due); d > 0 {
			time.Sleep(d)
		}
		work <- j // blocks while every sender is busy
	}
	close(work)
	wg.Wait()
	return lags
}
