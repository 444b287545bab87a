package fleet

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// fakeClock is a hand-advanced telemetry.Clock. It is locked because a
// router handler may still read it (to observe its proxy latency) after
// the client has its response and the test advances the clock.
type fakeClock struct {
	mu  sync.Mutex
	now float64
}

func (c *fakeClock) clock() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(dt float64) {
	c.mu.Lock()
	c.now += dt
	c.mu.Unlock()
}

func TestAdmitUnlimitedByDefault(t *testing.T) {
	c := &fakeClock{}
	a := NewAdmission(Quota{}, nil, c.clock)
	for i := 0; i < 1000; i++ {
		if ok, retry := a.Admit("anyone"); !ok || retry != 0 {
			t.Fatalf("unlimited quota shed request %d (retry %v)", i, retry)
		}
	}
}

func TestAdmitBurstThenShed(t *testing.T) {
	c := &fakeClock{}
	a := NewAdmission(Quota{RPS: 2, Burst: 3}, nil, c.clock)
	for i := 0; i < 3; i++ {
		if ok, _ := a.Admit("t"); !ok {
			t.Fatalf("request %d within burst was shed", i)
		}
	}
	ok, retry := a.Admit("t")
	if ok {
		t.Fatal("request over burst was admitted")
	}
	// The bucket is at 0 tokens and refills at 2/s: a whole token is
	// 0.5s away.
	if math.Abs(retry-0.5) > 1e-9 {
		t.Fatalf("retryAfter = %v, want 0.5", retry)
	}
}

func TestAdmitRefill(t *testing.T) {
	c := &fakeClock{}
	a := NewAdmission(Quota{RPS: 1, Burst: 1}, nil, c.clock)
	if ok, _ := a.Admit("t"); !ok {
		t.Fatal("first request shed")
	}
	if ok, _ := a.Admit("t"); ok {
		t.Fatal("empty bucket admitted")
	}
	c.advance(1.0)
	if ok, _ := a.Admit("t"); !ok {
		t.Fatal("refilled bucket shed")
	}
	// Refill is capped at burst: a long idle period buys one token, not
	// a backlog of them.
	c.advance(100)
	if ok, _ := a.Admit("t"); !ok {
		t.Fatal("bucket empty after long idle")
	}
	if ok, _ := a.Admit("t"); ok {
		t.Fatal("idle time accumulated beyond burst")
	}
}

func TestAdmitTenantsIsolated(t *testing.T) {
	c := &fakeClock{}
	a := NewAdmission(Quota{RPS: 1, Burst: 1}, nil, c.clock)
	if ok, _ := a.Admit("a"); !ok {
		t.Fatal("tenant a shed")
	}
	if ok, _ := a.Admit("b"); !ok {
		t.Fatal("tenant b shed after a drained its own bucket")
	}
	if ok, _ := a.Admit("a"); ok {
		t.Fatal("tenant a admitted from b's tokens")
	}
}

func TestAdmitOverrides(t *testing.T) {
	c := &fakeClock{}
	a := NewAdmission(Quota{RPS: 1, Burst: 1},
		map[string]Quota{"batch": {RPS: 1, Burst: 5}, "free": {}}, c.clock)
	for i := 0; i < 5; i++ {
		if ok, _ := a.Admit("batch"); !ok {
			t.Fatalf("batch request %d within its override burst was shed", i)
		}
	}
	if ok, _ := a.Admit("batch"); ok {
		t.Fatal("batch admitted over its burst")
	}
	// A zero-value override means unlimited for that tenant even though
	// the default limits.
	for i := 0; i < 100; i++ {
		if ok, _ := a.Admit("free"); !ok {
			t.Fatal("unlimited override shed")
		}
	}
}

func TestAdmitDefaultBurst(t *testing.T) {
	c := &fakeClock{}
	// Burst unset: capacity defaults to ceil(RPS), at least 1.
	a := NewAdmission(Quota{RPS: 2.5}, nil, c.clock)
	admitted := 0
	for i := 0; i < 10; i++ {
		if ok, _ := a.Admit("t"); ok {
			admitted++
		}
	}
	if admitted != 3 {
		t.Fatalf("admitted %d with RPS 2.5 and default burst, want ceil(2.5) = 3", admitted)
	}
}

// TestAdmitTenantBound: the bucket map resets instead of growing without
// bound under adversarial tenant names.
func TestAdmitTenantBound(t *testing.T) {
	c := &fakeClock{}
	a := NewAdmission(Quota{RPS: 1}, nil, c.clock)
	for i := 0; i < maxTenants+10; i++ {
		a.Admit(fmt.Sprintf("tenant-%d", i))
	}
	a.mu.Lock()
	n := len(a.buckets)
	a.mu.Unlock()
	if n > maxTenants {
		t.Fatalf("bucket map grew to %d entries, bound is %d", n, maxTenants)
	}
}
