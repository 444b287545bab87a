package sim

import (
	"reflect"
	"testing"

	"automap/internal/cluster"
	"automap/internal/machine"
	"automap/internal/mapping"
)

func TestInstanceRunMatchesSimulate(t *testing.T) {
	m := cluster.Shepard(2)
	g := simpleGraph(8, 1<<22)
	md := m.Model()

	var mps []*mapping.Mapping
	for _, k := range []machine.ProcKind{machine.CPU, machine.GPU} {
		for _, dist := range []bool{true, false} {
			mp := mapping.Default(g, md)
			for _, task := range g.Tasks {
				mp.SetProc(task.ID, k)
				mp.RebuildPriorityLists(md, task.ID)
				mp.SetDistribute(task.ID, dist)
			}
			mps = append(mps, mp)
		}
	}

	inst := New(m, g)
	// Interleave mappings and repeat the sweep so pooled state and cached
	// plans are reused across differing runs — any cross-run aliasing or
	// stale scratch shows up as a result mismatch.
	for round := 0; round < 3; round++ {
		for i, mp := range mps {
			cfg := Config{NoiseSigma: 0.05, Seed: uint64(100*round + i)}
			want, errW := Simulate(m, g, mp, cfg)
			got, errG := inst.Run(mp, cfg)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("round %d mapping %d: Simulate err=%v, Instance.Run err=%v", round, i, errW, errG)
			}
			if errW != nil {
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("round %d mapping %d: Instance.Run result differs from Simulate:\nwant %+v\ngot  %+v", round, i, want, got)
			}
		}
	}
}

func TestInstanceResultsDetached(t *testing.T) {
	m := cluster.Shepard(1)
	g := simpleGraph(4, 1<<20)
	mp := mapping.Default(g, m.Model())
	inst := New(m, g)

	a, err := inst.Run(mp, Config{NoiseSigma: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := *a
	wall := make(map[int64]float64)
	for k, v := range a.TaskWallSec {
		wall[int64(k)] = v
	}
	// A second run recycles the pooled state; the first result must not
	// change underneath the caller.
	if _, err := inst.Run(mp, Config{NoiseSigma: 0.1, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if a.MakespanSec != snapshot.MakespanSec || a.BytesCopied != snapshot.BytesCopied {
		t.Fatal("earlier result mutated by a later run")
	}
	for k, v := range a.TaskWallSec {
		if wall[int64(k)] != v {
			t.Fatal("earlier result's TaskWallSec mutated by a later run")
		}
	}
}

// TestPlanCacheHitMiss checks the plan cache by plan identity: the
// repeats of one mapping (the 7-repeat protocol) reuse the plan built by
// the first run, and a different mapping gets a plan of its own.
func TestPlanCacheHitMiss(t *testing.T) {
	m := cluster.Shepard(1)
	g := simpleGraph(4, 1<<20)
	md := m.Model()
	inst := New(m, g)

	mp := mapping.Default(g, md)
	if _, err := inst.Run(mp, Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	first, err := inst.PlanPlacement(mp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := inst.Run(mp, Config{Seed: uint64(2 + i)}); err != nil {
			t.Fatal(err)
		}
		if p, _ := inst.PlanPlacement(mp); p != first {
			t.Fatalf("repeat %d: plan rebuilt for a cached mapping", i)
		}
	}
	// A different mapping misses.
	mp2 := mapping.Default(g, md)
	mp2.SetDistribute(0, !mp2.Decision(0).Distribute)
	if _, err := inst.Run(mp2, Config{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	second, err := inst.PlanPlacement(mp2)
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Fatal("a different mapping was served the first mapping's plan")
	}
	if p, _ := inst.PlanPlacement(mp2); p != second {
		t.Fatal("plan rebuilt for the second cached mapping")
	}
}
