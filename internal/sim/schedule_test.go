// Pinned-result tests of the simulator: every bundled app's default
// mapping must reproduce testdata/results.golden bit for bit through each
// entry point — Simulate, RunKeyed, and the later folds of one Measure —
// with noise, tracing, and copy logging on and off. The incremental path
// (delta.go) is held to the same Results by delta_test.go.
package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/taskir"
)

// appProblems returns every bundled app built at its default input on a
// small Shepard cluster, with the given node count.
func appProblems(t testing.TB, nodes int) map[string]*taskir.Graph {
	t.Helper()
	out := make(map[string]*taskir.Graph)
	for _, name := range apps.Names() {
		app, err := apps.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs, ok := app.Inputs[nodes]
		if !ok || len(inputs) == 0 {
			t.Fatalf("app %s has no input for %d nodes", name, nodes)
		}
		g, err := app.Build(inputs[0], nodes)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g
	}
	return out
}

// requireSameResult fails unless got and want are deeply equal, with a
// field-by-field diagnosis on mismatch.
func requireSameResult(t *testing.T, ctx string, got, want *Result) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	if got.MakespanSec != want.MakespanSec {
		t.Errorf("%s: makespan %v != %v", ctx, got.MakespanSec, want.MakespanSec)
	}
	if got.EnergyJoules != want.EnergyJoules {
		t.Errorf("%s: energy %v != %v", ctx, got.EnergyJoules, want.EnergyJoules)
	}
	if got.BytesCopied != want.BytesCopied || got.BytesOnNetwork != want.BytesOnNetwork || got.NumCopies != want.NumCopies {
		t.Errorf("%s: copies {%d %d %d} != {%d %d %d}", ctx,
			got.BytesCopied, got.BytesOnNetwork, got.NumCopies,
			want.BytesCopied, want.BytesOnNetwork, want.NumCopies)
	}
	if !reflect.DeepEqual(got.TaskWallSec, want.TaskWallSec) {
		t.Errorf("%s: TaskWallSec differs: %v != %v", ctx, got.TaskWallSec, want.TaskWallSec)
	}
	if !reflect.DeepEqual(got.ProcBusySec, want.ProcBusySec) {
		t.Errorf("%s: ProcBusySec differs: %v != %v", ctx, got.ProcBusySec, want.ProcBusySec)
	}
	if !reflect.DeepEqual(got.PeakMemBytes, want.PeakMemBytes) {
		t.Errorf("%s: PeakMemBytes differs", ctx)
	}
	if got.Spills != want.Spills {
		t.Errorf("%s: spills %d != %d", ctx, got.Spills, want.Spills)
	}
	if len(got.Events) != len(want.Events) {
		t.Errorf("%s: %d events != %d", ctx, len(got.Events), len(want.Events))
	} else {
		for i := range got.Events {
			if got.Events[i] != want.Events[i] {
				t.Errorf("%s: event %d: %+v != %+v", ctx, i, got.Events[i], want.Events[i])
				break
			}
		}
	}
	if len(got.Copies) != len(want.Copies) {
		t.Errorf("%s: %d copy events != %d", ctx, len(got.Copies), len(want.Copies))
	} else {
		for i := range got.Copies {
			if got.Copies[i] != want.Copies[i] {
				t.Errorf("%s: copy %d: %+v != %+v", ctx, i, got.Copies[i], want.Copies[i])
				break
			}
		}
	}
	if !t.Failed() {
		t.Errorf("%s: results differ in an uncompared field", ctx)
	}
}

// goldenConfigs are the simulation configs pinned in
// testdata/results.golden.
var goldenConfigs = []struct {
	name string
	cfg  Config
}{
	{"noiseless", Config{}},
	{"sigma0.04-seed42-trace-explain", Config{NoiseSigma: 0.04, Seed: 42, Trace: true, Explain: true}},
	{"sigma0.1-seed7-trace-explain", Config{NoiseSigma: 0.1, Seed: 7, Trace: true, Explain: true}},
	{"sigma0.05-seed3", Config{NoiseSigma: 0.05, Seed: 3}},
}

// resultDigest returns the hex SHA-256 of a canonical encoding of every
// field of res: floats as their bits, maps in sorted key order, and every
// Event and CopyEvent, with nil and empty logs and maps told apart.
func resultDigest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	i := func(v int64) { u(uint64(v)) }
	b := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	// header encodes a collection's nil flag and length.
	header := func(isNil bool, n int) {
		b(isNil)
		i(int64(n))
	}

	f(res.MakespanSec)
	header(res.TaskWallSec == nil, len(res.TaskWallSec))
	tids := make([]taskir.TaskID, 0, len(res.TaskWallSec))
	for tid := range res.TaskWallSec {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(a, b int) bool { return tids[a] < tids[b] })
	for _, tid := range tids {
		i(int64(tid))
		f(res.TaskWallSec[tid])
	}
	i(res.BytesCopied)
	i(res.BytesOnNetwork)
	i(int64(res.NumCopies))
	i(int64(res.Spills))
	header(res.PeakMemBytes == nil, len(res.PeakMemBytes))
	for k := 0; k < machine.NumMemKinds; k++ {
		if v, ok := res.PeakMemBytes[machine.MemKind(k)]; ok {
			i(int64(k))
			i(v)
		}
	}
	header(res.Events == nil, len(res.Events))
	for _, e := range res.Events {
		i(int64(e.Task))
		i(int64(e.Node))
		i(int64(e.Kind))
		i(int64(e.Iteration))
		f(e.StartSec)
		f(e.CopySec)
		f(e.DurSec)
	}
	header(res.Copies == nil, len(res.Copies))
	for _, c := range res.Copies {
		i(int64(c.SrcNode))
		i(int64(c.DstNode))
		i(int64(c.SrcKind))
		i(int64(c.DstKind))
		b(c.Network)
		i(c.Bytes)
		f(c.StartSec)
		f(c.DoneSec)
	}
	header(res.ProcBusySec == nil, len(res.ProcBusySec))
	for k := 0; k < machine.NumProcKinds; k++ {
		if v, ok := res.ProcBusySec[machine.ProcKind(k)]; ok {
			i(int64(k))
			f(v)
		}
	}
	f(res.EnergyJoules)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// readGolden loads testdata/results.golden as a map from each line's
// "app nodes config" prefix to the whole line.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/results.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 5 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		lines[strings.Join(fields[:3], " ")] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestResultsMatchGolden runs every bundled app's default mapping on
// Shepard × {1, 2, 4} under each golden config and requires Simulate,
// RunKeyed, and positions 1 and 2 of Measure(key, mp, {noiseless, cfg,
// cfg}) — later folds of one recorded schedule — to reproduce the pinned
// line: the makespan's float bits and the digest of the whole Result. On a
// mismatch it prints the line it computed.
func TestResultsMatchGolden(t *testing.T) {
	want := readGolden(t)
	seen := 0
	for _, nodes := range []int{1, 2, 4} {
		probs := appProblems(t, nodes)
		names := make([]string, 0, len(probs))
		for name := range probs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			g := probs[name]
			m := cluster.Shepard(nodes)
			mp := mapping.Default(g, m.Model())
			key := mp.Key()
			inst := New(m, g)
			for _, gc := range goldenConfigs {
				id := fmt.Sprintf("%s %d %s", name, nodes, gc.name)
				seen++
				simulated, err := Simulate(m, g, mp, gc.cfg)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				keyed, err := inst.RunKeyed(key, mp, gc.cfg)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				measured, err := inst.Measure(key, mp, []Config{{}, gc.cfg, gc.cfg})
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				for _, r := range []struct {
					path string
					res  *Result
				}{{"Simulate", simulated}, {"RunKeyed", keyed}, {"Measure[1]", measured[1]}, {"Measure[2]", measured[2]}} {
					got := fmt.Sprintf("%s %016x %s", id, math.Float64bits(r.res.MakespanSec), resultDigest(r.res))
					if got != want[id] {
						t.Errorf("%s: got line\n%s\nwant\n%s", r.path, got, want[id])
					}
				}
			}
		}
	}
	if seen != len(want) {
		t.Errorf("golden file has %d lines, the test computes %d", len(want), seen)
	}
}
