package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/driver"
	"automap/internal/machine"
	"automap/internal/search"
	"automap/internal/taskir"
	"automap/internal/xrand"
)

// program is one search input: an application input on a Shepard cluster.
// Pool is how many reference seeds the oracle keeps for it. For a program
// a workload searches, the first is the set-up seed, the same in every
// run; a run searches a window of searchWindow consecutive entries of the
// rest directly and sends the others to the fleet as cold requests, an
// equal share in each cycle.
type program struct {
	Name  string
	App   string
	Input string
	Nodes int
	Pool  int
}

// The benchmark's search inputs. htr sends one cold request a cycle and
// the small programs three each, so that search-small's cold percentiles
// rest on 144 samples a run. circuit-tiny searches take a few
// milliseconds; the fleet finishes its whole pool at set-up, and warm
// requests draw from it.
var programs = map[string]program{
	"htr":          {"htr", "htr", "32x256y36z", 2, 1 + searchWindow + cycles},
	"stencil":      {"stencil", "stencil", "2000x2000", 4, 1 + searchWindow + 3*cycles},
	"circuit":      {"circuit", "circuit", "n1600w6400", 4, 1 + searchWindow + 3*cycles},
	"maestro":      {"maestro", "maestro", "r32k32", 2, 1 + searchWindow + 3*cycles},
	"circuit-tiny": {"circuit-tiny", "circuit", "n100w400", 2, 24},
}

// htrEvaluated is the trajectory length the search-htr workload is
// defined on: CCD on htr 32x256y36z takes either a 462- or a 604-evaluation
// trajectory depending on the seed, and a pool mixing both would make the
// median search time jump between the two modes from run to run. The
// oracle keeps only seeds of the 462-evaluation trajectory.
const htrEvaluated = 462

// build materializes the program the way mapd does for the equivalent
// request: paper protocol options, Maestro's low-fidelity tasks tunable.
func (p program) build() (*machine.Machine, *taskir.Graph, driver.Options, error) {
	app, err := apps.Get(p.App)
	if err != nil {
		return nil, nil, driver.Options{}, err
	}
	g, err := app.Build(p.Input, p.Nodes)
	if err != nil {
		return nil, nil, driver.Options{}, err
	}
	opts := driver.DefaultOptions()
	if p.App == "maestro" {
		opts.Tunable = apps.MaestroTunable(g)
	}
	return cluster.Shepard(p.Nodes), g, opts, nil
}

// requestBody is the POST /v1/search document for p at seed.
func (p program) requestBody(seed uint64) []byte {
	b, _ := json.Marshal(map[string]any{"app": p.App, "input": p.Input, "nodes": p.Nodes, "seed": seed})
	return b
}

// reference is the expected outcome of one (program, seed) search.
type reference struct {
	Seed      uint64  `json:"seed"`
	BestKey   string  `json:"best_key"`
	FinalSec  float64 `json:"final_sec"`
	SearchSec float64 `json:"search_sec"`
	StartSec  float64 `json:"start_sec"`
}

// oracle maps a program name to its reference pool.
type oracle map[string][]reference

func loadOracle(path string) (oracle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var o oracle
	if err := json.Unmarshal(data, &o); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	for name, p := range programs {
		if len(o[name]) != p.Pool {
			return nil, fmt.Errorf("%s: program %s has %d references, want %d", path, name, len(o[name]), p.Pool)
		}
	}
	return o, nil
}

// setupRef returns program name's set-up seed, the first in its pool.
func (o oracle) setupRef(name string) reference { return o[name][0] }

// rotation returns the pool entries of program name after the set-up seed,
// starting at an offset derived from the benchmark seed and wrapping
// around.
func (o oracle) rotation(name string, benchSeed uint64) []reference {
	pool := o[name][1:]
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", name, benchSeed)
	start := int(h.Sum64() % uint64(len(pool)))
	out := make([]reference, len(pool))
	for i := range out {
		out[i] = pool[(start+i)%len(pool)]
	}
	return out
}

// check compares a finished search with its reference. Every field must
// match exactly: the search stack is deterministic for a fixed seed.
func (r reference) check(bestKey string, finalSec, searchSec, startSec float64) error {
	if bestKey != r.BestKey || finalSec != r.FinalSec || searchSec != r.SearchSec || startSec != r.StartSec {
		return fmt.Errorf("seed %d: got (%s, final %v, search %v, start %v), want (%s, final %v, search %v, start %v)",
			r.Seed, bestKey, finalSec, searchSec, startSec, r.BestKey, r.FinalSec, r.SearchSec, r.StartSec)
	}
	return nil
}

// genOracle searches candidate seeds of every program and writes the
// reference pools to path.
func genOracle(path string) error {
	o := oracle{}
	for _, name := range []string{"htr", "stencil", "circuit", "maestro", "circuit-tiny"} {
		p := programs[name]
		m, g, opts, err := p.build()
		if err != nil {
			return err
		}
		opts.Workers = runtime.NumCPU()
		rng := xrand.New(fnv64(name))
		for len(o[name]) < p.Pool {
			seed := rng.Uint64()>>1 | 1
			opts.Seed = seed
			rep, err := driver.Search(m, g, search.NewCCD(), opts, search.Budget{})
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if name == "htr" && rep.Evaluated != htrEvaluated {
				continue
			}
			o[name] = append(o[name], reference{Seed: seed, BestKey: rep.Best.Key(),
				FinalSec: rep.FinalSec, SearchSec: rep.SearchSec, StartSec: rep.StartSec})
		}
		fmt.Fprintf(os.Stderr, "oracle: %s: %d references\n", name, len(o[name]))
	}
	data, err := json.MarshalIndent(o, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
