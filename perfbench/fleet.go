package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"automap/internal/fleet"
	"automap/internal/mapping"
	"automap/internal/taskir"
)

// pollEvery is how often a search's status is polled when its span
// stream has closed but the status is not yet final.
const pollEvery = 2 * time.Millisecond

// fleetHandle is an in-process mapfleet router over mapd replicas, each on
// a loopback listener, built the way cmd/loadgen -selfhost builds it.
type fleetHandle struct {
	url      string            // router base URL
	replicas map[string]string // replica name -> base URL
	client   *http.Client
	shutdown func()
}

// startFleet boots n replicas with stores under dir and a router with a
// default tenant quota of quotaRPS. The returned client holds at most
// conns connections per host.
func startFleet(dir string, n int, quotaRPS float64, conns int) (*fleetHandle, error) {
	listeners := make([]net.Listener, n)
	peers := make(map[string]string, n)
	closeAll := func() {
		for _, l := range listeners {
			if l != nil {
				l.Close()
			}
		}
	}
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, err
		}
		listeners[i] = l
		peers[fmt.Sprintf("r%d", i)] = "http://" + l.Addr().String()
	}
	reps := make([]*fleet.Replica, 0, n)
	servers := make([]*http.Server, 0, n)
	stopReplicas := func() {
		for i, rep := range reps {
			rep.Server().Drain()
			servers[i].Close()
			rep.Close()
		}
	}
	for i := 0; i < n; i++ {
		rep, err := fleet.NewReplica(fleet.ReplicaConfig{
			Name:  fmt.Sprintf("r%d", i),
			Peers: peers,
			Dir:   filepath.Join(dir, fmt.Sprintf("r%d", i)),
		})
		if err != nil {
			stopReplicas()
			closeAll()
			return nil, err
		}
		srv := &http.Server{Handler: rep.Handler()}
		reps = append(reps, rep)
		servers = append(servers, srv)
		go srv.Serve(listeners[i])
	}
	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Replicas:    peers,
		Quota:       fleet.Quota{RPS: quotaRPS},
		HealthEvery: 500 * time.Millisecond,
	})
	if err != nil {
		stopReplicas()
		return nil, err
	}
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		stopReplicas()
		return nil, err
	}
	rs := &http.Server{Handler: rt.Handler()}
	go rs.Serve(rl)
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &fleetHandle{
		url:      "http://" + rl.Addr().String(),
		replicas: peers,
		client:   &http.Client{Transport: transport, Timeout: 60 * time.Second},
		shutdown: func() {
			transport.CloseIdleConnections()
			rs.Close()
			rt.Close()
			stopReplicas()
			os.RemoveAll(dir)
		},
	}, nil
}

// statusDoc is the mapd status document (POST /v1/search and
// GET /v1/search/{id} responses).
type statusDoc struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// reply is one HTTP exchange with the fleet.
type reply struct {
	code   int
	doc    statusDoc
	routed string // X-Mapd-Routed-To
}

func (f *fleetHandle) do(method, url string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	r := reply{code: resp.StatusCode, routed: resp.Header.Get("X-Mapd-Routed-To")}
	if r.code/100 == 2 {
		if err := json.Unmarshal(data, &r.doc); err != nil {
			return r, fmt.Errorf("decoding status: %w", err)
		}
	}
	return r, nil
}

// submit POSTs a search request to base (router or replica).
func (f *fleetHandle) submit(base string, body []byte) (reply, error) {
	return f.do(http.MethodPost, base+"/v1/search", body)
}

// status GETs a search's status from base.
func (f *fleetHandle) status(base, id string) (reply, error) {
	return f.do(http.MethodGet, base+"/v1/search/"+id, nil)
}

// err turns a non-2xx reply or a failed search into an error.
func (r reply) err() error {
	switch {
	case r.code/100 != 2:
		return fmt.Errorf("HTTP %d", r.code)
	case r.doc.Status == "failed":
		return fmt.Errorf("search failed: %s", r.doc.Error)
	}
	return nil
}

func (r reply) done() bool { return r.doc.Status == "done" }

// warmKey is a finished search the fleet serves from its store, with the
// result bytes it returned when it first finished.
type warmKey struct {
	body   []byte
	id     string
	owner  string
	result []byte
}

// await submits body through the router and waits until the search
// finishes. It reads the search's span stream, which the replica closes
// when the run ends, so no status polls compete with the search for the
// cores; then it fetches the status, polling only while the status lags
// the stream. The returned reply's routed field names the owner replica.
func (f *fleetHandle) await(body []byte) (reply, error) {
	r, err := f.submit(f.url, body)
	if err == nil {
		err = r.err()
	}
	if err == nil && !r.done() {
		err = f.drain(f.url + "/v1/search/" + r.doc.ID + "/spans")
	}
	deadline := time.Now().Add(120 * time.Second)
	for err == nil && !r.done() {
		if time.Now().After(deadline) {
			return r, fmt.Errorf("search %s did not finish", r.doc.ID)
		}
		routed := r.routed
		r, err = f.status(f.url, r.doc.ID)
		if err == nil {
			err = r.err()
		}
		if r.routed == "" {
			r.routed = routed
		}
		if err == nil && !r.done() {
			time.Sleep(pollEvery)
		}
	}
	return r, err
}

// drain GETs url and reads the response to its end.
func (f *fleetHandle) drain(url string) error {
	resp, err := f.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return nil
}

// servedResult is the part of a served result the oracle checks.
type servedResult struct {
	FinalSec  float64         `json:"final_sec"`
	SearchSec float64         `json:"search_sec"`
	StartSec  float64         `json:"start_sec"`
	Mapping   json.RawMessage `json:"mapping"`
}

// checkServed compares a served result document with its reference.
func checkServed(result []byte, g *taskir.Graph, ref reference) error {
	var sr servedResult
	if err := json.Unmarshal(result, &sr); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	mp, err := mapping.Unmarshal(sr.Mapping, g)
	if err != nil {
		return fmt.Errorf("decoding result mapping: %w", err)
	}
	return ref.check(mp.Key(), sr.FinalSec, sr.SearchSec, sr.StartSec)
}

// scrape reads the counters and histogram sums/counts of every replica's
// /metrics text dump and returns them summed by name (histograms as
// name.count and name.sum).
func (f *fleetHandle) scrape() (map[string]float64, error) {
	out := map[string]float64{}
	for _, base := range f.replicas {
		resp, err := f.client.Get(base + "/metrics?format=text")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) < 3 {
				continue
			}
			switch fields[0] {
			case "counter", "gauge":
				v, _ := strconv.ParseFloat(fields[2], 64)
				out[fields[1]] += v
			case "histogram":
				for _, kv := range fields[2:] {
					k, v, ok := strings.Cut(kv, "=")
					if ok && (k == "count" || k == "sum") {
						x, _ := strconv.ParseFloat(v, 64)
						out[fields[1]+"."+k] += x
					}
				}
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
