package main

// -regen records the reference tables from the current code. Run it only
// when an output change is intended, and review the diff of refs/.

import (
	"fmt"
	"net/http"
	"sync"

	"efl/internal/cluster"
	"efl/internal/service"
	"efl/internal/sim"
)

func regenerate(dir, only string) error {
	for _, wl := range []string{"estimate-cold", "estimate-warm", "deploy-mix"} {
		if only != "" && only != wl {
			continue
		}
		var t *refTable
		var err error
		switch wl {
		case "estimate-cold", "estimate-warm":
			t, err = regenEstimates(wl)
		default:
			t, err = regenDeploy()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", wl, err)
		}
		if err := writeRefs(dir, t); err != nil {
			return err
		}
		fmt.Printf("%s: %d reference entries\n", wl, len(t.Entries))
	}
	return nil
}

// regenEstimates runs every candidate estimate through a real server (two
// workers, two clients) and records status and body digest; warm
// candidates also record their home node on the 2-node ring.
func regenEstimates(wl string) (*refTable, error) {
	ts, err := generateTraces()
	if err != nil {
		return nil, err
	}
	pool := coldPool(ts)
	if wl == "estimate-warm" {
		pool = warmPool(ts)
	}
	srv, err := startServer(service.Options{Workers: 2})
	if err != nil {
		return nil, err
	}
	defer srv.close()
	cl := newClient()
	defer cl.CloseIdleConnections()
	if err := uploadTraces(cl, srv.url, ts); err != nil {
		return nil, err
	}
	ring := cluster.NewRing([]string{"node-0", "node-1"}, 0)
	t := &refTable{Workload: wl, Entries: map[string]refEntry{}}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan estimate)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range next {
				entry, err := recordEstimate(cl, srv, e, ring, wl == "estimate-warm")
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				t.Entries[e.ID] = entry
				mu.Unlock()
			}
		}()
	}
	for _, e := range pool {
		next <- e
	}
	close(next)
	wg.Wait()
	return t, firstErr
}

func recordEstimate(cl *http.Client, srv *server, e estimate, ring *cluster.Ring, withHome bool) (refEntry, error) {
	rp, err := post(cl, srv.url+"/v1/estimate", e.Body)
	if err != nil {
		return refEntry{}, fmt.Errorf("%s: %w", e.ID, err)
	}
	if rp.status != http.StatusOK && rp.status != http.StatusUnprocessableEntity {
		return refEntry{}, fmt.Errorf("%s: HTTP %d %s", e.ID, rp.status, rp.body)
	}
	entry := refEntry{Status: rp.status, SHA256: digest(rp.body)}
	if withHome {
		pl, err := srv.svc.PlanRequest("/v1/estimate", e.Body)
		if err != nil {
			return entry, fmt.Errorf("%s: %w", e.ID, err)
		}
		entry.Home = ring.Owner(pl.Key)
	}
	return entry, nil
}

// regenDeploy runs every candidate deployment run on a fresh pool.
func regenDeploy() (*refTable, error) {
	t := &refTable{Workload: "deploy-mix", Entries: map[string]refEntry{}}
	pool := sim.NewPool()
	var res sim.Result
	for _, r := range deployPool() {
		progs, err := shapePrograms(r.Shape)
		if err != nil {
			return nil, err
		}
		m, err := pool.Get(shapeConfig(r.Shape), progs, r.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.ID, err)
		}
		if err := m.RunInto(&res); err != nil {
			return nil, fmt.Errorf("%s: %w", r.ID, err)
		}
		t.Entries[r.ID] = refEntry{Status: http.StatusOK, SHA256: deployDigest(&res)}
	}
	return t, nil
}
