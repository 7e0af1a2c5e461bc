package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"metaprobe"
	"metaprobe/internal/server"
)

// sample is one request's outcome as the client saw it.
type sample struct {
	latency time.Duration // from send (closed loop) or due time (open loop) to the decoded answer
	lag     time.Duration // open loop: how late the request was sent
	done    time.Duration // when the answer arrived, from the start of the run
	resp    server.SelectResponse
	err     error
}

// loadResult is what one pass over the request list measured.
type loadResult struct {
	samples []sample
	wall    time.Duration
	reloads []time.Duration // churn: ReloadModel calls made under load
}

// connections returns how many keep-alive connections drive w.
func (w workload) connections() int {
	if w.conns > 0 {
		return w.conns
	}
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	return n
}

// selectRequest is the request every workload sends for a query.
func selectRequest(query string) server.SelectRequest {
	return server.SelectRequest{
		Query:     query,
		K:         selectK,
		Metric:    metaprobe.Absolute.String(),
		Threshold: selectThreshold,
	}
}

// requestBodies pre-encodes one POST body per query of the pool, so
// the measured client work is the round trip and the decode.
func requestBodies(rl *requestList) ([][]byte, error) {
	bodies := make([][]byte, len(rl.pool))
	for i, q := range rl.pool {
		b, err := json.Marshal(selectRequest(q.String()))
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// newClient returns an HTTP client that keeps conns connections alive.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
	}}
}

// post sends one selection request and decodes the answer.
func post(client *http.Client, url string, body []byte, out *server.SelectResponse) error {
	res, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", res.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// drive sends the whole request list to st over loopback HTTP from
// w.connections() clients in this process. Clients take requests in
// list order. In a closed loop a client sends its next request as
// soon as the previous one is answered; in an open loop it first waits
// for the request's due time, and latency runs from that due time, so
// a stall is charged to every request it delayed.
func drive(st *stack, w workload, rl *requestList, snapshot string) (*loadResult, error) {
	bodies, err := requestBodies(rl)
	if err != nil {
		return nil, err
	}
	conns := w.connections()
	client := newClient(conns)
	defer client.CloseIdleConnections()

	res := &loadResult{samples: make([]sample, len(rl.order))}
	var next, done atomic.Int64
	var clients, reloader sync.WaitGroup

	// churn: reload the model after every reloadEvery completed
	// requests, from its own goroutine, while the clients keep going.
	var reloadDue chan struct{}
	var reloadErr error
	reloadEvery := int64(0)
	if w.reloads > 0 {
		reloadEvery = int64(len(rl.order) / w.reloads)
		if reloadEvery < 1 {
			reloadEvery = 1
		}
		// One slot per reload: a client never blocks on the reloader.
		reloadDue = make(chan struct{}, int64(len(rl.order))/reloadEvery)
		reloader.Add(1)
		go func() {
			defer reloader.Done()
			for range reloadDue {
				t0 := time.Now()
				if err := st.ms.ReloadModel(snapshot); err != nil && reloadErr == nil {
					reloadErr = err
				}
				res.reloads = append(res.reloads, time.Since(t0))
			}
		}()
	}

	start := time.Now()
	for c := 0; c < conns; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(rl.order) {
					return
				}
				s := &res.samples[i]
				from := time.Now()
				if w.open {
					due := start.Add(rl.due[i])
					if wait := due.Sub(from); wait > 0 {
						time.Sleep(wait)
					}
					s.lag = time.Since(due)
					from = due
				}
				s.err = post(client, st.url, bodies[rl.order[i]], &s.resp)
				s.latency = time.Since(from)
				s.done = time.Since(start)
				if n := done.Add(1); reloadEvery > 0 && n%reloadEvery == 0 && n < int64(len(rl.order)) {
					reloadDue <- struct{}{}
				}
			}
		}()
	}
	clients.Wait()
	res.wall = time.Since(start)
	if reloadDue != nil {
		close(reloadDue)
		reloader.Wait()
	}
	return res, reloadErr
}
