package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// request is one scheduled HTTP request of the open-loop generator.
type request struct {
	due    time.Duration // offset from the schedule's start
	method string
	path   string
	body   []byte
}

// outcome is what happened to one request. Every duration is measured
// from the request's due time, so a stall that holds up later requests
// shows in their numbers, not only in the stalled one's.
type outcome struct {
	late    time.Duration // generator lateness: queued minus due
	latency time.Duration // response fully read minus due
	status  int
	body    []byte
	err     error
}

// runOpenLoop issues reqs at their due times over at most conns
// connections and returns once every response has been read. Requests do
// not wait for earlier responses: when every connection is busy they
// queue, and the queueing counts in their latency.
func runOpenLoop(ctx context.Context, client *http.Client, base string, reqs []request, conns int) []outcome {
	out := make([]outcome, len(reqs))
	queue := make(chan int, len(reqs)) // sized to the number of sends: the generator never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i].status, out[i].body, out[i].err = do(ctx, client, base, reqs[i])
				out[i].latency = time.Since(start) - reqs[i].due
			}
		}()
	}
	for i, r := range reqs {
		if wait := time.Until(start.Add(r.due)); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		out[i].late = time.Since(start) - r.due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// do sends one request and reads the whole response body.
func do(ctx context.Context, client *http.Client, base string, r request) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, r.method, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("reading %s response: %w", r.path, err)
	}
	return resp.StatusCode, body, nil
}

// newClient returns an HTTP client holding at most conns connections to
// one host.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}
