package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopStallShowsOnLaterRequests stalls the first request on the
// only connection: requests due during the stall must carry the wait in
// their latency, measured from their due time, although the server
// answers them at once.
func TestOpenLoopStallShowsOnLaterRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	var reqs []request
	for i := 0; i < 10; i++ {
		reqs = append(reqs, request{due: time.Duration(i) * 20 * time.Millisecond, method: http.MethodGet, path: "/"})
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	outs := runOpenLoop(context.Background(), client, srv.URL, reqs, 1)
	for i, o := range outs {
		if o.err != nil || o.status != http.StatusOK || string(o.body) != "ok" {
			t.Fatalf("request %d: status %d, body %q, err %v", i, o.status, o.body, o.err)
		}
		// Request i is due at 20i ms and cannot start before the stall
		// ends at 300 ms.
		if wait := stall - reqs[i].due; wait > 0 && o.latency < wait {
			t.Errorf("request %d: latency %v, want at least %v (queued behind the stall)", i, o.latency, wait)
		}
		if o.late > 50*time.Millisecond {
			t.Errorf("request %d: generator ran %v late; a stalled handler must not hold up the schedule", i, o.late)
		}
	}
	if outs[9].latency > stall {
		t.Errorf("request 9 (due after the stall) latency %v: the queue did not drain", outs[9].latency)
	}
}

func TestServeCatalogueIsSeeded(t *testing.T) {
	a, err := serveCatalogue(5, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serveCatalogue(5, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two catalogues")
	}
	c, err := serveCatalogue(6, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same catalogue")
	}
	if len(a) != 10*serveRate {
		t.Fatalf("10 s at %d req/s gave %d requests", serveRate, len(a))
	}
	// The catalogue holds the deck's exact shares.
	counts := map[serveKind]int{}
	for _, it := range a {
		counts[it.kind]++
	}
	for _, d := range serveDeck {
		if want := len(a) * d.perMille / 1000; counts[d.kind] != want {
			t.Errorf("kind %d: %d requests, want %d", d.kind, counts[d.kind], want)
		}
	}
	// Heavy requests are evenly spaced, never back to back.
	heavy := map[serveKind]bool{}
	nHeavy := 0
	for _, d := range serveDeck {
		if d.heavy {
			heavy[d.kind] = true
			nHeavy += len(a) * d.perMille / 1000
		}
	}
	// latency_p99_ms falls inside the heavy class: it holds more than the
	// slowest 1% of requests, with a margin for cheap requests that stall.
	if nHeavy < len(a)/100+len(a)/1000 {
		t.Errorf("%d heavy requests of %d: latency_p99_ms would fall among the cheap ones", nHeavy, len(a))
	}
	last := -len(a)
	for i, it := range a {
		if heavy[it.kind] {
			if gap := i - last; gap < len(a)/nHeavy-1 {
				t.Fatalf("heavy requests %d and %d only %d slots apart", last, i, gap)
			}
			last = i
		}
	}
	for i, it := range a {
		if want := time.Duration(i) * time.Second / serveRate; it.req.due != want {
			t.Fatalf("request %d due at %v, want %v", i, it.req.due, want)
		}
	}
}
