package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/g-rpqs/rlc-go/internal/server"
)

// fakeBackend is a scripted replica: a /healthz with settable coordinates
// and a /query that records hits, optionally delays, and stamps the
// replication headers a real server would.
type fakeBackend struct {
	hts   *httptest.Server
	role  string
	seq   atomic.Uint64
	epoch atomic.Uint64
	down  atomic.Bool
	delay atomic.Int64 // nanoseconds
	hits  atomic.Uint64
}

func newFakeBackend(t *testing.T, role string) *fakeBackend {
	t.Helper()
	f := &fakeBackend{role: role}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if f.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"status": "ok", "role": f.role, "generation": 1,
			"journal_seq": f.seq.Load(), "epoch": f.epoch.Load(),
			"bundle_fingerprint": "7.24.3.0000000000000000",
		})
	})
	mux.HandleFunc("GET /query", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		if d := f.delay.Load(); d > 0 {
			select {
			case <-time.After(time.Duration(d)):
			case <-r.Context().Done():
				return
			}
		}
		w.Header().Set(server.HeaderEpoch, fmt.Sprint(f.epoch.Load()))
		w.Header().Set(server.HeaderSeq, fmt.Sprint(f.seq.Load()))
		json.NewEncoder(w).Encode(map[string]any{"reachable": true})
	})
	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set(server.HeaderEpoch, fmt.Sprint(f.epoch.Load()))
		w.Header().Set(server.HeaderSeq, fmt.Sprint(f.seq.Load()))
		json.NewEncoder(w).Encode(map[string]any{"results": []any{}})
	})
	mux.HandleFunc("POST /update", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		io.Copy(io.Discard, r.Body)
		seq := f.seq.Add(1)
		w.Header().Set(server.HeaderEpoch, fmt.Sprint(f.epoch.Load()))
		w.Header().Set(server.HeaderSeq, fmt.Sprint(seq))
		json.NewEncoder(w).Encode(map[string]any{"accepted": 1, "seq": seq})
	})
	f.hts = httptest.NewServer(mux)
	t.Cleanup(f.hts.Close)
	return f
}

func newTestRouter(t *testing.T, leader *fakeBackend, followers []*fakeBackend, hedge time.Duration) (*Router, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(followers))
	for i, f := range followers {
		urls[i] = f.hts.URL
	}
	rt := New(Options{LeaderURL: leader.hts.URL, FollowerURLs: urls, HedgeDelay: hedge})
	rt.Refresh(context.Background())
	hts := httptest.NewServer(rt.Handler())
	t.Cleanup(hts.Close)
	return rt, hts
}

func get(t *testing.T, url string, pinTok string) *http.Response {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	if pinTok != "" {
		req.Header.Set(HeaderPin, pinTok)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestPinGating routes a pinned read only to replicas at or past the pin;
// a replica behind the pin must never see the request.
func TestPinGating(t *testing.T) {
	leader := newFakeBackend(t, "leader")
	leader.seq.Store(100)
	ahead := newFakeBackend(t, "follower")
	ahead.seq.Store(80)
	behind := newFakeBackend(t, "follower")
	behind.seq.Store(20)
	_, hts := newTestRouter(t, leader, []*fakeBackend{ahead, behind}, -1)

	for i := 0; i < 20; i++ {
		resp := get(t, hts.URL+"/query?s=0&t=1&l=l0", "0:50")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if n := behind.hits.Load(); n != 0 {
		t.Fatalf("replica behind the pin served %d requests", n)
	}
	if ahead.hits.Load() == 0 {
		t.Fatal("eligible replica never served")
	}

	// A pin beyond every follower falls back to the leader.
	prev := leader.hits.Load()
	get(t, hts.URL+"/query?s=0&t=1&l=l0", "0:90")
	if leader.hits.Load() != prev+1 {
		t.Fatal("over-pin did not fall back to the leader")
	}
}

// TestPinMonotonic: the returned token never regresses, whichever backend
// answers — stale backend coordinates keep the request pin instead.
func TestPinMonotonic(t *testing.T) {
	leader := newFakeBackend(t, "leader")
	leader.seq.Store(10)
	_, hts := newTestRouter(t, leader, nil, -1)

	// Backend reports seq 10; request pinned at 3 → token advances to 10.
	resp := get(t, hts.URL+"/query?s=0&t=1&l=l0", "0:3")
	if p := resp.Header.Get(HeaderPin); p != "0:10" {
		t.Fatalf("pin %q, want 0:10", p)
	}
	// Request pinned past the backend's report → token must not regress.
	// (Only possible via the leader fallback, whose true seq is newer than
	// any token; the router still must not hand back a smaller number.)
	resp = get(t, hts.URL+"/query?s=0&t=1&l=l0", "2:400")
	if p := resp.Header.Get(HeaderPin); p != "2:400" {
		t.Fatalf("pin %q, want request pin 2:400 preserved", p)
	}
}

// TestUnhealthySkipped: a follower that stops answering health checks
// stops receiving traffic after the next refresh.
func TestUnhealthySkipped(t *testing.T) {
	leader := newFakeBackend(t, "leader")
	f1 := newFakeBackend(t, "follower")
	f2 := newFakeBackend(t, "follower")
	rt, hts := newTestRouter(t, leader, []*fakeBackend{f1, f2}, -1)

	f1.down.Store(true)
	rt.Refresh(context.Background())
	base := f1.hits.Load()
	for i := 0; i < 10; i++ {
		get(t, hts.URL+"/query?s=0&t=1&l=l0", "")
	}
	if n := f1.hits.Load() - base; n != 0 {
		t.Fatalf("unhealthy follower served %d requests", n)
	}
	if f2.hits.Load() == 0 {
		t.Fatal("healthy follower never served")
	}
}

// TestHedging: when the first replica sits on a request past the hedge
// delay, a second attempt fires and the fast replica's answer wins.
func TestHedging(t *testing.T) {
	leader := newFakeBackend(t, "leader")
	slow := newFakeBackend(t, "follower")
	slow.delay.Store(int64(2 * time.Second))
	fast := newFakeBackend(t, "follower")
	_, hts := newTestRouter(t, leader, []*fakeBackend{slow, fast}, 5*time.Millisecond)

	// Run enough reads that rotation starts on the slow replica at least
	// once; each must finish far under the slow delay.
	start := time.Now()
	for i := 0; i < 6; i++ {
		resp := get(t, hts.URL+"/query?s=0&t=1&l=l0", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("hedged reads took %v; hedge did not fire", e)
	}
	if slow.hits.Load() == 0 || fast.hits.Load() == 0 {
		t.Fatalf("hits slow=%d fast=%d; both replicas should have been tried", slow.hits.Load(), fast.hits.Load())
	}
}

// TestWriteForwarding: updates go to the leader exactly once (never
// hedged, never to followers) and mint the advanced token.
func TestWriteForwarding(t *testing.T) {
	leader := newFakeBackend(t, "leader")
	f1 := newFakeBackend(t, "follower")
	_, hts := newTestRouter(t, leader, []*fakeBackend{f1}, 0)

	resp, err := http.Post(hts.URL+"/update", "application/json",
		io.NopCloser(io.LimitReader(nil, 0)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if p := resp.Header.Get(HeaderPin); p != "0:1" {
		t.Fatalf("write token %q, want 0:1", p)
	}
	if leader.hits.Load() != 1 || f1.hits.Load() != 0 {
		t.Fatalf("hits leader=%d follower=%d, want 1/0", leader.hits.Load(), f1.hits.Load())
	}
}

// TestOversizeBodyRefusedAtRouter: a batch or update body over the servers'
// cap is answered 413 body_too_large by the router itself, and no backend
// receives it; a body at the cap is forwarded.
func TestOversizeBodyRefusedAtRouter(t *testing.T) {
	leader := newFakeBackend(t, "leader")
	f1 := newFakeBackend(t, "follower")
	_, hts := newTestRouter(t, leader, []*fakeBackend{f1}, time.Millisecond)

	post := func(path string, n int) (int, string) {
		resp, err := http.Post(hts.URL+path, "application/json", strings.NewReader(strings.Repeat(" ", n)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Code string `json:"code"`
		}
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body.Code
	}
	hits := func() uint64 { return leader.hits.Load() + f1.hits.Load() }
	for _, path := range []string{"/batch", "/update"} {
		if code, wire := post(path, server.DefaultMaxBodyBytes+1); code != http.StatusRequestEntityTooLarge || wire != "body_too_large" {
			t.Errorf("POST %s over the cap: status %d code %q, want 413 body_too_large", path, code, wire)
		}
		if n := hits(); n != 0 {
			t.Fatalf("POST %s over the cap reached a backend (%d hits)", path, n)
		}
	}
	if code, _ := post("/batch", server.DefaultMaxBodyBytes); code != http.StatusOK || hits() == 0 {
		t.Fatalf("POST /batch at the cap: status %d, %d backend hits; want it forwarded", code, hits())
	}
}
