package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/g-rpqs/rlc-go/internal/server"
)

// HeaderPin carries the client consistency token, "epoch:seq". Requests
// may also pass it as the pin= query parameter.
const HeaderPin = "X-Rlc-Pin"

// HeaderBackend reports which backend actually served a routed request —
// observability for tests and latency debugging, not part of the
// consistency contract.
const HeaderBackend = "X-Rlc-Backend"

// Options configures a Router.
type Options struct {
	// LeaderURL is the leader's base URL. Writes go here, and reads fall
	// back here when no follower satisfies the pin.
	LeaderURL string
	// FollowerURLs are the read replicas' base URLs.
	FollowerURLs []string
	// Client is the HTTP client for proxied calls; nil uses a default.
	Client *http.Client
	// HealthInterval paces the background health poller. Zero selects 250ms.
	HealthInterval time.Duration
	// HedgeDelay is how long the first read attempt may stay unanswered
	// before the same query is hedged to a second eligible replica. Zero
	// selects 25ms; negative disables hedging.
	HedgeDelay time.Duration
}

// backendHealth mirrors the fields of the replica /healthz contract the
// router consumes (pinned by the server package's healthz shape test).
type backendHealth struct {
	Status            string `json:"status"`
	Role              string `json:"role"`
	JournalSeq        uint64 `json:"journal_seq"`
	Epoch             uint64 `json:"epoch"`
	BundleFingerprint string `json:"bundle_fingerprint"`
}

// backend is one routable replica with its last-polled health snapshot.
// seq is a lower bound on the replica's applied sequence: it was true at
// poll time and the true value only grows, so routing decisions made on it
// are safe (never optimistic) no matter how stale the poll is.
type backend struct {
	url      string
	isLeader bool

	healthy atomic.Bool
	seq     atomic.Uint64
	epoch   atomic.Uint64
}

// Router implements the epoch-pinned read fan-out; construct with New,
// serve its Handler, and feed the poller with Run (or Refresh in tests).
type Router struct {
	opts      Options
	leader    *backend
	followers []*backend
	all       []*backend
	mux       *http.ServeMux

	// rr rotates the preferred follower so load spreads without tracking
	// per-backend inflight counts.
	rr atomic.Uint64
}

// New builds a router over one leader and any number of followers. Call
// Refresh (or start Run) before serving: backends are unknown-unhealthy
// until first polled, and reads fall back to the leader.
func New(opts Options) *Router {
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = 250 * time.Millisecond
	}
	if opts.HedgeDelay == 0 {
		opts.HedgeDelay = 25 * time.Millisecond
	}
	r := &Router{opts: opts}
	r.leader = &backend{url: strings.TrimRight(opts.LeaderURL, "/"), isLeader: true}
	r.all = append(r.all, r.leader)
	for _, u := range opts.FollowerURLs {
		b := &backend{url: strings.TrimRight(u, "/")}
		r.followers = append(r.followers, b)
		r.all = append(r.all, b)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /query", r.handleRead)
	mux.HandleFunc("POST /batch", r.handleBatch)
	mux.HandleFunc("POST /update", r.handleWrite)
	mux.HandleFunc("POST /rebuild", r.handleWrite)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.mux = mux
	return r
}

// Handler returns the router's HTTP surface: /query, /batch, /update,
// /rebuild, /healthz.
func (r *Router) Handler() http.Handler { return r.mux }

// Refresh polls every backend's /healthz once, synchronously — the unit
// the background loop repeats, exposed for startup and tests.
func (r *Router) Refresh(ctx context.Context) {
	for _, b := range r.all {
		r.poll(ctx, b)
	}
}

// Run drives the health poller until ctx is canceled.
func (r *Router) Run(ctx context.Context) {
	t := time.NewTicker(r.opts.HealthInterval)
	defer t.Stop()
	for {
		r.Refresh(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

func (r *Router) poll(ctx context.Context, b *backend) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		b.healthy.Store(false)
		return
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		b.healthy.Store(false)
		return
	}
	defer resp.Body.Close()
	var h backendHealth
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil || h.Status != "ok" {
		b.healthy.Store(false)
		return
	}
	// Order matters: publish coordinates before flipping healthy, so a
	// dispatcher that sees healthy==true reads at-least-as-fresh bounds.
	b.seq.Store(h.JournalSeq)
	b.epoch.Store(h.Epoch)
	b.healthy.Store(true)
}

// pin is the parsed consistency token.
type pin struct {
	epoch, seq uint64
}

func (p pin) String() string { return fmt.Sprintf("%d:%d", p.epoch, p.seq) }

// parsePin reads the token from the header or query parameter; a missing
// token is the zero pin (any replica qualifies).
func parsePin(req *http.Request) (pin, error) {
	tok := req.Header.Get(HeaderPin)
	if tok == "" {
		tok = req.URL.Query().Get("pin")
	}
	if tok == "" {
		return pin{}, nil
	}
	e, s, ok := strings.Cut(tok, ":")
	if !ok {
		return pin{}, fmt.Errorf("bad pin %q: want epoch:seq", tok)
	}
	epoch, err1 := strconv.ParseUint(e, 10, 64)
	seq, err2 := strconv.ParseUint(s, 10, 64)
	if err1 != nil || err2 != nil {
		return pin{}, fmt.Errorf("bad pin %q: want epoch:seq", tok)
	}
	return pin{epoch: epoch, seq: seq}, nil
}

// eligible returns the read backends allowed for p, preference-ordered:
// healthy followers at or past the pinned sequence (rotated for load
// spread), then the leader. The leader is always eligible — every token in
// circulation was minted from a state the leader had already applied, so
// the leader can never be behind a legitimate pin.
func (r *Router) eligible(p pin) []*backend {
	var out []*backend
	n := len(r.followers)
	if n > 0 {
		start := int(r.rr.Add(1)) % n
		for i := 0; i < n; i++ {
			b := r.followers[(start+i)%n]
			if b.healthy.Load() && b.seq.Load() >= p.seq {
				out = append(out, b)
			}
		}
	}
	return append(out, r.leader)
}

// relay copies a backend response to the client, advancing the pin token:
// the response pin is the backend's (epoch, seq) when that is at least as
// fresh as the request pin, else the request pin unchanged — so the token
// a client echoes back can never move backwards through the router.
func relay(w http.ResponseWriter, resp *http.Response, served *backend, p pin) {
	out := p
	be, _ := strconv.ParseUint(resp.Header.Get(server.HeaderEpoch), 10, 64)
	bs, err := strconv.ParseUint(resp.Header.Get(server.HeaderSeq), 10, 64)
	if err == nil && bs >= p.seq {
		out = pin{epoch: be, seq: bs}
	}
	h := w.Header()
	for _, k := range []string{"Content-Type", server.HeaderEpoch, server.HeaderSeq} {
		if v := resp.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	h.Set(HeaderPin, out.String())
	h.Set(HeaderBackend, served.url)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func routerError(w http.ResponseWriter, status int, format string, args ...any) {
	writeError(w, status, "router", fmt.Sprintf(format, args...))
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg, "code": code})
}

// readBody buffers a request body for forwarding. A body over the servers'
// default cap is refused here, with the 413 and body_too_large code a
// server would answer, rather than forwarded cut short to a backend (or,
// for a hedged batch, to two) that would only refuse it in turn.
func readBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, server.DefaultMaxBodyBytes))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large", err.Error())
		return nil, false
	case err != nil:
		routerError(w, http.StatusBadRequest, "read body: %v", err)
		return nil, false
	}
	return body, true
}

// attempt proxies one read to one backend. Body is nil for GETs.
func (r *Router) attempt(ctx context.Context, b *backend, req *http.Request, body []byte) (*http.Response, error) {
	u := b.url + req.URL.Path
	if req.URL.RawQuery != "" {
		u += "?" + req.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	out, err := http.NewRequestWithContext(ctx, req.Method, u, rd)
	if err != nil {
		return nil, err
	}
	if ct := req.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	return r.opts.Client.Do(out)
}

// hedged runs a read against the eligible backends: first choice
// immediately, the next after HedgeDelay if no response yet, first
// response wins (the loser is canceled). Failed attempts fall through to
// the remaining candidates, so a crashed replica costs latency, not an
// error, as long as any backend can answer.
func (r *Router) hedged(req *http.Request, cands []*backend, body []byte) (*http.Response, *backend, error) {
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()

	type result struct {
		resp *http.Response
		b    *backend
		err  error
	}
	results := make(chan result, len(cands))
	launched := 0
	launch := func() {
		b := cands[launched]
		launched++
		go func() {
			// The attempt buffers and closes its own body before reporting,
			// so canceling the race context can never sever a winner
			// mid-body, and losers clean up after themselves.
			resp, err := r.attempt(ctx, b, req, body)
			if err == nil {
				data, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					resp, err = nil, rerr
				} else {
					resp.Body = io.NopCloser(bytes.NewReader(data))
				}
			}
			results <- result{resp: resp, b: b, err: err}
		}()
	}

	launch()
	hedge := r.opts.HedgeDelay
	var timer *time.Timer
	var timerC <-chan time.Time
	if hedge > 0 && launched < len(cands) {
		timer = time.NewTimer(hedge)
		timerC = timer.C
		defer timer.Stop()
	}

	pending := 1
	var lastErr error
	for pending > 0 {
		select {
		case <-timerC:
			timerC = nil
			if launched < len(cands) {
				launch()
				pending++
			}
		case res := <-results:
			pending--
			if res.err == nil {
				return res.resp, res.b, nil
			}
			lastErr = res.err
			if launched < len(cands) {
				launch()
				pending++
			}
		}
	}
	return nil, nil, lastErr
}

func (r *Router) handleRead(w http.ResponseWriter, req *http.Request) {
	r.routeRead(w, req, nil)
}

// handleBatch buffers the body (it must be replayable across hedge
// attempts) and routes like a read — batches are idempotent queries.
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	if body, ok := readBody(w, req); ok {
		r.routeRead(w, req, body)
	}
}

func (r *Router) routeRead(w http.ResponseWriter, req *http.Request, body []byte) {
	p, err := parsePin(req)
	if err != nil {
		routerError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, b, err := r.hedged(req, r.eligible(p), body)
	if err != nil {
		routerError(w, http.StatusBadGateway, "no backend answered: %v", err)
		return
	}
	defer resp.Body.Close()
	relay(w, resp, b, p)
}

// handleWrite forwards to the leader exactly once — writes are not
// idempotent, so they are never hedged — and mints the client's next token
// from the leader's post-append coordinates.
func (r *Router) handleWrite(w http.ResponseWriter, req *http.Request) {
	p, err := parsePin(req)
	if err != nil {
		routerError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, ok := readBody(w, req)
	if !ok {
		return
	}
	resp, err := r.attempt(req.Context(), r.leader, req, body)
	if err != nil {
		routerError(w, http.StatusBadGateway, "leader: %v", err)
		return
	}
	defer resp.Body.Close()
	relay(w, resp, r.leader, p)
}

// routerHealthz reports the router's own liveness and its live view of the
// backends.
type routerHealthz struct {
	Status   string           `json:"status"`
	Backends []backendHealthz `json:"backends"`
}

type backendHealthz struct {
	URL     string `json:"url"`
	Role    string `json:"role"`
	Healthy bool   `json:"healthy"`
	Seq     uint64 `json:"seq"`
	Epoch   uint64 `json:"epoch"`
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := routerHealthz{Status: "ok"}
	for _, b := range r.all {
		role := "follower"
		if b.isLeader {
			role = "leader"
		}
		resp.Backends = append(resp.Backends, backendHealthz{
			URL:     b.url,
			Role:    role,
			Healthy: b.healthy.Load(),
			Seq:     b.seq.Load(),
			Epoch:   b.epoch.Load(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
