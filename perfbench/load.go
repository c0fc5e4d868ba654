package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/g-rpqs/rlc-go/internal/graph"
)

// Request headers that carry the client's trace context to the handler
// wrapper.
const (
	headerReq  = "X-Bench-Req"
	headerSpan = "X-Bench-Span"
)

// endpoint serves a handler on a loopback port until close.
type endpoint struct {
	hs   *http.Server
	base string
	done chan error
}

func listen(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &endpoint{hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { e.done <- e.hs.Serve(ln) }()
	return e, nil
}

// close shuts the listener down, drains in-flight requests and waits for
// Serve to return.
func (e *endpoint) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// tracedHandler wraps h in a span per request, parented to the client's
// span named in the request headers. counters, when non-nil, is read
// before and after the handler and the deltas are attached to the span.
func tracedHandler(h http.Handler, tr *tracer, counters func() map[string]int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(headerReq), 10, 64)
		parent, err := strconv.Atoi(r.Header.Get(headerSpan))
		if err != nil {
			parent = -1
		}
		name := "server.handler"
		if r.URL.Path == "/update" {
			name = "server.update_handler"
		}
		var before map[string]int64
		if counters != nil {
			before = counters()
		}
		sp := tr.begin(name, req, parent)
		h.ServeHTTP(w, r)
		var attrs map[string]int64
		if counters != nil {
			attrs = counters()
			for k, v := range before {
				attrs[k] -= v
			}
		}
		tr.end(sp, attrs)
	})
}

// client is one load-generating connection. It is not safe for concurrent
// use: each client goroutine owns one.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
	tr  *tracer
}

func newClient(tr *tracer) *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole body into the client's buffer,
// which stays valid until the next call. A transport error or a non-2xx
// status is an error. With tracing on, the call is a root span named
// spanName and its handle travels to the handler in the headers.
func (c *client) do(method, url string, body []byte, spanName string, reqID int64) ([]byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	sp := c.tr.begin(spanName, reqID, -1)
	if sp >= 0 {
		req.Header.Set(headerReq, strconv.FormatInt(reqID, 10))
		req.Header.Set(headerSpan, strconv.Itoa(sp))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.tr.end(sp, nil)
		return nil, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	c.tr.end(sp, nil)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, 0, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), d, nil
}

// parseReachable appends the "reachable" answers of a /query or /batch
// response body to dst, in order. A body that carries an error is an
// error: the benchmark sends only valid queries.
func parseReachable(body []byte, dst []bool) ([]bool, error) {
	if bytes.Contains(body, []byte(`"error"`)) {
		return dst, fmt.Errorf("response carries an error: %.200s", body)
	}
	key := []byte(`"reachable":`)
	for {
		i := bytes.Index(body, key)
		if i < 0 {
			return dst, nil
		}
		body = body[i+len(key):]
		switch {
		case bytes.HasPrefix(body, []byte("true")):
			dst = append(dst, true)
		case bytes.HasPrefix(body, []byte("false")):
			dst = append(dst, false)
		default:
			return dst, fmt.Errorf("malformed reachable value: %.40s", body)
		}
	}
}

// parseCached reads how many answers of a /query or /batch reply came
// from the result cache ("cached": true or a count).
func parseCached(body []byte) int {
	key := []byte(`"cached":`)
	i := bytes.Index(body, key)
	if i < 0 {
		return 0
	}
	body = body[i+len(key):]
	if bytes.HasPrefix(body, []byte("true")) {
		return 1
	}
	return leadingInt(body)
}

// leadingInt parses the decimal digits at the start of b (0 if none).
func leadingInt(b []byte) int {
	j := 0
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	n, _ := strconv.Atoi(string(b[:j]))
	return n
}

// parseJournal reads the "journal" length from a /update response.
func parseJournal(body []byte) int {
	key := []byte(`"journal":`)
	i := bytes.Index(body, key)
	if i < 0 {
		return 0
	}
	return leadingInt(body[i+len(key):])
}

// queryURLs renders the GET /query URL of every pool entry once, so that
// the client loop spends its time on the request rather than on encoding.
func queryURLs(base string, g *graph.Graph, pool []query) []string {
	out := make([]string, len(pool))
	for i, q := range pool {
		out[i] = fmt.Sprintf("%s/query?s=%d&t=%d&l=%s+%s", base, q.S, q.T, g.LabelName(q.L[0]), g.LabelName(q.L[1]))
	}
	return out
}

// batchCodec renders POST /batch bodies from pre-encoded pool entries.
type batchCodec struct {
	frags []byte
	off   []int32
}

func newBatchCodec(g *graph.Graph, pool []query) *batchCodec {
	c := &batchCodec{off: make([]int32, 0, len(pool)+1)}
	for _, q := range pool {
		c.off = append(c.off, int32(len(c.frags)))
		c.frags = fmt.Appendf(c.frags, `{"s":%d,"t":%d,"l":"%s %s"}`, q.S, q.T, g.LabelName(q.L[0]), g.LabelName(q.L[1]))
	}
	c.off = append(c.off, int32(len(c.frags)))
	return c
}

// body appends the request body for the pool entries idx to dst.
func (c *batchCodec) body(dst []byte, idx []int32) []byte {
	dst = append(dst[:0], `{"queries":[`...)
	for i, p := range idx {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, c.frags[c.off[p]:c.off[p+1]]...)
	}
	return append(dst, "]}"...)
}

// opStats collects one load loop's outcome.
type opStats struct {
	lat       []float64 // µs per successful operation
	at        []float64 // when each successful operation completed, s into the loop
	n         []int32   // queries each successful operation answered
	answered  int64     // queries answered by successful operations
	cached    int64     // of those, answers the server took from its cache
	attempted int64
	failed    int64 // transport errors and non-2xx replies
	wrong     int64 // answers that failed their gate
	firstErr  error
	firstBad  string
}

func (s *opStats) merge(o *opStats) {
	s.lat = append(s.lat, o.lat...)
	s.at = append(s.at, o.at...)
	s.n = append(s.n, o.n...)
	s.answered += o.answered
	s.cached += o.cached
	s.attempted += o.attempted
	s.failed += o.failed
	s.wrong += o.wrong
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
	if s.firstBad == "" {
		s.firstBad = o.firstBad
	}
}

// reply is one closed-loop operation's outcome.
type reply struct {
	n      int // queries answered
	cached int // of those, answers the server took from its cache
	lat    time.Duration
	bad    string // the failed exactness gate, or ""
}

// op is one closed-loop operation; an error is a failure (transport or
// status), a wrong answer is a reply with bad set.
type op func(seq int64) (reply, error)

// closedLoop runs one goroutine per op, each issuing its next operation as
// soon as the previous one completes, until d has passed. It returns once
// every goroutine has stopped.
func closedLoop(d time.Duration, ops []op) *opStats {
	stats := make([]opStats, len(ops))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &stats[c]
			for seq := int64(0); time.Now().Before(deadline); seq++ {
				st.attempted++
				r, err := ops[c](seq)
				switch {
				case err != nil:
					st.failed++
					if st.firstErr == nil {
						st.firstErr = err
					}
				case r.bad != "":
					st.wrong++
					if st.firstBad == "" {
						st.firstBad = r.bad
					}
				default:
					st.lat = append(st.lat, float64(r.lat.Nanoseconds())/1e3)
					st.at = append(st.at, time.Since(start).Seconds())
					st.n = append(st.n, int32(r.n))
					st.answered += int64(r.n)
					st.cached += int64(r.cached)
				}
			}
		}()
	}
	wg.Wait()
	out := &opStats{}
	for i := range stats {
		out.merge(&stats[i])
	}
	return out
}

// openLoop calls send for i = 0, 1, ... at a fixed rate until d has passed
// or n calls were made. Each call is due at start + i/rate; a call is
// timed from its due time, so a stall delays the calls queued behind it
// and that wait counts. late collects how far behind schedule each call
// was sent, in ms.
func openLoop(d time.Duration, rate float64, n int, send func(i int) error) (st *opStats, late []float64) {
	st = &opStats{}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if due.Sub(start) >= d {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late = append(late, float64(time.Since(due).Nanoseconds())/1e6)
		st.attempted++
		if err := send(i); err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
			continue
		}
		st.lat = append(st.lat, float64(time.Since(due).Nanoseconds())/1e3)
		st.at = append(st.at, time.Since(start).Seconds())
		st.n = append(st.n, 1)
		st.answered++
	}
	return st, late
}
