package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// The reference decoder: the encoding/json request types POST /batch used
// before the scanner, kept verbatim as the oracle FuzzBatchDecode checks
// the scanner against.

// batchRequest is the POST /batch body. Each query's constraint must be a
// single L+ segment (the class Index.QueryBatch answers); s and t accept
// numeric ids or display names.
type batchRequest struct {
	// Workers overrides the server's batch worker count for this request
	// (0 = server default). QueryBatch clamps any value to the available
	// work, so a hostile request cannot spawn unbounded goroutines.
	Workers int               `json:"workers,omitempty"`
	Queries []batchQueryInput `json:"queries"`
}

type batchQueryInput struct {
	S vertexToken `json:"s"`
	T vertexToken `json:"t"`
	L string      `json:"l"`
}

// vertexToken accepts a vertex as a JSON number (35) or string ("A14"),
// normalizing both to the token the vertex resolver takes.
type vertexToken string

func (v *vertexToken) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		*v = vertexToken(s)
		return nil
	}
	*v = vertexToken(b)
	return nil
}

// refDecodeBatch decodes a body the way handleBatch once did.
func refDecodeBatch(data []byte) (batchRequest, *json.Decoder, error) {
	var req batchRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, dec, err
}

// refResolveBatchQuery is the per-query resolution handleBatch once ran,
// with no memo.
func refResolveBatchQuery(st *state, in batchQueryInput) (graph.Vertex, graph.Vertex, labelseq.Seq, error) {
	src, err := refVertex(st, string(in.S))
	if err != nil {
		return 0, 0, nil, fmt.Errorf("s: %w", err)
	}
	dst, err := refVertex(st, string(in.T))
	if err != nil {
		return 0, 0, nil, fmt.Errorf("t: %w", err)
	}
	e, err := st.parseExpr(in.L)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("l: %w", err)
	}
	if len(e.Segments) != 1 || !e.Segments[0].Plus {
		return 0, 0, nil, errors.New("l: batch queries need a single L+ segment; use GET /query for multi-segment expressions")
	}
	return src, dst, e.Segments[0].Labels, nil
}

func refVertex(st *state, tok string) (graph.Vertex, error) {
	if id, err := strconv.Atoi(tok); err == nil {
		if id < 0 || id >= st.g.NumVertices() {
			return 0, fmt.Errorf("%w: vertex %d out of range [0, %d)", core.ErrVertexRange, id, st.g.NumVertices())
		}
		return graph.Vertex(id), nil
	}
	if v, ok := st.g.VertexByName(tok); ok {
		return v, nil
	}
	return 0, fmt.Errorf("unknown vertex %q", tok)
}

// batchDecodeDivergences lists every input class on which the scanner may
// reject a body encoding/json accepts. The scanner may differ from
// encoding/json nowhere else, and never accepts a body it rejects.
var batchDecodeDivergences = []struct {
	name    string
	applies func(data []byte, dec *json.Decoder) bool
}{
	{"non-whitespace after the top-level value", func(data []byte, dec *json.Decoder) bool {
		return len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0
	}},
	{"a key that folds onto a field only through non-ASCII case folding (ſ→s, K→k)", func(data []byte, _ *json.Decoder) bool {
		lower := bytes.Map(func(r rune) rune {
			if 'A' <= r && r <= 'Z' {
				return r + 'a' - 'A'
			}
			return r
		}, data)
		return bytes.Contains(data, []byte("\u017f")) || bytes.Contains(data, []byte("\u212a")) ||
			bytes.Contains(lower, []byte(`\u017f`)) || bytes.Contains(lower, []byte(`\u212a`))
	}},
}

// FuzzBatchDecode checks the POST /batch scanner against the reference
// decoder on arbitrary bytes: both accept or both reject, save for the
// listed divergences, and an accepted body decodes to the same workers and
// the same s, t and l of every query, which resolve on the Fig. 2 graph to
// the same vertices and labels or the same error text and code.
func FuzzBatchDecode(f *testing.F) {
	for _, c := range batchValidationCases() {
		f.Add([]byte(c.body))
	}
	// encoding/json's nesting limit, reached and passed inside an s token.
	for _, depth := range []int{maxNestingDepth - queryDepth, maxNestingDepth - queryDepth + 1} {
		f.Add([]byte(`{"queries":[{"s":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"t":0,"l":"l1"}]}`))
	}
	s := New(buildIndex(f, graph.Fig2()), Options{})
	f.Cleanup(func() { s.Close() })
	st := s.store.acquire()
	f.Cleanup(st.release)

	var d batchDecoder
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, dec, refErr := refDecodeBatch(data)
		err := d.decode(data)
		switch {
		case refErr != nil && err == nil:
			t.Fatalf("scanner accepted %q, which encoding/json rejects: %v", data, refErr)
		case refErr != nil:
			return
		case err != nil:
			for _, dv := range batchDecodeDivergences {
				if dv.applies(data, dec) {
					return
				}
			}
			t.Fatalf("scanner rejected %q, which encoding/json accepts: %v", data, err)
		}
		if d.workers != ref.Workers || len(d.queries) != len(ref.Queries) {
			t.Fatalf("%q: scanner decoded workers %d and %d queries, encoding/json %d and %d",
				data, d.workers, len(d.queries), ref.Workers, len(ref.Queries))
		}
		labels := map[string]labelseq.Seq{}
		for i, q := range d.queries {
			in := ref.Queries[i]
			if string(q.s) != string(in.S) || string(q.t) != string(in.T) || string(q.l) != in.L {
				t.Fatalf("%q: query %d: scanner (%q, %q, %q), encoding/json (%q, %q, %q)",
					data, i, q.s, q.t, q.l, in.S, in.T, in.L)
			}
			got, err := st.resolveBatchQuery(q, labels)
			src, dst, l, refErr := refResolveBatchQuery(st, in)
			if fmt.Sprint(err) != fmt.Sprint(refErr) || errorCode(err) != errorCode(refErr) {
				t.Fatalf("%q: query %d: resolved to error %v (%q), reference %v (%q)",
					data, i, err, errorCode(err), refErr, errorCode(refErr))
			}
			if err == nil && (got.S != src || got.T != dst || !slices.Equal(got.L, l)) {
				t.Fatalf("%q: query %d: resolved to %+v, reference (%d, %d, %v)", data, i, got, src, dst, l)
			}
		}
	})
}

// discardWriter is a ResponseWriter that keeps only the status code.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// TestBatchAllocsPerQuery pins the per-query allocation cost of POST /batch
// on the Fig. 2 server: a warm 256-query batch of numeric ids may allocate
// at most 16 more times than a warm 16-query one. The request-level costs
// (request, headers, pooled scratch, response encoding) cancel out, so the
// difference is what the decode, resolve and cache path spends per query.
func TestBatchAllocsPerQuery(t *testing.T) {
	s := New(buildIndex(t, graph.Fig2()), Options{})
	defer s.Close()
	h := s.Handler()
	constraints := []string{"l1", "l2", "l1 l2", "l2 l3"}
	allocs := func(n int) float64 {
		var body strings.Builder
		body.WriteString(`{"queries":[`)
		for i := range n {
			if i > 0 {
				body.WriteByte(',')
			}
			fmt.Fprintf(&body, `{"s":%d,"t":%d,"l":"%s"}`, i%6, i/6%6, constraints[i%len(constraints)])
		}
		body.WriteString(`]}`)
		raw := []byte(body.String())
		w := &discardWriter{h: http.Header{}}
		post := func() {
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(raw)))
			if w.code != http.StatusOK {
				panic(fmt.Sprintf("POST /batch of %d: status %d", n, w.code))
			}
		}
		post() // warm the cache: the measured runs answer every query from it
		return testing.AllocsPerRun(50, post)
	}
	small, large := allocs(16), allocs(256)
	t.Logf("allocs per batch: 16 queries %.0f, 256 queries %.0f", small, large)
	if large-small > 16 {
		t.Errorf("256-query batch allocates %.0f times, 16-query batch %.0f: %.0f more, want at most 16",
			large, small, large-small)
	}
}
