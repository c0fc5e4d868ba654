package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"unicode/utf8"

	"github.com/g-rpqs/rlc-go/internal/core"
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// POST /batch bodies are decoded by the scanner below rather than by
// encoding/json's reflection: a 256-query batch then decodes in about a
// tenth of the time, with no allocation per query. The accepted grammar is
// the JSON object
//
//	{"workers":N,"queries":[{"s":S,"t":T,"l":"L"},...]}
//
// with encoding/json's meaning for everything encoding/json accepts: keys
// match their field ASCII case-insensitively, the last of duplicate keys
// wins (a repeated "queries" array decodes into the previous one's
// elements, so a key an element omits keeps the earlier value), null leaves
// a field unchanged (a null "queries" empties it, a null body is an empty
// request), unknown keys are rejected, workers must be an integer literal,
// and s and t take a JSON string's text or the literal bytes of any other
// value (35, -1, 3.5e1, null). It rejects two things encoding/json accepts:
// a key that only folds onto a field through non-ASCII case folding ("ſ"
// for s, the Kelvin sign for k), and anything but whitespace after the
// top-level value. FuzzBatchDecode checks the scanner against
// encoding/json on arbitrary bytes.

// maxNestingDepth is encoding/json's nesting limit, which the scanner
// enforces inside s and t values.
const maxNestingDepth = 10000

// queryDepth is the nesting depth of a query object: inside the request
// object and the queries array.
const queryDepth = 3

// batchQueryText is one POST /batch query as the body spelled it: the s and
// t vertex tokens and the l expression text. The slices alias the request
// body unless a string needed unescaping.
type batchQueryText struct {
	s, t, l []byte
}

// batchDecoder scans one POST /batch body.
type batchDecoder struct {
	data    []byte
	pos     int
	workers int
	queries []batchQueryText
	// elems backs queries across duplicate "queries" keys: every element
	// any of them decoded, in position order, so a repeated array decodes
	// into its predecessors' elements the way encoding/json does.
	elems []batchQueryText
}

// decode scans data into d.workers and d.queries.
func (d *batchDecoder) decode(data []byte) error {
	*d = batchDecoder{data: data, elems: d.elems[:0]}
	d.ws()
	if !d.literal("null") {
		if d.peek() != '{' {
			return d.errorf("the body must be a JSON object")
		}
		if err := d.object(nil); err != nil {
			return err
		}
	}
	d.ws()
	if d.pos < len(d.data) {
		return d.errorf("unexpected %q after the top-level value", d.data[d.pos])
	}
	return nil
}

// object scans the object at d.pos: the request when q is nil, else one
// query decoded into q.
func (d *batchDecoder) object(q *batchQueryText) error {
	d.pos++ // '{'
	d.ws()
	if d.consume('}') {
		return nil
	}
	for {
		d.ws()
		key, err := d.key()
		if err != nil {
			return err
		}
		if q == nil {
			err = d.requestMember(key)
		} else {
			err = d.queryMember(key, q)
		}
		if err != nil {
			return err
		}
		d.ws()
		if d.consume(',') {
			continue
		}
		if d.consume('}') {
			return nil
		}
		return d.errorf("want ',' or '}' after an object member")
	}
}

func (d *batchDecoder) requestMember(key []byte) error {
	switch {
	case keyIs(key, "queries"):
		return d.queriesValue()
	case keyIs(key, "workers"):
		if d.literal("null") {
			return nil
		}
		start := d.pos
		if !d.number() {
			return d.errorf("workers: want an integer")
		}
		n, err := strconv.ParseInt(string(d.data[start:d.pos]), 10, 64)
		if err != nil {
			return d.errorf("workers: %s is not an integer", d.data[start:d.pos])
		}
		d.workers = int(n)
		return nil
	}
	return d.errorf("unknown field %q", key)
}

func (d *batchDecoder) queriesValue() error {
	if d.literal("null") {
		d.queries, d.elems = nil, d.elems[:0]
		return nil
	}
	if !d.consume('[') {
		return d.errorf("queries: want an array")
	}
	d.ws()
	n := 0
	if !d.consume(']') {
		for {
			d.ws()
			if n == len(d.elems) {
				d.elems = append(d.elems, batchQueryText{})
			}
			if !d.literal("null") {
				if d.peek() != '{' {
					return d.errorf("queries: want an array of objects")
				}
				if err := d.object(&d.elems[n]); err != nil {
					return err
				}
			}
			n++
			d.ws()
			if d.consume(',') {
				continue
			}
			if d.consume(']') {
				break
			}
			return d.errorf("want ',' or ']' after an array element")
		}
	}
	if n == 0 {
		d.elems = d.elems[:0]
	}
	d.queries = d.elems[:n]
	return nil
}

func (d *batchDecoder) queryMember(key []byte, q *batchQueryText) (err error) {
	switch {
	case keyIs(key, "s"):
		q.s, err = d.token()
	case keyIs(key, "t"):
		q.t, err = d.token()
	case keyIs(key, "l"):
		if d.literal("null") {
			return nil
		}
		if d.peek() != '"' {
			return d.errorf("l: want a string")
		}
		q.l, err = d.str()
	default:
		err = d.errorf("unknown field %q", key)
	}
	return err
}

// token scans a vertex token: a string's text, or the literal bytes of
// any other value.
func (d *batchDecoder) token() ([]byte, error) {
	if d.peek() == '"' {
		return d.str()
	}
	start := d.pos
	if err := d.skip(queryDepth + 1); err != nil {
		return nil, err
	}
	return d.data[start:d.pos], nil
}

// skip scans past one non-string value whose containers, if any, open at
// nesting depth, validating it.
func (d *batchDecoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{' || c == '[':
		if depth > maxNestingDepth {
			return d.errorf("exceeded max depth")
		}
		closer := c + 2 // '}' and ']' follow '{' and '[' by two
		d.pos++
		d.ws()
		if d.consume(closer) {
			return nil
		}
		for {
			if c == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			d.ws()
			if d.consume(closer) {
				return nil
			}
			if !d.consume(',') {
				return d.errorf("want ',' or %q", closer)
			}
			d.ws()
		}
	case c == '"':
		_, err := d.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		if !d.number() {
			return d.errorf("malformed number")
		}
	default:
		if !d.literal("true") && !d.literal("false") && !d.literal("null") {
			return d.errorf("want a value")
		}
	}
	return nil
}

// key scans an object key and its colon, returning the key's text.
func (d *batchDecoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.errorf("want an object key")
	}
	key, err := d.str()
	if err != nil {
		return nil, err
	}
	d.ws()
	if !d.consume(':') {
		return nil, d.errorf("want ':' after an object key")
	}
	d.ws()
	return key, nil
}

// str scans the string at d.pos and returns its text. A string of plain
// ASCII is returned in place; one with an escape or a non-ASCII byte is
// unquoted by encoding/json, which owns the escape and UTF-8 rules.
func (d *batchDecoder) str() ([]byte, error) {
	start := d.pos
	for i := start + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start+1 : i], nil
		case c == '\\' || c >= utf8.RuneSelf:
			return d.unquote(start)
		case c < ' ':
			d.pos = i
			return nil, d.errorf("control character in string")
		}
	}
	d.pos = len(d.data)
	return nil, d.errorf("unterminated string")
}

func (d *batchDecoder) unquote(start int) ([]byte, error) {
	end := start + 1
	for end < len(d.data) && d.data[end] != '"' {
		if d.data[end] == '\\' {
			end++
		}
		end++
	}
	if end >= len(d.data) {
		d.pos = len(d.data)
		return nil, d.errorf("unterminated string")
	}
	end++
	var s string
	if err := json.Unmarshal(d.data[start:end], &s); err != nil {
		d.pos = start
		return nil, d.errorf("malformed string: %v", err)
	}
	d.pos = end
	return []byte(s), nil
}

// number scans a JSON number, reporting whether one was there.
func (d *batchDecoder) number() bool {
	i := d.pos
	if i < len(d.data) && d.data[i] == '-' {
		i++
	}
	switch {
	case i < len(d.data) && d.data[i] == '0':
		i++
	case i < len(d.data) && '1' <= d.data[i] && d.data[i] <= '9':
		i = d.digits(i)
	default:
		return false
	}
	if i < len(d.data) && d.data[i] == '.' {
		if i = d.digits(i + 1); i < 0 {
			return false
		}
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if i = d.digits(i); i < 0 {
			return false
		}
	}
	d.pos = i
	return true
}

// digits skips a nonempty digit run at i, returning its end or -1.
func (d *batchDecoder) digits(i int) int {
	j := i
	for j < len(d.data) && '0' <= d.data[j] && d.data[j] <= '9' {
		j++
	}
	if j == i {
		return -1
	}
	return j
}

// literal consumes word if the input continues with it.
func (d *batchDecoder) literal(word string) bool {
	if len(d.data)-d.pos < len(word) || string(d.data[d.pos:d.pos+len(word)]) != word {
		return false
	}
	d.pos += len(word)
	return true
}

func (d *batchDecoder) consume(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// peek is the byte at d.pos, or 0 at the end of the input.
func (d *batchDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *batchDecoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

func (d *batchDecoder) errorf(format string, args ...any) error {
	if d.pos >= len(d.data) {
		return errors.New("unexpected end of body")
	}
	return fmt.Errorf("offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// keyIs reports whether key names field (lower-case ASCII), matching
// ASCII case-insensitively.
func keyIs(key []byte, field string) bool {
	if len(key) != len(field) {
		return false
	}
	for i, c := range key {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != field[i] {
			return false
		}
	}
	return true
}

// resolveVertex resolves a vertex token: a decimal id first (O(1), the hot
// case for programmatic clients), then a display-name scan. Range
// violations wrap the same typed sentinel Index.Query uses, so HTTP clients
// see one stable error code for them.
func resolveVertex[T string | []byte](g *graph.Graph, tok T) (graph.Vertex, error) {
	if isDecimal(tok) {
		if id, err := strconv.Atoi(string(tok)); err == nil {
			if id < 0 || id >= g.NumVertices() {
				return 0, fmt.Errorf("%w: vertex %d out of range [0, %d)", core.ErrVertexRange, id, g.NumVertices())
			}
			return graph.Vertex(id), nil
		}
	}
	if v, ok := g.VertexByName(string(tok)); ok {
		return v, nil
	}
	return 0, fmt.Errorf("unknown vertex %q", tok)
}

// isDecimal reports whether tok has strconv.Atoi's shape, [+-]?[0-9]+, so
// that a name never pays for Atoi's error.
func isDecimal[T string | []byte](tok T) bool {
	i := 0
	if len(tok) > 0 && (tok[0] == '+' || tok[0] == '-') {
		i++
	}
	if i == len(tok) {
		return false
	}
	for ; i < len(tok); i++ {
		if tok[i] < '0' || tok[i] > '9' {
			return false
		}
	}
	return true
}

// resolveBatchQuery validates one batch query into index-level terms,
// checking s, then t, then l. The constraint must parse to a single plus
// segment (the QueryBatch class); labels memoises each constraint text
// resolved within the request, so a batch parses every distinct text once.
// Failed texts are not memoised.
func (st *state) resolveBatchQuery(q batchQueryText, labels map[string]labelseq.Seq) (core.BatchQuery, error) {
	src, err := resolveVertex(st.g, q.s)
	if err != nil {
		return core.BatchQuery{}, fmt.Errorf("s: %w", err)
	}
	dst, err := resolveVertex(st.g, q.t)
	if err != nil {
		return core.BatchQuery{}, fmt.Errorf("t: %w", err)
	}
	l, ok := labels[string(q.l)]
	if !ok {
		e, err := st.parseExpr(string(q.l))
		if err != nil {
			return core.BatchQuery{}, fmt.Errorf("l: %w", err)
		}
		if len(e.Segments) != 1 || !e.Segments[0].Plus {
			return core.BatchQuery{}, errors.New("l: batch queries need a single L+ segment; use GET /query for multi-segment expressions")
		}
		l = e.Segments[0].Labels
		labels[string(q.l)] = l
	}
	return core.BatchQuery{S: src, T: dst, L: l}, nil
}

// maxPooledBatchBody bounds the body buffer a batch scratch may keep in the
// pool, so one outsized request does not pin its buffer for good.
const maxPooledBatchBody = 1 << 20

// batchScratch is one POST /batch request's working memory, pooled so a
// steady stream of batches reads, decodes, resolves and answers without
// allocating per query.
type batchScratch struct {
	body    bytes.Buffer
	dec     batchDecoder
	labels  map[string]labelseq.Seq
	results []batchQueryResult
	misses  []batchMiss
	pending []core.BatchQuery
	answers []core.BatchResult
}

// batchMiss is a query that missed the cache: its response slot and key.
type batchMiss struct {
	pos int
	key cacheKey
}

func (s *Server) getBatchScratch() *batchScratch {
	if sc, ok := s.batchScratch.Get().(*batchScratch); ok {
		return sc
	}
	return &batchScratch{labels: make(map[string]labelseq.Seq)}
}

func (s *Server) putBatchScratch(sc *batchScratch) {
	if sc.body.Cap() > maxPooledBatchBody {
		return
	}
	clear(sc.labels)
	clear(sc.pending)
	sc.misses, sc.pending = sc.misses[:0], sc.pending[:0]
	s.batchScratch.Put(sc)
}

// readBody reads the (limitBody-bounded) request body whole, into a buffer
// presized from Content-Length so a typical body lands in one read. The
// presize stops at maxPooledBatchBody: a client announcing a large body
// gets its buffer grown as the bytes arrive, not up front. A body over the
// limit fails with *http.MaxBytesError.
func (sc *batchScratch) readBody(r *http.Request) error {
	sc.body.Reset()
	if n := r.ContentLength; n > 0 {
		sc.body.Grow(int(min(n, maxPooledBatchBody)) + bytes.MinRead)
	}
	_, err := sc.body.ReadFrom(r.Body)
	return err
}

// resultsFor returns n zeroed response slots.
func (sc *batchScratch) resultsFor(n int) []batchQueryResult {
	if cap(sc.results) < n {
		sc.results = make([]batchQueryResult, n)
	}
	res := sc.results[:n]
	clear(res)
	return res
}
