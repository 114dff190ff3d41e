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
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ps "repro"
)

// span is one traced call: a name, its interval, the span that caused it
// and the slot or query it served. IDs start at 1; Parent 0 is a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps a run's spans in memory until the run ends. A nil
// *tracer is the untraced mode: every method is a no-op, so the
// end-to-end runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	// current is the benchmark's open call span, which spans recorded on
	// other goroutines (node-side service spans) nest under.
	current atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

// open starts a span and returns its ID; close ends it.
func (t *tracer) open(name, key string, parent int, start time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key, Start: t.ns(start)})
	return id
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = t.ns(end)
	t.mu.Unlock()
}

// setCurrent makes id the span that spans recorded on other goroutines
// nest under.
func (t *tracer) setCurrent(id int) {
	if t != nil {
		t.current.Store(int64(id))
	}
}

// add records a finished span.
func (t *tracer) add(name, key string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := t.open(name, key, parent, start)
	t.close(id, end)
	return id
}

// stageSlack absorbs clock granularity when a slot's stage timings are
// compared with the RunSlot span enclosing them: 2% plus 50µs.
func stageSlack(d time.Duration) time.Duration { return d/50 + 50*time.Microsecond }

// stageSumViolation reports a slot whose stage timings sum past the
// measured RunSlot duration. The stages are consecutive sub-intervals
// of RunSlot, so that can only happen if the program's trace
// double-counts.
func stageSumViolation(slot int, stages []ps.StageTiming, runSlot time.Duration) string {
	var sum time.Duration
	for _, st := range stages {
		sum += st.Duration
	}
	if sum > runSlot+stageSlack(runSlot) {
		return fmt.Sprintf("slot %d: stage timings sum to %v, past the %v RunSlot span", slot, sum, runSlot)
	}
	return ""
}

// stages lays a SlotReport's stage timings end to end as children of the
// RunSlot span run (which started at start), then moves every other
// child of run under the stage it overlaps most — a node's run_slot
// service span lands under lane_rpc.
func (t *tracer) stages(run int, key string, start time.Time, stages []ps.StageTiming) {
	if t == nil || run == 0 {
		return
	}
	var ids []int
	at := start
	for _, st := range stages {
		ids = append(ids, t.add("stage."+st.Stage, key, run, at, at.Add(st.Duration)))
		at = at.Add(st.Duration)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != run || slices.Contains(ids, s.ID) {
			continue
		}
		best, bestOverlap := 0, int64(0)
		for _, id := range ids {
			st := t.spans[id-1]
			if o := min(s.End, st.End) - max(s.Start, st.Start); o > bestOverlap {
				best, bestOverlap = id, o
			}
		}
		if best != 0 {
			s.Parent = best
		}
	}
}

// checkStages verifies, from the spans alone, that no slot's stage
// spans sum past the ps.RunSlot span they are children of.
func (t *tracer) checkStages() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	sums := map[int]int64{}
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, "stage.") && s.Parent != 0 {
			sums[s.Parent] += s.dur()
		}
	}
	var bad []string
	for id, sum := range sums {
		run := t.spans[id-1]
		d := time.Duration(run.dur())
		if time.Duration(sum) > d+stageSlack(d) {
			bad = append(bad, fmt.Sprintf("trace: slot %s: stage spans sum to %v, past the %v %s span", run.Key, time.Duration(sum), d, run.Name))
		}
	}
	slices.Sort(bad)
	return bad
}

// selfTimes returns, per span name, the call count, total time and self
// time: a span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Calls++
		lt.TotalMs += float64(s.dur()) / 1e6
		lt.SelfMs += float64(s.dur()-covered(s, children[s.ID])) / 1e6
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

type layerTime struct {
	Name            string
	Calls           int
	TotalMs, SelfMs float64
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// dump writes every span as one JSON line to path.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints the per-layer self-time table to w.
func (t *tracer) report(w io.Writer, path string) {
	t.mu.Lock()
	n := len(t.spans)
	t.mu.Unlock()
	fmt.Fprintf(w, "trace: %d spans written to %s\n", n, path)
	fmt.Fprintf(w, "%-28s %10s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, lt := range t.selfTimes() {
		fmt.Fprintf(w, "%-28s %10d %12.1f %12.1f\n", lt.Name, lt.Calls, lt.TotalMs, lt.SelfMs)
	}
}

// wireCounter counts what crosses a wrapped listener's connections.
type wireCounter struct {
	bytes  atomic.Int64
	frames atomic.Int64 // newline-terminated lines, both directions
}

// countingListener wraps a listener so every accepted connection counts
// its bytes and lines. With service set it also times each request it
// serves — first byte read to the end of the newline-terminated reply —
// as a span named service+"."+<frame type> under the tracer's current
// span (the node side of a cluster RPC); without it, each connection is
// one span named conn (the serve side of HTTP keep-alive connections).
type countingListener struct {
	net.Listener
	tr      *tracer
	count   *wireCounter
	conn    string
	service string

	mu      sync.Mutex
	samples map[string][]float64 // service ms by frame type
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l, opened: time.Now()}, nil
}

func (l *countingListener) serviceMs(frameType string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.samples[frameType])
}

type countingConn struct {
	net.Conn
	l      *countingListener
	opened time.Time
	closed atomic.Bool

	inReq    bool
	reqStart time.Time
	reqType  string
}

var frameTypeKey = []byte(`"type":"`)

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.l.count.bytes.Add(int64(n))
		c.l.count.frames.Add(int64(bytes.Count(p[:n], []byte{'\n'})))
		if c.l.service != "" && !c.inReq {
			c.inReq, c.reqStart, c.reqType = true, time.Now(), "other"
			if i := bytes.Index(p[:n], frameTypeKey); i >= 0 {
				rest := p[i+len(frameTypeKey) : n]
				if j := bytes.IndexByte(rest, '"'); j >= 0 {
					c.reqType = string(rest[:j])
				}
			}
		}
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.l.count.bytes.Add(int64(n))
		c.l.count.frames.Add(int64(bytes.Count(p[:n], []byte{'\n'})))
	}
	if c.l.service != "" && c.inReq && n > 0 && p[n-1] == '\n' {
		end := time.Now()
		c.inReq = false
		c.l.mu.Lock()
		c.l.samples[c.reqType] = append(c.l.samples[c.reqType], ms(end.Sub(c.reqStart)))
		c.l.mu.Unlock()
		c.l.tr.add(c.l.service+"."+c.reqType, "", int(c.l.tr.current.Load()), c.reqStart, end)
	}
	return n, err
}

func (c *countingConn) Close() error {
	if c.l.conn != "" && c.closed.CompareAndSwap(false, true) {
		c.l.tr.add(c.l.conn, "", 0, c.opened, time.Now())
	}
	return c.Conn.Close()
}

// spanHeader carries the client-side span ID of an HTTP request so the
// server-side span nests under it.
const spanHeader = "X-Perfbench-Span"

// spanTransport stamps every request with the span its caller opened
// (set in parent before the call).
type spanTransport struct {
	base   http.RoundTripper
	parent *atomic.Int64
}

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := t.parent.Load(); id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(r)
}

// httpTimer is the serve-side middleware: it records a span per request
// (named by route, nested under the client span) and keeps per-route
// handler times and the count of non-2xx responses.
type httpTimer struct {
	next http.Handler
	tr   *tracer

	mu      sync.Mutex
	samples map[string][]float64
	non2xx  int
}

func (h *httpTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	h.next.ServeHTTP(sw, r)
	end := time.Now()
	route := "serve.other"
	switch r.URL.Path {
	case "/queries:batch":
		route = "serve.batch"
	case "/watch":
		route = "serve.watch"
	}
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader)) // no header: a root span
	h.tr.add(route, r.URL.Query().Get("id"), parent, start, end)
	h.mu.Lock()
	h.samples[route] = append(h.samples[route], ms(end.Sub(start)))
	if sw.status/100 != 2 {
		h.non2xx++
	}
	h.mu.Unlock()
}

// statusWriter captures the response status and keeps http.Flusher
// available, which the /watch stream needs.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
