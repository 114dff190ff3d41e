package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	ps "repro"
	"repro/wire"
)

// newTestStack builds a virtual-clock engine behind the HTTP handler so
// the test controls slot execution deterministically.
func newTestStack(t *testing.T, opts ...ps.Option) (*ps.Engine, *httptest.Server) {
	t.Helper()
	world := ps.NewRWMWorld(1, 200, ps.SensorConfig{})
	eng := ps.NewEngine(ps.NewAggregator(world, opts...))
	eng.Start()
	ts := httptest.NewServer(New(eng, world, Options{}).Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Stop()
	})
	return eng, ts
}

func postJSON(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode, out
}

func TestServePointQueryEndToEnd(t *testing.T) {
	eng, ts := newTestStack(t)

	status, resp := postJSON(t, ts.URL+"/query", map[string]any{
		"type": "point", "id": "p1", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 20,
	})
	if status != http.StatusAccepted || resp["id"] != "p1" {
		t.Fatalf("submit: status %d resp %v", status, resp)
	}

	if err := eng.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}

	// The consumer goroutine moves the result into the registry; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, resp = getJSON(t, ts.URL+"/query/p1")
		if status != http.StatusOK {
			t.Fatalf("get: status %d resp %v", status, resp)
		}
		if resp["done"] == true {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query never completed: %v", resp)
		}
		time.Sleep(time.Millisecond)
	}
	results, ok := resp["results"].([]any)
	if !ok || len(results) != 1 {
		t.Fatalf("results = %v, want exactly 1", resp["results"])
	}
	r0 := results[0].(map[string]any)
	if r0["final"] != true {
		t.Errorf("result not final: %v", r0)
	}
	if r0["answered"] == true {
		if v, p := r0["value"].(float64), r0["payment"].(float64); p >= v {
			t.Errorf("payment %v >= value %v", p, v)
		}
	}

	// Engine metrics reflect the slot.
	status, m := getJSON(t, ts.URL+"/metrics")
	if status != http.StatusOK || m["slots"].(float64) != 1 || m["queries_submitted"].(float64) != 1 {
		t.Fatalf("metrics = %v", m)
	}
	status, h := getJSON(t, ts.URL+"/healthz")
	if status != http.StatusOK || h["ok"] != true {
		t.Fatalf("healthz = %v", h)
	}

	// Canceling an already-finished query is not "canceling": 410.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/query/p1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusGone {
		t.Errorf("DELETE finished query: status %d, want 410", dresp.StatusCode)
	}
}

// TestServeAcceptsLegacyAndV1Envelopes: the same submission works as a
// legacy (unversioned) body and as a v1 envelope; future versions are
// refused.
func TestServeAcceptsLegacyAndV1Envelopes(t *testing.T) {
	eng, ts := newTestStack(t)

	legacy := map[string]any{
		"type": "point", "id": "legacy", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 20,
	}
	if status, resp := postJSON(t, ts.URL+"/query", legacy); status != http.StatusAccepted {
		t.Fatalf("legacy body: status %d resp %v", status, resp)
	}
	v1 := map[string]any{
		"v": 1, "type": "point", "id": "v1", "loc": map[string]float64{"x": 31, "y": 31}, "budget": 20,
	}
	if status, resp := postJSON(t, ts.URL+"/query", v1); status != http.StatusAccepted {
		t.Fatalf("v1 envelope: status %d resp %v", status, resp)
	}
	future := map[string]any{
		"v": 99, "type": "point", "id": "future", "loc": map[string]float64{"x": 31, "y": 31}, "budget": 20,
	}
	if status, _ := postJSON(t, ts.URL+"/query", future); status != http.StatusBadRequest {
		t.Errorf("future envelope version: status %d, want 400", status)
	}

	if err := eng.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	for _, id := range []string{"legacy", "v1"} {
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, resp := getJSON(t, ts.URL+"/query/"+id)
			if resp["done"] == true {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("query %s never completed: %v", id, resp)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestServeContinuousCancel(t *testing.T) {
	eng, ts := newTestStack(t)

	status, resp := postJSON(t, ts.URL+"/query", map[string]any{
		"type": "locmon", "loc": map[string]float64{"x": 30, "y": 30},
		"budget": 120, "duration": 20, "samples": 5,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d resp %v", status, resp)
	}
	id := resp["id"].(string)
	if err := eng.RunSlots(2); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/query/%s", ts.URL, id), nil)
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", cresp.StatusCode)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, resp = getJSON(t, ts.URL+"/query/"+id)
		if resp["done"] == true {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel never completed: %v", resp)
		}
		time.Sleep(time.Millisecond)
	}
	if resp["error"] != ps.ErrCanceled.Error() {
		t.Fatalf("error = %v, want %q", resp["error"], ps.ErrCanceled.Error())
	}
	if results := resp["results"].([]any); len(results) != 2 {
		t.Fatalf("got %d results before cancel, want 2", len(results))
	}
}

func TestServeBadRequests(t *testing.T) {
	_, ts := newTestStack(t)

	status, _ := postJSON(t, ts.URL+"/query", map[string]any{"type": "nonsense"})
	if status != http.StatusBadRequest {
		t.Errorf("unknown type: status %d, want 400", status)
	}
	status, _ = postJSON(t, ts.URL+"/query", map[string]any{"type": "point", "budget": 10})
	if status != http.StatusBadRequest {
		t.Errorf("missing loc: status %d, want 400", status)
	}
	status, _ = getJSON(t, ts.URL+"/query/absent")
	if status != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", status)
	}
	// Spec validation runs before the engine sees the submission: a
	// negative budget or a zero-duration window is a synchronous 400.
	status, _ = postJSON(t, ts.URL+"/query", map[string]any{
		"type": "point", "loc": map[string]float64{"x": 30, "y": 30}, "budget": -5,
	})
	if status != http.StatusBadRequest {
		t.Errorf("negative budget: status %d, want 400", status)
	}
	status, _ = postJSON(t, ts.URL+"/query", map[string]any{
		"type": "locmon", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 100,
	})
	if status != http.StatusBadRequest {
		t.Errorf("zero duration: status %d, want 400", status)
	}
	// regmon needs a GP world; the RWM test world must be rejected up
	// front with 400, not accepted into a subscription that cannot work.
	status, _ = postJSON(t, ts.URL+"/query", map[string]any{
		"type": "regmon", "region": map[string]float64{"x0": 20, "y0": 20, "x1": 40, "y1": 40},
		"budget": 100, "duration": 5,
	})
	if status != http.StatusBadRequest {
		t.Errorf("regmon without GP model: status %d, want 400", status)
	}

	// A live query ID cannot be reused: the registry rejects it without
	// touching the engine, so the original record stays reachable.
	body := map[string]any{"type": "locmon", "id": "taken",
		"loc": map[string]float64{"x": 30, "y": 30}, "budget": 120, "duration": 20, "samples": 5}
	if status, _ := postJSON(t, ts.URL+"/query", body); status != http.StatusAccepted {
		t.Fatalf("first submit: status %d", status)
	}
	if status, _ := postJSON(t, ts.URL+"/query", body); status != http.StatusConflict {
		t.Errorf("duplicate live id: status %d, want 409", status)
	}
}

// TestServeListQueries: GET /queries pages through the registry in ID
// order with done/result-count summaries.
func TestServeListQueries(t *testing.T) {
	eng, ts := newTestStack(t)

	for i := 0; i < 5; i++ {
		status, _ := postJSON(t, ts.URL+"/query", map[string]any{
			"v": 1, "type": "point", "id": fmt.Sprintf("list-%d", i),
			"loc": map[string]float64{"x": 30, "y": 30}, "budget": 20,
		})
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, status)
		}
	}
	status, list := getJSON(t, ts.URL+"/queries")
	if status != http.StatusOK {
		t.Fatalf("list: status %d", status)
	}
	if list["total"].(float64) != 5 || list["count"].(float64) != 5 {
		t.Fatalf("list = %v, want total 5 count 5", list)
	}
	rows := list["queries"].([]any)
	for i, row := range rows {
		r := row.(map[string]any)
		if want := fmt.Sprintf("list-%d", i); r["id"] != want {
			t.Errorf("row %d id = %v, want %s (ID-ordered)", i, r["id"], want)
		}
		if r["type"] != "point" {
			t.Errorf("row %d type = %v", i, r["type"])
		}
	}

	// Pagination: offset 3, limit 10 -> the last two.
	_, page := getJSON(t, ts.URL+"/queries?offset=3&limit=10")
	if page["count"].(float64) != 2 || page["offset"].(float64) != 3 {
		t.Fatalf("page = %v, want count 2 offset 3", page)
	}
	// Limit 2 from the start.
	_, page = getJSON(t, ts.URL+"/queries?limit=2")
	if page["count"].(float64) != 2 || page["total"].(float64) != 5 {
		t.Fatalf("page = %v, want count 2 total 5", page)
	}
	// Offset past the end: empty page, not an error.
	_, page = getJSON(t, ts.URL+"/queries?offset=99")
	if page["count"].(float64) != 0 {
		t.Fatalf("page past end = %v, want count 0", page)
	}
	// Bad parameters are 400s.
	if st, _ := getJSON(t, ts.URL+"/queries?offset=-1"); st != http.StatusBadRequest {
		t.Errorf("negative offset: status %d, want 400", st)
	}
	if st, _ := getJSON(t, ts.URL+"/queries?limit=zero"); st != http.StatusBadRequest {
		t.Errorf("non-numeric limit: status %d, want 400", st)
	}

	// After a slot, the records finish and report their result counts.
	if err := eng.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, list = getJSON(t, ts.URL+"/queries")
		done := 0
		for _, row := range list["queries"].([]any) {
			r := row.(map[string]any)
			if r["done"] == true && r["results"].(float64) == 1 {
				done++
			}
		}
		if done == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("records never finished: %v", list)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeStrategyAndSelectionMetrics drives a mixed slot through the
// lazy greedy core and checks that /metrics exposes the valuation-call
// and lazy-heap counters, and that selection has no runtime strategy
// switch: /strategy is not a route and metrics carry no strategy label.
func TestServeStrategyAndSelectionMetrics(t *testing.T) {
	eng, ts := newTestStack(t)

	// An aggregate query routes the slot through the greedy mix pipeline.
	status, _ := postJSON(t, ts.URL+"/query", map[string]any{
		"type": "aggregate", "id": "a1",
		"region": map[string]float64{"x0": 20, "y0": 20, "x1": 45, "y1": 45}, "budget": 300,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit aggregate: status %d", status)
	}
	postJSON(t, ts.URL+"/query", map[string]any{
		"type": "point", "id": "p1", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 20,
	})
	if err := eng.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}

	status, m := getJSON(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	if m["valuation_calls"].(float64) <= 0 {
		t.Errorf("valuation_calls = %v, want > 0", m["valuation_calls"])
	}
	for _, key := range []string{"valuation_calls_saved", "lazy_reevaluations", "submodularity_violations", "fallback_rescans"} {
		if _, ok := m[key].(float64); !ok {
			t.Errorf("metrics missing %s: %v", key, m[key])
		}
	}

	for _, key := range []string{"strategy", "strategy_last_slot"} {
		if _, ok := m[key]; ok {
			t.Errorf("metrics still carry %q", key)
		}
	}
	for _, method := range []string{http.MethodGet, http.MethodPost} {
		req, err := http.NewRequest(method, ts.URL+"/strategy", strings.NewReader(`{"strategy":"lazy"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s /strategy: %v", method, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s /strategy: status %d, want 404", method, resp.StatusCode)
		}
	}
}

// TestServeAutoIDSkipsLiveClientIDs: a server-assigned ID never
// collides with a live client-chosen one.
func TestServeAutoIDSkipsLiveClientIDs(t *testing.T) {
	_, ts := newTestStack(t)

	// A client explicitly claims "q1" with a long-lived query.
	status, _ := postJSON(t, ts.URL+"/query", map[string]any{
		"v": 1, "type": "locmon", "id": "q1",
		"loc": map[string]float64{"x": 30, "y": 30}, "budget": 120, "duration": 100, "samples": 5,
	})
	if status != http.StatusAccepted {
		t.Fatalf("explicit submit: status %d", status)
	}
	// An ID-less submission must get a fresh ID, not a 409 on "q1".
	status, resp := postJSON(t, ts.URL+"/query", map[string]any{
		"v": 1, "type": "point", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 20,
	})
	if status != http.StatusAccepted {
		t.Fatalf("auto-ID submit: status %d resp %v", status, resp)
	}
	if resp["id"] == "q1" || resp["id"] == "" {
		t.Fatalf("auto-assigned id = %v, want a fresh non-conflicting id", resp["id"])
	}
}

func TestRegistrySweepEvictsFinishedRecords(t *testing.T) {
	world := ps.NewRWMWorld(2, 50, ps.SensorConfig{})
	eng := ps.NewEngine(ps.NewAggregator(world))
	defer eng.Stop()
	s := New(eng, world, Options{NoRetention: true}) // done records evict immediately

	s.queries["old-done"] = &queryRecord{id: "old-done", done: true, doneAt: time.Now().Add(-time.Minute)}
	s.queries["live"] = &queryRecord{id: "live"}
	s.mu.Lock()
	s.sweepLocked()
	s.mu.Unlock()
	if _, ok := s.queries["old-done"]; ok {
		t.Error("finished record survived the sweep")
	}
	if _, ok := s.queries["live"]; !ok {
		t.Error("live record was evicted")
	}
}

// --- push delivery (wire v2) ---

// watchFrames opens GET /watch and decodes frames until the stream ends
// or a terminal/server_closing frame arrives.
func watchFrames(t *testing.T, url string, sse bool) []wire.EventFrame {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sse {
		req.Header.Set("Accept", "text/event-stream")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	wantCT := "application/x-ndjson"
	if sse {
		wantCT = "text/event-stream"
	}
	if ct := resp.Header.Get("Content-Type"); ct != wantCT {
		t.Fatalf("Content-Type = %q, want %q", ct, wantCT)
	}
	var frames []wire.EventFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if sse {
			if !strings.HasPrefix(line, "data: ") {
				continue // blank separator lines
			}
			line = strings.TrimPrefix(line, "data: ")
		}
		if line == "" {
			continue
		}
		f, err := wire.DecodeEventFrame([]byte(line))
		if err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		frames = append(frames, f)
		if f.Terminal() || f.Event == wire.FrameServerClosing {
			return frames
		}
	}
	return frames
}

// TestServeWatchEndToEnd: a watcher opened before the slot runs receives
// accepted → slot_update → final as pushed NDJSON, with no polling.
func TestServeWatchEndToEnd(t *testing.T) {
	eng, ts := newTestStack(t)

	status, _ := postJSON(t, ts.URL+"/query", map[string]any{
		"v": 1, "type": "point", "id": "w1", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 20,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	framesCh := make(chan []wire.EventFrame, 1)
	go func() { framesCh <- watchFrames(t, ts.URL+"/watch?id=w1", false) }()
	// Give the watcher a moment to attach, then run the slot.
	time.Sleep(20 * time.Millisecond)
	if err := eng.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	frames := <-framesCh
	if len(frames) != 3 {
		t.Fatalf("frames = %+v, want accepted, slot_update, final", frames)
	}
	if frames[0].Event != wire.FrameAccepted || frames[0].Start != 0 || frames[0].End != 0 || frames[0].Slot != -1 {
		t.Errorf("accepted = %+v", frames[0])
	}
	if frames[1].Event != wire.FrameSlotUpdate || frames[1].Slot != 0 || frames[1].Result == nil || !frames[1].Result.Final {
		t.Errorf("slot_update = %+v", frames[1])
	}
	if frames[1].TS == 0 {
		t.Error("slot_update missing publish timestamp")
	}
	if frames[2].Event != wire.FrameFinal || frames[2].Slot != 0 {
		t.Errorf("final = %+v", frames[2])
	}
	for _, f := range frames {
		if f.ID != "w1" || f.V != wire.Version2 {
			t.Errorf("frame misrouted: %+v", f)
		}
	}
}

// TestServeWatchReplayAndCursorResume: a watcher attaching after slots
// ran gets the history replayed; resuming with ?cursor= skips what it
// already has; a finished query's stream replays and terminates without
// a live engine subscription.
func TestServeWatchReplayAndCursorResume(t *testing.T) {
	eng, ts := newTestStack(t)

	status, resp := postJSON(t, ts.URL+"/query", map[string]any{
		"v": 1, "type": "locmon", "id": "wl", "loc": map[string]float64{"x": 30, "y": 30},
		"budget": 200, "duration": 5, "samples": 3,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d resp %v", status, resp)
	}
	if err := eng.RunSlots(3); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	// Wait for the record to have consumed the three slots.
	waitForResults(t, ts.URL, "wl", 3)

	// Late watcher: replayed history + live tail to final.
	framesCh := make(chan []wire.EventFrame, 1)
	go func() { framesCh <- watchFrames(t, ts.URL+"/watch?id=wl", false) }()
	time.Sleep(20 * time.Millisecond)
	if err := eng.RunSlots(2); err != nil {
		t.Fatalf("RunSlots tail: %v", err)
	}
	frames := <-framesCh
	var slots []int
	for _, f := range frames {
		if f.Event == wire.FrameSlotUpdate {
			slots = append(slots, f.Slot)
		}
	}
	if want := []int{0, 1, 2, 3, 4}; !intsEqual(slots, want) {
		t.Fatalf("slots = %v, want %v (frames %+v)", slots, want, frames)
	}
	if frames[0].Event != wire.FrameAccepted || frames[len(frames)-1].Event != wire.FrameFinal {
		t.Fatalf("frames = %+v, want accepted first, final last", frames)
	}

	// Finished query, resume from cursor 2: only slots 3,4 + final, no
	// accepted (its cursor -1 <= 2).
	resumed := watchFrames(t, ts.URL+"/watch?id=wl&cursor=2", false)
	slots = nil
	for _, f := range resumed {
		if f.Event == wire.FrameAccepted {
			t.Errorf("resume replayed accepted: %+v", f)
		}
		if f.Event == wire.FrameSlotUpdate {
			slots = append(slots, f.Slot)
		}
	}
	if want := []int{3, 4}; !intsEqual(slots, want) {
		t.Fatalf("resumed slots = %v, want %v", slots, want)
	}
	if resumed[len(resumed)-1].Event != wire.FrameFinal {
		t.Fatalf("resumed frames = %+v, want final last", resumed)
	}

	// Cursor at the end: terminal frame only.
	tail := watchFrames(t, ts.URL+"/watch?id=wl&cursor=99", false)
	if len(tail) != 1 || tail[0].Event != wire.FrameFinal {
		t.Fatalf("tail frames = %+v, want just the final", tail)
	}

	// Unknown id is a 404 with the stable code.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/watch?id=absent", nil)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var eb wire.ErrorBody
	json.NewDecoder(r2.Body).Decode(&eb)
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound || eb.Code != wire.CodeUnknownQuery {
		t.Errorf("watch unknown: status %d code %q", r2.StatusCode, eb.Code)
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func waitForResults(t *testing.T, base, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, resp := getJSON(t, base+"/query/"+id)
		if rs, ok := resp["results"].([]any); ok && len(rs) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("record never reached %d results: %v", n, resp)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeWatchSSE: the same stream in Server-Sent-Events framing.
func TestServeWatchSSE(t *testing.T) {
	eng, ts := newTestStack(t)
	status, _ := postJSON(t, ts.URL+"/query", map[string]any{
		"v": 1, "type": "point", "id": "sse1", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 20,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	framesCh := make(chan []wire.EventFrame, 1)
	go func() { framesCh <- watchFrames(t, ts.URL+"/watch?id=sse1", true) }()
	time.Sleep(20 * time.Millisecond)
	if err := eng.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	frames := <-framesCh
	if len(frames) != 3 || frames[len(frames)-1].Event != wire.FrameFinal {
		t.Fatalf("SSE frames = %+v", frames)
	}
}

// TestServeWatchCanceledQuery: watchers of a canceled query receive the
// canceled terminal with the stable code.
func TestServeWatchCanceledQuery(t *testing.T) {
	eng, ts := newTestStack(t)
	status, _ := postJSON(t, ts.URL+"/query", map[string]any{
		"v": 1, "type": "locmon", "id": "wc", "loc": map[string]float64{"x": 30, "y": 30},
		"budget": 200, "duration": 50, "samples": 3,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	framesCh := make(chan []wire.EventFrame, 1)
	go func() { framesCh <- watchFrames(t, ts.URL+"/watch?id=wc", false) }()
	time.Sleep(20 * time.Millisecond)
	if err := eng.RunSlots(2); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/query/wc", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	frames := <-framesCh
	last := frames[len(frames)-1]
	if last.Event != wire.FrameCanceled || last.Code != wire.CodeCanceled {
		t.Fatalf("terminal = %+v, want canceled with code %q", last, wire.CodeCanceled)
	}
}

// TestServeBatchSubmit: one request, many specs, per-spec verdicts with
// stable codes; valid specs go live even when neighbors are rejected.
func TestServeBatchSubmit(t *testing.T) {
	eng, ts := newTestStack(t)

	status, resp := postJSON(t, ts.URL+"/queries:batch", map[string]any{
		"v": 2,
		"queries": []map[string]any{
			{"v": 1, "type": "point", "id": "b1", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 20},
			{"v": 1, "type": "point", "id": "b2", "loc": map[string]float64{"x": 31, "y": 31}, "budget": -5},
			{"v": 1, "type": "locmon", "id": "b3", "loc": map[string]float64{"x": 32, "y": 32}, "budget": 100},
			{"v": 1, "type": "point", "loc": map[string]float64{"x": 33, "y": 33}, "budget": 10},
			{"v": 1, "type": "point", "id": "b1", "loc": map[string]float64{"x": 34, "y": 34}, "budget": 10},
		},
	})
	if status != http.StatusOK {
		t.Fatalf("batch: status %d resp %v", status, resp)
	}
	if resp["accepted"].(float64) != 2 || resp["rejected"].(float64) != 3 {
		t.Fatalf("batch verdicts = %v, want 2 accepted / 3 rejected", resp)
	}
	results := resp["results"].([]any)
	wantCodes := []string{"", wire.CodeNegativeBudget, wire.CodeBadDuration, "", wire.CodeDuplicateQueryID}
	for i, raw := range results {
		r := raw.(map[string]any)
		code, _ := r["code"].(string)
		if code != wantCodes[i] {
			t.Errorf("result %d code = %q, want %q (%v)", i, code, wantCodes[i], r)
		}
		wantStatus := "accepted"
		if wantCodes[i] != "" {
			wantStatus = "rejected"
		}
		if r["status"] != wantStatus {
			t.Errorf("result %d status = %v, want %s", i, r["status"], wantStatus)
		}
	}
	// The auto-ID entry got a server-assigned ID.
	if id, _ := results[3].(map[string]any)["id"].(string); id == "" || id == "b1" {
		t.Errorf("auto-ID batch entry got id %q", id)
	}

	// The accepted ones run to completion.
	if err := eng.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	waitForResults(t, ts.URL, "b1", 1)

	// Malformed batches are rejected whole.
	if status, _ := postJSON(t, ts.URL+"/queries:batch", map[string]any{"v": 2, "queries": []any{}}); status != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", status)
	}
	if status, _ := postJSON(t, ts.URL+"/queries:batch", map[string]any{"v": 3, "queries": []map[string]any{{"type": "point"}}}); status != http.StatusBadRequest {
		t.Errorf("future batch version: status %d, want 400", status)
	}
}

// TestServeGracefulShutdown: Shutdown ends watch streams with a
// server_closing frame and refuses new submissions with 503.
func TestServeGracefulShutdown(t *testing.T) {
	world := ps.NewRWMWorld(8, 200, ps.SensorConfig{})
	eng := ps.NewEngine(ps.NewAggregator(world))
	eng.Start()
	srv := New(eng, world, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Stop()
	})

	status, _ := postJSON(t, ts.URL+"/query", map[string]any{
		"v": 1, "type": "locmon", "id": "gs", "loc": map[string]float64{"x": 30, "y": 30},
		"budget": 200, "duration": 50, "samples": 3,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	framesCh := make(chan []wire.EventFrame, 1)
	go func() { framesCh <- watchFrames(t, ts.URL+"/watch?id=gs", false) }()
	time.Sleep(20 * time.Millisecond)
	if err := eng.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}

	srv.Shutdown()
	srv.Shutdown() // idempotent

	frames := <-framesCh
	if len(frames) == 0 || frames[len(frames)-1].Event != wire.FrameServerClosing {
		t.Fatalf("frames = %+v, want a terminal server_closing", frames)
	}

	// New submissions are refused with the stable code.
	buf, _ := json.Marshal(map[string]any{
		"v": 1, "type": "point", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 20,
	})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var eb wire.ErrorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Code != wire.CodeServerClosing {
		t.Fatalf("submit while closing: status %d code %q, want 503 %q", resp.StatusCode, eb.Code, wire.CodeServerClosing)
	}
	if status, _ := postJSON(t, ts.URL+"/queries:batch", map[string]any{"v": 2, "queries": []map[string]any{{"type": "point"}}}); status != http.StatusServiceUnavailable {
		t.Errorf("batch while closing: status %d, want 503", status)
	}
	// Healthz reports not-OK while draining.
	_, h := getJSON(t, ts.URL+"/healthz")
	if h["ok"] != false {
		t.Errorf("healthz while closing = %v, want ok=false", h)
	}
}

// TestServeListPaginationEdgeCases: offset past the end, limit 0
// (count-only), exact boundaries, and negative values.
func TestServeListPaginationEdgeCases(t *testing.T) {
	_, ts := newTestStack(t)
	for i := 0; i < 4; i++ {
		status, _ := postJSON(t, ts.URL+"/query", map[string]any{
			"v": 1, "type": "point", "id": fmt.Sprintf("pg-%d", i),
			"loc": map[string]float64{"x": 30, "y": 30}, "budget": 20,
		})
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, status)
		}
	}
	cases := []struct {
		query               string
		wantStatus          int
		wantCount, wantOffs int
	}{
		{"", http.StatusOK, 4, 0},
		{"?offset=4", http.StatusOK, 0, 4},         // offset == len: empty, not an error
		{"?offset=99", http.StatusOK, 0, 99},       // offset past the end
		{"?limit=0", http.StatusOK, 0, 0},          // count-only page
		{"?offset=3&limit=5", http.StatusOK, 1, 3}, // last partial page
		{"?offset=0&limit=4", http.StatusOK, 4, 0}, // exact fit
		{"?offset=-1", http.StatusBadRequest, 0, 0},
		{"?limit=-5", http.StatusBadRequest, 0, 0},
		{"?offset=x", http.StatusBadRequest, 0, 0},
		{"?limit=x", http.StatusBadRequest, 0, 0},
	}
	for _, tc := range cases {
		status, page := getJSON(t, ts.URL+"/queries"+tc.query)
		if status != tc.wantStatus {
			t.Errorf("GET /queries%s: status %d, want %d", tc.query, status, tc.wantStatus)
			continue
		}
		if status != http.StatusOK {
			continue
		}
		if page["count"].(float64) != float64(tc.wantCount) || page["total"].(float64) != 4 {
			t.Errorf("GET /queries%s: page %v, want count %d total 4", tc.query, page, tc.wantCount)
		}
		if page["offset"].(float64) != float64(tc.wantOffs) {
			t.Errorf("GET /queries%s: offset %v, want %d", tc.query, page["offset"], tc.wantOffs)
		}
	}
}

// TestReplayHistoryMidStreamGap: a gap the record's own consumer
// suffered mid-stream is replayed at its position, and history-cap
// eviction folds evicted frames (gaps included) into the leading
// synthetic gap.
func TestReplayHistoryMidStreamGap(t *testing.T) {
	upd := func(slot int) wire.EventFrame {
		r := wire.Result{Slot: slot, Answered: true, Value: 1}
		return wire.EventFrame{V: wire.Version2, Event: wire.FrameSlotUpdate, ID: "g", Slot: slot, Result: &r}
	}
	rec := newQueryRecord("g", "point", discardLogger())
	rec.live, rec.windowKnown = true, true
	rec.start, rec.end = 0, 9
	rec.frames = []wire.EventFrame{
		upd(0), upd(1),
		{V: wire.Version2, Event: wire.FrameGap, ID: "g", Slot: 4, From: 2, To: 3, Dropped: 2},
		upd(4), upd(5),
	}
	rec.lastCursor = 5

	replay := func(after int) []wire.EventFrame {
		rr := httptest.NewRecorder()
		fw := &frameWriter{w: rr, fl: rr}
		if _, ok := (&Server{}).replayHistory(rec, after, 1<<30, fw); !ok {
			t.Fatal("replay failed")
		}
		var out []wire.EventFrame
		for _, line := range strings.Split(strings.TrimSpace(rr.Body.String()), "\n") {
			if line == "" {
				continue
			}
			f, err := wire.DecodeEventFrame([]byte(line))
			if err != nil {
				t.Fatalf("bad frame %q: %v", line, err)
			}
			out = append(out, f)
		}
		return out
	}

	// Resuming from cursor 1 must surface the mid-stream gap before the
	// later updates — not silently skip from 1 to 4.
	frames := replay(1)
	var kinds []string
	for _, f := range frames {
		kinds = append(kinds, fmt.Sprintf("%s@%d", f.Event, f.Slot))
	}
	want := []string{"gap@4", "slot_update@4", "slot_update@5"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("replay(1) = %v, want %v", kinds, want)
	}
	if frames[0].From != 2 || frames[0].To != 3 || frames[0].Dropped != 2 {
		t.Errorf("gap frame = %+v, want From 2 To 3 Dropped 2", frames[0])
	}

	// From scratch: accepted first, then everything in stream order.
	frames = replay(-1 << 30)
	if len(frames) != 6 || frames[0].Event != wire.FrameAccepted || frames[3].Event != wire.FrameGap {
		t.Fatalf("full replay = %+v, want accepted + 5 stream frames with the gap third", frames)
	}

	// History-cap eviction folds evicted gaps into missing.
	rec2 := newQueryRecord("g2", "point", discardLogger())
	rec2.mu.Lock()
	rec2.appendFrameLocked(wire.EventFrame{V: wire.Version2, Event: wire.FrameGap, ID: "g2", Slot: 0, From: 0, To: 0, Dropped: 5})
	for s := 1; s <= maxResultsPerQuery+1; s++ {
		rec2.appendFrameLocked(upd(s))
	}
	missing := rec2.missing
	frameCount := len(rec2.frames)
	rec2.mu.Unlock()
	// The gap (5 dropped) and one update were evicted: missing = 5 + 1.
	if missing != 6 || frameCount != maxResultsPerQuery {
		t.Fatalf("missing = %d frames = %d, want 6 and %d", missing, frameCount, maxResultsPerQuery)
	}
}

// TestServeWatchOfRolledBackSubmission: a watcher that grabs a record
// whose engine submission then fails must receive a terminal frame, not
// hang on a stream no consumer will ever feed.
func TestServeWatchOfRolledBackSubmission(t *testing.T) {
	world := ps.NewRWMWorld(9, 100, ps.SensorConfig{})
	// Queue size 1 and no started loop: the first submission occupies the
	// queue, the second fails with ErrQueueFull after its registry
	// reservation.
	eng := ps.NewEngine(ps.NewAggregator(world), ps.WithQueueSize(1))
	srv := New(eng, world, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Start()
		eng.Stop()
	})

	if status, _ := postJSON(t, ts.URL+"/query", map[string]any{
		"v": 1, "type": "point", "id": "fill", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 5,
	}); status != http.StatusAccepted {
		t.Fatalf("filler submit: status %d", status)
	}
	status, body := postJSON(t, ts.URL+"/query", map[string]any{
		"v": 1, "type": "point", "id": "rb", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 5,
	})
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d body %v", status, body)
	}
	if body["code"] != wire.CodeQueueFull {
		t.Errorf("overflow code = %v, want %q", body["code"], wire.CodeQueueFull)
	}
	// The rolled-back record is gone from the registry: 404, not a hang.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/watch?id=rb", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("watch rolled-back id: status %d, want 404", resp.StatusCode)
	}
}
