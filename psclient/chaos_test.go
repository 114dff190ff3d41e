package psclient

import (
	"net/http/httptest"
	"testing"
	"time"

	ps "repro"
	"repro/serve"
	"repro/wire"
)

// TestStreamSurvivesChaosDrops runs a multi-slot continuous query behind
// the serve.Chaos middleware with a 100% mid-stream drop probability:
// every /watch connection is severed after a handful of frames. The
// Stream must transparently reconnect from its cursor each time and the
// caller must still observe every slot in the accepted window exactly
// once — either as a slot_update or inside a gap range — ending on the
// query's terminal frame. Run with -race this also shakes the
// panic-abort path through the instrument middleware.
func TestStreamSurvivesChaosDrops(t *testing.T) {
	world := ps.NewRWMWorld(1, 200, ps.SensorConfig{})
	eng := ps.NewEngine(ps.NewAggregator(world), ps.WithSlotInterval(5*time.Millisecond))
	eng.Start()
	handler := serve.Chaos(
		serve.New(eng, world, serve.Options{}).Handler(),
		serve.ChaosConfig{Seed: 7, DropProb: 1, DropAfterMin: 2, DropAfterMax: 4},
	)
	ts := httptest.NewServer(handler)
	t.Cleanup(func() {
		ts.Close()
		eng.Stop()
	})

	c, err := Dial(ts.URL, WithRetry(8, time.Millisecond))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	ctx := testCtx(t)
	q, err := c.Submit(ctx, ps.LocationMonitoringSpec{
		ID: "chaos-lm", Loc: ps.Pt(30, 30), Duration: 25, Budget: 400, Samples: 4,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	st := q.Stream()
	defer st.Close()
	var start, end int
	var windowKnown bool
	covered := map[int]int{} // slot -> deliveries (update or gap range)
	var terminal wire.EventFrame
	for ev, err := range st.All(ctx) {
		if err != nil {
			t.Fatalf("stream (stats %+v): %v", st.Stats(), err)
		}
		switch ev.Event {
		case wire.FrameAccepted:
			start, end, windowKnown = ev.Start, ev.End, true
		case wire.FrameSlotUpdate:
			covered[ev.Slot]++
		case wire.FrameGap:
			for s := ev.From; s <= ev.To; s++ {
				covered[s]++
			}
		}
		if ev.Terminal() {
			terminal = ev
		}
	}

	if !windowKnown {
		t.Fatal("never saw the accepted frame")
	}
	if terminal.Event != wire.FrameFinal || terminal.Slot != end {
		t.Fatalf("terminal = %+v, want final at slot %d", terminal, end)
	}
	// Cursor-exact resume: every slot of the window delivered exactly
	// once — a drop must neither lose a slot nor replay one the cursor
	// already vouched for.
	for s := start; s <= end; s++ {
		if covered[s] != 1 {
			t.Errorf("slot %d covered %d times, want exactly once (stats %+v)", s, covered[s], st.Stats())
		}
	}
	for s := range covered {
		if s < start || s > end {
			t.Errorf("slot %d outside the accepted window [%d,%d]", s, start, end)
		}
	}
	stats := st.Stats()
	if stats.Reconnects == 0 {
		t.Errorf("stats = %+v: chaos with DropProb 1 forced no reconnects", stats)
	}
}
