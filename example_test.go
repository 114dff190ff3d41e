package ps_test

import (
	"fmt"

	ps "repro"
)

// ExampleAggregator_Submit shows the batch entry point: every query kind
// is a spec struct submitted through the one generic Submit, and RunSlot
// executes the paper's once-per-slot selection.
func ExampleAggregator_Submit() {
	world := ps.NewRWMWorld(1, 200, ps.SensorConfig{})
	agg := ps.NewAggregator(world)

	if _, err := agg.Submit(ps.PointSpec{ID: "q1", Loc: ps.Pt(30, 30), Budget: 15}); err != nil {
		fmt.Println("submit:", err)
		return
	}
	if _, err := agg.Submit(ps.AggregateSpec{ID: "q2", Region: ps.NewRect(20, 20, 45, 45), Budget: 120}); err != nil {
		fmt.Println("submit:", err)
		return
	}

	report := agg.RunSlot()
	fmt.Println("q1 answered:", report.Answered("q1"))
	fmt.Println("q2 answered:", report.Answered("q2"))
	fmt.Println("welfare positive:", report.Welfare > 0)
	// Output:
	// q1 answered: true
	// q2 answered: true
	// welfare positive: true
}

// ExampleEngine_Watch attaches a second observer to a live query's event
// stream: the watcher gets the query's Accepted event on join, then every
// event published afterwards, ending with Final when the query expires.
func ExampleEngine_Watch() {
	world := ps.NewRWMWorld(1, 200, ps.SensorConfig{})
	eng := ps.NewEngine(ps.NewAggregator(world)) // no interval: virtual clock
	eng.Start()
	defer eng.Stop()

	h, err := eng.Submit(ps.LocationMonitoringSpec{
		ID: "lm1", Loc: ps.Pt(30, 30), Duration: 2, Budget: 80, Samples: 2,
	})
	if err != nil {
		fmt.Println("submit:", err)
		return
	}
	// Submission is an asynchronous enqueue: the query is live — and
	// watchable — once its own stream opens with Accepted.
	<-h.Events()

	sub, err := eng.Watch("lm1")
	if err != nil {
		fmt.Println("watch:", err)
		return
	}
	defer sub.Close()

	if err := eng.RunSlots(2); err != nil {
		fmt.Println("run:", err)
		return
	}
	for ev := range sub.Events() {
		if ev.Type == ps.EventSlotUpdate {
			fmt.Println("slot", ev.Slot, "answered:", ev.Result.Answered)
		} else {
			fmt.Println(ev.Type)
		}
	}
	// Output:
	// accepted
	// slot 0 answered: true
	// slot 1 answered: true
	// final
}

// ExampleAggregator_SelectionStats shows the lazy-greedy (CELF)
// selection at work: the slot's valuation calls fall short of what the
// paper's exhaustive scan would have made, and SavedCalls is the
// difference. The results are bit-identical to that scan's.
func ExampleAggregator_SelectionStats() {
	agg := ps.NewAggregator(ps.NewRWMWorld(7, 300, ps.SensorConfig{}))
	agg.Submit(ps.AggregateSpec{ID: "a", Region: ps.NewRect(10, 10, 60, 60), Budget: 200})
	agg.Submit(ps.PointSpec{ID: "p", Loc: ps.Pt(40, 40), Budget: 12})
	agg.RunSlot()

	st := agg.SelectionStats()
	fmt.Println("fewer calls than the exhaustive scan:", st.ValuationCalls < st.SerialEquivCalls)
	fmt.Println("saved calls reported:", st.SavedCalls() > 0)
	// Output:
	// fewer calls than the exhaustive scan: true
	// saved calls reported: true
}

// ExampleNewShardedAggregator builds the geo-sharded execution layer:
// queries route to the shard their footprint lies in, and every lane
// runs its own lazy-greedy pass in parallel.
func ExampleNewShardedAggregator() {
	world := ps.NewRWMWorld(2, 400, ps.SensorConfig{})
	sa := ps.NewShardedAggregator(world, 4)

	sa.Submit(ps.PointSpec{ID: "p0", Loc: ps.Pt(30, 30), Budget: 15})
	sa.Submit(ps.PointSpec{ID: "p1", Loc: ps.Pt(50, 50), Budget: 15})

	report := sa.RunSlot()
	fmt.Println("shards:", sa.ShardCount())
	fmt.Println("p0 answered:", report.Answered("p0"))
	fmt.Println("p1 answered:", report.Answered("p1"))
	// Output:
	// shards: 4
	// p0 answered: true
	// p1 answered: true
}
