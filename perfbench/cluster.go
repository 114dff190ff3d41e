package main

import (
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	ps "repro"
	"repro/cluster"
)

// clusterParams sizes the cluster-continuous workload.
type clusterParams struct {
	sensors, shards      int
	points, multis, aggs int
	// newCont continuous queries (half location monitors, half event
	// detectors) of lifetime slots start every slot; cancels live ones
	// are withdrawn every slot.
	newCont, lifetime, cancels int
	warmup, replay, setups     int
	loop                       loopParams
}

var (
	clusterFull = clusterParams{sensors: 10_000, shards: 2, points: 300, multis: 20, aggs: 6,
		newCont: 16, lifetime: 20, cancels: 3, warmup: 3, replay: 40, setups: 5,
		loop: loopParams{tail: 0.95, heapAt: 250}}
	clusterTiny = clusterParams{sensors: 1_000, shards: 2, points: 20, multis: 2, aggs: 2,
		newCont: 4, lifetime: 4, cancels: 1, warmup: 1, replay: 6, setups: 2,
		loop: loopParams{tail: 0.95, heapAt: 2}}
)

// clusterDemand generates each slot's submissions and cancels from the
// seed and the set of live continuous queries, which evolves the same
// way on any backend that returns the same SubmittedQuery windows — so
// the measured cluster and the in-process replay see identical inputs.
type clusterDemand struct {
	p      clusterParams
	seed   uint64
	boxes  []ps.Rect
	live   []ps.SubmittedQuery // continuous queries, in submission order
	budget map[string]float64
}

func newClusterDemand(p clusterParams, seed uint64, w *ps.World) *clusterDemand {
	return &clusterDemand{p: p, seed: seed, boxes: insetBoxes(w, p.shards, w.DMax+1), budget: map[string]float64{}}
}

// slotOps is one slot's demand: cancels first, then submissions.
type slotOps struct {
	cancels []string
	specs   []ps.Spec
}

func (d *clusterDemand) demand(t int) slotOps {
	r := rand.New(rand.NewPCG(d.seed, uint64(t)))
	u := func(a, b float64) float64 { return a + (b-a)*r.Float64() }
	var ops slotOps
	for i := 0; i < d.p.cancels && len(d.live) > 0; i++ {
		j := r.IntN(len(d.live))
		ops.cancels = append(ops.cancels, d.live[j].ID)
		d.live = slices.Delete(d.live, j, j+1)
	}
	in := func(i int) ps.Point {
		b := d.boxes[i%len(d.boxes)]
		return ps.Pt(u(b.MinX, b.MaxX), u(b.MinY, b.MaxY))
	}
	for i := 0; i < d.p.points; i++ {
		ops.specs = append(ops.specs, ps.PointSpec{ID: fmt.Sprintf("t%d-pt%d", t, i), Loc: in(i), Budget: 8 + u(0, 6)})
	}
	for i := 0; i < d.p.multis; i++ {
		ops.specs = append(ops.specs, ps.MultiPointSpec{ID: fmt.Sprintf("t%d-mp%d", t, i), Loc: in(i), Budget: 60 + u(0, 80), K: 4})
	}
	for i := 0; i < d.p.aggs; i++ {
		b := d.boxes[i%len(d.boxes)]
		x, y := u(b.MinX, b.MaxX-10), u(b.MinY, b.MaxY-10)
		ops.specs = append(ops.specs, ps.AggregateSpec{ID: fmt.Sprintf("t%d-agg%d", t, i), Region: ps.NewRect(x, y, x+u(6, 10), y+u(6, 10)), Budget: 250 + u(0, 200)})
	}
	for i := 0; i < d.p.newCont; i++ {
		id := fmt.Sprintf("t%d-cq%d", t, i)
		if i%2 == 0 {
			ops.specs = append(ops.specs, ps.LocationMonitoringSpec{ID: id, Loc: in(i / 2), Duration: d.p.lifetime, Budget: 150, Samples: 6})
		} else {
			ops.specs = append(ops.specs, ps.EventDetectionSpec{ID: id, Loc: in(i / 2), Duration: d.p.lifetime, Threshold: 0.7, Confidence: 0.8, BudgetPerSlot: 40})
		}
	}
	for _, s := range ops.specs {
		d.budget[s.QueryID()] = budgetOf(s)
	}
	return ops
}

// accepted records a submission's window; continuous queries join the
// live set.
func (d *clusterDemand) accepted(sq ps.SubmittedQuery) {
	if sq.End > sq.Start {
		d.live = append(d.live, sq)
	}
}

// retire drops queries whose window ended with the executed slot t (a
// SlotReport's Slot, which counts from 0).
func (d *clusterDemand) retire(t int) {
	d.live = slices.DeleteFunc(d.live, func(sq ps.SubmittedQuery) bool { return sq.End <= t })
	live := make(map[string]bool, len(d.live))
	for _, sq := range d.live {
		live[sq.ID] = true
	}
	for id := range d.budget {
		if !live[id] {
			delete(d.budget, id)
		}
	}
}

// step applies one slot's demand untimed (warm-up and replay).
func (d *clusterDemand) step(b slotBackend, t int) (*ps.SlotReport, error) {
	ops := d.demand(t)
	for _, id := range ops.cancels {
		if !b.CancelQuery(id) {
			return nil, fmt.Errorf("slot %d: cancel %q removed nothing", t, id)
		}
	}
	for _, s := range ops.specs {
		sq, err := b.Submit(s)
		if err != nil {
			return nil, fmt.Errorf("slot %d: submit %q: %w", t, s.QueryID(), err)
		}
		d.accepted(sq)
	}
	rep := b.RunSlot()
	d.retire(rep.Slot)
	return rep, nil
}

// clusterRig is one cluster instance: node servers on loopback
// listeners and the coordinator driving them.
type clusterRig struct {
	co    *cluster.Coordinator
	nodes []*cluster.NodeServer
	lns   []*countingListener
	wires wireCounter
	wg    sync.WaitGroup
}

func startCluster(p clusterParams, seed uint64, tr *tracer) (*clusterRig, error) {
	rig := &clusterRig{}
	addrs := make([]string, p.shards)
	for k := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("node %d listen: %w", k, err)
		}
		addrs[k] = ln.Addr().String()
		var served net.Listener = ln
		if tr != nil {
			cl := &countingListener{Listener: ln, tr: tr, count: &rig.wires, service: "node", samples: map[string][]float64{}}
			rig.lns = append(rig.lns, cl)
			served = cl
		}
		node := cluster.NewNodeServer(fmt.Sprintf("node%d", k))
		rig.nodes = append(rig.nodes, node)
		rig.wg.Add(1)
		go func() {
			defer rig.wg.Done()
			_ = node.Serve(served) // returns nil after Close; an accept error ends the node, which the next RPC reports
		}()
	}
	co, err := cluster.New(cluster.Config{
		World: "rwm", Seed: int64(seed), Sensors: p.sensors, Shards: p.shards,
		Nodes: addrs, RPCTimeout: 60 * time.Second,
	})
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.co = co
	return rig, nil
}

func (r *clusterRig) close() {
	if r.co != nil {
		r.co.Close()
	}
	for _, n := range r.nodes {
		n.Close()
	}
	r.wg.Wait()
}

// runSlotSamples returns each node's run_slot service times so far.
func (r *clusterRig) runSlotSamples() [][]float64 {
	var out [][]float64
	for _, l := range r.lns {
		out = append(out, l.serviceMs("run_slot"))
	}
	return out
}

// runCluster is the cluster-continuous workload: a closed loop driving
// a cluster coordinator whose two shards run on node servers over
// loopback TCP, with continuous queries living across slots and a few
// canceled every slot.
func runCluster(o options, tr *tracer) (*outcome, error) {
	p := clusterFull
	if o.tiny {
		p = clusterTiny
	}
	out := newOutcome()

	var setups []float64
	var rig *clusterRig
	var drv *clusterDemand
	var digests []uint64
	for i := 0; i < p.setups; i++ {
		if rig != nil {
			rig.close()
		}
		runtime.GC() // time each set-up from a collected heap, not its predecessor's garbage
		start := time.Now()
		var err error
		if rig, err = startCluster(p, o.seed, tr); err != nil {
			return nil, err
		}
		drv = newClusterDemand(p, o.seed, rig.co.World())
		var reps []*ps.SlotReport
		for t := 1; t <= p.warmup; t++ {
			rep, err := drv.step(rig.co.Sharded(), t)
			if err != nil {
				rig.close()
				return nil, err
			}
			reps = append(reps, rep)
		}
		setups = append(setups, time.Since(start).Seconds())
		digests = digests[:0]
		for _, rep := range reps {
			digests = append(digests, reportDigest(rep))
		}
	}
	defer rig.close()
	out.e2e["setup_s"] = median(setups)

	sa := rig.co.Sharded()
	acc := newSlotAcc(p.loop)
	heap := newHeapTrack()
	serviceBefore := rig.runSlotSamples()
	bytes0, frames0 := rig.wires.bytes.Load(), rig.wires.frames.Load()
	p0 := sampleProc()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for t := p.warmup + 1; time.Now().Before(deadline) || acc.slots < 2; t++ {
		ops := drv.demand(t)
		key := fmt.Sprint(t)
		submitted := make([]time.Time, 0, len(ops.specs))
		var oneShots []string

		cycleStart := time.Now()
		slotSpan := tr.open("slot", key, 0, cycleStart)
		for _, id := range ops.cancels {
			span := tr.open("ps.CancelQuery", id, slotSpan, time.Now())
			tr.setCurrent(span)
			ok := sa.CancelQuery(id)
			tr.close(span, time.Now())
			out.attempted++
			if !ok {
				out.failed++
				out.problem("slot %d: cancel %q removed nothing", t, id)
			}
		}
		for _, s := range ops.specs {
			st := time.Now()
			span := tr.open("ps.Submit", s.QueryID(), slotSpan, st)
			tr.setCurrent(span)
			sq, err := sa.Submit(s)
			if tr != nil {
				end := time.Now()
				tr.close(span, end)
				acc.submitUs = append(acc.submitUs, float64(end.Sub(st).Nanoseconds())/1e3)
			}
			out.attempted++
			if err != nil {
				out.failed++
				out.problem("slot %d: submit %q: %v", t, s.QueryID(), err)
				continue
			}
			drv.accepted(sq)
			if sq.End == sq.Start {
				submitted = append(submitted, st)
				oneShots = append(oneShots, sq.ID)
			}
		}
		rep, end := runTimedSlot(out, tr, sa, t, slotSpan)
		acc.cycles = append(acc.cycles, ms(end.Sub(cycleStart)))
		for i := range oneShots {
			acc.finals = append(acc.finals, ms(end.Sub(submitted[i])))
		}
		for _, q := range rep.Outcomes() {
			if q.Answered {
				acc.answered++
			}
		}
		acc.queries += len(ops.specs)
		acc.addReport(rep)
		checkPayments(out, rep, drv.budget)
		drv.retire(rep.Slot)
		if t <= p.warmup+p.replay {
			digests = append(digests, reportDigest(rep))
		}
		heap.observe(t)
		acc.heapCheckpoint(out.e2e)
	}
	wall := time.Since(start)
	p1 := sampleProc()
	acc.endToEnd(out.e2e, wall)
	acc.layers(out.layer)
	procMetrics(out.layer, p0, p1, acc.slots, acc.queries, heap)

	n := float64(max(acc.slots, 1))
	out.layer["cluster.lane_rpc_ms"] = acc.stageMs["lane_rpc"] / n
	out.layer["cluster.gather_ms"] = acc.stageMs["gather"] / n
	out.layer["cluster.membership_ms"] = acc.stageMs["membership"] / n
	if tr != nil {
		// Per slot, the slowest node's run_slot service time: the lane_rpc
		// stage waits for it, and the rest of lane_rpc is transport.
		after := rig.runSlotSamples()
		var service float64
		for s := 0; s < acc.slots; s++ {
			var worst float64
			for k := range after {
				if i := len(serviceBefore[k]) + s; i < len(after[k]) {
					worst = max(worst, after[k][i])
				}
			}
			service += worst
		}
		out.layer["cluster.node_service_ms"] = service / n
		out.layer["cluster.transport_ms"] = out.layer["cluster.lane_rpc_ms"] - service/n
		out.layer["wire.cluster_bytes_per_slot"] = float64(rig.wires.bytes.Load()-bytes0) / n
		out.layer["wire.cluster_frames_per_slot"] = float64(rig.wires.frames.Load()-frames0) / n
	}

	if err := clusterCheck(out, p, o.seed, digests); err != nil {
		return nil, err
	}
	out.e2e["ok_frac"] = 1 - ratio(float64(out.failed), float64(out.attempted))
	return out, nil
}

// clusterCheck replays the measured run's first slots — same seed, same
// submissions and cancels — on an in-process ShardedAggregator and
// requires every SlotReport to match the cluster's exactly.
func clusterCheck(out *outcome, p clusterParams, seed uint64, digests []uint64) error {
	w := ps.NewRWMWorld(int64(seed), p.sensors, ps.SensorConfig{})
	sa := ps.NewShardedAggregator(w, p.shards)
	drv := newClusterDemand(p, seed, w)
	for i, want := range digests {
		rep, err := drv.step(sa, i+1)
		if err != nil {
			return fmt.Errorf("in-process replay: %w", err)
		}
		if reportDigest(rep) != want {
			out.problem("equivalence: slot %d: cluster SlotReport differs from the in-process sharded one (welfare %v)", i+1, rep.Welfare)
		}
	}
	return nil
}
