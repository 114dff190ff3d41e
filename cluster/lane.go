package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	ps "repro"
	"repro/wire"
)

// networkLane is the coordinator-side LaneRunner for a remote shard: one
// TCP connection speaking strictly synchronous NDJSON cluster frames,
// plus the oplog that lets a dead node rebuild the lane's exact state.
//
// Every public method serializes on mu, so the sharded layer's slot
// goroutine and the coordinator's heartbeat never interleave frames on
// the wire. Any transport fault (dial, timeout, short read, sequence
// mismatch) breaks the connection; the next use redials and replays the
// oplog under a bumped epoch. Application errors relayed by the node
// (validation failures and the like) keep the connection and wrap the
// sentinel named by their wire code, so errors.Is works as if the lane
// were local.
type networkLane struct {
	co    *Coordinator
	shard int
	name  string
	addr  string

	mu    sync.Mutex
	conn  net.Conn
	br    *bufio.Reader
	seq   uint64
	epoch uint64
	// ops is the lane's replayable history: submits, cancels and one
	// slot op per completed slot. A resync ships the
	// whole log; checkpointing to bound it is future work.
	ops []wire.ClusterOp
	// ranSlot is the last slot whose RunLane partial was delivered; a
	// FinishSlot for any other slot records Ran=false (degraded slot).
	ranSlot int
}

func newNetworkLane(co *Coordinator, shard int, name, addr string) *networkLane {
	return &networkLane{co: co, shard: shard, name: name, addr: addr, ranSlot: -1}
}

// Epoch returns the lane's current resync generation.
func (l *networkLane) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// connect eagerly establishes the lane (used by New for fail-fast
// startup).
func (l *networkLane) connect() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ensure()
}

// ensure makes the lane usable: if the connection is down it redials and
// replays state under epoch+1 — a hello when the lane has no history yet,
// otherwise a resync carrying the full oplog. Callers hold mu.
func (l *networkLane) ensure() error {
	if l.conn != nil {
		return nil
	}
	d := net.Dialer{Timeout: l.co.rpcTimeout}
	conn, err := d.Dial("tcp", l.addr)
	if err != nil {
		return fmt.Errorf("cluster: lane %d (%s) dial %s: %v: %w", l.shard, l.name, l.addr, err, ps.ErrNodeUnavailable)
	}
	l.conn = conn
	l.br = bufio.NewReader(conn)
	cfg := l.co.nodeConfig(l.shard)
	f := wire.ClusterFrame{Type: wire.ClusterHello, Config: &cfg}
	if len(l.ops) > 0 {
		f.Type = wire.ClusterResync
		f.Ops = l.ops
	}
	next := l.epoch + 1
	resp, err := l.call(f, next)
	if err != nil {
		return err
	}
	if resp.Type != wire.ClusterOK {
		l.breakConn()
		return fmt.Errorf("cluster: lane %d (%s): %s rejected: %s: %w", l.shard, l.name, f.Type, resp.Error, ps.ErrNodeUnavailable)
	}
	l.epoch = next
	l.co.noteAlive(l.name)
	return nil
}

// breakConn tears the connection down; the next use redials and resyncs.
func (l *networkLane) breakConn() {
	if l.conn != nil {
		l.conn.Close()
	}
	l.conn = nil
	l.br = nil
}

// transportErr breaks the lane and wraps the fault as node-unavailable.
func (l *networkLane) transportErr(stage string, err error) error {
	l.breakConn()
	return fmt.Errorf("cluster: lane %d (%s) %s: %v: %w", l.shard, l.name, stage, err, ps.ErrNodeUnavailable)
}

// call runs one request/response exchange under the given epoch. The
// response must echo the request's sequence number and carry the same
// epoch; an epoch mismatch (or an explicit stale_epoch rejection) counts
// an epoch rejection, breaks the lane and surfaces ps.ErrStaleEpoch.
// Error frames with other codes are application errors: the connection is
// kept and the named sentinel wrapped. Callers hold mu.
func (l *networkLane) call(f wire.ClusterFrame, epoch uint64) (wire.ClusterFrame, error) {
	l.seq++
	f.V = wire.ClusterVersion
	f.Seq = l.seq
	f.Epoch = epoch
	f.Node = l.co.name
	buf, err := wire.MarshalClusterFrame(f)
	if err != nil {
		return wire.ClusterFrame{}, fmt.Errorf("cluster: lane %d (%s) encode %s: %w", l.shard, l.name, f.Type, err)
	}
	if err := l.conn.SetDeadline(time.Now().Add(l.co.rpcTimeout)); err != nil {
		return wire.ClusterFrame{}, l.transportErr("deadline", err)
	}
	if _, err := l.conn.Write(append(buf, '\n')); err != nil {
		return wire.ClusterFrame{}, l.transportErr("write "+f.Type, err)
	}
	line, err := l.br.ReadBytes('\n')
	if err != nil {
		return wire.ClusterFrame{}, l.transportErr("read "+f.Type+" response", err)
	}
	resp, err := wire.DecodeClusterFrame(line)
	if err != nil {
		return wire.ClusterFrame{}, l.transportErr("decode "+f.Type+" response", err)
	}
	if resp.Seq != f.Seq {
		return wire.ClusterFrame{}, l.transportErr(f.Type, fmt.Errorf("response seq %d for request seq %d", resp.Seq, f.Seq))
	}
	if resp.Type == wire.ClusterError && resp.Code == wire.CodeStaleEpoch {
		l.co.metrics().epochRejections.Inc()
		l.breakConn()
		return wire.ClusterFrame{}, fmt.Errorf("cluster: lane %d (%s): node fenced epoch %d (node at %d): %w",
			l.shard, l.name, epoch, resp.Epoch, ps.ErrStaleEpoch)
	}
	if resp.Epoch != epoch {
		l.co.metrics().epochRejections.Inc()
		l.breakConn()
		return wire.ClusterFrame{}, fmt.Errorf("cluster: lane %d (%s): %s response tagged epoch %d, want %d: %w",
			l.shard, l.name, f.Type, resp.Epoch, epoch, ps.ErrStaleEpoch)
	}
	if resp.Type == wire.ClusterError {
		err := fmt.Errorf("cluster: lane %d (%s): %s", l.shard, l.name, resp.Error)
		if s := wire.SentinelError(resp.Code); s != nil {
			err = fmt.Errorf("cluster: lane %d (%s): %s: %w", l.shard, l.name, resp.Error, s)
		}
		return resp, err
	}
	return resp, nil
}

// Submit forwards an already-validated spec to the node as its v1
// submission envelope and records the submit in the oplog.
func (l *networkLane) Submit(spec ps.Spec) (ps.SubmittedQuery, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.ensure(); err != nil {
		return ps.SubmittedQuery{}, err
	}
	env, err := wire.FromSpec(spec)
	if err != nil {
		return ps.SubmittedQuery{}, err
	}
	raw, err := json.Marshal(env)
	if err != nil {
		return ps.SubmittedQuery{}, err
	}
	resp, err := l.call(wire.ClusterFrame{Type: wire.ClusterSubmit, Spec: raw}, l.epoch)
	if err != nil {
		return ps.SubmittedQuery{}, err
	}
	if resp.Type != wire.ClusterSubmitted {
		return ps.SubmittedQuery{}, l.transportErr("submit", fmt.Errorf("unexpected %s response", resp.Type))
	}
	kind, err := ps.ParseQueryKind(resp.Kind)
	if err != nil {
		return ps.SubmittedQuery{}, fmt.Errorf("cluster: lane %d (%s): %v", l.shard, l.name, err)
	}
	l.ops = append(l.ops, wire.ClusterOp{Op: "submit", Spec: raw})
	l.co.noteAlive(l.name)
	return ps.SubmittedQuery{ID: resp.ID, Kind: kind, Start: resp.Start, End: resp.End}, nil
}

// Cancel withdraws a query on the node; a broken lane reports false (the
// query is not canceled anywhere, consistently).
func (l *networkLane) Cancel(id string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.ensure(); err != nil {
		return false
	}
	resp, err := l.call(wire.ClusterFrame{Type: wire.ClusterCancel, ID: id}, l.epoch)
	if err != nil || resp.Type != wire.ClusterOK {
		return false
	}
	if resp.Removed {
		l.ops = append(l.ops, wire.ClusterOp{Op: "cancel", ID: id})
	}
	l.co.noteAlive(l.name)
	return resp.Removed
}

// RunLane commands the node to step its replica into slot t, run the
// shard's selection and return the partial. The offers argument is
// ignored: the node computes the identical slice from its own replica.
func (l *networkLane) RunLane(t int, _ []ps.Offer) (*ps.LanePartial, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.ensure(); err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := l.call(wire.ClusterFrame{Type: wire.ClusterRunSlot, Slot: t}, l.epoch)
	if err != nil {
		return nil, err
	}
	l.co.metrics().partialRTT.Observe(time.Since(start).Seconds())
	if resp.Type != wire.ClusterPartial || resp.Partial == nil {
		return nil, l.transportErr("run_slot", fmt.Errorf("unexpected %s response", resp.Type))
	}
	l.ranSlot = t
	l.co.noteAlive(l.name)
	return resp.Partial, nil
}

// FinishSlot appends the slot's global commit to the oplog and, when the
// lane delivered this slot's partial over a live connection, pushes the
// commit frame so the node's replica applies it now. Degraded slots skip
// the RPC: the node missed the slot entirely and will reproduce it
// (Ran=false: step + commit, no execution) from the oplog on resync.
func (l *networkLane) FinishSlot(t int, selectedIDs []int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ran := l.ranSlot == t
	l.ops = append(l.ops, wire.ClusterOp{Op: "slot", Slot: t, Selected: selectedIDs, Ran: ran})
	if !ran || l.conn == nil {
		return nil
	}
	resp, err := l.call(wire.ClusterFrame{Type: wire.ClusterCommit, Slot: t, Selected: selectedIDs}, l.epoch)
	if err != nil {
		return err
	}
	if resp.Type != wire.ClusterOK {
		return l.transportErr("commit", fmt.Errorf("unexpected %s response", resp.Type))
	}
	l.co.noteAlive(l.name)
	return nil
}

// ping exchanges membership facts on the heartbeat. A broken lane is
// redialed (and resynced) first, so rejoins happen between slots.
func (l *networkLane) ping(facts []wire.Fact) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.ensure(); err != nil {
		return
	}
	resp, err := l.call(wire.ClusterFrame{Type: wire.ClusterPing, Facts: facts}, l.epoch)
	if err != nil || resp.Type != wire.ClusterOK {
		return
	}
	l.co.noteAlive(l.name)
	l.co.facts.merge(resp.Facts, time.Now())
}

// close shuts the connection without clearing lane state.
func (l *networkLane) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.breakConn()
}
