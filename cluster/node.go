package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"sync"

	ps "repro"
	"repro/wire"
)

// NodeServer is one shard node: a config-free NDJSON server that builds
// its world replica and lane when a coordinator says hello (or resync)
// and then executes that coordinator's slot commands. All lane state is
// guarded by one mutex — the protocol is synchronous per connection, and
// a node serves exactly one lane, so contention is not a concern; what
// the mutex buys is safety when a coordinator reconnects while an
// abandoned connection still drains.
type NodeServer struct {
	name string

	mu    sync.Mutex
	lane  *ps.NodeLane
	epoch uint64

	connMu sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewNodeServer builds a node that will introduce itself by name in
// membership facts.
func NewNodeServer(name string) *NodeServer {
	return &NodeServer{name: name, conns: map[net.Conn]struct{}{}}
}

// Serve accepts coordinator connections on ln until Close. It returns
// nil after a Close-initiated shutdown, otherwise the accept error.
func (s *NodeServer) Serve(ln net.Listener) error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		ln.Close()
		return fmt.Errorf("cluster: node %s is closed", s.name)
	}
	s.ln = ln
	s.connMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.connMu.Lock()
			closed := s.closed
			s.connMu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.connMu.Unlock()
		go s.handleConn(conn)
	}
}

// Close stops accepting, closes every live connection and waits for the
// handlers to drain. The lane state is kept: a coordinator may reconnect
// a closed-then-reopened listener, though it will resync regardless.
func (s *NodeServer) Close() {
	s.connMu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
}

// handleConn runs one connection's request loop. A malformed frame closes
// the connection — the coordinator sees a transport fault and resyncs —
// rather than guessing at a sequence number to reject it with.
func (s *NodeServer) handleConn(conn net.Conn) {
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
		s.wg.Done()
	}()
	br := bufio.NewReader(conn)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return
		}
		var resp wire.ClusterFrame
		if f, err := wire.DecodeClusterFrame(line); err == nil {
			resp = s.dispatch(f)
		} else if resp, err = s.reject(line, err); err != nil {
			return
		}
		buf, err := wire.MarshalClusterFrame(resp)
		if err != nil {
			return
		}
		if _, err := conn.Write(append(buf, '\n')); err != nil {
			return
		}
	}
}

// dispatch executes one request frame against the node's lane. hello and
// resync adopt the frame's epoch and (re)build the lane; every other
// request is fenced — a missing lane or any epoch mismatch earns a
// stale_epoch rejection carrying the node's current epoch, which tells
// the coordinator to resync onto a fresh generation.
func (s *NodeServer) dispatch(f wire.ClusterFrame) wire.ClusterFrame {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := wire.ClusterFrame{V: wire.ClusterVersion, Seq: f.Seq, Node: s.name, Epoch: s.epoch}
	switch f.Type {
	case wire.ClusterHello, wire.ClusterResync:
		lane, err := buildLane(*f.Config, f.Ops)
		if err != nil {
			return errFrame(resp, err)
		}
		s.lane, s.epoch = lane, f.Epoch
		resp.Type, resp.Epoch = wire.ClusterOK, f.Epoch
		return resp
	}
	if s.lane == nil || f.Epoch != s.epoch {
		resp.Type = wire.ClusterError
		resp.Code = wire.CodeStaleEpoch
		resp.Error = fmt.Sprintf("node %s at epoch %d rejects %s frame at epoch %d: %v",
			s.name, s.epoch, f.Type, f.Epoch, ps.ErrStaleEpoch)
		return resp
	}
	switch f.Type {
	case wire.ClusterSubmit:
		var env wire.Envelope
		if err := json.Unmarshal(f.Spec, &env); err != nil {
			return errFrame(resp, fmt.Errorf("bad submission envelope: %v", err))
		}
		spec, err := env.Spec()
		if err != nil {
			return errFrame(resp, err)
		}
		sq, err := s.lane.Submit(spec)
		if err != nil {
			return errFrame(resp, err)
		}
		resp.Type = wire.ClusterSubmitted
		resp.ID, resp.Kind, resp.Start, resp.End = sq.ID, sq.Kind.String(), sq.Start, sq.End
		return resp
	case wire.ClusterCancel:
		resp.Type = wire.ClusterOK
		resp.Removed = s.lane.Cancel(f.ID)
		return resp
	case wire.ClusterRunSlot:
		p, err := s.lane.RunSlot(f.Slot)
		if err != nil {
			return errFrame(resp, err)
		}
		resp.Type = wire.ClusterPartial
		resp.Slot, resp.Partial = f.Slot, p
		return resp
	case wire.ClusterCommit:
		if err := s.lane.Commit(f.Slot, f.Selected); err != nil {
			return errFrame(resp, err)
		}
		resp.Type = wire.ClusterOK
		return resp
	case wire.ClusterPing:
		// The node's self-report; the coordinator's fact table carries the
		// TTL policy, so a short node-chosen TTL is merely a floor.
		resp.Type = wire.ClusterOK
		resp.Facts = []wire.Fact{
			{Subject: s.name, Attribute: "alive", Value: "1", TTLMs: 2000},
			{Subject: s.name, Attribute: "epoch", Value: strconv.FormatUint(s.epoch, 10), TTLMs: 2000},
			{Subject: s.name, Attribute: "slot", Value: strconv.Itoa(s.lane.Slot()), TTLMs: 2000},
		}
		return resp
	default:
		return errFrame(resp, fmt.Errorf("frame type %q is not a request", f.Type))
	}
}

// reject answers a v1 frame this build does not accept — an unknown type
// such as a retired request type, or a missing required field — with an
// error frame echoing its seq, so the caller fails that one request
// instead of losing the connection. Bytes that are not a v1 frame at all
// return an error, and the connection ends.
func (s *NodeServer) reject(line []byte, decodeErr error) (wire.ClusterFrame, error) {
	var hdr struct {
		V   int    `json:"v"`
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(line, &hdr); err != nil {
		return wire.ClusterFrame{}, err
	}
	if hdr.V != wire.ClusterVersion {
		return wire.ClusterFrame{}, decodeErr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return errFrame(wire.ClusterFrame{V: wire.ClusterVersion, Seq: hdr.Seq, Node: s.name, Epoch: s.epoch}, decodeErr), nil
}

// errFrame shapes an error response, carrying the stable wire code when
// the error wraps a ps sentinel so the coordinator can reconstruct it.
func errFrame(resp wire.ClusterFrame, err error) wire.ClusterFrame {
	resp.Type = wire.ClusterError
	resp.Error = err.Error()
	resp.Code = wire.ErrorCode(err)
	return resp
}

// buildLane constructs a fresh replica lane from a hello/resync config
// and deterministically replays the oplog into it.
func buildLane(cfg wire.NodeConfig, ops []wire.ClusterOp) (*ps.NodeLane, error) {
	world, err := BuildWorld(cfg)
	if err != nil {
		return nil, err
	}
	lane := ps.NewNodeLane(world, cfg.Shards, cfg.Shard)
	for i, op := range ops {
		if err := replayOp(lane, op); err != nil {
			return nil, fmt.Errorf("cluster: resync replay op %d (%s): %w", i, op.Op, err)
		}
	}
	return lane, nil
}

// replayOp applies one oplog entry. Slot ops with Ran=false reproduce a
// slot this lane degraded out of: the replica steps and applies the
// global commit but skips execution, exactly the timeline the
// coordinator served while the node was dead (the slot's one-shot
// queries stay lost by design).
func replayOp(lane *ps.NodeLane, op wire.ClusterOp) error {
	switch op.Op {
	case "submit":
		var env wire.Envelope
		if err := json.Unmarshal(op.Spec, &env); err != nil {
			return err
		}
		spec, err := env.Spec()
		if err != nil {
			return err
		}
		_, err = lane.Submit(spec)
		return err
	case "cancel":
		lane.Cancel(op.ID)
		return nil
	case "slot":
		if op.Ran {
			if _, err := lane.RunSlot(op.Slot); err != nil {
				return err
			}
		} else if err := lane.Advance(op.Slot); err != nil {
			return err
		}
		return lane.Commit(op.Slot, op.Selected)
	default:
		return fmt.Errorf("unknown op %q", op.Op)
	}
}
