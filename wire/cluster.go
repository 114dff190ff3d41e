// The cluster wire surface: versioned NDJSON frames between the
// coordinator and its shard nodes. The protocol is strictly synchronous
// RPC — every request frame gets exactly one response frame on the same
// connection — with two guards that make a flaky network safe for the
// bit-identical reconciliation guarantee:
//
//   - Seq echo: a response must echo the request's sequence number, so a
//     late answer to an abandoned request can never be mistaken for the
//     current one.
//   - Epoch fencing: every frame carries the lane's resync epoch. A node
//     rejects requests from a superseded coordinator generation with
//     CodeStaleEpoch, and the coordinator discards partials tagged with
//     an old epoch — a rejoining stale node can never contribute to a
//     slot it did not run under the current generation.
//
// Membership rides on the same frames: ping requests and their replies
// exchange facts (subject/attribute/value/TTL, wirelink-style); the
// coordinator expires them by TTL to drive live/suspect/dead states.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"

	ps "repro"
)

// ClusterVersion is the coordinator <-> node frame version.
const ClusterVersion = 1

// Cluster frame type names. Request frames (coordinator -> node):
// hello/resync configure or rebuild the node's lane, submit/cancel
// manage queries, run_slot/commit drive the slot cycle,
// ping exchanges membership facts. Response frames (node -> coordinator):
// ok, submitted, partial, error.
const (
	ClusterHello   = "hello"
	ClusterResync  = "resync"
	ClusterSubmit  = "submit"
	ClusterCancel  = "cancel"
	ClusterRunSlot = "run_slot"
	ClusterCommit  = "commit"
	ClusterPing    = "ping"

	ClusterOK        = "ok"
	ClusterSubmitted = "submitted"
	ClusterPartial   = "partial"
	ClusterError     = "error"
)

// clusterTypes enumerates every valid ClusterFrame.Type value.
var clusterTypes = map[string]bool{
	ClusterHello:   true,
	ClusterResync:  true,
	ClusterSubmit:  true,
	ClusterCancel:  true,
	ClusterRunSlot: true,
	ClusterCommit:  true,
	ClusterPing:    true,

	ClusterOK:        true,
	ClusterSubmitted: true,
	ClusterPartial:   true,
	ClusterError:     true,
}

// NodeConfig tells a shard node which world replica to build and which
// shard of it to serve. Nodes are config-free: the coordinator pushes
// this in every hello/resync, so a bare `psnode -listen` is a complete
// deployment.
type NodeConfig struct {
	// World names the deterministic world factory: "rwm", "rnc" or
	// "intellab".
	World string `json:"world"`
	// Seed is the world's random seed; identical seeds produce identical
	// replicas, the foundation of the lockstep model.
	Seed int64 `json:"seed"`
	// Sensors is the fleet size (rwm only; the other worlds fix it).
	Sensors int `json:"sensors,omitempty"`
	// Shards and Shard select the node's slice of the grid partition.
	Shards int `json:"shards"`
	Shard  int `json:"shard"`
}

// Fact is one membership assertion with a time-to-live, exchanged on
// ping frames: "subject's attribute has this value for the next TTL".
// The receiver expires facts locally; an expired liveness fact is what
// turns a node suspect.
type Fact struct {
	Subject   string `json:"subject"`
	Attribute string `json:"attribute"`
	Value     string `json:"value"`
	TTLMs     int64  `json:"ttl_ms"`
}

// ClusterOp is one replayable operation of a lane's oplog. A resync
// frame carries the full log; the node rebuilds a fresh world replica
// and replays it deterministically, which reproduces the exact lane
// state — including slots the node missed while dead (Ran false: the
// replica steps and commits but skips execution, exactly the degraded
// timeline the coordinator served).
type ClusterOp struct {
	// Op is "submit", "cancel" or "slot".
	Op string `json:"op"`
	// Spec is the v1 submission envelope (submit ops).
	Spec json.RawMessage `json:"spec,omitempty"`
	// ID names the canceled query (cancel ops).
	ID string `json:"id,omitempty"`
	// Slot, Selected and Ran describe one executed slot (slot ops):
	// the slot number, the global commit in replay order, and whether
	// this lane's partial made it into the merge.
	Slot     int   `json:"slot,omitempty"`
	Selected []int `json:"selected,omitempty"`
	Ran      bool  `json:"ran,omitempty"`
}

// ClusterMember is one node's membership row as reported by /healthz.
type ClusterMember struct {
	Node  string `json:"node"`
	Shard int    `json:"shard"`
	// Addr is the node's dial address; empty for in-process lanes.
	Addr string `json:"addr,omitempty"`
	// State is "local", "live", "suspect" or "dead".
	State string `json:"state"`
	// Epoch is the lane's current resync generation.
	Epoch uint64 `json:"epoch,omitempty"`
}

// ClusterFrame is one coordinator <-> node frame. Type selects which
// optional fields are meaningful:
//
//	hello         config                          -> ok
//	resync        config, ops                     -> ok
//	submit        spec                            -> submitted (id, kind, start, end)
//	cancel        id                              -> ok (removed)
//	run_slot      slot                            -> partial (slot, partial)
//	commit        slot, selected                  -> ok
//	ping          facts                           -> ok (facts)
//	error         error, code                     (response only)
//
// Every frame carries V, Type, Seq and Epoch; responses echo the
// request's Seq and the node's current Epoch.
type ClusterFrame struct {
	V     int    `json:"v"`
	Type  string `json:"type"`
	Seq   uint64 `json:"seq"`
	Epoch uint64 `json:"epoch"`
	Node  string `json:"node,omitempty"`

	Config *NodeConfig     `json:"config,omitempty"`
	Ops    []ClusterOp     `json:"ops,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	ID     string          `json:"id,omitempty"`
	Kind   string          `json:"kind,omitempty"`
	Start  int             `json:"start,omitempty"`
	End    int             `json:"end,omitempty"`

	Slot     int             `json:"slot"`
	Selected []int           `json:"selected,omitempty"`
	Partial  *ps.LanePartial `json:"partial,omitempty"`

	Facts []Fact `json:"facts,omitempty"`

	Removed bool   `json:"removed,omitempty"`
	Error   string `json:"error,omitempty"`
	Code    string `json:"code,omitempty"`
}

// MarshalClusterFrame encodes a frame as one JSON object (no trailing
// newline; NDJSON writers add it).
func MarshalClusterFrame(f ClusterFrame) ([]byte, error) {
	if f.V != ClusterVersion {
		return nil, fmt.Errorf("wire: cluster frame version %d (this build speaks v%d)", f.V, ClusterVersion)
	}
	if !clusterTypes[f.Type] {
		return nil, fmt.Errorf("wire: unknown cluster frame type %q", f.Type)
	}
	return json.Marshal(f)
}

// DecodeClusterFrame decodes and shape-checks one cluster frame: the
// version must match, the type must be known, and per-type required
// fields are checked so a consumer can rely on them.
func DecodeClusterFrame(data []byte) (ClusterFrame, error) {
	var f ClusterFrame
	if err := json.Unmarshal(data, &f); err != nil {
		return ClusterFrame{}, fmt.Errorf("wire: bad cluster frame JSON: %v", err)
	}
	if f.V != ClusterVersion {
		return ClusterFrame{}, fmt.Errorf("wire: unsupported cluster frame version %d (this build speaks v%d)", f.V, ClusterVersion)
	}
	if !clusterTypes[f.Type] {
		return ClusterFrame{}, fmt.Errorf("wire: unknown cluster frame type %q", f.Type)
	}
	switch f.Type {
	case ClusterHello, ClusterResync:
		if f.Config == nil {
			return ClusterFrame{}, fmt.Errorf(`wire: %s frame without a "config"`, f.Type)
		}
		if !clusterWorlds[f.Config.World] {
			return ClusterFrame{}, fmt.Errorf("wire: %s frame names unknown world %q", f.Type, f.Config.World)
		}
		if f.Config.Shards < 1 || f.Config.Shard < 0 || f.Config.Shard >= f.Config.Shards {
			return ClusterFrame{}, fmt.Errorf("wire: %s frame shard %d of %d out of range",
				f.Type, f.Config.Shard, f.Config.Shards)
		}
	case ClusterSubmit:
		if len(f.Spec) == 0 {
			return ClusterFrame{}, errors.New(`wire: submit frame without a "spec"`)
		}
	case ClusterCancel:
		if f.ID == "" {
			return ClusterFrame{}, errors.New(`wire: cancel frame without an "id"`)
		}
	case ClusterSubmitted:
		if f.ID == "" {
			return ClusterFrame{}, errors.New(`wire: submitted frame without an "id"`)
		}
	case ClusterPartial:
		if f.Partial == nil {
			return ClusterFrame{}, errors.New(`wire: partial frame without a "partial"`)
		}
	case ClusterError:
		if f.Error == "" {
			return ClusterFrame{}, errors.New(`wire: error frame without an "error"`)
		}
	}
	for _, op := range f.Ops {
		if !clusterOpKinds[op.Op] {
			return ClusterFrame{}, fmt.Errorf("wire: unknown cluster op %q", op.Op)
		}
	}
	return f, nil
}

// clusterWorlds enumerates the deterministic world factories a NodeConfig
// may name.
var clusterWorlds = map[string]bool{"rwm": true, "rnc": true, "intellab": true}

// clusterOpKinds enumerates the replayable oplog operations.
var clusterOpKinds = map[string]bool{"submit": true, "cancel": true, "slot": true}
