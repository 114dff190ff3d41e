package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// normalizeBench zeroes the machine-dependent fields of a bench record so
// two runs of the same scenario can be compared byte for byte: latency
// and allocation numbers vary run to run, everything else (welfare,
// costs, valuation-call counts, answered counts) is a pure function of
// the seed and must not drift.
func normalizeBench(res benchResult) benchResult {
	res.SlotMsP50, res.SlotMsP95, res.SlotMsMax, res.SlotMsMean = 0, 0, 0, 0
	res.CriticalPathP50Ms, res.CriticalPathP95Ms = 0, 0
	res.UnshardedP50Ms, res.SpeedupP50, res.LaneSpeedupP50 = 0, 0, 0
	res.TargetP50Ms, res.NormalizedP50Ms = 0, 0
	// Stage durations are wall time; names and order must not drift.
	for i := range res.SlotStages {
		res.SlotStages[i].P50Ms, res.SlotStages[i].P95Ms = 0, 0
		res.SlotStages[i].MeanMs, res.SlotStages[i].MaxMs = 0, 0
	}
	res.CalibrationMs = 0
	res.Allocs, res.AllocBytes = 0, 0
	res.GoVersion = ""
	return res
}

// TestScenarioDeterminism runs every psbench scenario twice with the same
// seed and asserts byte-identical (normalized) JSON. This guards the
// sorted-payment accumulation fix — a re-introduced map-order float sum
// would flip welfare in the last bits — and, for sharded-metro, that the
// concurrent per-shard fan-out leaks no scheduling nondeterminism.
func TestScenarioDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario determinism runs unshortened in the bench job")
	}
	for _, sc := range scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			// Reduced horizon (and fleet, for the 40k scenario) keeps the
			// double run fast; determinism is per-slot, so three slots
			// exercise the same code paths as the full schedule.
			sc := sc
			sc.Slots = 3
			if sc.Sensors > 10_000 {
				sc.Sensors = 10_000
			}
			var out [2][]byte
			for r := range out {
				res := normalizeBench(runScenario(sc, 0, 0, sc.Shards))
				buf, err := json.MarshalIndent(res, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				out[r] = buf
			}
			if !bytes.Equal(out[0], out[1]) {
				t.Errorf("scenario %s is nondeterministic across reruns:\n--- first\n%s\n--- second\n%s",
					sc.Name, out[0], out[1])
			}
		})
	}
}

// TestShardedScenarioMatchesUnshardedWelfare: the sharded-metro workload
// is (almost entirely) shard-resident, so the sharded run's deterministic
// outputs stay self-consistent against the unsharded run: identical
// answered counts and near-identical welfare (the two cross-shard queries
// per slot may settle differently).
func TestShardedScenarioMatchesUnshardedWelfare(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the bench job")
	}
	sc, ok := scenarioByName("sharded-metro")
	if !ok {
		t.Fatal("sharded-metro scenario missing")
	}
	sc.Slots = 2
	sc.Sensors = 10_000
	sharded := runScenario(sc, 0, 0, sc.Shards)
	unsharded := runScenario(sc, 0, 0, 1)
	if sharded.Answered != unsharded.Answered {
		t.Errorf("answered %d sharded vs %d unsharded", sharded.Answered, unsharded.Answered)
	}
	if ratio := sharded.Welfare / unsharded.Welfare; ratio < 0.95 || ratio > 1.05 {
		t.Errorf("welfare ratio %.4f outside [0.95, 1.05]: sharded %.1f vs unsharded %.1f",
			ratio, sharded.Welfare, unsharded.Welfare)
	}
}
