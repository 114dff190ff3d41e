package core

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/query"
)

func TestLedgerPointConservation(t *testing.T) {
	l := &Ledger{}
	var wantWelfare float64
	for seed := int64(1); seed <= 5; seed++ {
		queries, offers := randomScenario(seed, 20, 50, 15)
		res := OptimalPoint(OptimalOptions{})(queries, offers)
		l.RecordPointResult(res)
		wantWelfare += res.Welfare()
	}
	if l.Slots() != 5 {
		t.Errorf("slots = %d", l.Slots())
	}
	if err := l.CheckBalance(1e-6); err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.TotalWelfare()-wantWelfare) > 1e-6 {
		t.Errorf("welfare %v want %v", l.TotalWelfare(), wantWelfare)
	}
	// Payments equal sensor cost in point scheduling: earned == paid.
	if math.Abs(l.TotalPaid()-l.TotalEarned()) > 1e-6 {
		t.Errorf("paid %v != earned %v", l.TotalPaid(), l.TotalEarned())
	}
	// Paid should equal total cost of selected sensors.
	if math.Abs(l.TotalPaid()-(l.totalCost)) > 1e-6 {
		t.Errorf("paid %v != total cost %v", l.TotalPaid(), l.totalCost)
	}
}

func TestLedgerQueryAccessors(t *testing.T) {
	l := &Ledger{}
	queries, offers := randomScenario(7, 20, 40, 20)
	res := OptimalPoint(OptimalOptions{})(queries, offers)
	l.RecordPointResult(res)
	found := false
	for qid, o := range res.Outcomes {
		found = true
		if l.QueryPaid(qid) != o.Payment {
			t.Errorf("QueryPaid(%s) = %v want %v", qid, l.QueryPaid(qid), o.Payment)
		}
		if l.QueryValue(qid) != o.Value {
			t.Errorf("QueryValue(%s) = %v want %v", qid, l.QueryValue(qid), o.Value)
		}
		if u := l.QueryUtility(qid); u <= 0 {
			t.Errorf("QueryUtility(%s) = %v, want positive", qid, u)
		}
	}
	if !found {
		t.Fatal("no outcomes to verify")
	}
	// Unknown query returns zeros.
	if l.QueryPaid("nope") != 0 || l.QueryUtility("nope") != 0 {
		t.Error("unknown query should report zero")
	}
}

func TestLedgerMixConservation(t *testing.T) {
	l := &Ledger{}
	grid := geo.NewUnitGrid(100, 100)
	for seed := int64(1); seed <= 3; seed++ {
		queries, offers := randomScenario(seed, 25, 50, 15)
		aggs := makeAggregates(grid, 120,
			geo.NewRect(5, 5, 25, 25), geo.NewRect(10, 10, 22, 28))
		res := RunMixSlot(0, MixQueries{Points: queries, Aggregates: aggs}, offers, false)
		l.RecordMixResult(res)
	}
	if err := l.CheckBalance(1e-6); err != nil {
		t.Fatal(err)
	}
	if l.TotalEarned() <= 0 {
		t.Error("sensors earned nothing in a dense mix")
	}
}

func TestLedgerTopEarnersAndGini(t *testing.T) {
	l := &Ledger{}
	queries, offers := randomScenario(9, 25, 60, 20)
	res := OptimalPoint(OptimalOptions{})(queries, offers)
	l.RecordPointResult(res)

	top := l.TopEarners(3)
	if len(top) == 0 {
		t.Fatal("no earners")
	}
	for i := 1; i < len(top); i++ {
		if top[i].Earned > top[i-1].Earned {
			t.Error("TopEarners not sorted")
		}
	}
	if len(top) > 3 {
		t.Errorf("TopEarners returned %d > 3", len(top))
	}
	if s := l.SensorEarned(top[0].SensorID); s != top[0].Earned {
		t.Error("SensorEarned mismatch")
	}

	g := l.GiniOfEarnings()
	if g < 0 || g > 1 {
		t.Errorf("gini = %v outside [0,1]", g)
	}
}

func TestLedgerGiniDegenerate(t *testing.T) {
	l := &Ledger{}
	if l.GiniOfEarnings() != 0 {
		t.Error("empty ledger gini != 0")
	}
	l.init()
	l.sensorEarned[1] = 10
	if l.GiniOfEarnings() != 0 {
		t.Error("single-sensor gini != 0")
	}
	// Perfectly even earnings: gini ~ 0.
	l.sensorEarned[2] = 10
	l.sensorEarned[3] = 10
	if g := l.GiniOfEarnings(); g > 0.01 {
		t.Errorf("even gini = %v", g)
	}
	// Extreme skew: gini near (n-1)/n.
	l2 := &Ledger{}
	l2.init()
	l2.sensorEarned[1] = 1e-9
	l2.sensorEarned[2] = 1e-9
	l2.sensorEarned[3] = 1000
	if g := l2.GiniOfEarnings(); g < 0.5 {
		t.Errorf("skewed gini = %v, want high", g)
	}
}

func TestLedgerZeroValueReady(t *testing.T) {
	var l Ledger
	l.RecordPointResult(&PointResult{Outcomes: map[string]PointOutcome{}})
	if l.Slots() != 1 {
		t.Error("zero-value ledger unusable")
	}
	if err := l.CheckBalance(1e-9); err != nil {
		t.Error(err)
	}
}

var _ = query.Value // imported for scenario helpers consistency
