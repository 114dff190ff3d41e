package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/sensornet"
)

// makeOffers builds stationary sensors at the given positions with the
// experiment-default cost of 10.
func makeOffers(positions ...geo.Point) []Offer {
	offers := make([]Offer, len(positions))
	for i, p := range positions {
		s := sensornet.NewSensor(i, p)
		offers[i] = Offer{Sensor: s, Cost: s.Cost(0)}
	}
	return offers
}

func makePoints(budget, dmax float64, locs ...geo.Point) []*query.Point {
	out := make([]*query.Point, len(locs))
	for i, l := range locs {
		out[i] = query.NewPoint(fmt.Sprintf("q%d", i), l, budget, dmax)
	}
	return out
}

// randomScenario builds a deterministic random point-query instance.
func randomScenario(seed int64, nSensors, nQueries int, budget float64) ([]*query.Point, []Offer) {
	s := rng.New(seed, "core-scenario")
	var positions []geo.Point
	for i := 0; i < nSensors; i++ {
		positions = append(positions, geo.Pt(s.Uniform(0, 30), s.Uniform(0, 30)))
	}
	offers := makeOffers(positions...)
	var locs []geo.Point
	for i := 0; i < nQueries; i++ {
		locs = append(locs, geo.Pt(float64(s.Intn(30)), float64(s.Intn(30))))
	}
	return makePoints(budget, 5, locs...), offers
}

func TestOptimalSharesSensorAcrossQueries(t *testing.T) {
	// Three queries at the same location, budget 7 each: one sensor costs
	// 10 > 7, but 3*7*theta > 10, so the optimal scheduler must open it.
	offers := makeOffers(geo.Pt(0, 0))
	queries := makePoints(7, 5, geo.Pt(0, 0), geo.Pt(0, 0), geo.Pt(0, 0))
	res := OptimalPoint(OptimalOptions{})(queries, offers)
	if len(res.Selected) != 1 {
		t.Fatalf("selected %d sensors, want 1", len(res.Selected))
	}
	if got := len(res.Outcomes); got != 3 {
		t.Fatalf("answered %d queries, want 3", got)
	}
	if res.Welfare() <= 0 {
		t.Errorf("welfare = %v", res.Welfare())
	}
	if !res.Exact {
		t.Error("expected exact solve")
	}
}

func TestBaselineCannotAffordWithoutSharing(t *testing.T) {
	// Same instance: the baseline evaluates queries one by one, each
	// yields value <= 7 < cost 10, so nothing is answered (Fig 2(b)'s
	// budget-7 behaviour).
	offers := makeOffers(geo.Pt(0, 0))
	queries := makePoints(7, 5, geo.Pt(0, 0), geo.Pt(0, 0), geo.Pt(0, 0))
	res := BaselinePoint()(queries, offers)
	if len(res.Outcomes) != 0 || len(res.Selected) != 0 {
		t.Fatalf("baseline answered %d queries, want 0", len(res.Outcomes))
	}
}

func TestBaselineFreeRidesAfterFirstSelection(t *testing.T) {
	// With budget 25, the first query can afford the sensor; the second
	// query at the same location free-rides at zero cost.
	offers := makeOffers(geo.Pt(0, 0))
	queries := makePoints(25, 5, geo.Pt(0, 0), geo.Pt(0, 0))
	res := BaselinePoint()(queries, offers)
	if len(res.Outcomes) != 2 {
		t.Fatalf("answered %d, want 2", len(res.Outcomes))
	}
	if res.TotalCost != 10 {
		t.Errorf("total cost = %v want 10", res.TotalCost)
	}
	paid := 0
	for _, o := range res.Outcomes {
		if o.Payment > 0 {
			paid++
		}
	}
	if paid != 1 {
		t.Errorf("%d queries paid, want exactly 1 (free riding)", paid)
	}
}

func TestPaymentsEq11(t *testing.T) {
	// Eq. 11: payments for a sensor sum to its cost, and each query pays
	// less than its valuation (positive individual utility).
	queries, offers := randomScenario(3, 25, 60, 20)
	for name, solver := range map[string]PointSolver{
		"optimal":     OptimalPoint(OptimalOptions{}),
		"localsearch": LocalSearchPoint(DefaultLocalSearchEpsilon),
		"egalitarian": EgalitarianPoint(),
	} {
		res := solver(queries, offers)
		bySensor := make(map[int]float64)
		for qid, o := range res.Outcomes {
			if o.Payment >= o.Value+1e-9 {
				t.Errorf("%s: query %s pays %v >= value %v", name, qid, o.Payment, o.Value)
			}
			if o.Payment < 0 {
				t.Errorf("%s: negative payment %v", name, o.Payment)
			}
			//pslint:ignore floatorder tolerance-compared (1e-6) below; map-order float error is ~1 ulp
			bySensor[o.Sensor.ID] += o.Payment
		}
		costByID := make(map[int]float64)
		for _, o := range offers {
			costByID[o.Sensor.ID] = o.Cost
		}
		for _, s := range res.Selected {
			if math.Abs(bySensor[s.ID]-costByID[s.ID]) > 1e-6 {
				t.Errorf("%s: sensor %d payments %v != cost %v", name, s.ID, bySensor[s.ID], costByID[s.ID])
			}
		}
	}
}

func TestOptimalDominatesOtherSolvers(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, budget := range []float64{7, 15, 30} {
			queries, offers := randomScenario(seed, 20, 40, budget)
			opt := OptimalPoint(OptimalOptions{})(queries, offers)
			if !opt.Exact {
				t.Fatalf("seed %d: inexact optimal", seed)
			}
			ls := LocalSearchPoint(DefaultLocalSearchEpsilon)(queries, offers)
			base := BaselinePoint()(queries, offers)
			eg := EgalitarianPoint()(queries, offers)
			if opt.Welfare() < ls.Welfare()-1e-6 {
				t.Errorf("seed %d b=%v: optimal %v < local search %v", seed, budget, opt.Welfare(), ls.Welfare())
			}
			if opt.Welfare() < base.Welfare()-1e-6 {
				t.Errorf("seed %d b=%v: optimal %v < baseline %v", seed, budget, opt.Welfare(), base.Welfare())
			}
			if opt.Welfare() < eg.Welfare()-1e-6 {
				t.Errorf("seed %d b=%v: optimal %v < egalitarian %v", seed, budget, opt.Welfare(), eg.Welfare())
			}
			// The 1/3 guarantee (we check the much weaker "nonnegative and
			// at least a third" bound only when optimum is positive).
			if opt.Welfare() > 0 && ls.Welfare() < opt.Welfare()/3-1e-6 {
				t.Errorf("seed %d b=%v: local search %v below 1/3 of optimal %v", seed, budget, ls.Welfare(), opt.Welfare())
			}
		}
	}
}

func TestLocalSearchCloseToOptimal(t *testing.T) {
	// Fig 2(a): "the Local Search algorithm finds solutions close to the
	// optimal ones". Require >= 90% on aggregate across scenarios.
	var sumOpt, sumLS float64
	for seed := int64(10); seed < 20; seed++ {
		queries, offers := randomScenario(seed, 30, 80, 15)
		sumOpt += OptimalPoint(OptimalOptions{})(queries, offers).Welfare()
		sumLS += LocalSearchPoint(DefaultLocalSearchEpsilon)(queries, offers).Welfare()
	}
	if sumLS < 0.9*sumOpt {
		t.Errorf("local search welfare %v < 90%% of optimal %v", sumLS, sumOpt)
	}
}

func TestOptimalMatchesBruteForceTiny(t *testing.T) {
	// Exhaustive check on tiny instances: enumerate all sensor subsets.
	for seed := int64(50); seed < 60; seed++ {
		queries, offers := randomScenario(seed, 6, 8, 12)
		opt := OptimalPoint(OptimalOptions{})(queries, offers)

		groups := groupByLocation(queries)
		best := 0.0
		for mask := 0; mask < 1<<len(offers); mask++ {
			var obj float64
			for l := range groups {
				bestV := 0.0
				for i, o := range offers {
					if mask&(1<<i) == 0 {
						continue
					}
					if v := groups[l].groupValue(o.Sensor); v > bestV {
						bestV = v
					}
				}
				obj += bestV
			}
			for i, o := range offers {
				if mask&(1<<i) != 0 {
					obj -= o.Cost
				}
			}
			if obj > best {
				best = obj
			}
		}
		if math.Abs(opt.Welfare()-best) > 1e-6 {
			t.Errorf("seed %d: optimal %v != brute force %v", seed, opt.Welfare(), best)
		}
	}
}

func TestOptimalWarmStart(t *testing.T) {
	queries, offers := randomScenario(7, 40, 100, 15)
	plain := OptimalPoint(OptimalOptions{})(queries, offers)
	warm := OptimalPoint(OptimalOptions{WarmStartWithLocalSearch: true})(queries, offers)
	if math.Abs(plain.Welfare()-warm.Welfare()) > 1e-6 {
		t.Errorf("warm start changed optimum: %v vs %v", plain.Welfare(), warm.Welfare())
	}
}

func TestEmptyInputs(t *testing.T) {
	solvers := map[string]PointSolver{
		"optimal":     OptimalPoint(OptimalOptions{}),
		"localsearch": LocalSearchPoint(DefaultLocalSearchEpsilon),
		"baseline":    BaselinePoint(),
		"egalitarian": EgalitarianPoint(),
		"greedy":      GreedyPoint(false),
	}
	offers := makeOffers(geo.Pt(0, 0))
	queries := makePoints(10, 5, geo.Pt(0, 0))
	for name, solver := range solvers {
		if res := solver(nil, offers); len(res.Outcomes) != 0 || res.Welfare() != 0 {
			t.Errorf("%s: non-trivial result on empty queries", name)
		}
		if res := solver(queries, nil); len(res.Outcomes) != 0 || res.Welfare() != 0 {
			t.Errorf("%s: non-trivial result on empty offers", name)
		}
	}
}

func TestRandomizedLocalSearch(t *testing.T) {
	queries, offers := randomScenario(11, 25, 60, 15)
	det := LocalSearchPoint(DefaultLocalSearchEpsilon)(queries, offers)
	rnd := RandomizedLocalSearchPoint(DefaultLocalSearchEpsilon, 5, 42)(queries, offers)
	if rnd.Welfare() < 0 {
		t.Errorf("randomized welfare = %v", rnd.Welfare())
	}
	// Both should be in the same ballpark (within 30%).
	if det.Welfare() > 0 && rnd.Welfare() < det.Welfare()*0.7 {
		t.Errorf("randomized %v far below deterministic %v", rnd.Welfare(), det.Welfare())
	}
	// Determinism given the same seed.
	rnd2 := RandomizedLocalSearchPoint(DefaultLocalSearchEpsilon, 5, 42)(queries, offers)
	if math.Abs(rnd.Welfare()-rnd2.Welfare()) > 1e-12 {
		t.Error("randomized local search not reproducible for fixed seed")
	}
}

func TestEgalitarianMaximizesAnswered(t *testing.T) {
	// Scenario where welfare maximization answers fewer queries: sensor A
	// serves one high-value location, sensor B serves many low-value ones.
	offers := makeOffers(geo.Pt(0, 0), geo.Pt(20, 20))
	queries := []*query.Point{
		query.NewPoint("rich", geo.Pt(0, 0), 100, 5),
		query.NewPoint("p1", geo.Pt(20, 20), 4, 5),
		query.NewPoint("p2", geo.Pt(20, 20), 4, 5),
		query.NewPoint("p3", geo.Pt(20, 20), 4, 5),
	}
	eg := EgalitarianPoint()(queries, offers)
	opt := OptimalPoint(OptimalOptions{})(queries, offers)
	if len(eg.Outcomes) < len(opt.Outcomes) {
		t.Errorf("egalitarian answered %d < optimal %d", len(eg.Outcomes), len(opt.Outcomes))
	}
	if eg.Welfare() > opt.Welfare()+1e-9 {
		t.Errorf("egalitarian welfare %v exceeds optimal %v", eg.Welfare(), opt.Welfare())
	}
	// Every answered query keeps positive utility.
	for qid, o := range eg.Outcomes {
		if o.Value-o.Payment <= 0 {
			t.Errorf("query %s has non-positive utility", qid)
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	queries, offers := randomScenario(99, 30, 70, 15)
	for name, solver := range map[string]PointSolver{
		"optimal":     OptimalPoint(OptimalOptions{}),
		"localsearch": LocalSearchPoint(DefaultLocalSearchEpsilon),
		"baseline":    BaselinePoint(),
	} {
		a := solver(queries, offers)
		b := solver(queries, offers)
		if math.Abs(a.Welfare()-b.Welfare()) > 1e-12 || len(a.Outcomes) != len(b.Outcomes) {
			t.Errorf("%s: non-deterministic result", name)
		}
	}
}
