package query

import (
	"repro/internal/geo"
	"repro/internal/sensornet"
)

// Aggregate is a spatial aggregate query (§2.2.2): the issuer wants an
// aggregate (avg/min/max) of a phenomenon over a region. Its valuation is
// Eq. 5:
//
//	v_q(S) = B_q * G_q(S) * (sum_s theta_s) / |S|
//
// where G_q is the fraction of the region covered by the sensors'
// sensing disks and theta_s is the reading quality of Eq. 4 relative to
// the sensor's own position inside the region (distance term vanishes, so
// theta_s = (1-gamma_s)*tau_s for in-range sensors).
type Aggregate struct {
	ID     string
	Region geo.Rect
	B      float64
	// SensingRange is the coverage radius of a sensor reading (10 units in
	// the evaluation).
	SensingRange float64
	// Grid discretizes coverage computation.
	Grid geo.Grid
	// MaxDist is how far outside the region a sensor may sit while still
	// contributing coverage; sensors farther than this are irrelevant.
	MaxDist float64
}

// NewAggregate builds a spatial aggregate query over region.
func NewAggregate(id string, region geo.Rect, budget, sensingRange float64, grid geo.Grid) *Aggregate {
	return &Aggregate{
		ID:           id,
		Region:       region,
		B:            budget,
		SensingRange: sensingRange,
		Grid:         grid,
		MaxDist:      sensingRange,
	}
}

// QID implements Query.
func (a *Aggregate) QID() string { return a.ID }

// Budget implements Query.
func (a *Aggregate) Budget() float64 { return a.B }

// Relevant implements Query: a sensor can contribute iff its sensing disk
// reaches the region.
func (a *Aggregate) Relevant(s *sensornet.Sensor) bool {
	return a.Region.DistToPoint(s.Pos) <= a.MaxDist
}

// RelevanceFootprint implements Footprinted: Relevant tests
// DistToPoint <= MaxDist, so the region expanded by MaxDist contains
// every relevant sensor position.
func (a *Aggregate) RelevanceFootprint() geo.Rect {
	return a.Region.Expand(a.MaxDist)
}

// theta is the reading quality of a sensor for the aggregate: inaccuracy
// and trust matter; the distance term of Eq. 4 is 1 because the sensor
// measures at its own location inside (or at the edge of) the region.
func (a *Aggregate) theta(s *sensornet.Sensor) float64 {
	return (1 - s.Inaccuracy) * s.Trust
}

// NewState implements Query. The state keeps a covered-cells bitmap so
// marginal coverage is O(region cells) instead of O(cells * |S|).
//
// Aggregate deliberately does NOT implement Submodular: the coverage
// term G_q alone would be, but Eq. 5 multiplies it by the *mean* reading
// quality, so committing a low-quality high-coverage sensor can raise a
// high-quality sensor's later marginal gain. The lazy-greedy loop
// therefore re-evaluates aggregate gains eagerly rather than trusting
// cached bounds.
func (a *Aggregate) NewState() State {
	cells := a.Grid.CellsIn(a.Region)
	return &aggregateState{q: a, cells: cells, covered: make([]bool, len(cells))}
}

type aggregateState struct {
	baseState
	q          *Aggregate
	cells      []geo.Point
	covered    []bool
	coveredCnt int
	sumTheta   float64
	n          int

	// cellCache memoizes, per sensor ID, the indices of cells within the
	// sensing range of that sensor. Valid for the state's lifetime (one
	// selection run = one world epoch): sensors do not move mid-slot, so
	// a sensor's in-range cell set is a function of its position alone.
	// Lazy-greedy calls Gain for the same sensor repeatedly as its cached
	// bound goes stale; the cache turns each repeat into a walk of the
	// sensor's (usually small) in-range list instead of all region cells.
	cellCache map[int][]int32
	// ncCache maintains, per sensor ID, how many of the sensor's in-range
	// cells are currently uncovered — the nc of Gain — updated
	// incrementally: a cell flips covered at most once (coverage is
	// monotone), and the flip decrements every registered sensor via
	// cellSensors. Gain is then O(1) arithmetic instead of a walk of the
	// in-range list, with a bit-identical result (nc is an integer).
	ncCache map[int]int32
	// cellSensors registers, per still-uncovered cell, the sensor IDs
	// whose ncCache entries count it. Freed cell by cell as coverage
	// flips.
	cellSensors [][]int32
	hits        int64
	lookups     int64
}

func (st *aggregateState) Query() Query { return st.q }

// GeomCacheStats implements GeomCached.
func (st *aggregateState) GeomCacheStats() (hits, lookups int64) {
	return st.hits, st.lookups
}

// inRange returns the indices of st.cells within sensing range of s,
// memoized by sensor ID.
func (st *aggregateState) inRange(s *sensornet.Sensor) []int32 {
	st.lookups++
	if idx, ok := st.cellCache[s.ID]; ok {
		st.hits++
		return idx
	}
	r2 := st.q.SensingRange * st.q.SensingRange
	idx := []int32{}
	for i, c := range st.cells {
		if c.Dist2(s.Pos) <= r2 {
			idx = append(idx, int32(i))
		}
	}
	if st.cellCache == nil {
		st.cellCache = make(map[int][]int32)
	}
	st.cellCache[s.ID] = idx
	return idx
}

func (st *aggregateState) value(coveredCnt int, sumTheta float64, n int) float64 {
	if n == 0 || len(st.cells) == 0 {
		return 0
	}
	g := float64(coveredCnt) / float64(len(st.cells))
	return st.q.B * g * sumTheta / float64(n)
}

func (st *aggregateState) Value() float64 {
	return st.value(st.coveredCnt, st.sumTheta, st.n)
}

// newlyCovered returns how many cells s would newly cover, from the
// incrementally maintained count when available. A miss walks the
// sensor's in-range list once and registers the sensor on its uncovered
// cells so later coverage flips keep the count current.
func (st *aggregateState) newlyCovered(s *sensornet.Sensor) int {
	st.lookups++
	if nc, ok := st.ncCache[s.ID]; ok {
		st.hits++
		return int(nc)
	}
	if st.cellSensors == nil {
		st.cellSensors = make([][]int32, len(st.cells))
	}
	cnt := int32(0)
	for _, i := range st.inRange(s) {
		if !st.covered[i] {
			cnt++
			st.cellSensors[i] = append(st.cellSensors[i], int32(s.ID))
		}
	}
	if st.ncCache == nil {
		st.ncCache = make(map[int]int32)
	}
	st.ncCache[s.ID] = cnt
	return int(cnt)
}

func (st *aggregateState) Gain(s *sensornet.Sensor) float64 {
	nc := st.newlyCovered(s)
	after := st.value(st.coveredCnt+nc, st.sumTheta+st.q.theta(s), st.n+1)
	return after - st.Value()
}

func (st *aggregateState) Add(s *sensornet.Sensor) {
	for _, i := range st.inRange(s) {
		if !st.covered[i] {
			st.covered[i] = true
			st.coveredCnt++
			if st.cellSensors != nil {
				for _, sid := range st.cellSensors[i] {
					st.ncCache[int(sid)]--
				}
				st.cellSensors[i] = nil
			}
		}
	}
	st.sumTheta += st.q.theta(s)
	st.n++
	st.record(s)
}

// Trajectory is a query over a trajectory (§2.2.3), "a special case of
// spatial aggregate query in which instead of providing a region of
// interest, a trajectory is specified". Coverage is the fraction of the
// trajectory's sample points within sensing range of a selected sensor.
type Trajectory struct {
	ID           string
	Path         geo.Trajectory
	B            float64
	SensingRange float64
	// SampleStep is the spacing of coverage sample points along the path.
	SampleStep float64

	samples []geo.Point
}

// NewTrajectory builds a trajectory query.
func NewTrajectory(id string, path geo.Trajectory, budget, sensingRange float64) *Trajectory {
	t := &Trajectory{ID: id, Path: path, B: budget, SensingRange: sensingRange, SampleStep: 1}
	t.samples = path.SamplePoints(t.SampleStep)
	return t
}

// QID implements Query.
func (t *Trajectory) QID() string { return t.ID }

// Budget implements Query.
func (t *Trajectory) Budget() float64 { return t.B }

// Relevant implements Query.
func (t *Trajectory) Relevant(s *sensornet.Sensor) bool {
	r2 := t.SensingRange * t.SensingRange
	for _, p := range t.samples {
		if p.Dist2(s.Pos) <= r2 {
			return true
		}
	}
	return false
}

// RelevanceFootprint implements Footprinted: a relevant sensor is within
// SensingRange of some sample point, all of which lie inside the path's
// bounding rectangle.
func (t *Trajectory) RelevanceFootprint() geo.Rect {
	return t.Path.BoundingRect().Expand(t.SensingRange)
}

// NewState implements Query; the valuation mirrors Eq. 5 with polyline
// coverage.
func (t *Trajectory) NewState() State {
	return &trajectoryState{q: t, covered: make([]bool, len(t.samples))}
}

type trajectoryState struct {
	baseState
	q          *Trajectory
	covered    []bool
	coveredCnt int
	sumTheta   float64
	n          int

	// sampleCache mirrors aggregateState.cellCache over the trajectory's
	// sample points: per sensor ID, the indices of samples within sensing
	// range, valid for the state's lifetime (sensors are fixed mid-slot).
	sampleCache map[int][]int32
	// ncCache/sampleSensors mirror aggregateState's incremental
	// newly-covered maintenance over the sample points.
	ncCache       map[int]int32
	sampleSensors [][]int32
	hits          int64
	lookups       int64
}

func (st *trajectoryState) Query() Query { return st.q }

// GeomCacheStats implements GeomCached.
func (st *trajectoryState) GeomCacheStats() (hits, lookups int64) {
	return st.hits, st.lookups
}

// inRange returns the indices of trajectory samples within sensing range
// of s, memoized by sensor ID.
func (st *trajectoryState) inRange(s *sensornet.Sensor) []int32 {
	st.lookups++
	if idx, ok := st.sampleCache[s.ID]; ok {
		st.hits++
		return idx
	}
	r2 := st.q.SensingRange * st.q.SensingRange
	idx := []int32{}
	for i, c := range st.q.samples {
		if c.Dist2(s.Pos) <= r2 {
			idx = append(idx, int32(i))
		}
	}
	if st.sampleCache == nil {
		st.sampleCache = make(map[int][]int32)
	}
	st.sampleCache[s.ID] = idx
	return idx
}

func (st *trajectoryState) theta(s *sensornet.Sensor) float64 {
	return (1 - s.Inaccuracy) * s.Trust
}

func (st *trajectoryState) value(coveredCnt int, sumTheta float64, n int) float64 {
	if n == 0 || len(st.q.samples) == 0 {
		return 0
	}
	g := float64(coveredCnt) / float64(len(st.q.samples))
	return st.q.B * g * sumTheta / float64(n)
}

func (st *trajectoryState) Value() float64 {
	return st.value(st.coveredCnt, st.sumTheta, st.n)
}

// newlyCovered mirrors aggregateState.newlyCovered over sample points.
func (st *trajectoryState) newlyCovered(s *sensornet.Sensor) int {
	st.lookups++
	if nc, ok := st.ncCache[s.ID]; ok {
		st.hits++
		return int(nc)
	}
	if st.sampleSensors == nil {
		st.sampleSensors = make([][]int32, len(st.q.samples))
	}
	cnt := int32(0)
	for _, i := range st.inRange(s) {
		if !st.covered[i] {
			cnt++
			st.sampleSensors[i] = append(st.sampleSensors[i], int32(s.ID))
		}
	}
	if st.ncCache == nil {
		st.ncCache = make(map[int]int32)
	}
	st.ncCache[s.ID] = cnt
	return int(cnt)
}

func (st *trajectoryState) Gain(s *sensornet.Sensor) float64 {
	nc := st.newlyCovered(s)
	return st.value(st.coveredCnt+nc, st.sumTheta+st.theta(s), st.n+1) - st.Value()
}

func (st *trajectoryState) Add(s *sensornet.Sensor) {
	for _, i := range st.inRange(s) {
		if !st.covered[i] {
			st.covered[i] = true
			st.coveredCnt++
			if st.sampleSensors != nil {
				for _, sid := range st.sampleSensors[i] {
					st.ncCache[int(sid)]--
				}
				st.sampleSensors[i] = nil
			}
		}
	}
	st.sumTheta += st.theta(s)
	st.n++
	st.record(s)
}
