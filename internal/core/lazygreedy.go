package core

// lazyEntry is one heap candidate: a sensor and its last evaluated net
// benefit. While every relevant query's version is unchanged the net is
// exact; once a version bumps it is (for submodular valuations) an upper
// bound on the sensor's current net.
type lazyEntry struct {
	si  int
	net float64
}

// lazyHeap is a binary max-heap of candidates ordered by net benefit,
// ties broken by the lower sensor index — exactly the exhaustive scan's
// "first index with the strictly largest net" rule.
type lazyHeap []lazyEntry

func (h lazyHeap) before(i, j int) bool {
	if h[i].net != h[j].net {
		return h[i].net > h[j].net
	}
	return h[i].si < h[j].si
}

func (h lazyHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *lazyHeap) push(e lazyEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).before(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

// popTop removes and returns the maximum entry.
func (h *lazyHeap) popTop() lazyEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	if n > 0 {
		(*h).siftDown(0)
	}
	return top
}

func (h lazyHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.before(l, best) {
			best = l
		}
		if r < n && h.before(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// volRef locates one (sensor, query) gain-cache slot of a volatile
// (non-submodular) query: the sensor index and the slot's flat index
// into the selection's CSR gains/vers arrays.
type volRef struct {
	si, idx int32
}

// lazyLoop is the CELF-style selection loop.
//
// Invariant: for monotone submodular valuations (queries advertising
// query.Submodular) a query's marginal gain can only shrink as its state
// grows, so a heap entry evaluated at an older state is an upper bound
// on the sensor's current net benefit. Valuations without the marker
// ("volatile": aggregates, trajectories, arbitrary black boxes) get no
// such bound — their cached gains are instead refreshed *eagerly* after
// every commit that touches them, so each entry's priority is always
// exact-volatile-part plus bounded-submodular-part, i.e. still a valid
// upper bound. The aggregate and trajectory states keep their
// newly-covered counts incrementally, so each eager refresh is O(1)
// arithmetic rather than a geometry walk.
//
// The heap orders entries by (net desc, sensor index asc); superseded
// entries are skipped on pop (lazy deletion keyed on curNet). When a
// popped valid entry is fresh — no relevant query committed a sensor
// since it was evaluated — every other candidate's bound is at most the
// top's exact net, so the top is the round's true argmax with the exhaustive scan's
// tie-break, and it commits without touching the rest of the pool. Stale
// tops are re-evaluated (refreshing only the stale (sensor, query) gain
// cache entries) and pushed back.
//
// Fallback: if a re-evaluated *marked* gain increased, the marker lied
// and stale bounds elsewhere may underestimate their sensors. The round
// then re-scans every remaining candidate exhaustively (restoring exact
// priorities for all of them) and rebuilds the heap. This detector is
// best-effort — the bound invariant, and with it bit-identical results,
// is guaranteed by truthful markers, not by detection.
func (s *selection) lazyLoop() {
	// Build the reverse index volatile maintenance needs (query -> its
	// gain-cache slots) in CSR form over the arena; the submodular
	// classification lives on the selection (newSelection).
	ar := s.ar
	anyVol := false
	for qi := range s.queries {
		anyVol = anyVol || !s.submod[qi]
	}
	var volOff []int32
	var volRefs []volRef
	if anyVol {
		volOff = growInt32(ar.volOff, len(s.queries)+1)
		for i := range volOff {
			volOff[i] = 0
		}
		for _, qi := range s.relIdx {
			if !s.submod[qi] {
				volOff[qi+1]++
			}
		}
		for qi := 0; qi < len(s.queries); qi++ {
			volOff[qi+1] += volOff[qi]
		}
		nvol := int(volOff[len(s.queries)])
		if cap(ar.volRefs) < nvol {
			ar.volRefs = make([]volRef, nvol)
		}
		volRefs = ar.volRefs[:nvol]
		cursor := growInt32(ar.touchList, len(s.queries))
		copy(cursor, volOff[:len(s.queries)])
		for si := range s.offers {
			for idx := s.relOff[si]; idx < s.relOff[si+1]; idx++ {
				qi := s.relIdx[idx]
				if !s.submod[qi] {
					volRefs[cursor[qi]] = volRef{si: int32(si), idx: idx}
					cursor[qi]++
				}
			}
		}
		ar.volOff, ar.touchList = volOff, cursor
	}

	curNet := growFloat64(ar.curNet, len(s.offers))
	ar.curNet = curNet
	h := ar.heap[:0]
	defer func() { ar.heap = h[:0] }()
	rebuild := func() {
		s.refreshRemaining()
		h = h[:0]
		for si := range s.offers {
			if s.remaining[si] {
				curNet[si] = s.cachedNet(si)
				h = append(h, lazyEntry{si: si, net: curNet[si]})
			}
		}
		h.init()
	}
	rebuild()

	touched := growBool(ar.touched, len(s.offers))
	for i := range touched {
		touched[i] = false
	}
	ar.touched = touched
	var touchList []int32
	for len(h) > 0 {
		e := h.popTop()
		if !s.remaining[e.si] || e.net != curNet[e.si] {
			continue // superseded by a later evaluation of the same sensor
		}
		if e.net <= 0 {
			// The highest valid bound is non-positive: no remaining
			// sensor is profitable, exactly the exhaustive termination rule.
			break
		}
		if s.fresh(e.si) {
			s.commit(e.si, e.net)
			if anyVol {
				// Volatile queries just bumped: restore exact gains for
				// every remaining sensor they touch and re-prioritize.
				// Each refresh is O(1) arithmetic — the aggregate and
				// trajectory states maintain their newly-covered counts
				// incrementally — so the row rebuild and heap push per
				// touched sensor dominate, not the valuation itself.
				touchList = touchList[:0]
				for _, qi := range s.lastBumped {
					if s.submod[qi] {
						continue
					}
					st := s.states[qi]
					for _, ref := range volRefs[volOff[qi]:volOff[qi+1]] {
						if !s.remaining[ref.si] {
							continue
						}
						old := s.gains[ref.idx]
						g := st.Gain(s.offers[ref.si].Sensor)
						s.gains[ref.idx] = g
						s.vers[ref.idx] = s.qver[qi]
						s.stats.ValuationCalls++
						// The sensor's net sums only positive gains, so its
						// priority moved iff the positive part moved; most
						// refreshes of a saturated aggregate swing one
						// negative gain to another and need no re-push.
						if old < 0 {
							old = 0
						}
						if g < 0 {
							g = 0
						}
						if old != g && !touched[ref.si] {
							touched[ref.si] = true
							touchList = append(touchList, ref.si)
						}
					}
				}
				for _, si := range touchList {
					touched[si] = false
					curNet[si] = s.cachedNet(int(si))
					h.push(lazyEntry{si: int(si), net: curNet[si]})
				}
			}
			continue
		}
		s.stats.LazyReevaluations++
		vBefore := s.stats.SubmodularityViolations
		net := s.evalSensor(e.si)
		if s.stats.SubmodularityViolations > vBefore {
			// A marked-submodular gain grew: the cached bounds cannot be
			// trusted, so re-scan the whole remaining pool to make every
			// priority exact again.
			s.stats.FallbackRescans++
			rebuild()
			continue
		}
		curNet[e.si] = net
		h.push(lazyEntry{si: e.si, net: net})
	}
}

// refreshRemaining brings every remaining sensor's gain cache up to the
// current query versions.
func (s *selection) refreshRemaining() {
	for si := range s.offers {
		if s.remaining[si] {
			s.evalSensor(si)
		}
	}
}
