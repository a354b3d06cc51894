package roadnet

import "math"

// heapItem is one frontier entry of a best-first search: key is the pop
// priority (the tentative distance for Dijkstra, distance plus heuristic
// for A*), d the tentative distance at push time, and v the vertex. Keys
// tie-break on the vertex id so every search in the package settles
// equal-priority vertices in the same deterministic order, which lets
// differential tests compare result lists verbatim.
type heapItem struct {
	key float64
	d   float64
	v   int32
}

// heap4 is a hand-rolled 4-ary min-heap over search frontier entries.
// Compared to container/heap it avoids the interface boxing (one
// allocation per push) and the indirect Less/Swap calls; compared to a
// binary heap the wider fan-out halves the sift-down depth, which is
// where Dijkstra spends its heap time on road graphs.
type heap4 []heapItem

func (h heap4) less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].v < h[j].v
}

func (h *heap4) push(it heapItem) {
	s := append(*h, it)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *heap4) pop() heapItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		first := 4*i + 1
		if first >= len(s) {
			break
		}
		m := first
		end := first + 4
		if end > len(s) {
			end = len(s)
		}
		for c := first + 1; c < end; c++ {
			if s.less(c, m) {
				m = c
			}
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// SearchScratch is reusable working memory for the shortest-path searches:
// the frontier heap, a dense array of tentative distances and a sparse int32
// mark set, both epoch-stamped: their logical clear is a counter bump, not a
// wipe. The marks tag a guard list of some tens of sites, so they are an
// open-addressed table sized by how many are set, not by the graph. The zero
// value is ready to use; one scratch serves any number of sequential searches
// over graphs of any sizes (the distances grow to the largest graph seen) but
// must not be shared across goroutines. It is the road twin of
// vortree.SearchScratch: the serving layer keeps one per shard, which removes
// every steady-state allocation from the network search path.
type SearchScratch struct {
	hp    heap4
	dist  []float64
	stamp []uint32
	epoch uint32

	marks     []markSlot // a power of two long, at most a quarter of it live
	marked    int
	markEpoch uint32
}

// markSlot is one entry of the mark set, live while stamp is the set's epoch.
type markSlot struct {
	v, val int32
	stamp  uint32
}

// Begin readies the scratch for a new search over n vertices: the frontier
// empties and every tentative distance reads as +Inf again.
func (sc *SearchScratch) Begin(n int) {
	sc.hp = sc.hp[:0]
	if len(sc.dist) < n {
		sc.dist = make([]float64, n)
		sc.stamp = make([]uint32, n)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // stamp wrap: every stamp is stale garbage now
		clear(sc.stamp)
		sc.epoch = 1
	}
}

// TryImprove records d as vertex v's tentative distance if it beats the
// current one, reporting whether it did — the Dijkstra relaxation test.
func (sc *SearchScratch) TryImprove(v int32, d float64) bool {
	if sc.stamp[v] == sc.epoch && sc.dist[v] <= d {
		return false
	}
	sc.stamp[v] = sc.epoch
	sc.dist[v] = d
	return true
}

// DistAt returns vertex v's tentative distance (+Inf when unset).
func (sc *SearchScratch) DistAt(v int32) float64 {
	if sc.stamp[v] != sc.epoch {
		return math.Inf(1)
	}
	return sc.dist[v]
}

// Reached reports whether v holds a tentative distance.
func (sc *SearchScratch) Reached(v int32) bool {
	return int(v) < len(sc.stamp) && sc.stamp[v] == sc.epoch
}

// Push adds a frontier entry for vertex v at tentative distance d.
func (sc *SearchScratch) Push(d float64, v int32) {
	sc.hp.push(heapItem{key: d, d: d, v: v})
}

// Pop removes the nearest frontier entry; ok is false when the frontier is
// empty.
func (sc *SearchScratch) Pop() (d float64, v int32, ok bool) {
	if len(sc.hp) == 0 {
		return 0, 0, false
	}
	it := sc.hp.pop()
	return it.d, it.v, true
}

// MarkBegin empties the mark set; every mark reads as 0. The set is
// independent of the distance state, so a caller can mark target vertices
// and then run a search in the same scratch. n sizes nothing any more.
func (sc *SearchScratch) MarkBegin(n int) {
	if sc.marks == nil {
		sc.marks = make([]markSlot, 64)
	}
	sc.marked = 0
	sc.markEpoch++
	if sc.markEpoch == 0 {
		clear(sc.marks)
		sc.markEpoch = 1
	}
}

// markAt returns the slot that holds vertex v's mark, or the free one where
// it goes. Nothing is deleted within an epoch, so the first slot that is not
// live ends the probe.
func (sc *SearchScratch) markAt(v int32) *markSlot {
	h := uint32(v) * 0x9E3779B1
	for i := h ^ h>>16; ; i++ {
		if s := &sc.marks[i&uint32(len(sc.marks)-1)]; s.stamp != sc.markEpoch || s.v == v {
			return s
		}
	}
}

// SetMark tags vertex v with val (0 is indistinguishable from unset).
func (sc *SearchScratch) SetMark(v int32, val int32) {
	s := sc.markAt(v)
	if s.stamp != sc.markEpoch {
		if sc.marked++; 4*sc.marked > len(sc.marks) {
			old := sc.marks
			sc.marks = make([]markSlot, 2*len(old))
			for _, o := range old {
				if o.stamp == sc.markEpoch {
					*sc.markAt(o.v) = o
				}
			}
			s = sc.markAt(v)
		}
	}
	*s = markSlot{v, val, sc.markEpoch}
}

// Mark returns vertex v's tag, 0 when never set since MarkBegin.
func (sc *SearchScratch) Mark(v int32) int32 {
	if s := sc.markAt(v); s.stamp == sc.markEpoch {
		return s.val
	}
	return 0
}
