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
// the frontier heap, the tentative distances and an int32 mark set. The
// distances are a sparse set (Briggs and Torczon): reach lists the vertices
// the current search has reached with their distances, in the order it reached
// them, and slot[v] says where in reach to look for v — the 4 bytes per vertex
// that are all the scratch sizes by the graph, never cleared, because a stale
// or never-written slot points at an entry of another vertex or past the end. The marks tag a guard list of some tens of sites, so they
// are an open-addressed table, epoch-stamped: its logical clear is a counter
// bump, not a wipe. The zero value is ready to use; one scratch serves any
// number of sequential searches over graphs of any sizes (slot grows to the
// largest graph seen, reach to the widest search) but must not be shared
// across goroutines. It is the road twin of vortree.SearchScratch: the serving
// layer keeps one per shard, which removes every steady-state allocation from
// the network search path.
type SearchScratch struct {
	hp    heap4
	slot  []uint32
	reach []reached

	marks     []markSlot // a power of two long, at most a quarter of it live
	marked    int
	markEpoch uint32
}

// reached is one vertex of the current search and its tentative distance.
type reached struct {
	d float64
	v int32
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
	sc.reach = sc.reach[:0]
	if len(sc.slot) < n {
		sc.slot = make([]uint32, n)
	}
}

// find returns where in reach vertex v is, ok false when the search has not
// reached it.
func (sc *SearchScratch) find(v int32) (i uint32, ok bool) {
	if int(v) >= len(sc.slot) {
		return 0, false
	}
	i = sc.slot[v]
	return i, int(i) < len(sc.reach) && sc.reach[i].v == v
}

// TryImprove records d as vertex v's tentative distance if it beats the
// current one, reporting whether it did — the Dijkstra relaxation test. It
// spells find's test out (v is a vertex of the graph Begin sized slot for):
// through find it is past the inlining budget, 5 % of a cold kNN search.
func (sc *SearchScratch) TryImprove(v int32, d float64) bool {
	if i := sc.slot[v]; int(i) < len(sc.reach) && sc.reach[i].v == v {
		if sc.reach[i].d <= d {
			return false
		}
		sc.reach[i].d = d
		return true
	}
	sc.slot[v] = uint32(len(sc.reach))
	sc.reach = append(sc.reach, reached{d, v})
	return true
}

// DistAt returns vertex v's tentative distance (+Inf when unset).
func (sc *SearchScratch) DistAt(v int32) float64 {
	if i, ok := sc.find(v); ok {
		return sc.reach[i].d
	}
	return math.Inf(1)
}

// Reached reports whether v holds a tentative distance.
func (sc *SearchScratch) Reached(v int32) bool {
	_, ok := sc.find(v)
	return ok
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
// and then run a search in the same scratch.
func (sc *SearchScratch) MarkBegin() {
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
