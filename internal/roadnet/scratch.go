package roadnet

import "math"

// heapItem is one frontier entry of a Dijkstra search: d is the tentative
// distance at push time, which is the pop priority, and v the vertex.
// Distances tie-break on the vertex id so every search in the package
// settles equal-distance vertices in the same deterministic order, which
// lets differential tests compare result lists verbatim.
type heapItem struct {
	d float64
	v int32
}

// heap4 is a hand-rolled 4-ary min-heap over search frontier entries.
// Compared to container/heap it avoids the interface boxing (one
// allocation per push) and the indirect Less/Swap calls; compared to a
// binary heap the wider fan-out halves the sift-down depth, which is
// where Dijkstra spends its heap time on road graphs.
type heap4 []heapItem

func (h heap4) less(i, j int) bool {
	if h[i].d != h[j].d {
		return h[i].d < h[j].d
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
// the frontier heap, the tentative distances and an int32 mark set. Both the
// distances and the marks are a stampTable — open-addressed, epoch-stamped,
// sized by the most vertices one search put in it — so the scratch holds no
// array sized by the graph, and emptying either is a counter bump, not a
// wipe. The zero value is ready to use; one scratch serves any number of
// sequential searches over graphs of any sizes but must not be shared across
// goroutines. It is the road twin of vortree.SearchScratch: the serving layer
// keeps one per shard, which removes every steady-state allocation from the
// network search path.
type SearchScratch struct {
	hp    heap4
	dist  stampTable[float64]
	marks stampTable[int32]
}

// stampTable maps vertices to values of type V for one search: open
// addressing with linear probing over a power-of-two slot array, doubled when
// a search fills it past its load (see fill). An entry is live while its
// stamp is the table's epoch, so reset empties the table by bumping the
// epoch, and nothing is deleted within one.
type stampTable[V any] struct {
	slots []stampSlot[V]
	live  int
	epoch uint32
}

// stampSlot is one entry of a stampTable.
type stampSlot[V any] struct {
	v     int32
	stamp uint32
	val   V
}

// reset empties the table: every vertex reads as unset.
func (t *stampTable[V]) reset() {
	if t.slots == nil {
		t.slots = make([]stampSlot[V], 64)
	}
	t.live = 0
	t.epoch++
	if t.epoch == 0 {
		clear(t.slots)
		t.epoch = 1
	}
}

// at returns the slot that holds vertex v, or the free one where it goes.
// Nothing is deleted within an epoch, so the first slot that is not live ends
// the probe.
func (t *stampTable[V]) at(v int32) *stampSlot[V] {
	h := uint32(v) * 0x9E3779B1
	for i := h ^ h>>16; ; i++ {
		if s := &t.slots[i&uint32(len(t.slots)-1)]; s.stamp != t.epoch || s.v == v {
			return s
		}
	}
}

// get returns the slot that holds vertex v, nil when v is unset (also
// before the first reset).
func (t *stampTable[V]) get(v int32) *stampSlot[V] {
	if len(t.slots) == 0 {
		return nil
	}
	if s := t.at(v); s.stamp == t.epoch {
		return s
	}
	return nil
}

// fill writes v's value into s, the free slot at(v) returned, doubling the
// table first when the entry would take it past 1/load full. The distances
// are kept at most half full: a search reaches hundreds of vertices, and the
// table is most of what an idle scratch holds. The marks, some tens of guard
// sites, are kept at most a quarter full, which shortens the probes of the
// misses most mark reads are.
func (t *stampTable[V]) fill(s *stampSlot[V], v int32, val V, load int) {
	if t.live++; load*t.live > len(t.slots) {
		old := t.slots
		t.slots = make([]stampSlot[V], 2*len(old))
		for _, o := range old {
			if o.stamp == t.epoch {
				*t.at(o.v) = o
			}
		}
		s = t.at(v)
	}
	*s = stampSlot[V]{v, t.epoch, val}
}

// Begin readies the scratch for a new search: the frontier empties and every
// tentative distance reads as +Inf again.
func (sc *SearchScratch) Begin() {
	sc.hp = sc.hp[:0]
	sc.dist.reset()
}

// TryImprove records d as vertex v's tentative distance if it beats the
// current one, reporting whether it did — the Dijkstra relaxation test.
func (sc *SearchScratch) TryImprove(v int32, d float64) bool {
	t := &sc.dist
	s := t.at(v)
	if s.stamp != t.epoch {
		t.fill(s, v, d, 2)
		return true
	}
	if s.val <= d {
		return false
	}
	s.val = d
	return true
}

// DistAt returns vertex v's tentative distance (+Inf when unset).
func (sc *SearchScratch) DistAt(v int32) float64 {
	if s := sc.dist.get(v); s != nil {
		return s.val
	}
	return math.Inf(1)
}

// Reached reports whether v holds a tentative distance.
func (sc *SearchScratch) Reached(v int32) bool {
	return sc.dist.get(v) != nil
}

// Push adds a frontier entry for vertex v at tentative distance d.
func (sc *SearchScratch) Push(d float64, v int32) {
	sc.hp.push(heapItem{d: d, v: v})
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
	sc.marks.reset()
}

// SetMark tags vertex v with val (0 is indistinguishable from unset).
func (sc *SearchScratch) SetMark(v int32, val int32) {
	t := &sc.marks
	if s := t.at(v); s.stamp == t.epoch {
		s.val = val
	} else {
		t.fill(s, v, val, 4)
	}
}

// Mark returns vertex v's tag, 0 when never set since MarkBegin.
func (sc *SearchScratch) Mark(v int32) int32 {
	if s := sc.marks.get(v); s != nil {
		return s.val
	}
	return 0
}
