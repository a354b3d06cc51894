package core

import (
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/roadnet"
)

// The queries the tests drive over an index.Store are kept on its newest
// snapshot the way the serving engine's shard keeps its sessions: catchUp
// hands a query the ops between the snapshot it reads and the current one
// (Advance), a window the store's log no longer reaches as not covered.
// planeOnStore and netOnStore catch up at Sync and before every Update and
// Refresh, so a test drives them like queries that follow the store by
// themselves; with a nil store they read one fixed index.

// catchUp advances q to st's current snapshot.
func catchUp(st *index.Store, q interface {
	Epoch() uint64
	Advance(next *index.Snapshot, ops []index.Op, covered bool)
}) {
	next := st.Current()
	ops, covered := st.OpsSince(q.Epoch(), next.Epoch())
	q.Advance(next, ops, covered)
}

// planeOnStore is a plane query kept on st's newest snapshot.
type planeOnStore struct {
	*PlaneQuery
	st *index.Store
}

// newPlaneOnStore creates a plane query reading st's current snapshot.
func newPlaneOnStore(st *index.Store, k int, rho float64) (*planeOnStore, error) {
	q, err := NewPlaneQuery(st.Current().Plane(), k, rho)
	if err != nil {
		return nil, err
	}
	q.Advance(st.Current(), nil, true)
	return &planeOnStore{q, st}, nil
}

func (q *planeOnStore) Sync() {
	if q.st != nil {
		catchUp(q.st, q.PlaneQuery)
	}
}

func (q *planeOnStore) Update(p geom.Point) ([]int, error) {
	q.Sync()
	return q.PlaneQuery.Update(p)
}

func (q *planeOnStore) Refresh() ([]int, bool, error) {
	q.Sync()
	return q.PlaneQuery.Refresh()
}

// netOnStore is a network query kept on st's newest snapshot.
type netOnStore struct {
	*NetworkQuery
	st *index.Store
}

// newNetOnStore creates a network query reading st's current snapshot.
func newNetOnStore(st *index.Store, k int, rho float64) (*netOnStore, error) {
	q, err := NewNetworkQuery(st.Current().Network(), k, rho)
	if err != nil {
		return nil, err
	}
	q.Advance(st.Current(), nil, true)
	return &netOnStore{q, st}, nil
}

func (q *netOnStore) Sync() {
	if q.st != nil {
		catchUp(q.st, q.NetworkQuery)
	}
}

func (q *netOnStore) Update(pos roadnet.Position) ([]int, error) {
	q.Sync()
	return q.NetworkQuery.Update(pos)
}

func (q *netOnStore) Refresh() ([]int, bool, error) {
	q.Sync()
	return q.NetworkQuery.Refresh()
}
