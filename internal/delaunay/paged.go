package delaunay

// pageOwner is an identity token: pages carry the token of the
// triangulation version that created (or last copied) them, and only that
// version may write them in place. Branch hands the new version a fresh
// token, so its first write to any inherited page copies it — the face and
// vertex tables are shared between snapshot epochs at page granularity.
type pageOwner struct{ _ byte }

const (
	pageBits = 6
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// page is one fixed-size chunk of a paged slice; data always has length
// pageSize (the tail beyond the logical length is garbage).
type page[T any] struct {
	own  *pageOwner
	data []T
}

// paged is a copy-on-write chunked slice: a directory of fixed-size pages.
// branch copies only the directory (n/pageSize pointers); mutation copies
// only the touched page. Reads on a frozen version never write, so many
// goroutines may read versions concurrently while the newest version is
// mutated. copied counts the pages this version copied or created since it
// was branched — the structural-sharing instrumentation of ShareStats.
type paged[T any] struct {
	dir    []*page[T]
	n      int
	copied int
}

func (p *paged[T]) len() int { return p.n }

// at returns a pointer for reading entry i. The pointer is stable for
// frozen versions; in mutating code use mut instead so a concurrent page
// copy cannot strand writes.
func (p *paged[T]) at(i int) *T {
	return &p.dir[i>>pageBits].data[i&pageMask]
}

// mut returns a pointer for writing entry i, copying the page first unless
// own already owns it. Pointers obtained through mut stay valid for the
// lifetime of the owning version.
func (p *paged[T]) mut(i int, own *pageOwner) *T {
	pg := p.dir[i>>pageBits]
	if pg.own != own {
		cp := &page[T]{own: own, data: append(make([]T, 0, pageSize), pg.data...)}
		p.dir[i>>pageBits] = cp
		p.copied++
		pg = cp
	}
	return &pg.data[i&pageMask]
}

// append grows the slice by one entry.
func (p *paged[T]) append(v T, own *pageOwner) {
	if p.n>>pageBits == len(p.dir) {
		p.dir = append(p.dir, &page[T]{own: own, data: make([]T, pageSize)})
		p.copied++
	}
	*p.mut(p.n, own) = v
	p.n++
}

// branch returns a logically independent copy sharing every page with the
// receiver; cost is one directory copy, O(n/pageSize).
func (p *paged[T]) branch() paged[T] {
	return paged[T]{dir: append([]*page[T](nil), p.dir...), n: p.n}
}
