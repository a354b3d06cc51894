package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/vortree"
)

// Record kinds. The first payload byte of every WAL frame selects the
// decoder, so future record kinds can ride alongside batches without a
// format bump.
const recordBatch = 1

// Checkpoint flag bits.
const (
	ckptHasPlane   = 1 << 0
	ckptHasNetwork = 1 << 1
)

// errTruncatedRecord marks a payload that ends mid-field. It can only be
// produced by a CRC-valid frame, so it is a hard corruption (or version
// skew) signal, never a torn tail.
var errTruncatedRecord = errors.New("wal: truncated record payload")

// appendBatchRecord encodes one applied mutation batch covering epochs
// firstEpoch .. firstEpoch+len(muts)-1: the record kind, the first epoch,
// then the mutations in the index's own encoding (index.AppendMutations).
func appendBatchRecord(dst []byte, firstEpoch uint64, muts []index.Mutation) []byte {
	dst = append(dst, recordBatch)
	dst = binary.AppendUvarint(dst, firstEpoch)
	return index.AppendMutations(dst, muts)
}

// decodeBatchRecord is the inverse of appendBatchRecord.
func decodeBatchRecord(p []byte) (firstEpoch uint64, muts []index.Mutation, err error) {
	if len(p) == 0 {
		return 0, nil, errTruncatedRecord
	}
	if p[0] != recordBatch {
		return 0, nil, fmt.Errorf("wal: unknown record kind %d", p[0])
	}
	if firstEpoch, p, err = readUvarint(p[1:]); err != nil {
		return 0, nil, err
	}
	if muts, p, err = index.DecodeMutations(p); err != nil || len(muts) == 0 {
		return 0, nil, errTruncatedRecord
	}
	if len(p) != 0 {
		return 0, nil, fmt.Errorf("wal: %d trailing bytes after batch record", len(p))
	}
	return firstEpoch, muts, nil
}

// ckptState is a decoded checkpoint: the logical store state a restored
// instance republishes before WAL replay. bounds rides along purely as a
// configuration check — a data dir must not be opened under a different
// data space, or replayed coordinates would silently land in the wrong
// geometry.
type ckptState struct {
	epoch    uint64
	bounds   geom.Rect
	hasPlane bool
	objs     []vortree.RestoreObject
	nextID   int
	hasNet   bool
	sites    []int
}

// encodeCheckpoint serializes one checkpoint payload (the CRC and file
// magic are the writer's concern).
func encodeCheckpoint(st ckptState) []byte {
	dst := make([]byte, 0, 64+24*len(st.objs)+4*len(st.sites))
	dst = binary.AppendUvarint(dst, st.epoch)
	var flags byte
	if st.hasPlane {
		flags |= ckptHasPlane
	}
	if st.hasNet {
		flags |= ckptHasNetwork
	}
	dst = append(dst, flags)
	dst = appendFloat(dst, st.bounds.Min.X)
	dst = appendFloat(dst, st.bounds.Min.Y)
	dst = appendFloat(dst, st.bounds.Max.X)
	dst = appendFloat(dst, st.bounds.Max.Y)
	if st.hasPlane {
		dst = binary.AppendUvarint(dst, uint64(st.nextID))
		dst = binary.AppendUvarint(dst, uint64(len(st.objs)))
		for _, o := range st.objs {
			dst = binary.AppendUvarint(dst, uint64(o.ID))
			dst = appendFloat(dst, o.P.X)
			dst = appendFloat(dst, o.P.Y)
		}
	}
	if st.hasNet {
		dst = binary.AppendUvarint(dst, uint64(len(st.sites)))
		for _, v := range st.sites {
			dst = binary.AppendUvarint(dst, uint64(v))
		}
	}
	return dst
}

// decodeCheckpoint is the inverse of encodeCheckpoint.
func decodeCheckpoint(p []byte) (st ckptState, err error) {
	if st.epoch, p, err = readUvarint(p); err != nil {
		return ckptState{}, err
	}
	if len(p) == 0 {
		return ckptState{}, errTruncatedRecord
	}
	flags := p[0]
	p = p[1:]
	st.hasPlane = flags&ckptHasPlane != 0
	st.hasNet = flags&ckptHasNetwork != 0
	if st.bounds.Min.X, p, err = readFloat(p); err != nil {
		return ckptState{}, err
	}
	if st.bounds.Min.Y, p, err = readFloat(p); err != nil {
		return ckptState{}, err
	}
	if st.bounds.Max.X, p, err = readFloat(p); err != nil {
		return ckptState{}, err
	}
	if st.bounds.Max.Y, p, err = readFloat(p); err != nil {
		return ckptState{}, err
	}
	if st.hasPlane {
		var nextID, n uint64
		if nextID, p, err = readUvarint(p); err != nil {
			return ckptState{}, err
		}
		if n, p, err = readUvarint(p); err != nil {
			return ckptState{}, err
		}
		if n > uint64(len(p)) { // >= 1 byte per object
			return ckptState{}, errTruncatedRecord
		}
		st.nextID = int(nextID)
		st.objs = make([]vortree.RestoreObject, n)
		for i := range st.objs {
			var id uint64
			if id, p, err = readUvarint(p); err != nil {
				return ckptState{}, err
			}
			st.objs[i].ID = int(id)
			if st.objs[i].P.X, p, err = readFloat(p); err != nil {
				return ckptState{}, err
			}
			if st.objs[i].P.Y, p, err = readFloat(p); err != nil {
				return ckptState{}, err
			}
		}
	}
	if st.hasNet {
		var n uint64
		if n, p, err = readUvarint(p); err != nil {
			return ckptState{}, err
		}
		if n > uint64(len(p)) {
			return ckptState{}, errTruncatedRecord
		}
		st.sites = make([]int, n)
		for i := range st.sites {
			var v uint64
			if v, p, err = readUvarint(p); err != nil {
				return ckptState{}, err
			}
			st.sites[i] = int(v)
		}
	}
	if len(p) != 0 {
		return ckptState{}, fmt.Errorf("wal: %d trailing bytes after checkpoint", len(p))
	}
	return st, nil
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func readFloat(p []byte) (float64, []byte, error) {
	if len(p) < 8 {
		return 0, nil, errTruncatedRecord
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p)), p[8:], nil
}

func readUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, errTruncatedRecord
	}
	return v, p[n:], nil
}
