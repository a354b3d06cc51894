package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// The one binary encoding of a mutation list, shared by the write-ahead
// log's batch records (internal/wal) and the ingest protocol's batch frames
// (internal/api): a uvarint count, then per mutation a flags byte and the
// one field its kind needs — the coordinates of a plane insert as two
// little-endian IEEE-754 words, the object id or site vertex as a uvarint
// for everything else (plane removals name an id; network mutations name
// their vertex in both directions).

// Mutation flag bits.
const (
	mutInsert  = 1 << 0
	mutNetwork = 1 << 1
)

// errTruncatedMutations is DecodeMutations' one error: input that ends
// mid-entry or counts more entries than it has bytes. Callers report it in
// their own vocabulary (a corrupt WAL record, a bad ingest frame).
var errTruncatedMutations = errors.New("index: truncated mutation encoding")

// AppendMutations appends the encoding of muts to dst.
func AppendMutations(dst []byte, muts []Mutation) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(muts)))
	for _, m := range muts {
		var flags byte
		if m.Insert {
			flags |= mutInsert
		}
		if m.Network {
			flags |= mutNetwork
		}
		dst = append(dst, flags)
		if !m.Network && m.Insert {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.P.X))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.P.Y))
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(m.ID))
	}
	return dst
}

// DecodeMutations decodes one AppendMutations encoding from the front of p
// and returns the bytes after it. An empty list decodes as nil.
func DecodeMutations(p []byte) ([]Mutation, []byte, error) {
	n, k := binary.Uvarint(p)
	// Every mutation takes at least two bytes; a count beyond the remaining
	// input is corruption, not a huge batch.
	if k <= 0 || n > uint64(len(p)-k) {
		return nil, nil, errTruncatedMutations
	}
	p = p[k:]
	if n == 0 {
		return nil, p, nil
	}
	muts := make([]Mutation, n)
	for i := range muts {
		if len(p) == 0 {
			return nil, nil, errTruncatedMutations
		}
		m := Mutation{Insert: p[0]&mutInsert != 0, Network: p[0]&mutNetwork != 0}
		p = p[1:]
		if !m.Network && m.Insert {
			if len(p) < 16 {
				return nil, nil, errTruncatedMutations
			}
			m.P.X = math.Float64frombits(binary.LittleEndian.Uint64(p))
			m.P.Y = math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
			p = p[16:]
		} else {
			id, k := binary.Uvarint(p)
			if k <= 0 {
				return nil, nil, errTruncatedMutations
			}
			m.ID = int(id)
			p = p[k:]
		}
		muts[i] = m
	}
	return muts, p, nil
}

// The one frame both carry the encoding in, the log's records on disk and
// the ingest protocol's batches and acks on the wire:
//
//	[payload len: uint32 LE][crc32c(payload): uint32 LE][payload]
//
// so a torn or corrupted frame is detected before any payload byte is
// interpreted. What a torn frame means is the reader's: the wire fails the
// stream, the log truncates its tail there.

// FrameHeaderLen is the fixed frame header: payload length and CRC32C.
const FrameHeaderLen = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends payload, framed, to dst.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// ReadFrame reads one frame from r and returns its verified payload, which
// the caller caps at limit bytes. It returns io.EOF only at a clean frame
// boundary; a header or payload cut short, a length of 0 or past limit, and
// a CRC mismatch are errors, which the caller reports in its own vocabulary.
func ReadFrame(r io.Reader, limit int) ([]byte, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("torn header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n == 0 || int64(n) > int64(limit) {
		return nil, fmt.Errorf("payload length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("torn payload: %w", err)
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, errors.New("crc mismatch")
	}
	return payload, nil
}
