package api

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/index"
)

// Binary ingest stream protocol (POST /v1/ingest, or the raw TCP
// listener behind insqd -ingest-addr).
//
// A stream opens with the 8-byte client magic, answered by the 8-byte
// server magic, then carries length-prefixed CRC32C frames in both
// directions — the write-ahead log's frame (index.AppendFrame), so a torn
// or corrupted frame is detected before any payload byte is interpreted:
//
//	[payload len: uint32 LE][crc32c(payload): uint32 LE][payload]
//
// Client→server payloads are batch frames (FrameBatch), server→client
// payloads are ack frames (FrameAck); every batch is answered by exactly
// one ack carrying the batch's echoed Seq and a status byte from the
// shared error table (FrameCode). Integers travel as uvarints, floats as
// little-endian IEEE-754 bits; a batch's mutations are written by
// index.AppendMutations, the encoding the WAL's batch records use too.
// Per-session results are elided from acks unless the batch sets
// WantResults.

const (
	// ClientMagic/ServerMagic open an ingest stream in each direction; a
	// mismatch fails the connection before any frame is parsed.
	ClientMagic = "INSQING1"
	ServerMagic = "INSQACK1"

	// frameHdrLen is the fixed frame header: payload length + CRC32C.
	frameHdrLen = index.FrameHeaderLen

	// MaxFramePayload bounds one frame (matching the JSON request body cap)
	// so a corrupted or hostile length prefix cannot exhaust memory.
	MaxFramePayload = 8 << 20
)

// Frame payload kinds (first payload byte).
const (
	FrameBatch byte = 1
	FrameAck   byte = 2
)

// ErrBadFrame wraps every framing/codec-level decode failure (bad CRC,
// truncated payload, oversized length, unknown kind). It is terminal for
// the stream: framing is lost, the connection must be reopened.
var ErrBadFrame = errors.New("api: bad ingest frame")

// IngestBatch is one client→server batch frame: location updates for
// both session flavors plus pre-decoded object mutations, applied by the
// server in that order (mutations first, then plane updates, then
// network updates). Entries are independent — exactly the contract of
// the JSON /v1/update and object endpoints, minus one round trip each.
type IngestBatch struct {
	// Seq is echoed in the matching ack; clients pick any strictly
	// increasing sequence to correlate pipelined frames.
	Seq uint64
	// WantResults asks for per-entry results in the ack (kNN sets, ids of
	// applied mutations). Elided by default: the ingest fast path is for
	// callers that consume results from the push stream instead.
	WantResults bool

	Updates        []UpdateEntry
	NetworkUpdates []NetworkUpdateEntry
	// Mutations are object/site mutations in the index's own mutation
	// vocabulary — the codec is shared with index.Mutation so the server
	// can hand the decoded batch straight to the engine.
	Mutations []index.Mutation
}

// IngestEntryResult is one per-entry outcome inside an ack (present only
// when the batch requested results).
type IngestEntryResult struct {
	Session uint64
	Code    ErrorCode
	KNN     []int
}

// IngestAck is one server→client ack frame, answering exactly one batch.
type IngestAck struct {
	Seq uint64
	// Code is the batch-level status: CodeOK when the batch was applied
	// (individual entries may still fail — see Results), or the shared
	// table's code when the whole batch was rejected (overloaded shed,
	// degraded durability, expired deadline, bad frame).
	Code ErrorCode
	// Message carries the error detail for non-OK codes.
	Message string
	// Applied counts location-update entries accepted by the engine.
	Applied int
	// Results parallels Updates then NetworkUpdates; MutationIDs parallels
	// Mutations (ids assigned to inserts, echoed ids otherwise). Both nil
	// unless the batch set WantResults.
	Results     []IngestEntryResult
	MutationIDs []int
}

// AppendFrame appends one framed payload to dst (index.AppendFrame).
func AppendFrame(dst, payload []byte) []byte { return index.AppendFrame(dst, payload) }

// ReadFrame reads one frame from the stream and returns its verified
// payload, at most MaxFramePayload bytes. io.EOF is returned only at a
// clean frame boundary; any torn header/payload, bad length or CRC mismatch
// is an ErrBadFrame: the stream's framing is lost.
func ReadFrame(br *bufio.Reader) ([]byte, error) {
	payload, err := index.ReadFrame(br, MaxFramePayload)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return payload, err
}

// Batch payload flag bits.
const batchWantResults = 1 << 0

// AppendBatch appends a batch frame's payload (unframed) to dst.
func AppendBatch(dst []byte, b IngestBatch) []byte {
	dst = append(dst, FrameBatch)
	var flags uint64
	if b.WantResults {
		flags |= batchWantResults
	}
	dst = binary.AppendUvarint(dst, flags)
	dst = binary.AppendUvarint(dst, b.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(b.Updates)))
	for _, u := range b.Updates {
		dst = binary.AppendUvarint(dst, u.Session)
		dst = appendFloat(dst, u.X)
		dst = appendFloat(dst, u.Y)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b.NetworkUpdates)))
	for _, u := range b.NetworkUpdates {
		dst = binary.AppendUvarint(dst, u.Session)
		dst = binary.AppendUvarint(dst, uint64(u.U))
		dst = binary.AppendUvarint(dst, uint64(u.V))
		dst = appendFloat(dst, u.T)
	}
	return index.AppendMutations(dst, b.Mutations)
}

// DecodeBatch decodes a batch frame payload produced by AppendBatch.
func DecodeBatch(payload []byte) (IngestBatch, error) {
	var b IngestBatch
	d := decoder{buf: payload}
	if kind := d.byte(); kind != FrameBatch {
		return b, fmt.Errorf("%w: kind %d, want batch", ErrBadFrame, kind)
	}
	flags := d.uvarint()
	b.WantResults = flags&batchWantResults != 0
	b.Seq = d.uvarint()
	if n := d.count(); n > 0 {
		b.Updates = make([]UpdateEntry, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			b.Updates = append(b.Updates, UpdateEntry{
				Session: d.uvarint(), X: d.float(), Y: d.float(),
			})
		}
	}
	if n := d.count(); n > 0 {
		b.NetworkUpdates = make([]NetworkUpdateEntry, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			b.NetworkUpdates = append(b.NetworkUpdates, NetworkUpdateEntry{
				Session: d.uvarint(), U: int(d.uvarint()), V: int(d.uvarint()), T: d.float(),
			})
		}
	}
	if d.err == nil {
		var err error
		if b.Mutations, d.buf, err = index.DecodeMutations(d.buf); err != nil {
			d.fail()
		}
	}
	if d.err == nil && len(d.buf) != 0 {
		d.err = fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(d.buf))
	}
	return b, d.err
}

// AppendAck appends an ack frame's payload (unframed) to dst.
func AppendAck(dst []byte, a IngestAck) []byte {
	dst = append(dst, FrameAck)
	dst = binary.AppendUvarint(dst, a.Seq)
	dst = append(dst, FrameCode(a.Code))
	dst = binary.AppendUvarint(dst, uint64(a.Applied))
	dst = binary.AppendUvarint(dst, uint64(len(a.Message)))
	dst = append(dst, a.Message...)
	dst = binary.AppendUvarint(dst, uint64(len(a.Results)))
	for _, r := range a.Results {
		dst = binary.AppendUvarint(dst, r.Session)
		dst = append(dst, FrameCode(r.Code))
		dst = binary.AppendUvarint(dst, uint64(len(r.KNN)))
		for _, id := range r.KNN {
			dst = binary.AppendUvarint(dst, uint64(id))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(a.MutationIDs)))
	for _, id := range a.MutationIDs {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return dst
}

// DecodeAck decodes an ack frame payload produced by AppendAck.
func DecodeAck(payload []byte) (IngestAck, error) {
	var a IngestAck
	d := decoder{buf: payload}
	if kind := d.byte(); kind != FrameAck {
		return a, fmt.Errorf("%w: kind %d, want ack", ErrBadFrame, kind)
	}
	a.Seq = d.uvarint()
	a.Code = CodeFromFrame(d.byte())
	a.Applied = int(d.uvarint())
	if n := d.count(); n > 0 {
		msg := d.bytes(n)
		if d.err == nil {
			a.Message = string(msg)
		}
	}
	if n := d.count(); n > 0 {
		a.Results = make([]IngestEntryResult, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			r := IngestEntryResult{Session: d.uvarint(), Code: CodeFromFrame(d.byte())}
			if k := d.count(); k > 0 {
				r.KNN = make([]int, 0, k)
				for j := 0; j < k && d.err == nil; j++ {
					r.KNN = append(r.KNN, int(d.uvarint()))
				}
			}
			a.Results = append(a.Results, r)
		}
	}
	if n := d.count(); n > 0 {
		a.MutationIDs = make([]int, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			a.MutationIDs = append(a.MutationIDs, int(d.uvarint()))
		}
	}
	if d.err == nil && len(d.buf) != 0 {
		d.err = fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(d.buf))
	}
	return a, d.err
}

// decoder is a cursor over one payload; the first failure sticks and
// every later read returns zero values, so decode loops stay linear.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated payload", ErrBadFrame)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil || len(d.buf) < n {
		d.fail()
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// count reads a collection length, bounding it by the bytes actually
// remaining so a hostile count cannot trigger a huge allocation (every
// element costs at least one byte).
func (d *decoder) count() int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.buf)) {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *decoder) float() float64 {
	b := d.bytes(8)
	if d.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}
