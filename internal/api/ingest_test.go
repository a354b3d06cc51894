package api

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
)

func sampleBatch() IngestBatch {
	return IngestBatch{
		Seq:         7,
		WantResults: true,
		Updates: []UpdateEntry{
			{Session: 1, X: 10.5, Y: -3.25},
			{Session: 99, X: 0, Y: 0},
		},
		NetworkUpdates: []NetworkUpdateEntry{
			{Session: 2, U: 17, V: 18, T: 0.5},
		},
		Mutations: []index.Mutation{
			{Insert: true, P: geom.Pt(100, 200)},
			{ID: 42},
			{Insert: true, Network: true, ID: 17},
			{Network: true, ID: 23},
		},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	for _, b := range []IngestBatch{
		sampleBatch(),
		{Seq: 0}, // empty batch: legal, acks still flow
		{Seq: 1 << 40, WantResults: true},
		{Updates: []UpdateEntry{{Session: 5, X: -1e300, Y: 1e-300}}},
	} {
		payload := AppendBatch(nil, b)
		got, err := DecodeBatch(payload)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(normalizeBatch(got), normalizeBatch(b)) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, b)
		}
	}
}

// normalizeBatch maps empty slices to nil so DeepEqual compares content.
func normalizeBatch(b IngestBatch) IngestBatch {
	if len(b.Updates) == 0 {
		b.Updates = nil
	}
	if len(b.NetworkUpdates) == 0 {
		b.NetworkUpdates = nil
	}
	if len(b.Mutations) == 0 {
		b.Mutations = nil
	}
	return b
}

// TestBatchFrameGoldenBytes pins one framed batch's bytes: the wire stays
// what clients built before the mutation encoding moved into package index.
func TestBatchFrameGoldenBytes(t *testing.T) {
	const golden = "3f000000e97d97d80101090103000000000000f83f000000000000004001040506000000000000d03f" +
		"04010000000000d05e40000000000000e0bf0080808080802003ac020207"
	b := IngestBatch{
		Seq:            9,
		WantResults:    true,
		Updates:        []UpdateEntry{{Session: 3, X: 1.5, Y: 2}},
		NetworkUpdates: []NetworkUpdateEntry{{Session: 4, U: 5, V: 6, T: 0.25}},
		Mutations: []index.Mutation{
			{Insert: true, P: geom.Pt(123.25, -0.5)},
			{ID: 1 << 40},
			{Network: true, Insert: true, ID: 300},
			{Network: true, ID: 7},
		},
	}
	frame := AppendFrame(nil, AppendBatch(nil, b))
	if got := hex.EncodeToString(frame); got != golden {
		t.Fatalf("batch frame\n got %s\nwant %s", got, golden)
	}
	got, err := DecodeBatch(frame[frameHdrLen:])
	if err != nil || !reflect.DeepEqual(got, b) {
		t.Fatalf("decode = %+v, %v", got, err)
	}
}

func TestAckRoundTrip(t *testing.T) {
	for _, a := range []IngestAck{
		{Seq: 3, Code: CodeOK, Applied: 12},
		{Seq: 4, Code: CodeOverloaded, Message: "engine: overloaded"},
		{Seq: 5, Code: CodeOK, Applied: 2, Results: []IngestEntryResult{
			{Session: 1, Code: CodeOK, KNN: []int{3, 1, 2}},
			{Session: 9, Code: CodeUnknownSession},
		}, MutationIDs: []int{7, 42}},
	} {
		payload := AppendAck(nil, a)
		got, err := DecodeAck(payload)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got.Results) == 0 {
			got.Results = nil
		}
		if len(got.MutationIDs) == 0 {
			got.MutationIDs = nil
		}
		if !reflect.DeepEqual(got, a) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, a)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	b1 := AppendBatch(nil, sampleBatch())
	b2 := AppendAck(nil, IngestAck{Seq: 8, Code: CodeOK})
	stream = AppendFrame(stream, b1)
	stream = AppendFrame(stream, b2)
	br := bufio.NewReader(bytes.NewReader(stream))
	p1, err := ReadFrame(br)
	if err != nil || !bytes.Equal(p1, b1) {
		t.Fatalf("frame 1: %v", err)
	}
	p2, err := ReadFrame(br)
	if err != nil || !bytes.Equal(p2, b2) {
		t.Fatalf("frame 2: %v", err)
	}
	if _, err := ReadFrame(br); err != io.EOF {
		t.Fatalf("want clean EOF at frame boundary, got %v", err)
	}
}

func TestFrameTorn(t *testing.T) {
	full := AppendFrame(nil, AppendBatch(nil, sampleBatch()))
	// Every strict prefix that isn't a clean boundary must fail with
	// ErrBadFrame (torn header or torn payload), never EOF or a panic.
	for cut := 1; cut < len(full); cut++ {
		br := bufio.NewReader(bytes.NewReader(full[:cut]))
		_, err := ReadFrame(br)
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("cut %d: want ErrBadFrame, got %v", cut, err)
		}
	}
}

func TestFrameBadCRC(t *testing.T) {
	full := AppendFrame(nil, AppendBatch(nil, sampleBatch()))
	for _, flip := range []int{8, len(full) - 1} { // first and last payload byte
		corrupted := bytes.Clone(full)
		corrupted[flip] ^= 0x01
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(corrupted)))
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("flip %d: want ErrBadFrame, got %v", flip, err)
		}
	}
}

func TestFrameOversizedLength(t *testing.T) {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MaxFramePayload+1)
	_, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr[:])))
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("want ErrBadFrame for oversized length, got %v", err)
	}
	// Zero-length payloads are equally invalid: every frame carries at
	// least a kind byte.
	binary.LittleEndian.PutUint32(hdr[0:4], 0)
	_, err = ReadFrame(bufio.NewReader(bytes.NewReader(hdr[:])))
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("want ErrBadFrame for zero length, got %v", err)
	}
}

func TestDecodeBatchRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},                             // empty payload
		{FrameAck},                     // wrong kind
		{FrameBatch},                   // truncated after kind
		{FrameBatch, 0x01, 0x05, 0xff}, // count overruns payload
	}
	for i, payload := range cases {
		if _, err := DecodeBatch(payload); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("case %d: want ErrBadFrame, got %v", i, err)
		}
	}
	// Trailing bytes after a well-formed batch are a framing bug too.
	payload := append(AppendBatch(nil, IngestBatch{Seq: 1}), 0x00)
	if _, err := DecodeBatch(payload); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing bytes: want ErrBadFrame, got %v", err)
	}
}

// FuzzDecodeBatch asserts the decoder never panics and that everything it
// accepts re-encodes to a decodable batch (the codec is self-consistent).
func FuzzDecodeBatch(f *testing.F) {
	f.Add(AppendBatch(nil, sampleBatch()))
	f.Add(AppendBatch(nil, IngestBatch{}))
	f.Add([]byte{FrameBatch, 0, 0, 0})
	f.Add([]byte{FrameAck, 1, 2, 3})
	f.Fuzz(func(t *testing.T, payload []byte) {
		b, err := DecodeBatch(payload)
		if err != nil {
			return
		}
		again, err := DecodeBatch(AppendBatch(nil, b))
		if err != nil {
			t.Fatalf("re-decode of accepted batch failed: %v", err)
		}
		if !reflect.DeepEqual(normalizeBatch(again), normalizeBatch(b)) {
			t.Fatalf("re-encode changed batch:\n got %+v\nwant %+v", again, b)
		}
	})
}

// FuzzDecodeAck mirrors FuzzDecodeBatch for the ack direction.
func FuzzDecodeAck(f *testing.F) {
	f.Add(AppendAck(nil, IngestAck{Seq: 3, Code: CodeOK, Applied: 2,
		Results: []IngestEntryResult{{Session: 1, KNN: []int{1, 2}}}}))
	f.Add([]byte{FrameAck, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		a, err := DecodeAck(payload)
		if err != nil {
			return
		}
		if _, err := DecodeAck(AppendAck(nil, a)); err != nil {
			t.Fatalf("re-decode of accepted ack failed: %v", err)
		}
	})
}

func TestErrorTable(t *testing.T) {
	// Every code must survive the frame byte round trip.
	for code := range frameCodes {
		if got := CodeFromFrame(FrameCode(code)); got != code {
			t.Fatalf("frame round trip: %s -> %s", code, got)
		}
	}
	if CodeFromFrame(250) != CodeInternal {
		t.Fatal("unknown frame byte must decode as internal")
	}
	if info := Classify(nil); info.Code != CodeOK || info.Status != 200 {
		t.Fatalf("Classify(nil) = %+v", info)
	}
	if info := Classify(errors.New("mystery")); info.Code != CodeInternal || info.Status != 500 {
		t.Fatalf("Classify(unknown) = %+v", info)
	}
	// Spot checks keep the table honest against the documented statuses.
	for _, row := range table {
		info := Classify(row.err)
		if info != row.info {
			t.Fatalf("Classify(%v) = %+v, want %+v", row.err, info, row.info)
		}
		if _, ok := frameCodes[info.Code]; !ok {
			t.Fatalf("code %s has no frame byte", info.Code)
		}
	}
}
