package index

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/geom"
)

func sampleMutations() []Mutation {
	return []Mutation{
		{Insert: true, P: geom.Pt(100, 200)},
		{ID: 42},
		{Insert: true, Network: true, ID: 17},
		{Network: true, ID: 23},
	}
}

func TestMutationsRoundTrip(t *testing.T) {
	for _, muts := range [][]Mutation{
		sampleMutations(),
		nil,
		{{Insert: true, P: geom.Pt(-1e300, 1e-300)}, {ID: 1 << 62}},
	} {
		enc := AppendMutations([]byte{0xee}, muts) // appends after what dst holds
		got, rest, err := DecodeMutations(append(enc[1:], 0x01, 0x02))
		if err != nil || !reflect.DeepEqual(got, muts) || !reflect.DeepEqual(rest, []byte{0x01, 0x02}) {
			t.Fatalf("decode(%+v) = %+v, rest %v, %v", muts, got, rest, err)
		}
	}
	enc := AppendMutations(nil, sampleMutations())
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeMutations(enc[:cut]); !errors.Is(err, errTruncatedMutations) {
			t.Fatalf("prefix of %d bytes: %v, want errTruncatedMutations", cut, err)
		}
	}
	// A count beyond what the input could hold is refused before anything
	// is allocated for it.
	if _, _, err := DecodeMutations([]byte{0xff, 0xff, 0x03, 0x00}); !errors.Is(err, errTruncatedMutations) {
		t.Fatalf("huge count: %v, want errTruncatedMutations", err)
	}
}

// FuzzDecodeMutations asserts the decoder never panics and that whatever it
// accepts re-encodes to the same mutations: the one corpus for the encoding
// the WAL and the ingest protocol share.
func FuzzDecodeMutations(f *testing.F) {
	f.Add(AppendMutations(nil, sampleMutations()))
	f.Add(AppendMutations(nil, nil))
	f.Add([]byte{0x02, 0x01, 0x00, 0x00})
	f.Add([]byte{0x01, 0xfc, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, p []byte) {
		muts, rest, err := DecodeMutations(p)
		if err != nil {
			return
		}
		if len(rest) > len(p) {
			t.Fatalf("rest of %d bytes from %d", len(rest), len(p))
		}
		// Compared encoded, so that a NaN coordinate equals itself.
		enc := AppendMutations(nil, muts)
		again, tail, err := DecodeMutations(enc)
		if err != nil || len(tail) != 0 || !bytes.Equal(AppendMutations(nil, again), enc) {
			t.Fatalf("re-decode = %+v, tail %v, %v; want %+v", again, tail, err, muts)
		}
	})
}
