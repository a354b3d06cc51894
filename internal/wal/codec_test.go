package wal

import (
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
)

// goldenMutations is one batch of every mutation kind, with a multi-byte id
// and vertex.
var goldenMutations = []index.Mutation{
	{Insert: true, P: geom.Pt(123.25, -0.5)},
	{ID: 1 << 40},
	{Network: true, Insert: true, ID: 300},
	{Network: true, ID: 7},
}

// TestBatchRecordGoldenBytes pins the batch record's bytes: logs written
// before the mutation encoding moved into package index must replay.
func TestBatchRecordGoldenBytes(t *testing.T) {
	const golden = "01ac0204010000000000d05e40000000000000e0bf0080808080802003ac020207"
	rec := appendBatchRecord(nil, 300, goldenMutations)
	if got := hex.EncodeToString(rec); got != golden {
		t.Fatalf("batch record\n got %s\nwant %s", got, golden)
	}
	first, muts, err := decodeBatchRecord(rec)
	if err != nil || first != 300 || !reflect.DeepEqual(muts, goldenMutations) {
		t.Fatalf("decode = %d, %+v, %v", first, muts, err)
	}
	// Every strict prefix is truncated, never a shorter valid batch; an
	// empty batch is as corrupt as a truncated one.
	for cut := 1; cut < len(rec); cut++ {
		if _, _, err := decodeBatchRecord(rec[:cut]); err == nil {
			t.Fatalf("prefix of %d bytes decoded", cut)
		}
	}
	if _, _, err := decodeBatchRecord(appendBatchRecord(nil, 1, nil)); !errors.Is(err, errTruncatedRecord) {
		t.Fatalf("empty batch: %v, want errTruncatedRecord", err)
	}
}
