package wal

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzWALReplay throws arbitrary bytes at the record scanner — the
// exact code path recovery runs over a crashed log. The invariants
// under fuzzing are the recovery contract: never panic, never report
// corruption as an error, stop at the first invalid frame, and the
// valid prefix must itself re-scan cleanly to the identical records
// (replay is deterministic and idempotent over the prefix it accepts).
func FuzzWALReplay(f *testing.F) {
	// Seed with realistic material: a well-formed log, the same log
	// truncated, bit-flipped, with garbage appended, and pure noise.
	var good []byte
	for i := 1; i <= 3; i++ {
		frame, err := appendFrame(nil, &Record{
			Seq: uint64(i), Kind: KindMutate,
			Events: []Event{{Rel: "emp", Op: "insert", ID: int64(i), Tuple: wireTuple("e", i*100)}},
		})
		if err != nil {
			f.Fatal(err)
		}
		good = append(good, frame...)
	}
	f.Add(good)
	f.Add(good[:len(good)-5])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	f.Add(append(append([]byte(nil), good...), 0xde, 0xad, 0xbe, 0xef))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // huge length prefix
	f.Add(bytes.Repeat([]byte{0}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []Record
		valid, _, err := scanRecords(bytes.NewReader(data), func(r *Record) error {
			recs = append(recs, *r)
			return nil
		})
		if err != nil {
			t.Fatalf("scanRecords returned an error for corruption: %v", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		// The accepted prefix must re-scan cleanly (no torn tail) and
		// yield the same records: what recovery keeps after truncation is
		// exactly what it replayed.
		var again []Record
		revalid, torn, err := scanRecords(bytes.NewReader(data[:valid]), func(r *Record) error {
			again = append(again, *r)
			return nil
		})
		if err != nil || torn {
			t.Fatalf("valid prefix re-scan: torn=%v err=%v", torn, err)
		}
		if revalid != valid || len(again) != len(recs) {
			t.Fatalf("re-scan: %d bytes %d records, first scan %d bytes %d records",
				revalid, len(again), valid, len(recs))
		}
		for i := range recs {
			if recs[i].Seq != again[i].Seq || recs[i].Kind != again[i].Kind {
				t.Fatalf("record %d differs between scans", i)
			}
		}
	})
}

// FuzzDecodeFrameHeader narrows in on the header parser with
// adversarial length prefixes.
func FuzzDecodeFrameHeader(f *testing.F) {
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxRecordBytes+1)
	f.Add(hdr[:])
	f.Add([]byte{1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		valid, _, err := scanRecords(bytes.NewReader(data), func(*Record) error { return nil })
		if err != nil {
			t.Fatalf("err = %v", err)
		}
		if valid > int64(len(data)) {
			t.Fatalf("valid %d > input %d", valid, len(data))
		}
	})
}
