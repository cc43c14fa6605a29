package stream

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"skybench"
)

// FuzzReadCheckpoint: a checkpoint file's bytes decode to a typed
// ErrCorruptWAL or to a checkpoint whose sections account for every byte
// — never a panic. The harness appends the CRC the fuzzed body needs, so
// the fuzzer explores what lies past the checksum: the counts a
// CRC-valid file can claim.
func FuzzReadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	x, err := New(2, Config{SkybandK: 2, Durable: &Durability{Dir: dir, CheckpointEvery: -1}})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := x.Insert([]float64{float64(i), float64(6 - i)}); err != nil {
			f.Fatal(err)
		}
	}
	if err := x.checkpointNow(); err != nil {
		f.Fatal(err)
	}
	x.Close()
	cks, err := listCkpts(dir)
	if err != nil || len(cks) == 0 {
		f.Fatalf("checkpoints: %v %v", cks, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, ckptName(cks[len(cks)-1])))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data[:len(data)-4])
	// d = 1 and a live count of 2^60 in a 56-byte body: the count times
	// the row width overflows int, so a bounds check must not multiply.
	le := binary.LittleEndian
	huge := le.AppendUint32(nil, ckptMagic)
	huge = le.AppendUint32(huge, ckptVersion)
	huge = le.AppendUint32(huge, 1)
	huge = le.AppendUint32(huge, 1)
	huge = append(huge, make([]byte, 32)...)
	huge = le.AppendUint64(huge, 1<<60)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, body []byte) {
		data := binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, ckptCRC))
		ck, err := decodeCheckpoint("fuzz", data)
		if err != nil {
			if !errors.Is(err, skybench.ErrCorruptWAL) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		n, m := len(ck.ids), len(ck.bandIDs)
		if ck.d < 1 || len(ck.vals) != n*ck.d || len(ck.bandCnt) != m {
			t.Fatalf("inconsistent checkpoint: d=%d, %d ids, %d vals, %d band IDs, %d counts", ck.d, n, len(ck.vals), m, len(ck.bandCnt))
		}
		if want := 48 + 8 + n*(8+8*ck.d) + 8 + 12*m + 4; len(data) != want {
			t.Fatalf("%d bytes decoded as a checkpoint of %d", len(data), want)
		}
	})
}

// FuzzDecodeRec: a WAL record payload decodes to an error or to a record
// that re-encodes to a payload decoding to the same record — never a
// panic.
func FuzzDecodeRec(f *testing.F) {
	f.Add(appendInsertRec(nil, 7, []float64{0.5, 1, math.Inf(1)}), uint8(3))
	f.Add(appendDeleteRec(nil, 1<<40), uint8(2))
	f.Add([]byte{recInsert, 0x80, 0x80}, uint8(1))
	f.Fuzz(func(t *testing.T, payload []byte, dims uint8) {
		d := 1 + int(dims)%31
		op, id, vals, err := decodeRec(payload, d)
		if err != nil {
			return
		}
		var again []byte
		switch op {
		case recInsert:
			if len(vals) != d {
				t.Fatalf("insert of %d values at d=%d", len(vals), d)
			}
			again = appendInsertRec(nil, id, vals)
		case recDelete:
			if vals != nil {
				t.Fatalf("delete carries %d values", len(vals))
			}
			again = appendDeleteRec(nil, id)
		default:
			t.Fatalf("decoded unknown op %q", op)
		}
		op2, id2, vals2, err := decodeRec(again, d)
		if err != nil || op2 != op || id2 != id || id == 0 || len(vals2) != len(vals) {
			t.Fatalf("re-encoding %q/%d/%v decodes to %q/%d/%v (%v)", op, id, vals, op2, id2, vals2, err)
		}
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(vals2[i]) {
				t.Fatalf("value %d: %v re-decodes as %v", i, vals[i], vals2[i])
			}
		}
	})
}
