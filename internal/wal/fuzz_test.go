package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"sim/internal/pager"
)

// mutateCRC rewrites a record's CRC field so the header+payload verify,
// letting seeds reach the per-kind validation paths.
func sealRecord(rec []byte) []byte {
	crc := crc32.ChecksumIEEE(rec[0:9])
	crc = crc32.Update(crc, crc32.IEEETable, rec[headerSize:])
	binary.BigEndian.PutUint32(rec[9:13], crc)
	return rec
}

// FuzzReplay feeds arbitrary bytes to the recovery path as a WAL image.
// Recovery must never panic: it either replays a prefix of complete
// committed batches or salvages the tail, and a second recovery over the
// truncated log must be a no-op.
func FuzzReplay(f *testing.F) {
	// A complete committed batch (one page + commit record).
	valid := appendRecord(nil, recPage, 7, bytes.Repeat([]byte{0x7A}, pager.PageSize))
	var seqb [8]byte
	binary.BigEndian.PutUint64(seqb[:], 1)
	valid = appendRecord(valid, recCommit, 0, seqb[:])
	f.Add(valid)

	// Truncated header.
	f.Add([]byte{recPage, 0, 0, 0})
	// Header claiming a payload that never arrives.
	f.Add(appendRecord(nil, recPage, 3, bytes.Repeat([]byte{1}, pager.PageSize))[:headerSize+10])
	// Zero-length payload with a valid CRC (page records must be PageSize).
	zero := make([]byte, headerSize)
	zero[0] = recPage
	f.Add(sealRecord(zero))
	// Valid-CRC page record with a wrong (non-PageSize) length.
	short := make([]byte, headerSize+32)
	short[0] = recPage
	binary.BigEndian.PutUint32(short[5:9], 32)
	f.Add(sealRecord(short))
	// Valid-CRC record of an unknown kind.
	unk := make([]byte, headerSize+4)
	unk[0] = 99
	binary.BigEndian.PutUint32(unk[5:9], 4)
	f.Add(sealRecord(unk))
	// Commit record with a runt sequence payload.
	runt := make([]byte, headerSize+2)
	runt[0] = recCommit
	binary.BigEndian.PutUint32(runt[5:9], 2)
	f.Add(sealRecord(runt))
	// Implausible declared length.
	huge := make([]byte, headerSize)
	huge[0] = recPage
	binary.BigEndian.PutUint32(huge[5:9], 1<<30)
	f.Add(huge)
	// A batch with pages but no commit marker.
	f.Add(appendRecord(nil, recPage, 1, bytes.Repeat([]byte{2}, pager.PageSize)))

	f.Fuzz(func(t *testing.T, data []byte) {
		bf := pager.NewMemByteFile()
		if _, err := bf.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		l, err := OpenBacking(bf)
		if err != nil {
			t.Fatal(err)
		}
		file := pager.NewMemFile()
		info, err := l.Recover(file)
		if err != nil {
			return // structured rejection is fine; panics are not
		}
		if info.Replayed < 0 || info.ValidTo > int64(len(data)) {
			t.Fatalf("implausible recovery info %+v for %d input bytes", info, len(data))
		}
		if l.Size() != 0 {
			t.Fatal("log not truncated after successful recovery")
		}
		// Idempotence: recovering the now-empty log replays nothing.
		info2, err := l.Recover(file)
		if err != nil || info2.Replayed != 0 {
			t.Fatalf("second recovery = %+v, %v", info2, err)
		}
	})
}
