package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"sim/internal/pager"
)

// fuzzCycle is the cycle the seed inputs are sealed with.
const fuzzCycle = 1

// sealRecord rewrites a record's CRC field under seed so the
// header+payload verify, letting seeds reach the per-kind validation
// paths.
func sealRecord(seed uint32, rec []byte) []byte {
	crc := crc32.Update(seed, crc32.IEEETable, rec[0:9])
	crc = crc32.Update(crc, crc32.IEEETable, rec[headerSize:])
	binary.BigEndian.PutUint32(rec[9:13], crc)
	return rec
}

// FuzzReplay feeds arbitrary bytes to the recovery path as the records of
// a WAL cycle, behind a valid header for cycle whose byte at flipAt (mod
// the header size) is XORed with flip. Recovery must never panic: it
// either replays a prefix of complete committed batches or salvages the
// tail, a damaged header truncates the log (or, when the magic is
// damaged, fails the open), and a second recovery over the reset log
// must be a no-op.
func FuzzReplay(f *testing.F) {
	seed := cycleSeed(fuzzCycle)
	add := func(data []byte) { f.Add(uint64(fuzzCycle), uint8(0), uint8(0), data) }

	// A complete committed batch (one page + commit record).
	valid := appendRecord(nil, seed, recPage, 7, bytes.Repeat([]byte{0x7A}, pager.PageSize))
	var seqb [8]byte
	binary.BigEndian.PutUint64(seqb[:], 1)
	valid = appendRecord(valid, seed, recCommit, 0, seqb[:])
	add(valid)

	// Truncated header.
	add([]byte{recPage, 0, 0, 0})
	// Header claiming a payload that never arrives.
	add(appendRecord(nil, seed, recPage, 3, bytes.Repeat([]byte{1}, pager.PageSize))[:headerSize+10])
	// Zero-length payload with a valid CRC (page records must be PageSize).
	zero := make([]byte, headerSize)
	zero[0] = recPage
	add(sealRecord(seed, zero))
	// Valid-CRC page record with a wrong (non-PageSize) length.
	short := make([]byte, headerSize+32)
	short[0] = recPage
	binary.BigEndian.PutUint32(short[5:9], 32)
	add(sealRecord(seed, short))
	// Valid-CRC record of an unknown kind.
	unk := make([]byte, headerSize+4)
	unk[0] = 99
	binary.BigEndian.PutUint32(unk[5:9], 4)
	add(sealRecord(seed, unk))
	// Commit record with a runt sequence payload.
	runt := make([]byte, headerSize+2)
	runt[0] = recCommit
	binary.BigEndian.PutUint32(runt[5:9], 2)
	add(sealRecord(seed, runt))
	// Implausible declared length.
	huge := make([]byte, headerSize)
	huge[0] = recPage
	binary.BigEndian.PutUint32(huge[5:9], 1<<30)
	add(huge)
	// A batch with pages but no commit marker.
	add(appendRecord(nil, seed, recPage, 1, bytes.Repeat([]byte{2}, pager.PageSize)))
	// A committed batch and its end record, then a stale batch of an
	// earlier cycle that must not replay.
	old := cycleSeed(fuzzCycle - 1)
	tail := appendRecord(append([]byte(nil), valid...), seed, recEnd, 0, nil)
	tail = appendRecord(tail, old, recPage, 8, bytes.Repeat([]byte{0x8B}, pager.PageSize))
	add(appendRecord(tail, old, recCommit, 0, seqb[:]))
	// The same batch behind a damaged header: nothing replays.
	f.Add(uint64(fuzzCycle), uint8(9), uint8(0x40), valid)

	f.Fuzz(func(t *testing.T, cycle uint64, flipAt, flip uint8, data []byte) {
		hdr := appendLogHeader(nil, cycle)
		hdr[int(flipAt)%logHeaderSize] ^= flip
		bf := pager.NewMemByteFile()
		if _, err := bf.WriteAt(append(hdr, data...), 0); err != nil {
			t.Fatal(err)
		}
		l, err := OpenBacking(bf)
		if err != nil {
			if flip != 0 && int(flipAt)%logHeaderSize < len(logMagic) {
				return // a damaged magic is not a log of this format
			}
			t.Fatal(err)
		}
		file := pager.NewChecksumFile(pager.NewMemByteFile())
		info, err := l.Recover(file)
		if err != nil {
			return // structured rejection is fine; panics are not
		}
		if info.Replayed < 0 || info.ValidTo > int64(len(data)) {
			t.Fatalf("implausible recovery info %+v for %d input bytes", info, len(data))
		}
		if flip != 0 && info.Replayed != 0 {
			t.Fatalf("replayed %d pages behind a damaged header", info.Replayed)
		}
		if l.Size() != 0 {
			t.Fatal("log not reset after successful recovery")
		}
		// Idempotence: recovering the now-empty log replays nothing.
		info2, err := l.Recover(file)
		if err != nil || info2.Replayed != 0 || info2.Salvaged {
			t.Fatalf("second recovery = %+v, %v", info2, err)
		}
	})
}
