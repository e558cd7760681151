package repl

import (
	"encoding/binary"
	"hash/crc32"
	"os"
)

// State is a follower's durable replication position: the primary epoch
// and publisher run it follows and the last position it has fully
// applied. It lives in a small sidecar file next to the replica's
// database file and is written only after the applied group is durable in
// the replica's own WAL — so the recorded position never runs ahead of
// the data, and a crash between apply and save merely re-applies one
// idempotent group on resume.
type State struct {
	Epoch uint64
	Run   uint64
	Pos   uint64
}

// stateMagic opens the sidecar file.
const stateMagic = "SIMR"

// stateSize is the sidecar length: magic(4) epoch(8) run(8) pos(8)
// crc32(4). A sidecar from before the run field was added fails the
// length check and loads as the zero State, costing one re-snapshot.
const stateSize = 32

// SaveState durably writes the sidecar at path. It overwrites the 32
// bytes in place and syncs, so once the file exists a save flushes data
// only, never a truncated-and-regrown file's metadata. A torn overwrite
// fails the CRC and loads as the zero State (see LoadState). A file of
// any other length, which would never load, is cut to stateSize.
func SaveState(path string, st State) error {
	var buf [stateSize]byte
	copy(buf[:4], stateMagic)
	binary.BigEndian.PutUint64(buf[4:12], st.Epoch)
	binary.BigEndian.PutUint64(buf[12:20], st.Run)
	binary.BigEndian.PutUint64(buf[20:28], st.Pos)
	binary.BigEndian.PutUint32(buf[28:32], crc32.ChecksumIEEE(buf[:28]))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = writeState(f, buf[:])
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeState overwrites the head of f with buf, cuts f to stateSize when
// it has any other length, and syncs.
func writeState(f *os.File, buf []byte) error {
	if _, err := f.WriteAt(buf, 0); err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() != stateSize {
		if err := f.Truncate(stateSize); err != nil {
			return err
		}
	}
	return f.Sync()
}

// LoadState reads the sidecar at path. A missing, short, or corrupt file
// yields the zero State — the follower then requests a snapshot, which is
// always safe.
func LoadState(path string) State {
	b, err := os.ReadFile(path)
	if err != nil || len(b) != stateSize || string(b[:4]) != stateMagic {
		return State{}
	}
	if crc32.ChecksumIEEE(b[:28]) != binary.BigEndian.Uint32(b[28:32]) {
		return State{}
	}
	return State{
		Epoch: binary.BigEndian.Uint64(b[4:12]),
		Run:   binary.BigEndian.Uint64(b[12:20]),
		Pos:   binary.BigEndian.Uint64(b[20:28]),
	}
}
