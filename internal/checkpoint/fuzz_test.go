package checkpoint

import (
	"bytes"
	"os"
	"testing"
)

// FuzzDecodeSnapshot ensures the snapshot decoder never panics and never
// accepts an altered frame: any input that decodes must round-trip to a
// payload whose re-encoding frames it identically.
func FuzzDecodeSnapshot(f *testing.F) {
	valid := EncodeSnapshot([]byte("engine state payload"))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(valid)
	truncated := append([]byte(nil), valid[:len(valid)-3]...)
	f.Add(truncated)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	wrongVersion := append([]byte(nil), valid...)
	wrongVersion[4] = 0x7F
	f.Add(wrongVersion)
	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, err := DecodeSnapshot(raw)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeSnapshot(payload), raw) {
			t.Fatalf("accepted frame does not round-trip (%d bytes)", len(raw))
		}
	})
}

// FuzzReplayWAL ensures the WAL replayer never panics; every accepted
// record set must itself re-encode into a log the replayer accepts again
// with identical contents (decode/encode/decode stability).
func FuzzReplayWAL(f *testing.F) {
	// Seed with a well-formed two-record log and its mutations.
	build := func(recs []Record) []byte {
		path := f.TempDir() + "/seed.wal"
		w, _, err := OpenWAL(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Append(r); err != nil {
				f.Fatal(err)
			}
		}
		w.Close()
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	valid := build([]Record{
		{Type: RecordRoundStart, Round: 3},
		{Type: RecordUpload, Round: 3, User: 1, Payload: []byte{9, 9, 9}},
	})
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x80
	f.Add(flipped)
	wrongVersion := append([]byte(nil), valid...)
	wrongVersion[4] = 0x7F
	f.Add(wrongVersion)
	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, intact, err := ReplayWAL(raw)
		if err != nil {
			return
		}
		if intact > len(raw) {
			t.Fatalf("intact offset %d beyond input of %d bytes", intact, len(raw))
		}
		// Replaying the intact prefix must reproduce the same records.
		again, _, err := ReplayWAL(raw[:intact])
		if err != nil {
			t.Fatalf("intact prefix rejected: %v", err)
		}
		if !recordsEqual(recs, again) {
			t.Fatal("replay of intact prefix diverges")
		}
	})
}
