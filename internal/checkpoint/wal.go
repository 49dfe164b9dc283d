package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// WAL file layout, little-endian:
//
//	offset  size  field
//	0       4     magic "HELW"
//	4       4     format version
//	8       …     records
//
// Each record:
//
//	0   4   body length n
//	4   4   CRC32 (IEEE) of body
//	8   n   body: type u8 | round u32 | user u32 | payload
//
// An acknowledged Append is fsynced, so it survives a crash. A crash
// mid-append leaves a torn final record; Replay discards it. A CRC or
// framing failure anywhere before the final record is real corruption and
// is returned as ErrCorrupt.
const (
	walMagic   = uint32(0x48454C57) // "HELW"
	walVersion = uint32(1)
	walHdrLen  = 8
	recHdrLen  = 8
)

// RecordType discriminates WAL records.
type RecordType uint8

// WAL record types.
const (
	// RecordRoundStart marks that round Round was planned (its snapshot was
	// written); Payload is empty.
	RecordRoundStart RecordType = 1
	// RecordUpload logs an accepted model upload: Round/User identify it,
	// Payload is the raw wire payload (nn.ParamBytes format).
	RecordUpload RecordType = 2
)

// Record is one durable intra-round event.
type Record struct {
	Type    RecordType
	Round   int
	User    int
	Payload []byte
}

// WAL is an append-only, fsync-per-record intra-round event log.
type WAL struct {
	f *os.File
}

// OpenWAL opens (or creates) the WAL at path, replays every intact record
// already on disk, truncates a torn tail, and positions the log for
// appending. The replayed records are returned in append order.
func OpenWAL(path string) (*WAL, []Record, error) {
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("checkpoint: read wal: %w", err)
	}
	var records []Record
	intact := 0 // bytes covered by intact records + header
	if len(raw) > 0 {
		records, intact, err = ReplayWAL(raw)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: open wal: %w", err)
	}
	w := &WAL{f: f}
	if len(raw) == 0 {
		if err := w.writeHeader(); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
		return w, nil, nil
	}
	// Drop a torn tail so the next append starts on a record boundary.
	if err := f.Truncate(int64(intact)); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("checkpoint: truncate torn wal tail: %w", err)
	}
	if _, err := f.Seek(int64(intact), io.SeekStart); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("checkpoint: seek wal: %w", err)
	}
	return w, records, nil
}

// ReplayWAL decodes a WAL image, returning the intact records and the byte
// offset up to which the image is intact. A torn (incomplete) final record
// is not an error — it is the expected shape of a crash during Append — but
// a CRC mismatch or impossible length is.
func ReplayWAL(raw []byte) ([]Record, int, error) {
	if len(raw) < walHdrLen {
		return nil, 0, fmt.Errorf("%w: wal header truncated (%d bytes)", ErrCorrupt, len(raw))
	}
	if binary.LittleEndian.Uint32(raw[0:4]) != walMagic {
		return nil, 0, fmt.Errorf("%w: bad wal magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != walVersion {
		return nil, 0, fmt.Errorf("%w: wal version %d, want %d", ErrVersion, v, walVersion)
	}
	var records []Record
	off := walHdrLen
	for off < len(raw) {
		if len(raw)-off < recHdrLen {
			break // torn tail: header itself is incomplete
		}
		n := binary.LittleEndian.Uint32(raw[off : off+4])
		if n < 9 || n > maxPayload {
			return nil, 0, fmt.Errorf("%w: wal record at offset %d declares %d bytes", ErrCorrupt, off, n)
		}
		if len(raw)-off-recHdrLen < int(n) {
			break // torn tail: body incomplete
		}
		body := raw[off+recHdrLen : off+recHdrLen+int(n)]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(raw[off+4:off+8]) {
			return nil, 0, fmt.Errorf("%w: wal record at offset %d fails CRC", ErrCorrupt, off)
		}
		records = append(records, Record{
			Type:    RecordType(body[0]),
			Round:   int(binary.LittleEndian.Uint32(body[1:5])),
			User:    int(binary.LittleEndian.Uint32(body[5:9])),
			Payload: append([]byte(nil), body[9:]...),
		})
		off += recHdrLen + int(n)
	}
	return records, off, nil
}

// Append durably logs one record: the framed bytes are written and fsynced
// before Append returns, so an acknowledged record survives a crash.
func (w *WAL) Append(rec Record) error {
	body := make([]byte, 9+len(rec.Payload))
	body[0] = byte(rec.Type)
	binary.LittleEndian.PutUint32(body[1:5], uint32(rec.Round))
	binary.LittleEndian.PutUint32(body[5:9], uint32(rec.User))
	copy(body[9:], rec.Payload)
	frame := make([]byte, recHdrLen+len(body))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))
	copy(frame[recHdrLen:], body)
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("checkpoint: append wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: sync wal: %w", err)
	}
	return nil
}

// Reset discards every record (after a snapshot has made them redundant),
// leaving an empty log ready for the next round's events.
func (w *WAL) Reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("checkpoint: reset wal: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("checkpoint: seek wal: %w", err)
	}
	return w.writeHeader()
}

// Close releases the underlying file.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

func (w *WAL) writeHeader() error {
	var hdr [walHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], walMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], walVersion)
	if _, err := w.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("checkpoint: write wal header: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: sync wal header: %w", err)
	}
	return nil
}
