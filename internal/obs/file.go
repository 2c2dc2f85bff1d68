package obs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Trace file format "OBS1": a 24-byte header (magic, version, recorder
// drop count, event count) followed by count fixed 32-byte little-endian
// event records. Fixed-size records keep dumping allocation-free per
// event and make the file seekable by index; the drop count travels with
// the events so analysis knows when the window is lossy.

var fileMagic = [4]byte{'O', 'B', 'S', '1'}

const fileVersion = 1

// WriteFile dumps an event stream (plus the recorder's drop count for
// the same window) to path, overwriting any existing file.
func WriteFile(path string, events []Event, drops uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := writeTrace(w, events, drops); err != nil {
		f.Close()
		return fmt.Errorf("obs: writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("obs: writing %s: %w", path, err)
	}
	return f.Close()
}

// ReadFile loads a trace written by WriteFile, returning the events and
// the recorded drop count.
func ReadFile(path string) ([]Event, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	evs, drops, err := readTrace(bufio.NewReader(f))
	if err != nil {
		return nil, 0, fmt.Errorf("obs: reading %s: %w", path, err)
	}
	return evs, drops, nil
}

func writeTrace(w io.Writer, events []Event, drops uint64) error {
	var hdr [24]byte
	copy(hdr[0:4], fileMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], fileVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], drops)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(events)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var rec [32]byte
	for i := range events {
		marshalEvent(&rec, &events[i])
		if _, err := w.Write(rec[:]); err != nil {
			return err
		}
	}
	return nil
}

func readTrace(r io.Reader) ([]Event, uint64, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("header: %w", err)
	}
	if [4]byte(hdr[0:4]) != fileMagic {
		return nil, 0, fmt.Errorf("bad magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != fileVersion {
		return nil, 0, fmt.Errorf("unsupported version %d", v)
	}
	drops := binary.LittleEndian.Uint64(hdr[8:16])
	count := binary.LittleEndian.Uint64(hdr[16:24])
	const maxEvents = 1 << 28 // 8 GiB of records; reject corrupt headers
	if count > maxEvents {
		return nil, 0, fmt.Errorf("implausible event count %d", count)
	}
	// The count is the header's claim, not yet backed by any record:
	// preallocate at most a small window and let the slice grow as
	// records arrive, so a short file cannot make the reader allocate
	// for events it does not hold.
	evs := make([]Event, 0, min(count, 1<<12))
	var rec [32]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return nil, 0, fmt.Errorf("event %d of %d: %w", i, count, err)
		}
		var ev Event
		unmarshalEvent(&ev, &rec)
		if !ev.Kind.Valid() {
			return nil, 0, fmt.Errorf("event %d: invalid kind %d", i, uint8(ev.Kind))
		}
		evs = append(evs, ev)
	}
	return evs, drops, nil
}

func marshalEvent(rec *[32]byte, ev *Event) {
	binary.LittleEndian.PutUint64(rec[0:8], uint64(ev.TS))
	binary.LittleEndian.PutUint64(rec[8:16], ev.Seq)
	binary.LittleEndian.PutUint64(rec[16:24], uint64(ev.Arg))
	binary.LittleEndian.PutUint32(rec[24:28], ev.Mon)
	rec[28] = byte(ev.Kind)
	rec[29], rec[30], rec[31] = 0, 0, 0
}

func unmarshalEvent(ev *Event, rec *[32]byte) {
	ev.TS = int64(binary.LittleEndian.Uint64(rec[0:8]))
	ev.Seq = binary.LittleEndian.Uint64(rec[8:16])
	ev.Arg = int64(binary.LittleEndian.Uint64(rec[16:24]))
	ev.Mon = binary.LittleEndian.Uint32(rec[24:28])
	ev.Kind = Kind(rec[28])
}
