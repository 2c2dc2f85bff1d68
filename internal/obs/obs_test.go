package obs

import (
	"encoding/binary"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func writeRaw(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func TestRingRecordSnapshot(t *testing.T) {
	rec := NewRecorder(16)
	r := rec.NewRing("m")
	if r.Cap() != 16 {
		t.Fatalf("Cap = %d, want 16", r.Cap())
	}
	for i := 0; i < 10; i++ {
		r.Record(KEnter, uint64(i+1), int64(-i))
	}
	evs := r.Snapshot()
	if len(evs) != 10 {
		t.Fatalf("Snapshot len = %d, want 10", len(evs))
	}
	for i, ev := range evs {
		if ev.Kind != KEnter || ev.Seq != uint64(i+1) || ev.Arg != int64(-i) || ev.Mon != r.ID() {
			t.Fatalf("event %d = %+v", i, ev)
		}
		if i > 0 && ev.TS < evs[i-1].TS {
			t.Fatalf("events out of TS order at %d", i)
		}
	}
	if r.Writes() != 10 || r.Drops() != 0 {
		t.Fatalf("Writes/Drops = %d/%d, want 10/0", r.Writes(), r.Drops())
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	rec := NewRecorder(8)
	r := rec.NewRing("m")
	for i := 0; i < 100; i++ {
		r.Record(KSignal, uint64(i), 0)
	}
	evs := r.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("Snapshot len = %d, want 8", len(evs))
	}
	// Single-writer wrap drops nothing; the last Cap events survive.
	if r.Drops() != 0 {
		t.Fatalf("Drops = %d, want 0", r.Drops())
	}
	for i, ev := range evs {
		if want := uint64(92 + i); ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestRecorderRoundsToPowerOfTwo(t *testing.T) {
	rec := NewRecorder(1000)
	if r := rec.NewRing("m"); r.Cap() != 1024 {
		t.Fatalf("Cap = %d, want 1024", r.Cap())
	}
	rec = NewRecorder(0)
	if r := rec.NewRing("m"); r.Cap() != DefaultRingSize {
		t.Fatalf("Cap = %d, want %d", r.Cap(), DefaultRingSize)
	}
}

// TestRingConcurrentWriters is the corruption guard the ISSUE asks for:
// many goroutines hammer one small ring (forcing wraps and slot
// contention) while a reader snapshots continuously. Every snapshotted
// event must be internally consistent — the kind valid and Seq/Arg from
// the same writer's encoding — and the writes/drops accounting must add
// up. Run under -race in CI.
func TestRingConcurrentWriters(t *testing.T) {
	rec := NewRecorder(64) // small: maximize wrap pressure
	r := rec.NewRing("m")

	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	readerErr := make(chan string, 1)
	go func() { // concurrent reader: snapshots must never tear
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range r.Snapshot() {
				if msg := checkEvent(ev); msg != "" {
					select {
					case readerErr <- msg:
					default:
					}
					return
				}
			}
		}
	}()
	wg.Add(writers)
	for wid := 0; wid < writers; wid++ {
		go func(wid int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Seq/Arg encode the writer consistently: Arg = -Seq.
				seq := uint64(wid*perWriter + i + 1)
				r.Record(KSignal, seq, -int64(seq))
			}
		}(wid)
	}
	wg.Wait() // writers first, then stop the reader
	close(stop)
	<-readerDone

	select {
	case msg := <-readerErr:
		t.Fatal(msg)
	default:
	}
	if got := r.head.Load(); got != writers*perWriter {
		t.Fatalf("tickets issued = %d, want %d", got, writers*perWriter)
	}
	if r.Writes()+r.Drops() != writers*perWriter {
		t.Fatalf("Writes(%d) + Drops(%d) != %d", r.Writes(), r.Drops(), writers*perWriter)
	}
	for _, ev := range r.Snapshot() {
		if msg := checkEvent(ev); msg != "" {
			t.Fatal(msg)
		}
	}
}

func checkEvent(ev Event) string {
	if !ev.Kind.Valid() {
		return "torn event: invalid kind"
	}
	if ev.Arg != -int64(ev.Seq) {
		return "torn event: seq/arg mismatch"
	}
	return ""
}

func TestStartStopActive(t *testing.T) {
	if Active() != nil {
		t.Fatalf("recorder active before Start")
	}
	rec := Start(128)
	defer Stop()
	if Active() != rec {
		t.Fatalf("Active() != Start result")
	}
	if got := Stop(); got != rec {
		t.Fatalf("Stop returned %v, want the started recorder", got)
	}
	if Active() != nil {
		t.Fatalf("recorder still active after Stop")
	}
	if Stop() != nil {
		t.Fatalf("second Stop returned non-nil")
	}
}

func TestKindStringAndValid(t *testing.T) {
	for k := KEnter; k < kindMax; k++ {
		if !k.Valid() {
			t.Fatalf("kind %d not valid", uint8(k))
		}
		if s := k.String(); strings.HasPrefix(s, "Kind(") {
			t.Fatalf("kind %d has no name", uint8(k))
		}
	}
	if Kind(0).Valid() || kindMax.Valid() {
		t.Fatalf("sentinel kinds report valid")
	}
}

func TestFileRoundTrip(t *testing.T) {
	rec := NewRecorder(64)
	r := rec.NewRing("a")
	r2 := rec.NewRing("b")
	for i := 0; i < 20; i++ {
		r.Record(KSignal, uint64(i+1), int64(i))
		r2.Record(KCounterPublish, uint64(i), 7)
	}
	events := rec.Events()

	path := filepath.Join(t.TempDir(), "trace.obs")
	if err := WriteFile(path, events, 3); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, drops, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if drops != 3 {
		t.Fatalf("drops = %d, want 3", drops)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestReadFileRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bogus.obs")
	if err := WriteFile(path, nil, 0); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, _, err := ReadFile(path); err != nil {
		t.Fatalf("empty trace should read back: %v", err)
	}
	if err := writeRaw(path, []byte("not a trace file at all......")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFile(path); err == nil {
		t.Fatalf("garbage accepted")
	}

	// A valid header claiming 2^27 events with no records behind it must
	// fail on the missing records, without first allocating for the
	// claimed count (4 GiB).
	hdr := make([]byte, 24)
	copy(hdr, fileMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], fileVersion)
	binary.LittleEndian.PutUint64(hdr[16:24], 1<<27)
	if err := writeRaw(path, hdr); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFile(path)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("header-only trace claiming 2^27 events accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("reading a header-only trace allocated %d bytes, want < 1 MiB", alloc)
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	n := 41
	reg.Register("answer", func() any { n++; return n })
	reg.Register("label", func() any { return "hi" })

	snap := reg.Snapshot()
	if snap["answer"] != 42 || snap["label"] != "hi" {
		t.Fatalf("snapshot = %v", snap)
	}

	rr := httptest.NewRecorder()
	reg.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/vars", nil))
	body := rr.Body.String()
	if !strings.Contains(body, `"answer": 43`) || !strings.Contains(body, `"label": "hi"`) {
		t.Fatalf("body = %q", body)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}

	// Replacement keeps one entry per name.
	reg.Register("answer", func() any { return 0 })
	if names := reg.Names(); len(names) != 2 {
		t.Fatalf("names = %v", names)
	}
}
