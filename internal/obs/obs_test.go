package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"contsteal/internal/sim"
)

func TestRecorderOrderAndSeq(t *testing.T) {
	r := NewRecorder()
	if r.Seq() != 1 || r.Seq() != 2 {
		t.Fatal("Seq must count from 1")
	}
	if r.Events() != nil {
		t.Fatal("an empty Recorder's log must be nil")
	}
	r.Event(Event{T: 5, Kind: KindSteal})
	r.Event(Event{T: 3, Kind: KindRun})
	if ev := r.Events(); len(ev) != 2 || ev[0].T != 5 || ev[1].T != 3 {
		t.Fatal("Recorder must preserve append order")
	}
	// Appending after Events extends the merged log.
	r.Event(Event{T: 4, Kind: KindCompute})
	if ev := r.Events(); len(ev) != 3 || ev[0].T != 5 || ev[1].T != 3 || ev[2].T != 4 {
		t.Fatalf("log after a further append = %+v", ev)
	}
}

// TestRecorderAllocFree: appending n events allocates one chunk per
// recordChunk events and nothing else, the merged log holds them in order
// across the chunk boundaries, and a second Events call allocates nothing
// and returns the same slice.
func TestRecorderAllocFree(t *testing.T) {
	const n = 3*recordChunk + 5
	recs := []*Recorder{NewRecorder(), NewRecorder()} // AllocsPerRun's warm-up run, then one
	used := 0
	// A collection cycle started by the chunks would count its own
	// allocations.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(1, func() {
		r := recs[used]
		used++
		for i := 0; i < n; i++ {
			r.Event(Event{T: sim.Time(i), Kind: KindRun, Task: int64(i)})
		}
	})
	if chunks := (n + recordChunk - 1) / recordChunk; allocs > float64(chunks) {
		t.Errorf("appending %d events allocated %v times, want at most %d", n, allocs, chunks)
	}
	r := recs[1]
	ev := r.Events()
	if len(ev) != n || cap(ev) != n {
		t.Fatalf("Events: len %d cap %d, want %d exactly", len(ev), cap(ev), n)
	}
	for i, e := range ev {
		if e.T != sim.Time(i) || e.Task != int64(i) {
			t.Fatalf("ev[%d] = %+v, want T = Task = %d", i, e, i)
		}
	}
	var again []Event
	if allocs := testing.AllocsPerRun(10, func() { again = r.Events() }); allocs != 0 {
		t.Errorf("a second Events call allocated %v times, want 0", allocs)
	}
	if len(again) != n || &again[0] != &ev[0] {
		t.Error("a second Events call returned a different slice")
	}
}

// TestEventIsPointerFree: an Event holds no pointer, so the collector never
// scans a recorded log and growing one needs no write barriers. A string,
// slice, map or interface field would quietly bring the scan back.
func TestEventIsPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s, which holds a pointer", path, typ)
		}
	}
	walk("Event", reflect.TypeOf(Event{}))
	// With 64-bit words each of the nine fields takes 8 bytes (Kind with its
	// padding): 72. With 32-bit words Rank and Peer take 4, and an int64
	// aligns to 4, so Kind pads to 4: 60.
	want := map[int]uintptr{64: 72, 32: 60}[strconv.IntSize]
	if size := unsafe.Sizeof(Event{}); size != want {
		t.Errorf("Event is %d bytes with %d-bit words, want %d", size, strconv.IntSize, want)
	}
}

// TestKindNames: every Kind constant round-trips through its text form, no
// two share a name, the zero Kind is the empty name, and an unknown name is
// an error that quotes it.
func TestKindNames(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(1); k < numKinds; k++ {
		text, err := k.MarshalText()
		if err != nil || len(text) == 0 || string(text) != k.String() {
			t.Errorf("Kind %d: MarshalText = %q, %v; String = %q", uint8(k), text, err, k.String())
			continue
		}
		if other, dup := seen[string(text)]; dup {
			t.Errorf("kinds %d and %d are both named %q", uint8(other), uint8(k), text)
		}
		seen[string(text)] = k
		var back Kind
		if err := back.UnmarshalText(text); err != nil || back != k {
			t.Errorf("UnmarshalText(%q) = %d, %v; want %d", text, uint8(back), err, uint8(k))
		}
	}
	var zero Kind
	if text, err := zero.MarshalText(); err != nil || len(text) != 0 {
		t.Errorf("zero Kind marshals to %q, %v; want \"\"", text, err)
	}
	back := KindRun
	if err := back.UnmarshalText(nil); err != nil || back != zero {
		t.Errorf("UnmarshalText(\"\") = %d, %v; want the zero Kind", uint8(back), err)
	}
	err := back.UnmarshalText([]byte("compute.x"))
	if err == nil || !strings.Contains(err.Error(), `"compute.x"`) {
		t.Errorf("UnmarshalText(compute.x) = %v, want an error naming it", err)
	}
	if _, err := numKinds.MarshalText(); err == nil {
		t.Error("a Kind past the table marshalled without error")
	}
	// A JSON event spells its kind by name.
	b, err := json.Marshal(Event{Kind: KindStealFail})
	if err != nil || !bytes.Contains(b, []byte(`"kind":"steal.fail"`)) {
		t.Errorf("json.Marshal = %s, %v", b, err)
	}
}

func TestKindLayer(t *testing.T) {
	cases := map[Kind]string{
		KindRun:          "sched",
		KindStealFail:    "sched",
		KindRDMAGet:      "rdma",
		KindDequeCAS:     "deque",
		KindLockQAcquire: "remobj",
		KindMsgSend:      "msg",
		KindMigrateIn:    "uniaddr",
	}
	for k, want := range cases {
		if got := k.Layer(); got != want {
			t.Errorf("Layer(%q) = %q, want %q", k, got, want)
		}
	}
}

func TestHistObserve(t *testing.T) {
	bounds := []sim.Time{10, 100, 1000}
	a := NewHist("lat", bounds)
	a.Observe(5)    // bucket 0
	a.Observe(10)   // bucket 0 (le is inclusive)
	a.Observe(11)   // bucket 1
	a.Observe(9999) // overflow
	if a.N != 4 || a.Sum != 5+10+11+9999 || a.Max != 9999 {
		t.Fatalf("summary wrong: N=%d Sum=%d Max=%d", a.N, a.Sum, a.Max)
	}
	want := []uint64{2, 1, 0, 1}
	for i, n := range a.Counts {
		if n != want[i] {
			t.Fatalf("Counts = %v, want %v", a.Counts, want)
		}
	}
}

// TestHistOverflowBucket: values above the last bound land in the overflow
// bucket, are still counted in N/Sum/Max, serialize under le=+inf, and the
// bucket counts always sum to N — at the exact boundary (le is inclusive)
// too. A registry with nothing registered serializes to its header alone.
func TestHistOverflowBucket(t *testing.T) {
	bounds := []sim.Time{10, 100}
	r := NewRegistry()
	var buf bytes.Buffer
	if err := r.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "row\tname\tle_ns\tcount\tsum_ns\tmax_ns\n" {
		t.Errorf("empty registry TSV = %q", buf.String())
	}
	h := r.Hist("x", bounds)
	h.Observe(100)     // last real bucket, inclusive
	h.Observe(101)     // overflow
	h.Observe(1 << 40) // deep overflow
	if h.Counts[len(bounds)] != 2 {
		t.Fatalf("overflow bucket = %d, want 2 (counts %v)", h.Counts[len(bounds)], h.Counts)
	}
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	if n != h.N || h.N != 3 {
		t.Fatalf("bucket counts sum to %d, N=%d", n, h.N)
	}
	if h.Max != 1<<40 || h.Sum != 100+101+(1<<40) {
		t.Fatalf("overflow not in summary: Sum=%d Max=%d", h.Sum, h.Max)
	}
	h.Observe(999)
	if h.Counts[len(bounds)] != 3 || h.N != 4 || h.Max != 1<<40 {
		t.Fatalf("a smaller overflow lost: Counts=%v N=%d Max=%d", h.Counts, h.N, h.Max)
	}
	buf.Reset()
	if err := r.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("bucket\tx\t+inf\t3\t-\t-\n")) {
		t.Errorf("overflow bucket not serialized as +inf:\n%s", &buf)
	}
}
