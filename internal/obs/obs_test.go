package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime/debug"
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
	if size := unsafe.Sizeof(Event{}); size != 72 {
		t.Errorf("Event is %d bytes, want 72", size)
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

func TestHistObserveAndMerge(t *testing.T) {
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
	b := NewHist("lat", bounds)
	b.Observe(500)
	a.Merge(b)
	if a.N != 5 || a.Counts[2] != 1 {
		t.Fatalf("merge wrong: N=%d Counts=%v", a.N, a.Counts)
	}
}

// TestRegistryMergeEmpty: merging an empty registry in either direction is a
// no-op on values and must not register phantom metrics or disturb the
// serialization — the "idle rank" case of the rank-order merge.
func TestRegistryMergeEmpty(t *testing.T) {
	full := NewRegistry()
	full.Counter("steals").Add(3)
	full.Hist("lat", TimeBuckets()).Observe(2 * sim.Microsecond)
	var before bytes.Buffer
	if err := full.WriteTSV(&before); err != nil {
		t.Fatal(err)
	}
	full.Merge(NewRegistry())
	var after bytes.Buffer
	if err := full.WriteTSV(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Errorf("merging an empty registry changed the output:\n%s\nvs\n%s", &before, &after)
	}
	// Empty ← full registers everything of the source, with equal values.
	empty := NewRegistry()
	empty.Merge(full)
	var got bytes.Buffer
	if err := empty.WriteTSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), before.Bytes()) {
		t.Errorf("empty.Merge(full) output differs:\n%s\nvs\n%s", &got, &before)
	}
	// Empty ← empty serializes to just the header.
	var hdr bytes.Buffer
	if err := NewRegistry().WriteTSV(&hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.String() != "row\tname\tle_ns\tcount\tsum_ns\tmax_ns\n" {
		t.Errorf("empty registry TSV = %q", hdr.String())
	}
}

// TestHistOverflowBucket: values above the last bound land in the overflow
// bucket, are still counted in N/Sum/Max, serialize under le=+inf, and the
// bucket counts always sum to N — including after merges and at the exact
// boundary (le is inclusive).
func TestHistOverflowBucket(t *testing.T) {
	bounds := []sim.Time{10, 100}
	h := NewHist("x", bounds)
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
	o := NewHist("x", bounds)
	o.Observe(999)
	h.Merge(o)
	if h.Counts[len(bounds)] != 3 || h.N != 4 {
		t.Fatalf("merge lost overflow: Counts=%v N=%d", h.Counts, h.N)
	}
	var buf bytes.Buffer
	r := NewRegistry()
	r.Hist("x", bounds).Merge(h)
	if err := r.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("bucket\tx\t+inf\t3\t-\t-\n")) {
		t.Errorf("overflow bucket not serialized as +inf:\n%s", &buf)
	}
}

func TestRegistryMergeDeterministic(t *testing.T) {
	mk := func(stealFirst bool) *Registry {
		r := NewRegistry()
		if stealFirst {
			r.Counter("steals").Add(2)
			r.Counter("spawns").Add(7)
		} else {
			r.Counter("spawns").Add(7)
			r.Counter("steals").Add(2)
		}
		r.Hist("lat", TimeBuckets()).Observe(3 * sim.Microsecond)
		return r
	}
	// Per-worker registries register in the same code order, so merged
	// output is identical; this simulates two ranks merged in rank order.
	m1 := NewRegistry()
	m1.Merge(mk(true))
	m1.Merge(mk(true))
	m2 := NewRegistry()
	m2.Merge(mk(true))
	m2.Merge(mk(true))
	var b1, b2 bytes.Buffer
	if err := m1.WriteTSV(&b1); err != nil {
		t.Fatal(err)
	}
	if err := m2.WriteTSV(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("merged TSV not byte-stable")
	}
	if m1.Counter("steals").N != 4 {
		t.Fatalf("steals = %d, want 4", m1.Counter("steals").N)
	}
}

// TestRegistryMergeSilentRank: a rank that never touched some metric (an
// idle worker that saw no migrations) contributes nothing for it, yet the
// rank-order merge keeps the totals right and the serialization identical to
// the run where that rank observed zero explicitly — a silent rank cannot
// shift the registration order established by earlier ranks.
func TestRegistryMergeSilentRank(t *testing.T) {
	busy := func() *Registry {
		r := NewRegistry()
		r.Counter("steals").Add(5)
		r.Counter("migrations").Add(1)
		r.Hist("lat", TimeBuckets()).Observe(4 * sim.Microsecond)
		return r
	}
	silent := func() *Registry {
		r := NewRegistry()
		r.Counter("steals") // registered, never incremented
		return r
	}
	explicitZero := func() *Registry {
		r := NewRegistry()
		r.Counter("steals").Add(0)
		r.Counter("migrations").Add(0)
		r.Hist("lat", TimeBuckets())
		return r
	}
	merge := func(ranks ...*Registry) *bytes.Buffer {
		m := NewRegistry()
		for _, r := range ranks {
			m.Merge(r)
		}
		var buf bytes.Buffer
		if err := m.WriteTSV(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	a := merge(busy(), silent(), busy())
	b := merge(busy(), explicitZero(), busy())
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("silent rank serializes differently from an explicit-zero rank:\n%s\nvs\n%s", a, b)
	}
	m := NewRegistry()
	for _, r := range []*Registry{busy(), silent(), busy()} {
		m.Merge(r)
	}
	if m.Counter("steals").N != 10 || m.Counter("migrations").N != 2 {
		t.Errorf("totals wrong with a silent middle rank: steals=%d migrations=%d",
			m.Counter("steals").N, m.Counter("migrations").N)
	}
	if h, ok := m.Lookup("lat"); !ok || h.N != 2 {
		t.Errorf("lat histogram lost samples across the silent rank")
	}
	// A silent FIRST rank must not reorder later ranks' registrations.
	c := merge(silent(), busy(), busy())
	if !bytes.Equal(c.Bytes(), a.Bytes()) {
		t.Errorf("silent first rank changed the serialization order:\n%s\nvs\n%s", c, a)
	}
}
