// Package obs is the observability layer of the simulator: a lightweight
// tracing interface threaded through every protocol layer (scheduler, RDMA
// fabric, deque steal protocol, remote-object management, messaging,
// stack migration) and a deterministic metrics registry.
//
// Design constraints, in order of importance:
//
//  1. Instrumentation must not perturb virtual time. Tracers only observe:
//     they are handed timestamps and durations the instrumented code already
//     knows (issue time + modelled delay), and never sleep, issue events, or
//     consume randomness. Golden fixtures are byte-identical with tracing on
//     and off.
//  2. Zero cost when disabled, no re-copying when enabled. Every instrumented
//     component holds a nil Tracer by default and guards emission with a
//     single nil check; Event is passed by value so emitting does not
//     allocate on the caller's side. Event holds no pointer (Kind is a
//     one-byte code), so the collector never scans a recorded log, and a
//     Recorder appends into fixed-size chunks, so a growing log is never
//     re-copied: an event is copied once into its chunk and once more when
//     Events merges the chunks, and not again by a reader of Segments. A
//     Tracer need not keep what it is handed: an untraced core serve run
//     gives its events to a tracer that attributes each request as it
//     closes and keeps no log, so an open system pays for the requests it
//     has open, not for every event it has emitted.
//  3. Determinism. The simulation engine is sequential, so a Recorder's
//     append order is the engine's dispatch order — identical across host
//     parallelism settings. A runtime's metrics are one Registry recorded in
//     that same order, making their serialized form byte-stable.
package obs

import (
	"fmt"
	"strings"

	"contsteal/internal/sim"
)

// Kind classifies trace events. It is a one-byte code so that Event holds no
// pointer; kindNames is the one table of its names, which String,
// MarshalText and UnmarshalText read, so a trace file spells every kind the
// way it always has. Scheduler-level kinds are bare words; deeper layers use
// a dotted <layer>.<op> form so consumers can attribute a span to its
// protocol by prefix. The zero Kind is the empty name.
type Kind uint8

const (
	// Scheduler-level kinds (emitted by internal/core).
	KindRun       Kind = iota + 1 // a task occupying a worker (span)
	KindCompute                   // a Compute call (span; Σ dur == BusyTime)
	KindSteal                     // successful steal (span; Σ dur == StealLatency)
	KindStealFail                 // failed steal attempt (span; Σ dur == StealSearchTime)
	KindSuspend                   // a join suspension (instant)
	KindResume                    // outstanding join resuming (span from readyAt; Σ dur == OutstandingTime)
	KindMigrate                   // a thread arriving from another rank (span)

	// RDMA fabric kinds: one span per remote one-sided operation, recorded at
	// issue time with the modelled completion delay (Σ dur ==
	// OpStats.RemoteTime).
	KindRDMAGet
	KindRDMAPut
	KindRDMAAtomic

	// Deque steal-protocol kinds. The thief-side deque.steal span covers the
	// whole protocol; the victim-side phase spans partition it (each phase is
	// one chain link: hdr get, lock CAS, recheck get, entry get, top put, lock
	// put). All spans of one protocol instance share an ID for flow linking.
	KindDequeSteal
	KindDequeHdr
	KindDequeCAS
	KindDequeRecheck
	KindDequeRead
	KindDequeAdvance
	KindDequeUnlock

	// Remote-object management kinds.
	KindLockQAcquire // CAS retries until the remote lock is won
	KindLockQFree    // whole 4-round-trip lock-queue free chain
	KindFreeBit      // nonblocking free-bit put (local collection)
	KindSweep        // owner sweep (Size = objects reclaimed)
	KindDrain        // owner lock-queue drain (Size = objects reclaimed)

	// Two-sided messaging kinds. The msg layer records none of them today;
	// the names stay so trace files and tools keep a meaning for them.
	KindMsgSend  // span = wire latency on the sender's row
	KindMsgPoll  // successful poll (span = software overhead)
	KindMsgDrop  // a delivery attempt lost in flight (instant)
	KindMsgRetry // retransmission backoff wait (span = RTO)

	// KindPerturb is the fault-injection extra delay (see topo.Perturb) a
	// perturbation added on top of the unperturbed cost of one remote op
	// (span; Σ dur == Fabric.PerturbTime). Emitted only when the extra is
	// nonzero, so perturbation-off traces are byte-identical to
	// pre-perturbation ones.
	KindPerturb

	// Stack-management kinds (uni-address scheme).
	KindMigrateIn // remote stack transfer into this rank
	KindEvacuate  // local copy uni -> evacuation region
	KindRestore   // local copy evacuation -> uni region

	// Open-system serve lifecycle kinds (emitted by core.Runtime.Serve). All
	// four are instants on the request's timeline; Rank is the worker whose
	// inbox the request was assigned to. arrive marks front-end receipt and
	// admit marks inbox entry — today they coincide (admission decisions are
	// made before injection), so admit-arrive is the seam where an SLO-aware
	// admission delay will appear.
	KindServeArrive // request reached the front end (instant)
	KindServeAdmit  // request entered a worker inbox (instant)
	KindServeStart  // root task popped from the inbox (instant)
	KindServeDone   // request DAG fully joined (instant)

	numKinds
)

// kindNames is the one name table: kindNames[k] is how Kind k is spelled in
// a trace file.
var kindNames = [numKinds]string{
	KindRun:       "run",
	KindCompute:   "compute",
	KindSteal:     "steal",
	KindStealFail: "steal.fail",
	KindSuspend:   "suspend",
	KindResume:    "resume",
	KindMigrate:   "migrate",

	KindRDMAGet:    "rdma.get",
	KindRDMAPut:    "rdma.put",
	KindRDMAAtomic: "rdma.atomic",

	KindDequeSteal:   "deque.steal",
	KindDequeHdr:     "deque.hdr",
	KindDequeCAS:     "deque.cas",
	KindDequeRecheck: "deque.recheck",
	KindDequeRead:    "deque.read",
	KindDequeAdvance: "deque.advance",
	KindDequeUnlock:  "deque.unlock",

	KindLockQAcquire: "remobj.lq.acquire",
	KindLockQFree:    "remobj.lq.free",
	KindFreeBit:      "remobj.freebit",
	KindSweep:        "remobj.sweep",
	KindDrain:        "remobj.drain",

	KindMsgSend:  "msg.send",
	KindMsgPoll:  "msg.poll",
	KindMsgDrop:  "msg.drop",
	KindMsgRetry: "msg.retry",

	KindPerturb: "perturb.extra",

	KindMigrateIn: "uniaddr.migratein",
	KindEvacuate:  "uniaddr.evacuate",
	KindRestore:   "uniaddr.restore",

	KindServeArrive: "serve.arrive",
	KindServeAdmit:  "serve.admit",
	KindServeStart:  "serve.start",
	KindServeDone:   "serve.done",
}

// kindLayers[k] is k.Layer(): the dotted prefix of its name, or "sched" for
// the scheduler-level kinds (including "steal.fail", whose dot marks an
// outcome, not a layer) and the zero Kind.
var kindLayers = func() (layers [numKinds]string) {
	for k, name := range kindNames {
		layers[k] = "sched"
		if i := strings.IndexByte(name, '.'); i >= 0 && Kind(k) != KindStealFail {
			layers[k] = name[:i]
		}
	}
	return layers
}()

// kindByName inverts kindNames for UnmarshalText.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, numKinds)
	for k, name := range kindNames {
		m[name] = Kind(k)
	}
	return m
}()

// String returns k's name ("" for the zero Kind).
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Layer returns the dotted prefix of a kind ("rdma", "deque", ...) or
// "sched" for the scheduler-level kinds (including "steal.fail", whose dot
// marks an outcome, not a layer).
func (k Kind) Layer() string {
	if k < numKinds {
		return kindLayers[k]
	}
	return "sched"
}

// MarshalText spells k by its name, so a JSON trace carries "kind":"run".
func (k Kind) MarshalText() ([]byte, error) {
	if k >= numKinds {
		return nil, fmt.Errorf("event kind %d has no name", uint8(k))
	}
	return []byte(kindNames[k]), nil
}

// UnmarshalText reads a kind by its name; a name no kind has is an error
// that quotes it.
func (k *Kind) UnmarshalText(text []byte) error {
	kind, ok := kindByName[string(text)]
	if !ok {
		return fmt.Errorf("unknown event kind %q", text)
	}
	*k = kind
	return nil
}

// Event is one recorded span (Dur > 0) or instant (Dur == 0). T and Dur are
// virtual time. Events are recorded at the instant the instrumented code
// knows the span's full extent: synchronously-timed work records at its
// start (T = now, Dur = known modelled delay), protocol chains record at
// completion (T = issue time, Dur = now - issue). The field order is the JSON
// key order of a trace file, and no field may hold a pointer: a log of 72-byte
// pointer-free events is never scanned by the collector.
type Event struct {
	T    sim.Time `json:"t"`
	Dur  sim.Time `json:"dur"`
	Rank int      `json:"rank"`
	Kind Kind     `json:"kind"`
	// Task identifies the thread/task involved (-1 when not applicable).
	Task int64 `json:"task"`
	// Peer is the other rank involved (steal victim, migration source, op
	// target; -1 when not applicable).
	Peer int `json:"peer"`
	// Size is the payload size in bytes where meaningful (0 otherwise).
	Size int64 `json:"size,omitempty"`
	// ID correlates the spans of one multi-op protocol instance (e.g. a
	// steal's thief-side span with its victim-side deque phases). 0 = none.
	ID int64 `json:"id,omitempty"`
	// Req tags the event with the serve request whose DAG it belongs to.
	// The tag is the request ID plus one so that 0 means "no request" and
	// closed-system traces stay byte-identical (omitempty). Display ID =
	// Req - 1.
	Req int64 `json:"req,omitempty"`
}

// Tracer receives instrumentation events. Implementations must not consume
// virtual time or otherwise influence the simulation; they are called from
// inside engine callbacks and must be cheap.
type Tracer interface {
	// Event records e. e is passed by value so emission does not allocate.
	Event(e Event)
	// Seq returns a fresh nonzero correlation id for Event.ID.
	Seq() int64
}

// recordChunk is how many events one chunk of a Recorder's log holds
// (576 KiB of 72-byte events).
const recordChunk = 1 << 13

// chunk is one fixed-size block of a Recorder's log. next comes first so that
// the collector scans one word of a chunk, never its events.
type chunk struct {
	next   *chunk
	n      int
	events [recordChunk]Event
}

// Recorder is the standard Tracer: an append-only in-memory event log. The
// engine dispatches sequentially, so append order is deterministic. Event
// writes into the last of a list of fixed-size chunks and allocates only
// when that chunk is full, so appending never copies what is already
// recorded; Events merges the chunks into one slice.
type Recorder struct {
	merged      []Event // the log as of the last Events call, exact size
	first, last *chunk  // events appended since, in order
	seq         int64
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Event appends e to the log.
func (r *Recorder) Event(e Event) {
	c := r.last
	if c == nil || c.n == recordChunk {
		c = new(chunk)
		if r.last == nil {
			r.first = c
		} else {
			r.last.next = c
		}
		r.last = c
	}
	c.events[c.n] = e
	c.n++
}

// Events returns the log in append order (nil when nothing was recorded).
// It merges the chunks into one exact-size slice and keeps that slice as the
// log's only chunk, so a second call with nothing appended in between copies
// nothing and returns the same slice.
func (r *Recorder) Events() []Event {
	if r.first == nil {
		return r.merged
	}
	n := len(r.merged)
	for c := r.first; c != nil; c = c.next {
		n += c.n
	}
	all := make([]Event, 0, n)
	all = append(all, r.merged...)
	for c := r.first; c != nil; c = c.next {
		all = append(all, c.events[:c.n]...)
	}
	r.merged, r.first, r.last = all, nil, nil
	return all
}

// Segments returns the log in append order as consecutive slices of it, read
// in place: the events Events would return, without merging the chunks.
// Events appended later are not in them.
func (r *Recorder) Segments() [][]Event {
	var segs [][]Event
	if len(r.merged) > 0 {
		segs = append(segs, r.merged)
	}
	for c := r.first; c != nil; c = c.next {
		segs = append(segs, c.events[:c.n])
	}
	return segs
}

// Seq returns a fresh correlation id (1, 2, 3, ...).
func (r *Recorder) Seq() int64 { r.seq++; return r.seq }
