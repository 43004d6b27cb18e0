// Package digest is the one harness behind the repository's digest fixtures:
// a test computes a map of named cells, and Check holds it to the JSON file
// that recorded them, naming each cell and field that moved. Only tests
// import it. Its -update flag is the test binaries' one fixture-rewrite
// switch: `go test ./internal/core -update` rewrites that package's fixtures
// from the run instead of comparing against them.
package digest

import (
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc64"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// Update is the -update flag: every fixture check in the test binary
// rewrites its fixture from this run instead of comparing with it.
var Update = flag.Bool("update", false, "rewrite this package's testdata/ fixtures from the run")

// SHA256 is the hex SHA-256 of b.
func SHA256(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// Check holds got to the cells recorded in file and reports each message of
// Compare as an error. Under -update it rewrites file from got instead, as
// indented JSON plus a trailing newline.
func Check[T any](t testing.TB, file string, got map[string]T) {
	t.Helper()
	if *Update {
		b, _ := json.MarshalIndent(got, "", "  ") // cells are plain data: it cannot fail
		if err := os.WriteFile(file, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var recorded map[string]T
	b, err := os.ReadFile(file)
	if err == nil {
		err = json.Unmarshal(b, &recorded)
	}
	if err != nil {
		t.Fatalf("%v (go test -update in this package rewrites it)", err)
	}
	for _, msg := range Compare(got, recorded) {
		t.Errorf("%s: %s", file, msg)
	}
}

// Compare returns one message per cell that differs between got and
// recorded, in cell order. A cell missing from either side is named as such;
// otherwise the message lists every JSON field path whose value moved
// ("charm/uts/72w: stats.Retransmits: got 41, recorded 40"), and a list of
// checkpoints names its first divergent window.
func Compare[T any](got, recorded map[string]T) []string {
	all := map[string]T{}
	maps.Copy(all, got)
	maps.Copy(all, recorded)
	var msgs []string
	for _, cell := range slices.Sorted(maps.Keys(all)) {
		g, inGot := got[cell]
		w, inRecorded := recorded[cell]
		switch d := diff("", reflect.ValueOf(g), reflect.ValueOf(w)); {
		case !inRecorded:
			msgs = append(msgs, cell+": not recorded")
		case !inGot:
			msgs = append(msgs, cell+": recorded, but not produced")
		case len(d) > 0:
			msgs = append(msgs, cell+": "+strings.Join(d, "; "))
		}
	}
	return msgs
}

// diff lists the paths under path at which g and w differ: a struct field by
// its JSON name, a list of checkpoints by its first divergent window with
// the window's virtual-time span (from the end of the last shared window to
// the recorded end of this one, or the run's past the end of the
// recording), anything else as a whole value in its JSON form.
func diff(path string, g, w reflect.Value) []string {
	if got, ok := g.Interface().([]Checkpoint); ok {
		// The hash is cumulative, so the first unequal checkpoint closes the
		// first window that diverged; the windows before it are shared.
		recorded := w.Interface().([]Checkpoint)
		i, from := 0, int64(0)
		for ; i < len(got) && i < len(recorded) && got[i] == recorded[i]; i++ {
			from = got[i].T
		}
		if i < len(got) || i < len(recorded) {
			return []string{fmt.Sprintf("%s: first divergence in dispatch steps [%d, %d), t=%dns to t=%dns",
				path, i*Window, (i+1)*Window, from, slices.Concat(recorded[i:], got[i:])[0].T)}
		}
	} else if g.Kind() == reflect.Struct {
		var out []string
		for i := range g.NumField() {
			f := g.Type().Field(i)
			name := cmp.Or(strings.Split(f.Tag.Get("json"), ",")[0], f.Name)
			out = append(out, diff(strings.TrimPrefix(path+"."+name, "."), g.Field(i), w.Field(i))...)
		}
		return out
	} else if !reflect.DeepEqual(g.Interface(), w.Interface()) {
		gj, _ := json.Marshal(g.Interface())
		wj, _ := json.Marshal(w.Interface())
		return []string{fmt.Sprintf("%s: got %s, recorded %s", path, gj, wj)}
	}
	return nil
}

// Window is how many dispatch steps one checkpoint covers.
const Window = 1024

// A Checkpoint closes a window of a run's dispatch steps: the virtual time
// (ns) of the window's last step and the rolling hash of every step so far.
type Checkpoint struct {
	T    int64  `json:"t"`
	Hash string `json:"hash"`
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// Steps folds a run's dispatch steps, each keyed by its exact virtual time,
// into a rolling CRC-64 and keeps a checkpoint every Window steps. The zero
// value is ready to use.
type Steps struct {
	n    int
	t    int64
	h    uint64
	line []byte
	list []Checkpoint
}

// Step folds one dispatch step: its line, at virtual time t (ns).
func (s *Steps) Step(t int64, line string) {
	if s.n > 0 && s.n%Window == 0 {
		s.list = s.Checkpoints()
	}
	s.line = fmt.Appendf(s.line[:0], "%d %s\n", t, line)
	s.n, s.t, s.h = s.n+1, t, crc64.Update(s.h, crcTable, s.line)
}

// Checkpoints is one checkpoint per window of the steps so far, the last of
// them closing the partial window at the end, if any.
func (s *Steps) Checkpoints() []Checkpoint {
	return append(slices.Clip(s.list), Checkpoint{s.t, fmt.Sprintf("%016x", s.h)})
}
