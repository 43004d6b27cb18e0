package manifest

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestDefaultManifest pins the committed experiments.json: it must parse,
// define both scales, and — the pipeline's coverage guarantee — the smoke
// scale must exercise every registered experiment.
func TestDefaultManifest(t *testing.T) {
	m := Default()
	for _, scale := range []string{"smoke", "paper"} {
		if _, err := m.Entries(scale); err != nil {
			t.Errorf("committed manifest lacks scale %q: %v", scale, err)
		}
	}
	for _, scale := range m.ScaleNames() {
		entries, err := m.Entries(scale)
		if err != nil {
			t.Fatal(err)
		}
		covered := map[string]bool{}
		for _, e := range entries {
			covered[e.Experiment] = true
		}
		for _, name := range Names() {
			if !covered[name] {
				t.Errorf("scale %q does not cover registered experiment %q", scale, name)
			}
		}
	}
}

// TestManifestRoundTrip re-marshals the committed manifest and parses it
// back: Parse(Marshal(m)) must reproduce the same entry set.
func TestManifestRoundTrip(t *testing.T) {
	m := Default()
	buf, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Parse(buf)
	if err != nil {
		t.Fatalf("re-parsing marshalled manifest: %v", err)
	}
	for _, scale := range m.ScaleNames() {
		a, _ := m.Entries(scale)
		b, err := m2.Entries(scale)
		if err != nil {
			t.Fatalf("round-trip lost scale %q: %v", scale, err)
		}
		if len(a) != len(b) {
			t.Fatalf("scale %q: %d entries round-tripped to %d", scale, len(a), len(b))
		}
		for i := range a {
			aj, _ := json.Marshal(a[i])
			bj, _ := json.Marshal(b[i])
			if string(aj) != string(bj) {
				t.Errorf("scale %q entry %d round-trip mismatch:\n  %s\n  %s", scale, i, aj, bj)
			}
		}
	}
}

// TestParseRejects pins the strict-parsing contract: a typoed knob, stray
// top-level key, trailing data, or structural defect must fail loudly.
func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"unknown param field",
			`{"scales":{"s":[{"experiment":"fig6","params":{"machne":"itoa"}}]}}`,
			"machne"},
		{"unknown entry field",
			`{"scales":{"s":[{"experiment":"fig6","paramz":{}}]}}`,
			"paramz"},
		{"unknown top-level field",
			`{"scales":{"s":[{"experiment":"fig6"}]},"extra":1}`,
			"extra"},
		{"trailing data",
			`{"scales":{"s":[{"experiment":"fig6"}]}} {}`,
			"trailing"},
		{"no scales", `{"scales":{}}`, "no scales"},
		{"empty scale", `{"scales":{"s":[]}}`, "no entries"},
		{"missing experiment", `{"scales":{"s":[{"id":"x"}]}}`, "no experiment"},
		{"unknown experiment",
			`{"scales":{"s":[{"experiment":"fig99"}]}}`,
			"unknown experiment"},
		{"duplicate ids",
			`{"scales":{"s":[{"experiment":"fig6"},{"experiment":"fig6"}]}}`,
			"duplicate entry id"},
		// Bad param values fail at parse time, naming field and value.
		{"zero in workers_list",
			`{"scales":{"s":[{"experiment":"fig9","params":{"workers_list":[12,0]}}]}}`,
			"workers_list must be positive, got 0"},
		{"negative workers",
			`{"scales":{"s":[{"experiment":"fig6","params":{"workers":-3}}]}}`,
			"workers must be positive, got -3"},
		{"negative ns element",
			`{"scales":{"s":[{"experiment":"table3","params":{"ns":[1024,-1]}}]}}`,
			"ns must be positive, got -1"},
		{"negative seqdepth",
			`{"scales":{"s":[{"experiment":"fig9","params":{"seqdepth":-1}}]}}`,
			"seqdepth must be non-negative, got -1"},
		{"negative workscale",
			`{"scales":{"s":[{"experiment":"fig8","params":{"workscale":-2}}]}}`,
			"workscale must be non-negative, got -2"},
		{"negative dequecap",
			`{"scales":{"s":[{"experiment":"fig6","params":{"dequecap":-1}}]}}`,
			"dequecap must be non-negative, got -1"},
		{"negative scale",
			`{"scales":{"s":[{"experiment":"fig6","params":{"scale":-1}}]}}`,
			"scale must be in [0, 16], got -1"},
		{"word-sized scale",
			`{"scales":{"s":[{"experiment":"table3","params":{"scale":70}}]}}`,
			"scale must be in [0, 16], got 70"},
		{"negative requests",
			`{"scales":{"s":[{"experiment":"serve","params":{"requests":-5}}]}}`,
			"requests must be non-negative, got -5"},
		{"zero in loads",
			`{"scales":{"s":[{"experiment":"serve","params":{"loads":[0.5,0]}}]}}`,
			"loads must be positive, got 0"},
		{"unknown machine",
			`{"scales":{"s":[{"experiment":"fig6","params":{"machine":"summit"}}]}}`,
			`unknown machine "summit"`},
		{"unknown steal policy",
			`{"scales":{"s":[{"experiment":"fig6","params":{"steal_policy":"round-robin"}}]}}`,
			"steal policy"},
		{"bad perturb spec",
			`{"scales":{"s":[{"experiment":"fig6","params":{"perturb":"jitter"}}]}}`,
			"perturb"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: Parse accepted %s", tc.name, tc.doc)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestRegistryCompleteness pins the registered experiment set: the nine
// paper experiments plus the steal-policy zoo in canonical order, each
// runnable, and every committed golden fixture owned by exactly one spec.
func TestRegistryCompleteness(t *testing.T) {
	want := []string{"fig6", "table2", "fig7", "fig8", "fig9", "table3", "fig12", "resilience", "stealzoo", "serve"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %d specs %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("registry order[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	for _, name := range want {
		s := Lookup(name)
		if s == nil {
			t.Fatalf("Lookup(%q) = nil", name)
		}
		if s.Call == nil {
			t.Errorf("spec %q missing Call", name)
		}
	}
	owners := GoldenOwners()
	wantGoldens := []string{
		"fig6_pfor_itoa.tsv", "uts_T1L'_itoa.tsv", "uts_T1WL'_wisteria.tsv",
		"resilience_T1L'_itoa.tsv", "serve_itoa.tsv", "serve_wisteria.tsv",
	}
	for _, g := range wantGoldens {
		if owners[g] == "" {
			t.Errorf("golden %q has no owning spec", g)
		}
	}
}

// TestSelect pins the -only selector semantics: entry IDs and experiment
// names both match; a selector matching nothing is an error.
func TestSelect(t *testing.T) {
	m := Default()
	byID, err := m.Select("smoke", []string{"serve_wisteria"})
	if err != nil || len(byID) != 1 || byID[0].ID != "serve_wisteria" {
		t.Errorf("Select by id = %v, %v", byID, err)
	}
	byExp, err := m.Select("smoke", []string{"serve"})
	if err != nil {
		t.Fatal(err)
	}
	if len(byExp) != 2 {
		t.Errorf("Select by experiment serve matched %d entries, want 2 (itoa, wisteria)", len(byExp))
	}
	if _, err := m.Select("smoke", []string{"nosuch"}); err == nil {
		t.Error("Select accepted an unmatched selector")
	}
	if _, err := m.Select("nosuch", nil); err == nil {
		t.Error("Select accepted an unknown scale")
	}
	all, err := m.Select("smoke", nil)
	if err != nil {
		t.Fatal(err)
	}
	if full, _ := m.Entries("smoke"); len(all) != len(full) {
		t.Errorf("empty selector kept %d of %d entries", len(all), len(full))
	}
}

// TestMerge pins the zero-is-unset overlay semantics Params relies on, by
// reflection over every field: a set field of the overlay wins, a zero one
// leaves the base alone. Adding a Params field needs no Merge edit, and a
// field Merge cannot overlay fails here.
func TestMerge(t *testing.T) {
	// set fills field i of a fresh Params with a non-zero value derived
	// from seed, so base and overlay values differ.
	set := func(i, seed int) Params {
		var p Params
		f := reflect.ValueOf(&p).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(fmt.Sprint("v", seed))
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(seed))
		case reflect.Float64:
			f.SetFloat(float64(seed))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), seed, seed))
		default:
			t.Fatalf("Params.%s has kind %s: teach this test (and check Merge) about it",
				reflect.TypeOf(p).Field(i).Name, f.Kind())
		}
		return p
	}
	for i := 0; i < reflect.TypeOf(Params{}).NumField(); i++ {
		name := reflect.TypeOf(Params{}).Field(i).Name
		base, over := set(i, 1), set(i, 2)
		if got := base.Merge(over); !reflect.DeepEqual(got, over) {
			t.Errorf("%s: Merge did not overlay a set field: got %+v, want %+v", name, got, over)
		}
		if got := base.Merge(Params{}); !reflect.DeepEqual(got, base) {
			t.Errorf("%s: Merge with a zero overlay changed the base: %+v", name, got)
		}
		if got := (Params{}).Merge(over); !reflect.DeepEqual(got, over) {
			t.Errorf("%s: Merge onto a zero base lost the overlay: %+v", name, got)
		}
	}
	// Fields do not interfere: an overlay touches only what it sets.
	base := Params{Machine: "itoa", Tree: "T1L", SeqDepth: 3, Systems: []string{"ours"}}
	got := base.Merge(Params{Machine: "wisteria", Workers: 18, Loads: []float64{1}})
	want := Params{Machine: "wisteria", Tree: "T1L", SeqDepth: 3, Systems: []string{"ours"},
		Workers: 18, Loads: []float64{1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Merge = %+v, want %+v", got, want)
	}
}

// TestDiff pins the three shapes of the byte-diff report.
func TestDiff(t *testing.T) {
	if d := Diff([]byte("a\nb\n"), []byte("a\nb\n")); d != "" {
		t.Errorf("identical bytes diffed: %q", d)
	}
	d := Diff([]byte("hdr\nrow1\nrowX\n"), []byte("hdr\nrow1\nrow2\n"))
	if !strings.Contains(d, "byte offset 12") || !strings.Contains(d, "line 3") {
		t.Errorf("mid-difference report wrong: %q", d)
	}
	if !strings.Contains(d, `"rowX"`) || !strings.Contains(d, `"row2"`) {
		t.Errorf("diff report lacks the differing lines: %q", d)
	}
	if d := Diff([]byte("a\n"), []byte("a\nb\n")); !strings.Contains(d, "prefix") {
		t.Errorf("prefix case: %q", d)
	}
	if d := Diff([]byte("a\nb\n"), []byte("a\n")); !strings.Contains(d, "extends past") {
		t.Errorf("extension case: %q", d)
	}
}

// TestSpecFlagPropagation is the regression test for the dispatch bug this
// refactor fixes: an explicit machine param must be honored by fig9 (the
// old CLI silently flipped -machine itoa back to wisteria), and fig9
// without a machine still defaults to wisteria.
func TestSpecFlagPropagation(t *testing.T) {
	runFig9 := func(p Params) string {
		t.Helper()
		r, err := Lookup("fig9").Run(p, Exec{Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		return r.Section()
	}
	base := Params{Tree: "T1L", WorkersList: []int{4}, SeqDepth: 10, Seed: 7}
	withMachine := base
	withMachine.Machine = "itoa"
	if got := runFig9(withMachine); got != "uts_T1L'_itoa" {
		t.Errorf("fig9 with explicit machine itoa produced %q, want uts_T1L'_itoa", got)
	}
	if got := runFig9(base); got != "uts_T1L'_wisteria" {
		t.Errorf("fig9 without machine produced %q, want the wisteria default", got)
	}
}
