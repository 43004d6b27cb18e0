package main

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"

	"contsteal/internal/digest"
)

// traceDigest is what one (fixture, consumer) cell pins: the SHA-256 of the
// bytes the consumer wrote to stdout and the error it returned ("" = none).
type traceDigest struct {
	Stdout string `json:"stdout_sha256"`
	Err    string `json:"err,omitempty"`
}

// TestTraceDigests pins the bytes every reader of a trace file produces from
// the two committed fixtures: the Chrome/Perfetto export ("chrome" below is
// core.Trace.WriteChromeTrace on the decoded file), `repro analyze` and
// `repro analyze -requests`. The other trace tests check structure and
// exit status only; the digests were recorded before the trace layer's
// duplicate passes were folded together and must only ever change together
// with the fixtures (`go test ./cmd/repro -update` rewrites both).
func TestTraceDigests(t *testing.T) {
	got := map[string]traceDigest{}
	for _, fixture := range []string{"trace_uts_micro.json", "trace_serve_micro.json"} {
		path := filepath.Join("testdata", fixture)
		consumers := map[string]func(io.Writer) error{
			"chrome": func(w io.Writer) error {
				tr, err := loadTrace(path)
				if err != nil {
					return err
				}
				return tr.WriteChromeTrace(w)
			},
			"analyze":           func(w io.Writer) error { return run([]string{"analyze", path}, w, io.Discard) },
			"analyze -requests": func(w io.Writer) error { return run([]string{"analyze", "-requests", path}, w, io.Discard) },
		}
		for name, consume := range consumers {
			var out bytes.Buffer
			d := traceDigest{}
			if err := consume(&out); err != nil {
				d.Err = err.Error()
			}
			d.Stdout = digest.SHA256(out.Bytes())
			got[fixture+"/"+name] = d
		}
	}
	digest.Check(t, "testdata/trace_digests.json", got)
}
