package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	cypress "repro"
	"repro/internal/merge"
	"repro/internal/npb"
)

// cli runs the command in process and returns what it printed and its exit
// status.
func cli(args ...string) (stdout, stderr string, status int) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return out.String(), errb.String(), status
}

// TestFormatsWriteTheirEncoding traces CG on 16 ranks once per -format value:
// each file must hold exactly the bytes the matching encoder writes for the
// same run, and must reopen to a trace whose rank 3 replays like the
// in-memory one.
func TestFormatsWriteTheirEncoding(t *testing.T) {
	const procs = 16
	prog, err := cypress.Compile(npb.Get("CG").Source(procs, npb.Paper))
	if err != nil {
		t.Fatal(err)
	}
	mem, err := prog.Trace(procs, cypress.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mem.Replay(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		format string
		encode func(m *merge.Merged, w io.Writer) (int64, error)
	}{
		{"raw", (*merge.Merged).Encode},
		{"gzip", (*merge.Merged).EncodeGzip},
		{"index", (*merge.Merged).EncodeIndexed},
		{"block", func(m *merge.Merged, w io.Writer) (int64, error) { return m.EncodeBlocked(w, 1) }},
	} {
		t.Run(tc.format, func(t *testing.T) {
			var enc bytes.Buffer
			if _, err := tc.encode(mem.Merged, &enc); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "cg."+tc.format)
			stdout, stderr, status := cli("-workload", "CG", "-procs", fmt.Sprint(procs), "-format", tc.format, "-o", path)
			if status != 0 {
				t.Fatalf("exit %d: %s", status, stderr)
			}
			if !strings.Contains(stdout, fmt.Sprintf("compressed trace: %d bytes -> %s", enc.Len(), path)) {
				t.Errorf("summary does not report %d bytes:\n%s", enc.Len(), stdout)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, enc.Bytes()) {
				t.Fatalf("-format %s wrote %d bytes that differ from the encoder's %d", tc.format, len(data), enc.Len())
			}
			res, err := cypress.OpenTrace(data, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := res.Replay(3)
			if err != nil {
				t.Fatal(err)
			}
			// %+v prints nil and empty request lists alike: a decoded record
			// may hold either where the compressor's holds the other.
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
				t.Fatalf("rank 3 from the file (%d events) differs from rank 3 in memory (%d events)", len(got), len(want))
			}
		})
	}
}

// TestUsageErrors: an unknown -format and the flags -format replaced are
// usage errors (exit 2), not trace failures.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-format", "bogus"}, `-format wants raw, gzip, index or block, got "bogus"`},
		{[]string{"-gzip"}, "flag provided but not defined: -gzip"},
		{[]string{"-block"}, "flag provided but not defined: -block"},
		{[]string{"-index"}, "flag provided but not defined: -index"},
		{[]string{"-par", "2"}, "flag provided but not defined: -par"},
	} {
		args := append(tc.args, "-workload", "CG", "-procs", "4")
		_, stderr, status := cli(args...)
		if status != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and %q", args, status, stderr, tc.want)
		}
	}
}
