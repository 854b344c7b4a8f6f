package blockio_test

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"os"
	"testing"

	cypress "repro"
	"repro/internal/blockio"
	"repro/internal/npb"
)

// goldenJacobi64 is the pinned v1 encoding of the 64-rank Jacobi trace.
const goldenJacobi64 = "../merge/testdata/golden/jacobi64.cyp"

func readFile(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestLevel6ContainerReads: a trace container deflated at level 6, the level
// every CYPB frame was written at before flateLevel moved, reads back to the
// exact encoding it wraps — through Unwrap, through the range reader, and
// through the facade a command opens a trace file with.
func TestLevel6ContainerReads(t *testing.T) {
	want := readFile(t, goldenJacobi64)
	file := readFile(t, "testdata/jacobi64-level6.cypb")

	got, format, err := blockio.Unwrap(file)
	if err != nil || format != blockio.FormatBlocked {
		t.Fatalf("Unwrap: format %v, %v", format, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("Unwrap of the level-6 container is not the golden encoding")
	}
	x, err := blockio.Scan(file)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	got, at, err := x.ReadRange(bytes.NewReader(file), 0, len(want))
	if err != nil || at != 0 || !bytes.Equal(got, want) {
		t.Fatalf("ReadRange of the whole payload: at %d, %v", at, err)
	}

	r, err := cypress.OpenTrace(file)
	if err != nil {
		t.Fatalf("OpenTrace: %v", err)
	}
	var raw bytes.Buffer
	if _, err := r.WriteTrace(&raw, cypress.FormatRaw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw.Bytes(), want) {
		t.Fatal("the trace opened from the level-6 container re-encodes to other bytes")
	}
}

// BenchmarkDeflateLevel re-runs the sweep flateLevel was chosen by, on inputs
// small enough for a test run: the golden Jacobi-64 encoding and a generated
// SP-64 one, deflated at every level in DefaultFrameSize frames. ns/op is the
// deflate time of the whole input; B/frame the compressed bytes of its frames
// over their number.
func BenchmarkDeflateLevel(b *testing.B) {
	prog, err := cypress.Compile(npb.Get("SP").Source(64, npb.Paper))
	if err != nil {
		b.Fatal(err)
	}
	res, err := prog.Trace(64, cypress.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var sp bytes.Buffer
	if _, err := res.WriteTrace(&sp, cypress.FormatRaw); err != nil {
		b.Fatal(err)
	}
	inputs := []struct {
		name string
		data []byte
	}{
		{"jacobi64", readFile(b, goldenJacobi64)},
		{"SP-64", sp.Bytes()},
	}
	for _, in := range inputs {
		for level := 1; level <= 9; level++ {
			b.Run(fmt.Sprintf("%s/level=%d", in.name, level), func(b *testing.B) {
				fw, err := flate.NewWriter(io.Discard, level)
				if err != nil {
					b.Fatal(err)
				}
				var out bytes.Buffer
				var csize, frames int
				b.SetBytes(int64(len(in.data)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					csize, frames = 0, 0
					for p := in.data; len(p) > 0; frames++ {
						frame := p[:min(len(p), blockio.DefaultFrameSize)]
						p = p[len(frame):]
						out.Reset()
						fw.Reset(&out)
						if _, err := fw.Write(frame); err != nil {
							b.Fatal(err)
						}
						if err := fw.Close(); err != nil {
							b.Fatal(err)
						}
						csize += out.Len()
					}
				}
				b.ReportMetric(float64(csize)/float64(frames), "B/frame")
			})
		}
	}
}
