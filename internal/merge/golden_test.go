package merge

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden v1 encoding fixtures from fresh traces")

// TestEncodeGoldenPin pins the v1 on-disk trace format byte-for-byte. The
// checked-in fixtures are canonical encodings (the Encode∘Decode fixed
// point); the test asserts the current decoder accepts them and the current
// encoder reproduces them exactly. Any grammar, varint, or ordering change
// in serialize.go breaks this test — deliberately, because every stored
// corpus and trace archive depends on these exact bytes. On an intentional
// format-version bump, regenerate with:
//
//	go test ./internal/merge -run TestEncodeGoldenPin -update
func TestEncodeGoldenPin(t *testing.T) {
	cases := []struct {
		name  string
		ranks int
	}{
		{"jacobi7", 7},
		{"jacobi64", 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", tc.name+".cyp")
			if *updateGolden {
				writeGolden(t, path, tc.ranks)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run with -update to generate): %v", err)
			}
			m, err := Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("decoder rejects pinned v1 fixture: %v", err)
			}
			var buf bytes.Buffer
			if _, err := m.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("encoder output differs from pinned v1 fixture %s (%d vs %d bytes): the on-disk format changed",
					path, buf.Len(), len(data))
			}
			// The corpus delta codec splits these same bytes; the split must
			// rejoin losslessly or stored deltas would corrupt on format
			// drift even when whole-trace encode still round-trips.
			sp, err := SplitEncoded(data)
			if err != nil {
				t.Fatalf("SplitEncoded rejects pinned fixture: %v", err)
			}
			joined, err := JoinEncoded(sp.Structure, sp.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(joined, data) {
				t.Fatal("SplitEncoded/JoinEncoded does not round-trip the pinned fixture")
			}
		})
	}
}

// TestEncodeGoldenPinIndexed pins the CYPI section-index sidecar
// byte-for-byte on top of the pinned v1 bodies. Each .cypi fixture must be
// exactly its .cyp sibling plus the sidecar — that prefix property IS the
// backward-compatibility contract (old decoders read indexed files as v1
// streams with trailing bytes) — and the current EncodeIndexed must
// reproduce the whole file exactly. Regenerates with the same -update flag
// as TestEncodeGoldenPin; the .cyp fixture must exist (or be regenerated in
// the same run, which test ordering guarantees).
func TestEncodeGoldenPinIndexed(t *testing.T) {
	for _, name := range []string{"jacobi7", "jacobi64"} {
		t.Run(name, func(t *testing.T) {
			cypPath := filepath.Join("testdata", "golden", name+".cyp")
			path := filepath.Join("testdata", "golden", name+".cypi")
			plain, err := os.ReadFile(cypPath)
			if err != nil {
				t.Fatalf("missing v1 fixture (run TestEncodeGoldenPin with -update first): %v", err)
			}
			if *updateGolden {
				m, err := Decode(bytes.NewReader(plain))
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if _, err := m.EncodeIndexed(&buf); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes, %d sidecar)", path, buf.Len(), buf.Len()-len(plain))
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run with -update to generate): %v", err)
			}
			if !bytes.HasPrefix(data, plain) {
				t.Fatalf("%s does not start with the pinned v1 body %s", path, cypPath)
			}
			if _, _, ok := parseIndex(data); !ok {
				t.Fatalf("%s carries no valid CYPI sidecar", path)
			}
			m, err := Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("v1 decoder rejects pinned indexed fixture: %v", err)
			}
			var buf bytes.Buffer
			if _, err := m.EncodeIndexed(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("EncodeIndexed output differs from pinned fixture %s (%d vs %d bytes): the sidecar format changed",
					path, buf.Len(), len(data))
			}
			ms, err := DecodeSelectAuto(data, SelectAll(), 1)
			if err != nil {
				t.Fatal(err)
			}
			buf.Reset()
			if _, err := ms.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), plain) {
				t.Fatal("selective decode of pinned indexed fixture re-encodes differently from the v1 body")
			}
		})
	}
}

// writeGolden regenerates one fixture: trace jacobiSrc, merge, and encode
// twice through a decode so the stored bytes are the codec's normal form
// (derived fields like stddev are normalized away and re-encoding is a
// fixed point).
func writeGolden(t *testing.T, path string, ranks int) {
	t.Helper()
	_, ctts, _ := collect(t, jacobiSrc, ranks)
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if _, err := m.Encode(&first); err != nil {
		t.Fatal(err)
	}
	norm, err := Decode(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var canon bytes.Buffer
	if _, err := norm.Encode(&canon); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, canon.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d bytes)", path, canon.Len())
}
