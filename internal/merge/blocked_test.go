package merge

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/blockio"
	"repro/internal/ctt"
)

// blockedFixture builds a merged tree at the given scale: small counts come
// from the jacobi stencil (interior/edge divergence), 1024 ranks from the
// ring program, which scales without running the simulator per rank pair.
func blockedFixture(t testing.TB, ranks int) *Merged {
	t.Helper()
	var ctts []*ctt.RankCTT
	if ranks > 64 {
		ctts = ringCTTs(t, ranks, 24)
	} else {
		_, ctts, _ = collect(t, jacobiSrc, ranks)
	}
	m, err := All(ctts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEncodeBlockedRoundTrip pins the tentpole contract at three scales:
// EncodeBlocked -> decode yields a tree DeepEqual to the decode of the plain
// encoding, and the re-encoded bytes agree exactly.
func TestEncodeBlockedRoundTrip(t *testing.T) {
	for _, ranks := range []int{7, 64, 1024} {
		m := blockedFixture(t, ranks)
		var raw, blocked bytes.Buffer
		if _, err := m.Encode(&raw); err != nil {
			t.Fatal(err)
		}
		n, err := m.EncodeBlocked(&blocked, 2)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(blocked.Len()) {
			t.Fatalf("ranks=%d: EncodeBlocked reported %d bytes, wrote %d", ranks, n, blocked.Len())
		}
		want, err := Decode(bytes.NewReader(raw.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		// One Decode-Encode pass is normalizing (the v1 format drops the
		// second timing moment), so re-encodes compare against the normal
		// form, not the raw bytes.
		var wantRe bytes.Buffer
		if _, err := want.Encode(&wantRe); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSelectAuto(blocked.Bytes(), SelectAll(), 0)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ranks=%d: blocked decode differs from the plain decode", ranks)
		}
		var re bytes.Buffer
		if _, err := got.Encode(&re); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), wantRe.Bytes()) {
			t.Fatalf("ranks=%d: re-encode differs from the plain path's", ranks)
		}
	}
}

// TestEncodeBlockedWorkerIdentity pins the format's determinism criterion at
// the trace level: the CYPB bytes for a merged tree are identical at workers
// 1, 2, and 4 for a fixed frame size.
func TestEncodeBlockedWorkerIdentity(t *testing.T) {
	// A merged trace is tiny by design (the paper's point), so a multi-frame
	// container needs a deliberately small frame target.
	m := blockedFixture(t, 1024)
	const frame = 256
	enc := func(workers int) []byte {
		var buf bytes.Buffer
		if _, err := m.EncodeBlockedFrames(&buf, workers, frame); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := enc(1)
	// Sanity: the fixture must be big enough to exercise multiple frames.
	var raw bytes.Buffer
	if _, err := m.Encode(&raw); err != nil {
		t.Fatal(err)
	}
	if raw.Len() <= frame {
		t.Fatalf("fixture payload is %d bytes; want more than one %d-byte frame", raw.Len(), frame)
	}
	for _, workers := range []int{2, 4} {
		if got := enc(workers); !bytes.Equal(base, got) {
			t.Fatalf("workers=%d: CYPB bytes differ from workers=1 (%d vs %d bytes)",
				workers, len(got), len(base))
		}
	}
}

// TestEncodePlainUnchangedByBlockedPath guards the compatibility criterion:
// adding the block container must leave the plain and gzip encoders
// byte-stable. Encode is deterministic, so two independent encodes of the
// same tree must agree exactly, and the plain stream must still open with the
// CYPR magic (no container layer leaked in).
func TestEncodePlainUnchangedByBlockedPath(t *testing.T) {
	m := blockedFixture(t, 16)
	var a, b bytes.Buffer
	if _, err := m.Encode(&a); err != nil {
		t.Fatal(err)
	}
	var blk bytes.Buffer
	if _, err := m.EncodeBlocked(&blk, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("plain Encode is not deterministic across an EncodeBlocked call")
	}
	if !bytes.HasPrefix(a.Bytes(), fileMagic[:]) {
		t.Fatalf("plain encoding starts %q, want CYPR", a.Bytes()[:4])
	}
	if !bytes.HasPrefix(blk.Bytes(), blockio.Magic[:]) {
		t.Fatalf("blocked encoding starts %q, want CYPB", blk.Bytes()[:4])
	}
	var gz bytes.Buffer
	if _, err := m.EncodeGzip(&gz); err != nil {
		t.Fatal(err)
	}
	if gz.Bytes()[0] != 0x1f || gz.Bytes()[1] != 0x8b {
		t.Fatal("gzip encoding lost its magic")
	}
	// All three containers decode to the same tree through the one sniffing
	// entry point.
	want, err := Decode(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string][]byte{"gzip": gz.Bytes(), "blocked": blk.Bytes()} {
		got, err := Decode(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decode differs from plain decode", name)
		}
	}
}

// TestDecodeBlockedTruncation feeds every truncation of a blocked trace to
// the sniffing decoder: each must error (the container checks catch what the
// payload parser does not), never panic.
func TestDecodeBlockedTruncation(t *testing.T) {
	m := blockedFixture(t, 7)
	var buf bytes.Buffer
	if _, err := m.EncodeBlockedFrames(&buf, 2, 256); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	for cut := 0; cut < len(enc); cut += 61 {
		if _, err := DecodeSelectAuto(enc[:cut], SelectAll(), 0); err == nil {
			t.Fatalf("truncation at %d/%d decoded silently", cut, len(enc))
		}
	}
}
