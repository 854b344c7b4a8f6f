package ctt

import (
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func TestPeerPatternCompressConstant(t *testing.T) {
	p := newPeerPattern(3, 5)
	p.Append(3)
	p.Compress()
	if len(p.Period) != 1 || p.Period[0] != 3 {
		t.Fatalf("period = %v", p.Period)
	}
	for k := int64(0); k < 6; k++ {
		if p.At(k) != 3 {
			t.Fatalf("At(%d) = %d", k, p.At(k))
		}
	}
}

func TestPeerPatternCompressButterfly(t *testing.T) {
	p := &PeerPattern{}
	seq := []int32{1, 2, 4, 8}
	for rep := 0; rep < 20; rep++ {
		for _, v := range seq {
			p.Append(v)
		}
	}
	p.Compress()
	if len(p.Period) != 4 {
		t.Fatalf("period = %v, want len 4", p.Period)
	}
	for k := int64(0); k < 80; k++ {
		if p.At(k) != seq[k%4] {
			t.Fatalf("At(%d) = %d", k, p.At(k))
		}
	}
}

func TestPeerPatternPartialLastCycle(t *testing.T) {
	p := &PeerPattern{}
	for _, v := range []int32{1, -1, 1, -1, 1} { // ends mid-cycle
		p.Append(v)
	}
	p.Compress()
	if len(p.Period) != 2 {
		t.Fatalf("period = %v", p.Period)
	}
	if p.At(4) != 1 {
		t.Fatalf("At(4) = %d", p.At(4))
	}
}

func TestPeerPatternAperiodic(t *testing.T) {
	p := &PeerPattern{}
	vals := []int32{5, 3, 9, 1, 7}
	for _, v := range vals {
		p.Append(v)
	}
	p.Compress()
	if len(p.Period) != len(vals) {
		t.Fatalf("aperiodic input compressed to %v", p.Period)
	}
}

func TestPeerPatternEqual(t *testing.T) {
	a := &PeerPattern{Period: []int32{1, 2}}
	b := &PeerPattern{Period: []int32{1, 2}}
	c := &PeerPattern{Period: []int32{1, 3}}
	d := &PeerPattern{Period: []int32{1}}
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Fatal("Equal wrong")
	}
}

func TestPeerPatternConvertLimit(t *testing.T) {
	if newPeerPattern(1, convertLimit+1) != nil {
		t.Fatal("conversion limit not enforced")
	}
	if newPeerPattern(1, 10) == nil {
		t.Fatal("small conversion refused")
	}
}

// Property: Compress never changes the generated sequence.
func TestQuickPeerPatternFaithful(t *testing.T) {
	f := func(vals []int8, reps uint8) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 16 {
			vals = vals[:16]
		}
		n := int(reps%8) + 1
		p := &PeerPattern{}
		var want []int32
		for r := 0; r < n; r++ {
			for _, v := range vals {
				p.Append(int32(v))
				want = append(want, int32(v))
			}
		}
		p.Compress()
		for k := range want {
			if p.At(int64(k)) != want[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestButterflyLeafCompressesToOnePatternRecord(t *testing.T) {
	// CG-style butterfly: partner cycles through +-2^l. One leaf, one
	// record with a peer pattern, instead of O(iterations) records.
	tree, ctts := run(t, `
func main() {
	for var it = 0; it < 30; it = it + 1 {
		var l = 1;
		while l < size {
			var partner = rank + l;
			if (rank / l) % 2 == 1 { partner = rank - l; }
			var r = irecv(partner, 512, 30);
			send(partner, 512, 30);
			wait(r);
			l = l * 2;
		}
	}
}`, 8)
	leaf := findLeaf(tree, trace.OpSend)
	d := ctts[0].Data(leaf.GID)
	if len(d.Records()) != 1 {
		t.Fatalf("send records = %d, want 1 (peer pattern)", len(d.Records()))
	}
	rec := d.Records()[0]
	if rec.Peers == nil {
		t.Fatal("record lacks a peer pattern")
	}
	if rec.Count != 30*3 {
		t.Fatalf("count = %d", rec.Count)
	}
	// Rank 0's partner cycle: +1, +2, +4.
	if len(rec.Peers.Period) != 3 {
		t.Fatalf("period = %v", rec.Peers.Period)
	}
	if rec.SizeBytes() > 200 {
		t.Fatalf("pattern record too large: %dB", rec.SizeBytes())
	}
}

func TestVaryingSizeDoesNotPeerFold(t *testing.T) {
	// Sizes vary with the partner: parameters other than peer differ, so
	// records must stay separate (CYPRESS does not fold sizes; that is
	// ScalaTrace-2's elastic behavior, which loses information).
	tree, ctts := run(t, `
func main() {
	for var it = 0; it < 10; it = it + 1 {
		var l = 1;
		while l < size {
			var partner = rank + l;
			if (rank / l) % 2 == 1 { partner = rank - l; }
			var r = irecv(partner, 512 * l, 30);
			send(partner, 512 * l, 30);
			wait(r);
			l = l * 2;
		}
	}
}`, 4)
	leaf := findLeaf(tree, trace.OpSend)
	d := ctts[0].Data(leaf.GID)
	if len(d.Records()) < 2 {
		t.Fatalf("varying sizes must split records, got %d", len(d.Records()))
	}
	for _, r := range d.Records() {
		if r.Peers != nil {
			t.Fatal("size-varying occurrences must not fold into one pattern")
		}
	}
}
