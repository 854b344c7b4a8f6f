package main

import (
	"testing"

	cypress "repro"
)

// fpFixture is a fixed multi-phase workload used to pin the structural
// fingerprint. Changing the v1 structure grammar, the CST builder, or the
// fingerprint fold changes these values — that is the point: the pins catch
// accidental format drift, since every corpus on disk keys its dedup
// classes by this fingerprint.
const fpFixture = `
func main() {
	for var k = 0; k < 12; k = k + 1 {
		if rank < size - 1 { send(rank + 1, 4096, 0); }
		if rank > 0 { recv(rank - 1, 4096, 0); }
		compute(50000);
		allreduce(8);
	}
	bcast(0, 1024);
	reduce(0, 8);
}`

// Golden whole-tree structural fingerprints for fpFixture. The values differ
// per rank count because the fingerprint covers the encoded header and the
// rank-run lists, not just the tree shape. On intentional format changes,
// update from the failure output.
func TestStructuralFingerprintGolden(t *testing.T) {
	golden := map[int]uint64{
		7:  0x9df365454969505e,
		64: 0x3710993a406889ff,
	}
	prog, err := cypress.Compile(fpFixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{7, 64} {
		res, err := prog.Trace(procs, cypress.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sfp, ch, err := fingerprints(res)
		if err != nil {
			t.Fatal(err)
		}
		if want := golden[procs]; sfp != want {
			t.Errorf("procs=%d: structural_fp = %016x, want %016x", procs, sfp, want)
		}

		// The content hash covers the volatile timing payload, so it is not
		// pinned across format versions here — but it must be deterministic:
		// re-tracing the identical program yields the identical address.
		res2, err := prog.Trace(procs, cypress.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sfp2, ch2, err := fingerprints(res2)
		if err != nil {
			t.Fatal(err)
		}
		if sfp2 != sfp || ch2 != ch {
			t.Errorf("procs=%d: fingerprints not deterministic: (%016x,%016x) vs (%016x,%016x)",
				procs, sfp, ch, sfp2, ch2)
		}
	}
}
