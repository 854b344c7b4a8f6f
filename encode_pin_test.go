package cypress

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/ctt"
	"repro/internal/interp"
	"repro/internal/merge"
	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/trace"
)

var updatePin = flag.Bool("update", false, "rewrite testdata/encode_pin_npb.txt from fresh traces")

const pinTable = "testdata/encode_pin_npb.txt"

// pinParams is spelled out rather than taken from mpisim.DefaultParams: the
// pinned bytes carry timing statistics, so a retuned default must not read as
// a compressor change.
var pinParams = mpisim.Params{LatencyNS: 1500, OverheadNS: 400, GapPerByteNS: 0.33, NoiseFrac: 0.02}

// branchShapes holds the marker sequences the npb skeletons leave out: an if
// whose then-arm, else-arm or both arms are pruned from the CST, an else-less
// if that is skipped (BranchSkip), the same on a rank-dependent condition, and
// a recursion that re-enters its own branch sites through the loop-back.
const branchShapes = `
func main() {
	for var i = 0; i < 12; i = i + 1 {
		if i % 3 == 0 { compute(10); } else { bcast(0, 64); }
		if i % 2 == 0 { allreduce(8); } else { compute(10); }
		if i % 4 == 0 { compute(5); } else { compute(7); }
		if i % 5 == 1 { barrier(); }
		if rank % 2 == 0 {
			if i % 2 == 1 { send(rank + 1, 128 + (i % 4) * 64, 4); }
		} else {
			if i % 2 == 1 { recv(rank - 1, 128 + (i % 4) * 64, 4); }
		}
	}
	walk(6);
}
func walk(n) {
	if n > 0 {
		if n % 2 == 0 { bcast(0, 32); } else { compute(3); }
		walk(n - 1);
	}
	if n % 3 == 0 { barrier(); }
}`

// pinRow traces src on n ranks and returns one table line: sha256 of the
// Encode and of the EncodeIndexed output.
func pinRow(t *testing.T, name, src string, n int) string {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	comps := make([]*ctt.Compressor, n)
	sinks := make([]trace.Sink, n)
	for i := range sinks {
		comps[i] = ctt.NewCompressor(p.CST, i, TimeMeanStddev)
		sinks[i] = comps[i]
	}
	if _, err := mpisim.Run(n, pinParams, sinks, func(r *mpisim.Rank) {
		interp.Execute(p.AST, r)
	}); err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	ctts := make([]*ctt.RankCTT, n)
	for i, c := range comps {
		ctts[i] = c.Finish()
	}
	m, err := merge.All(ctts, 1)
	if err != nil {
		t.Fatalf("%s: merge: %v", name, err)
	}
	var plain, indexed bytes.Buffer
	if _, err := m.Encode(&plain); err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	if _, err := m.EncodeIndexed(&indexed); err != nil {
		t.Fatalf("%s: encode indexed: %v", name, err)
	}
	return fmt.Sprintf("%s %x %x", name, sha256.Sum256(plain.Bytes()), sha256.Sum256(indexed.Bytes()))
}

// TestEncodePinNPB pins the encoded bytes of whole traced runs: every npb
// workload at 16 and 64 ranks, and the branch shapes above. The golden
// fixtures in internal/merge pin the codec on two jacobi traces; this table
// pins what the compressor feeds it, so a change to the per-event paths
// (cursor descent, reach counting, record folding) that alters one record,
// one taken index or their order fails here by name. Row names keep the
// "/w1" suffix of the leaf window the rows were first pinned under.
//
//	go test -run TestEncodePinNPB -update .
func TestEncodePinNPB(t *testing.T) {
	var rows []string
	for _, w := range npb.All() {
		for _, n := range []int{16, 64} {
			name := fmt.Sprintf("%s/n%d/w1", w.Name, n)
			rows = append(rows, pinRow(t, name, w.Source(n, npb.Small), n))
		}
	}
	rows = append(rows, pinRow(t, "shapes/n16/w1", branchShapes, 16))
	got := strings.Join(rows, "\n") + "\n"
	if *updatePin {
		if err := os.WriteFile(pinTable, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pinTable)
	if err != nil {
		t.Fatalf("missing pin table (run with -update to generate): %v", err)
	}
	wantRows := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantRows) != len(rows) {
		t.Fatalf("pin table has %d rows, the test produces %d", len(wantRows), len(rows))
	}
	for i := range rows {
		if rows[i] != wantRows[i] {
			t.Errorf("encoded bytes drifted:\n got %s\nwant %s", rows[i], wantRows[i])
		}
	}
}
