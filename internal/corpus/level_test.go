package corpus_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/merge"
)

// TestLevel6StoreReads: a store whose class file and sealed segment were
// deflated at level 6, the level every CYPB frame was written at before
// blockio's flateLevel moved, opens and serves its two runs byte for byte —
// then again after GC has rewritten the segment at the current level.
//
// testdata/level6-store holds two runs of shardSrc on 128 ranks (runParams 0
// and 1): one class file, two delta records and a segment cut between them;
// testdata/level6-run<i>.cyp are the encodings it was given.
func TestLevel6StoreReads(t *testing.T) {
	dir := t.TempDir()
	ents, err := os.ReadDir("testdata/level6-store")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b := readFixture(t, filepath.Join("testdata/level6-store", e.Name()))
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	runs := make([]storedRun, 2)
	for i := range runs {
		r := &runs[i]
		r.enc = readFixture(t, fmt.Sprintf("testdata/level6-run%d.cyp", i))
		r.hash = corpus.ContentHash(r.enc)
		m, err := merge.Decode(bytes.NewReader(r.enc))
		if err != nil {
			t.Fatal(err)
		}
		if r.seqs, err = rankSequences(m); err != nil {
			t.Fatal(err)
		}
	}
	if _, frames := segmentFrames(t, dir); len(frames) != 2 {
		t.Fatalf("fixture segment has %d frames, want one a record", len(frames))
	}

	st, err := corpus.Open(dir, corpus.Options{CacheBytes: -1})
	if err != nil {
		t.Fatalf("a level-6 store does not open: %v", err)
	}
	defer st.Close()
	if stats, err := st.Stats(); err != nil || stats.Classes != 1 || stats.DeltaRuns != 2 || stats.Segments != 1 {
		t.Fatalf("fixture is not two delta runs of one class in one segment: %+v, %v", stats, err)
	}
	for i := range runs {
		if err := serves(t, fmt.Sprintf("level-6 store: run %d", i), st, &runs[i]); err != nil {
			t.Fatalf("level-6 store: run %d: %v", i, err)
		}
	}

	if err := st.GC(); err != nil {
		t.Fatalf("gc of a level-6 store: %v", err)
	}
	name, frames := segmentFrames(t, dir)
	if len(frames) != 2 {
		t.Fatalf("compacted segment has %d frames, want one a record", len(frames))
	}
	if filepath.Base(name) == "seg-000000.cypd" {
		t.Fatal("gc kept the level-6 segment")
	}
	for i := range runs {
		if err := serves(t, fmt.Sprintf("after gc: run %d", i), st, &runs[i]); err != nil {
			t.Fatalf("after gc: run %d: %v", i, err)
		}
	}
}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
