// Package inspect derives the paper's evaluation tables from a merged
// compressed trace tree: per-leaf compression ratios (Table 3's "structures"
// breakdown), rank-group fragmentation, and stride-compression health for the
// control vectors. It works on any *merge.Merged — freshly traced or decoded
// from a trace file — and deliberately reports only structural counts (no
// wall-clock, no schedule-dependent counters), so its output is byte-stable
// for a given trace and suitable for golden-file testing.
package inspect

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cst"
	"repro/internal/fp"
	"repro/internal/merge"
)

// Summary is the whole-trace roll-up.
type Summary struct {
	// NumRanks is the job size.
	NumRanks int `json:"num_ranks"`
	// EventCount is the total number of MPI events the job produced.
	EventCount int64 `json:"event_count"`
	// Vertices and ExecutedVertices size the CST and its populated part.
	Vertices         int `json:"vertices"`
	ExecutedVertices int `json:"executed_vertices"`
	// Groups is the total number of rank-group entries; Records the total
	// comm records stored across all groups.
	Groups  int   `json:"groups"`
	Records int64 `json:"records"`
	// SizeBytes is the estimated serialized footprint of the vertex data.
	SizeBytes int64 `json:"size_bytes"`
	// EventsPerRecord is the trace-wide fold ratio: how many original events
	// each stored record stands for (higher is better compression).
	EventsPerRecord float64 `json:"events_per_record"`
}

// LeafRow is one comm leaf's compression accounting.
type LeafRow struct {
	GID int32  `json:"gid"`
	Op  string `json:"op"`
	// Groups is the number of rank groups at this leaf (1 = perfectly SPMD).
	Groups int `json:"groups"`
	// Keys is the number of distinct encoding-invariant keys
	// (ctt.VData.InvariantKey) among those groups, and says why the leaf
	// split: Keys == Groups means every group differs in an operation
	// parameter (size, tag, count, request list) or a peer-pattern period and
	// no peer encoding could have folded them; Keys == 1 means the groups
	// differ in a plain point-to-point peer only.
	Keys int `json:"keys"`
	// Shapes is the number of distinct replay shapes (ctt.VData.ShapeKey)
	// among the groups: what the decompression walk can tell apart. Shapes ==
	// 1 with Keys == Groups means the leaf is split by a scalar only — a
	// rank-indexed parameter vector would fold it; Shapes == Groups means
	// the groups' control flow really differs.
	Shapes int `json:"shapes"`
	// Records is the number of stored records summed over groups.
	Records int64 `json:"records"`
	// Events is the number of original events the leaf's records stand for,
	// weighted by each group's rank count.
	Events int64 `json:"events"`
	// RelEncoded / Patterns / RelUnsafe count records by peer encoding:
	// relative (rank±k), cyclic peer pattern, and absolute-only.
	RelEncoded int64 `json:"rel_encoded"`
	Patterns   int64 `json:"patterns"`
	// Bytes estimates the leaf's serialized footprint (all groups).
	Bytes int64 `json:"bytes"`
	// Ratio is Events/Records for this leaf.
	Ratio float64 `json:"ratio"`
	// Ranks renders the first group's rank set (and "+k more" when
	// fragmented) for orientation.
	Ranks string `json:"ranks"`
}

// StrideRow is one control vertex's stride-compression health.
type StrideRow struct {
	GID  int32  `json:"gid"`
	Kind string `json:"kind"`
	// Values is the number of control values stored (loop activation counts
	// or branch taken-indices), summed over groups; Runs the stride runs
	// holding them.
	Values int64 `json:"values"`
	Runs   int64 `json:"runs"`
	// RawBytes/EncBytes compare the 8-bytes-per-value raw layout against the
	// run encoding; Saved is their difference (negative = incompressible).
	RawBytes int64 `json:"raw_bytes"`
	EncBytes int64 `json:"enc_bytes"`
	Saved    int64 `json:"saved"`
}

// GroupBucket is one bar of the groups-per-vertex histogram: Vertices
// executed vertices carry exactly Groups rank groups.
type GroupBucket struct {
	Groups   int `json:"groups"`
	Vertices int `json:"vertices"`
}

// Analysis is the full structural breakdown of one merged trace.
type Analysis struct {
	Summary Summary `json:"summary"`
	// Leaves lists comm leaves in GID order (root included when it holds
	// records: Init/Finalize live there).
	Leaves []LeafRow `json:"leaves"`
	// Strides lists loop/branch-arm/recursive-call vertices with control
	// vectors, in GID order.
	Strides []StrideRow `json:"strides,omitempty"`
	// GroupHist is the groups-per-vertex distribution over executed vertices,
	// in ascending group-count order (1 group = perfectly SPMD-uniform).
	GroupHist []GroupBucket `json:"group_hist"`
}

// Analyze derives the structural breakdown of m. The result depends only on
// the merged data, never on merge schedule or timing.
func Analyze(m *merge.Merged) *Analysis {
	// A projected tree (corpus GetProjected, merge.DecodeSelectAuto) holds
	// only its selection's groups, so its tally counts those alone.
	a := &Analysis{}
	a.Summary.NumRanks = m.NumRanks
	a.Summary.EventCount = m.EventCount
	a.Summary.Vertices = len(m.Entries)
	groupsOf := map[int]int{}
	keys := map[fp.Hash]struct{}{}   // distinct invariant keys of the vertex at hand
	shapes := map[fp.Hash]struct{}{} // distinct replay shapes
	for gid, es := range m.Entries {
		if len(es) == 0 {
			continue
		}
		v := m.Tree.ByGID[gid]
		a.Summary.ExecutedVertices++
		a.Summary.Groups += len(es)
		groupsOf[len(es)]++

		var leaf LeafRow
		var st StrideRow
		clear(keys)
		clear(shapes)
		for _, e := range es {
			keys[e.Data.InvariantKey()] = struct{}{}
			shapes[e.Data.ShapeKey()] = struct{}{}
			nr := e.Ranks.Len()
			a.Summary.SizeBytes += e.Data.SizeBytes() + e.Ranks.SizeBytes()
			for _, r := range e.Data.Records() {
				leaf.Records++
				leaf.Events += r.Count * int64(nr)
				if r.Peers != nil {
					leaf.Patterns++
				} else if r.RelEncoded {
					leaf.RelEncoded++
				}
				leaf.Bytes += r.SizeBytes()
			}
			if c := e.Data.Counts(); c != nil && c.Len() > 0 {
				st.Values += c.Len()
				st.Runs += int64(c.RunCount())
				st.RawBytes += c.RawBytes()
				st.EncBytes += c.SizeBytes()
			}
		}
		a.Summary.Records += leaf.Records
		if leaf.Records > 0 {
			leaf.GID = int32(gid)
			leaf.Op = leafOp(v)
			leaf.Groups = len(es)
			leaf.Keys = len(keys)
			leaf.Shapes = len(shapes)
			leaf.Ratio = ratio(leaf.Events, leaf.Records)
			leaf.Ranks = es[0].Ranks.String()
			if len(es) > 1 {
				leaf.Ranks += fmt.Sprintf(" +%d more", len(es)-1)
			}
			a.Leaves = append(a.Leaves, leaf)
		}
		if st.Values > 0 {
			st.GID = int32(gid)
			st.Kind = v.Kind.String()
			st.Saved = st.RawBytes - st.EncBytes
			a.Strides = append(a.Strides, st)
		}
	}
	a.Summary.EventsPerRecord = ratio(a.Summary.EventCount, a.Summary.Records)
	maxG := 0
	for g := range groupsOf {
		if g > maxG {
			maxG = g
		}
	}
	for g := 1; g <= maxG; g++ {
		if n := groupsOf[g]; n > 0 {
			a.GroupHist = append(a.GroupHist, GroupBucket{Groups: g, Vertices: n})
		}
	}
	return a
}

// leafOp names the operation a record-bearing vertex holds.
func leafOp(v *cst.Vertex) string {
	if v.Kind == cst.KindComm {
		return v.Op.String()
	}
	return v.Kind.String() // root: Init/Finalize records
}

func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// WriteJSON writes the analysis as indented JSON.
func (a *Analysis) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// WriteText renders the analysis as aligned tables (the Table-3-style
// breakdown the paper reports).
func (a *Analysis) WriteText(w io.Writer) error {
	s := a.Summary
	fmt.Fprintf(w, "trace: %d ranks, %d events, %d/%d vertices executed\n",
		s.NumRanks, s.EventCount, s.ExecutedVertices, s.Vertices)
	fmt.Fprintf(w, "       %d groups, %d records, %.1f events/record, ~%d bytes\n",
		s.Groups, s.Records, s.EventsPerRecord, s.SizeBytes)

	if len(a.Leaves) > 0 {
		fmt.Fprintf(w, "\nleaves:\n")
		fmt.Fprintf(w, "  %6s %-12s %7s %5s %6s %8s %10s %8s %5s %5s %9s  %s\n",
			"gid", "op", "groups", "keys", "shapes", "records", "events", "ratio", "rel", "pat", "bytes", "ranks")
		for _, l := range a.Leaves {
			fmt.Fprintf(w, "  %6d %-12s %7d %5d %6d %8d %10d %8.1f %5d %5d %9d  %s\n",
				l.GID, l.Op, l.Groups, l.Keys, l.Shapes, l.Records, l.Events, l.Ratio,
				l.RelEncoded, l.Patterns, l.Bytes, l.Ranks)
		}
	}
	if len(a.Strides) > 0 {
		fmt.Fprintf(w, "\nstride vectors:\n")
		fmt.Fprintf(w, "  %6s %-8s %10s %8s %10s %10s %10s\n",
			"gid", "kind", "values", "runs", "raw_b", "enc_b", "saved")
		for _, st := range a.Strides {
			fmt.Fprintf(w, "  %6d %-8s %10d %8d %10d %10d %10d\n",
				st.GID, st.Kind, st.Values, st.Runs, st.RawBytes, st.EncBytes, st.Saved)
		}
	}
	if len(a.GroupHist) > 0 {
		fmt.Fprintf(w, "\nrank groups per executed vertex:\n")
		for _, b := range a.GroupHist {
			fmt.Fprintf(w, "  %3d group(s): %5d vertices\n", b.Groups, b.Vertices)
		}
	}
	return nil
}
