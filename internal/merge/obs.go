package merge

import "repro/internal/obs"

// NameMemoHit arg1 annotations: which memo level answered a replay class
// lookup.
const (
	memoHitRank  = 0 // the rank's own cached class pointer
	memoHitClass = 1 // a structural class first resolved by another rank
)

// flush folds the mergeState's locally-accumulated per-Pair tallies into the
// attached sink in one batch. The hot entry loops bump plain int64 fields —
// no atomics, no nil checks beyond this single call — so instrumentation
// stays invisible on the per-entry probe loops.
func (st *mergeState) flush() {
	sink := obs.Attached()
	if sink == nil {
		return
	}
	sink.Add(obs.MergeKeyRejects, st.keyRejects)
	sink.Add(obs.MergeWalks, st.walks)
	sink.Add(obs.MergeWalkRejects, st.walkRejects)
	sink.Add(obs.MergeEntriesUnmerged, st.unmerged)
	sink.Add(obs.MergePoisonings, st.poisonings)
}
