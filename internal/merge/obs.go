package merge

import (
	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
)

// sink is the package's attached metrics sink. nil (the default) disables
// observation. It is wired once at startup via SetObs; the reduction's worker
// goroutines only ever read it, so no synchronization is needed.
var sink *obs.Sink

// SetObs attaches a metrics sink to the merge package (reduction, codec, and
// streamer counters). Call before starting a merge; a nil sink disables
// observation. Not safe to call concurrently with a running reduction.
func SetObs(s *obs.Sink) { sink = s }

// rec is the package's attached flight recorder (merge-pair spans on the
// "merge" track, codec spans on "codec", skeleton/memo events on "replay").
// nil (the default) records nothing. Same wiring discipline as sink.
var rec *ftrace.Recorder

// SetTrace attaches a flight recorder to the merge package. Call before
// starting a merge; nil disables recording. Not safe to call concurrently
// with a running reduction.
func SetTrace(r *ftrace.Recorder) { rec = r }

// NameMemoHit arg1 annotations: which memo level answered a replay class
// lookup.
const (
	memoHitRank  = 0 // the rank's own cached class pointer
	memoHitClass = 1 // a structural class first resolved by another rank
)

// flush folds the mergeState's locally-accumulated per-Pair tallies into the
// sink in one batch. The hot entry loops bump plain int64 fields — no atomics,
// no nil checks beyond this single call — so instrumentation stays invisible
// on the per-record fast paths.
func (st *mergeState) flush() {
	if sink == nil {
		return
	}
	sink.Add(obs.MergeFPRelHits, st.fpRelHits)
	sink.Add(obs.MergeFPAbsHits, st.fpAbsHits)
	sink.Add(obs.MergeKeyRejects, st.keyRejects)
	sink.Add(obs.MergeExhaustiveWalks, st.walks)
	sink.Add(obs.MergeEntriesUnmerged, st.unmerged)
	sink.Add(obs.MergePoisonings, st.poisonings)
}
