package trace

// Sink is the per-rank interposition interface, the analog of the paper's
// customized PMPI library plus the two instrumented structure functions
// PMPI_COMM_Structure / PMPI_COMM_Structure_Exit (paper Figure 9).
//
// The MPL interpreter drives the structure methods as control structures are
// entered and left; the MPI runtime drives Event for every communication
// call. All methods are called from the owning rank's goroutine only.
//
// Structure markers come only for the sites the pruned CST keeps: a loop,
// branch arm or call the CST dropped as comm-free runs without any (the
// compiler instruments only CST vertices, paper Figure 9).
//
// Protocol:
//   - Loops: LoopEnter once per activation, LoopIter before each iteration's
//     body, StructExit when the loop completes (possibly after 0 iterations).
//   - Branches: BranchEnter + StructExit around an executed kept arm;
//     BranchSkip when a kept if runs no kept arm — its condition selects no
//     arm (if without else) or an arm the CST pruned. The skip marker keeps
//     branch reach counters consistent for replay.
//   - Calls: CallEnter + StructExit around kept user-defined function calls.
//   - Event once per MPI call, after it completes locally.
//   - Finalize at MPI_Finalize, before the rank exits.
type Sink interface {
	LoopEnter(site int32)
	LoopIter(site int32)
	BranchEnter(site int32, arm int8)
	BranchSkip(site int32)
	CallEnter(site int32)
	StructExit()
	// CommSite announces the static call site of the next Event. The
	// instrumented binary knows each MPI invocation's call site statically;
	// this marker carries it to the compressor so the event can be filled
	// into the right CST leaf.
	CommSite(site int32)
	Event(e *Event)
	Finalize()
}

// NopSink discards everything; used to measure uninstrumented baseline cost.
type NopSink struct{}

func (NopSink) LoopEnter(int32)         {}
func (NopSink) LoopIter(int32)          {}
func (NopSink) BranchEnter(int32, int8) {}
func (NopSink) BranchSkip(int32)        {}
func (NopSink) CallEnter(int32)         {}
func (NopSink) StructExit()             {}
func (NopSink) CommSite(int32)          {}
func (NopSink) Event(*Event)            {}
func (NopSink) Finalize()               {}

// CollectorSink appends raw events to a slice, ignoring structure markers.
// It is the "no compression" tracer used by tests and the Gzip baseline.
type CollectorSink struct {
	Events []Event
}

func (c *CollectorSink) LoopEnter(int32)         {}
func (c *CollectorSink) LoopIter(int32)          {}
func (c *CollectorSink) BranchEnter(int32, int8) {}
func (c *CollectorSink) BranchSkip(int32)        {}
func (c *CollectorSink) CallEnter(int32)         {}
func (c *CollectorSink) StructExit()             {}
func (c *CollectorSink) CommSite(int32)          {}
func (c *CollectorSink) Event(e *Event)          { c.Events = append(c.Events, *e) }
func (c *CollectorSink) Finalize()               {}
