package ctt

// arenaChunk is the allocation granularity of RecordArena.
const arenaChunk = 256

// RecordArena is a chunked allocator for record lists, used by the streaming
// decoder. The decoder knows each vertex's record count up front, so the
// arena carves exact-length pointer slices backed by shared value chunks:
// two heap allocations per ~256 records instead of one value chunk plus one
// pointer slice per vertex.
//
// Record pointers remain stable for the lifetime of the arena (chunks are
// never moved), matching the *CommRecord aliasing the rest of the package
// relies on.
type RecordArena struct {
	recs []CommRecord  // current value chunk; len = used, cap = chunk size
	ptrs []*CommRecord // current pointer chunk; carved into returned slices
}

// Alloc returns a length-n list of pointers to n zeroed records. The
// returned slice has capacity n (appending to it never clobbers later
// allocations). Requests larger than the chunk size get a dedicated chunk.
func (a *RecordArena) Alloc(n int) []*CommRecord {
	if n == 0 {
		return nil
	}
	if cap(a.recs)-len(a.recs) < n {
		size := arenaChunk
		if n > size {
			size = n
		}
		a.recs = make([]CommRecord, 0, size)
	}
	if cap(a.ptrs)-len(a.ptrs) < n {
		size := arenaChunk
		if n > size {
			size = n
		}
		a.ptrs = make([]*CommRecord, 0, size)
	}
	rbase, pbase := len(a.recs), len(a.ptrs)
	a.recs = a.recs[:rbase+n]
	a.ptrs = a.ptrs[:pbase+n]
	out := a.ptrs[pbase : pbase+n : pbase+n]
	for i := range out {
		out[i] = &a.recs[rbase+i]
	}
	return out
}

// recordChunk is the chunk size of the compressor's recordArena: a rank
// keeps few records (an MG-512 rank about 25) and all its leaves share one
// arena, so only the rank's last chunk has unused slots.
const recordChunk = 8

// recordArena hands out one compressor's records one at a time; unlike the
// decoder, the compressor does not know a vertex's count in advance. A cycle
// fold drops records already handed out: release takes them back and alloc
// reuses them first, so the chunks hold what the trace keeps plus at most
// one fold's worth.
type recordArena struct {
	chunk  []CommRecord  // current chunk; len = slots handed out
	free   []*CommRecord // released records, zeroed
	chunks int           // chunks allocated, for MemoryBytes
}

// alloc returns a zeroed record with a stable address.
func (a *recordArena) alloc() *CommRecord {
	if n := len(a.free); n > 0 {
		r := a.free[n-1]
		a.free = a.free[:n-1]
		return r
	}
	if len(a.chunk) == cap(a.chunk) {
		a.chunk = make([]CommRecord, 0, recordChunk)
		a.chunks++
	}
	a.chunk = a.chunk[:len(a.chunk)+1]
	return &a.chunk[len(a.chunk)-1]
}

// release takes back records nothing refers to any more.
func (a *recordArena) release(rs []*CommRecord) {
	for _, r := range rs {
		*r = CommRecord{}
		a.free = append(a.free, r)
	}
}
