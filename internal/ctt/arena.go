package ctt

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
