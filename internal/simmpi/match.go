package simmpi

// matchKey identifies one point-to-point match chain inside a destination's
// match table: messages from one source rank carrying one tag. The
// destination is implicit in the table index, so every destination hashes
// over a map holding only its own senders. Source and tag (32-bit quantities
// in MPI) pack into one word so the maps take Go's 64-bit key fast path
// instead of hashing and comparing a two-int struct — the map access is the
// engine's hottest instruction sequence once completions match.
type matchKey uint64

func mkKey(src, tag int) matchKey {
	return matchKey(uint64(uint32(src))<<32 | uint64(uint32(tag)))
}

// msgQueue is a FIFO of in-flight message arrival times. Pointer-valued map
// entries keep the hot send/recv path at one map lookup per operation: push
// and pop mutate the queue in place, where a value-slice map would pay a
// second hash for the re-assign on every push and every pop.
type msgQueue struct {
	buf  []float64
	head int
}

func (q *msgQueue) push(t float64) { q.buf = append(q.buf, t) }

func (q *msgQueue) len() int { return len(q.buf) - q.head }

func (q *msgQueue) pop() float64 {
	t := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head >= 32 && q.head*2 >= len(q.buf) {
		// Reclaim the popped prefix once it dominates the buffer; without
		// this, a queue that never fully drains (producer staying one step
		// ahead of the consumer) grows its buffer by the *total* message
		// count instead of the peak in-flight depth. The copy moves at most
		// as many elements as were popped since the last compaction, so
		// pushes and pops stay amortized O(1).
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return t
}

// matchShard is one destination rank's match table: (source, tag)-keyed FIFO
// queues of in-flight arrival times. Senders push in their program order and
// the destination pops in its own, so the i-th send on a key pairs with the
// i-th receive, as MPI's non-overtaking rule requires.
type matchShard struct {
	q map[matchKey]*msgQueue
}

// chain returns k's FIFO, creating it empty on first use. A chain is never
// removed, so a receive posted on it may hold the pointer until completion.
func (s *matchShard) chain(k matchKey) *msgQueue {
	q := s.q[k]
	if q == nil {
		q = &msgQueue{}
		s.q[k] = q
	}
	return q
}

// push appends an arrival time to k's FIFO and returns the depth after the
// push (for the queue-depth histogram).
func (s *matchShard) push(k matchKey, t float64) int {
	q := s.chain(k)
	q.push(t)
	return q.len()
}

// tryPop removes and returns the head arrival for k, if one is queued.
func (s *matchShard) tryPop(k matchKey) (float64, bool) {
	q := s.q[k]
	if q == nil || q.len() == 0 {
		return 0, false
	}
	return q.pop(), true
}
