package ctt

import "repro/internal/trace"

// reqTable maps live (outstanding) non-blocking request ids to their poster's
// CST leaf GID and, for wildcard receives, to a cached event awaiting source
// resolution at completion time.
//
// Request ids are rank-local monotonically increasing sequence numbers, and
// the set of ids live at any instant is small — bounded by the number of
// outstanding non-blocking operations, not by the run length. A map keyed by
// id therefore pays hashing plus (for the wildcard cache) one heap-allocated
// event per cached receive, on the hottest path of the tracer. The table is
// instead a power-of-two ring indexed by id&mask: insert, lookup and delete
// are one shift-free index plus a compare, and never allocate in steady
// state. A slot occupied by a *different* live id (only possible when one
// request stays open while a full ring of newer ones is issued) falls back to
// a small map, so correctness never depends on the ring geometry.
//
// Cached wildcard events live in a recycled slot array (freelist), so a
// steady stream of wildcard receives reuses the same storage instead of
// allocating one event per receive.

type reqSlot struct {
	id   int32 // -1 = empty
	gid  int32
	wild int32 // index+1 into wildSlots; 0 = no cached wildcard event
}

type reqTable struct {
	slots []reqSlot
	mask  int32
	live  int // live requests in ring + overflow

	wildSlots []trace.Event
	freeWild  []int32
	wildLive  int // cached wildcard events in slots + overflow

	overflowGID  map[int32]int32
	overflowWild map[int32]trace.Event
}

const reqTableInitSize = 64

func (t *reqTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size < reqTableInitSize {
		size = reqTableInitSize
	}
	t.slots = make([]reqSlot, size)
	for i := range t.slots {
		t.slots[i].id = -1
	}
	t.mask = int32(size - 1)
	for _, s := range old {
		if s.id < 0 {
			continue
		}
		ns := &t.slots[s.id&t.mask]
		if ns.id < 0 {
			*ns = s
			continue
		}
		// Doubling collision (two live ids congruent mod the new size):
		// demote to the overflow map.
		if t.overflowGID == nil {
			t.overflowGID = map[int32]int32{}
		}
		t.overflowGID[s.id] = s.gid
		if s.wild != 0 {
			if t.overflowWild == nil {
				t.overflowWild = map[int32]trace.Event{}
			}
			t.overflowWild[s.id] = t.wildSlots[s.wild-1]
			t.freeWild = append(t.freeWild, s.wild-1)
		}
	}
}

// put registers id as posted by the leaf with the given gid.
func (t *reqTable) put(id, gid int32) {
	if id < 0 {
		panic("ctt: negative request id")
	}
	if 2*(t.live+1) > len(t.slots) {
		t.grow()
	}
	s := &t.slots[id&t.mask]
	switch s.id {
	case -1:
		*s = reqSlot{id: id, gid: gid}
		t.live++
	case id:
		s.gid = gid
	default:
		if t.overflowGID == nil {
			t.overflowGID = map[int32]int32{}
		}
		t.overflowGID[id] = gid
		t.live++
	}
}

// get returns the poster gid of a live request.
func (t *reqTable) get(id int32) (int32, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	s := &t.slots[id&t.mask]
	if s.id == id {
		return s.gid, true
	}
	gid, ok := t.overflowGID[id]
	return gid, ok
}

// del removes a live request (and any still-cached wildcard event).
func (t *reqTable) del(id int32) {
	if len(t.slots) == 0 {
		return
	}
	s := &t.slots[id&t.mask]
	if s.id == id {
		if s.wild != 0 {
			t.freeWild = append(t.freeWild, s.wild-1)
			t.wildLive--
		}
		*s = reqSlot{id: -1}
		t.live--
		return
	}
	if _, ok := t.overflowGID[id]; ok {
		delete(t.overflowGID, id)
		t.live--
		if _, w := t.overflowWild[id]; w {
			delete(t.overflowWild, id)
			t.wildLive--
		}
	}
}

// putWild caches a wildcard receive event for a request already registered
// with put. The event is copied into recycled slot storage.
func (t *reqTable) putWild(id int32, ev *trace.Event) {
	s := &t.slots[id&t.mask]
	if s.id != id {
		if t.overflowWild == nil {
			t.overflowWild = map[int32]trace.Event{}
		}
		t.overflowWild[id] = *ev
		t.wildLive++
		return
	}
	var idx int32
	if n := len(t.freeWild); n > 0 {
		idx = t.freeWild[n-1]
		t.freeWild = t.freeWild[:n-1]
	} else {
		t.wildSlots = append(t.wildSlots, trace.Event{})
		idx = int32(len(t.wildSlots) - 1)
	}
	t.wildSlots[idx] = *ev
	s.wild = idx + 1
	t.wildLive++
}

// takeWild removes the cached wildcard event of id and returns it, or nil when
// none is cached. A ring event is returned in place: it stays valid until the
// next putWild, and nothing is copied for the common request that never
// cached one.
func (t *reqTable) takeWild(id int32) *trace.Event {
	if t.wildLive == 0 {
		return nil
	}
	s := &t.slots[id&t.mask]
	if s.id == id {
		if s.wild == 0 {
			return nil
		}
		idx := s.wild - 1
		t.freeWild = append(t.freeWild, idx)
		s.wild = 0
		t.wildLive--
		return &t.wildSlots[idx]
	}
	ev, ok := t.overflowWild[id]
	if !ok {
		return nil
	}
	delete(t.overflowWild, id)
	t.wildLive--
	return &ev
}

// memoryBytes estimates the table's live memory for MemoryBytes.
func (t *reqTable) memoryBytes() int64 {
	n := int64(cap(t.slots)) * 12
	n += int64(cap(t.wildSlots)) * 120 // unsafe.Sizeof(trace.Event{})
	n += int64(cap(t.freeWild)) * 4
	n += int64(len(t.overflowGID)) * 16
	n += int64(len(t.overflowWild)) * 120
	return n
}
