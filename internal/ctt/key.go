// Keys for the inter-process merge and for replay.
//
// InvariantKey folds exactly the fields merge.compatible requires equal under
// EITHER peer encoding — control vectors, cycles, record count, and per
// record the operation signature, run length, wildcard flag, request list,
// pattern period (p2p: the pattern's Period, or that there is none) or
// absolute peer (collectives) — and nothing an encoding decides (PeerRel, a
// plain p2p record's peer, the RelEncoded/RelUnsafe marks) or compatible
// ignores (time statistics and their storage shape). A pattern period is not
// an encoding: recordCompatible accepts a pattern pair only through
// PeerPattern.Equal, which compares Period verbatim, so compatible patterns
// have equal periods whether or not a period is minimal. Compatible payloads
// therefore always have equal keys, so unequal keys PROVE incompatibility:
// the merge rejects on a key mismatch and walks (compatible) on a match, and
// a key can only say no. And because unification only rewrites fields the
// key excludes (it never writes Peers), a payload's key never changes for
// the life of the reduction, so it is memoized on the payload without an
// invalidation path. What the key cannot separate is a plain p2p peer, which
// has two encodings.
//
// ShapeKey is for decompression rather than the merge. It folds exactly what
// the replay walk reads of a payload — the control vectors, cycles and
// record count of hashControl, and each record's run length — and nothing the
// walk only copies into an event (operation, size, tag, peer, requests,
// timing). Payloads of one vertex that are SameShape make the walk take the
// same decisions, so the ranks holding them can share one replay skeleton
// (merge.Streamer); the key routes, SameShape confirms.
package ctt

import "repro/internal/fp"

// hashSignature folds what every unification requires equal whatever the peer
// encoding: the operation signature, run length, the caller's flag word and
// the request list.
func (r *CommRecord) hashSignature(h fp.Hash, flags uint64) fp.Hash {
	e := &r.Ev
	h = h.Int(int64(e.Op)).Int(int64(e.Size)).Int(int64(e.Tag)).
		Int(int64(e.Comm)).Int(r.Count).Word(flags)
	h = h.Word(uint64(len(e.Reqs)))
	for _, q := range e.Reqs {
		h = h.Int(int64(q))
	}
	return h
}

// hashInvariant folds the record's share of InvariantKey: the signature, and
// the peer facts both encodings agree on — a p2p record's pattern period (or
// that it has none), which absolute peer a collective names.
func (r *CommRecord) hashInvariant(h fp.Hash) fp.Hash {
	var flags uint64
	if r.Ev.Wildcard {
		flags |= 1
	}
	if !r.Ev.Op.IsPointToPoint() {
		return r.hashSignature(h, flags).Int(int64(r.Ev.Peer))
	}
	if r.Peers != nil {
		return hashPattern(r.hashSignature(h, flags|8), r.Peers)
	}
	return r.hashSignature(h, flags)
}

// hashPattern folds a peer-pattern's smallest period, the exact value
// PeerPattern.Equal compares.
func hashPattern(h fp.Hash, p *PeerPattern) fp.Hash {
	h = h.Word(uint64(len(p.Period)))
	for _, v := range p.Period {
		h = h.Int(int64(v))
	}
	return h
}

// hashControl folds the control-flow payload and record/cycle shape shared by
// the invariant key and the shape key.
func (d VData) hashControl(h fp.Hash) fp.Hash {
	// Manual empty-vector fold: comm leaves — the bulk of all vertices —
	// have no control vector, and the single length word the Hash method
	// would fold is cheaper produced inline than via the call.
	if d.ctlLen() == 0 {
		h = h.Word(0)
	} else {
		h = d.Ctl.Vector.Hash(h)
	}
	cycles := d.Cycles()
	h = h.Word(uint64(len(cycles)))
	for _, c := range cycles {
		h = h.Word(uint64(c.Start)).Word(uint64(c.Len)).Int(c.Reps)
	}
	return h.Word(uint64(len(d.Records())))
}

// InvariantKey returns the payload's encoding-invariant key (see the file
// header): payloads merge.compatible accepts have equal keys, and no
// unification changes a payload's key.
func (d VData) InvariantKey() fp.Hash {
	h := d.hashControl(fp.New())
	for _, r := range d.Records() {
		h = r.hashInvariant(h)
	}
	return h
}

// InvariantKeyCached returns InvariantKey, memoized on the payload: its Leaf
// or its Ctl. It is for finished vertex data only, and needs no
// invalidation, since unification leaves the key alone. The memo reads 0
// until it is computed, so a key that hashes to 0 is recomputed at every
// call: slower, never wrong.
func (d VData) InvariantKeyCached() fp.Hash {
	var memo *fp.Hash
	switch {
	case d.Leaf != nil && d.Ctl == nil:
		memo = &d.Leaf.key
	case d.Ctl != nil && d.Leaf == nil:
		memo = &d.Ctl.key
	default:
		return d.InvariantKey()
	}
	if *memo == 0 {
		*memo = d.InvariantKey()
	}
	return *memo
}

// ShapeKey returns the payload's replay-shape key (see the file header):
// payloads that are SameShape have equal keys.
func (d VData) ShapeKey() fp.Hash {
	h := d.hashControl(fp.New())
	for _, r := range d.Records() {
		h = h.Int(r.Count)
	}
	return h
}

// CtlEqual reports whether d and o hold equal control vectors, run-wise as
// stride.Vector.Equal compares; a missing vector equals an empty one.
func (d VData) CtlEqual(o VData) bool {
	if d.Ctl == nil || o.Ctl == nil {
		return d.ctlLen() == 0 && o.ctlLen() == 0
	}
	return d.Ctl.Vector.Equal(&o.Ctl.Vector)
}

// SameShape reports whether d and o agree on everything the replay walk
// reads: the control vector, Cycles, the number of records and each record's
// Count. The vectors compare run-wise, as stride.Vector.Equal does, so two
// decoded payloads that spell one sequence in different runs are not the same
// shape — which costs a shared skeleton, never a wrong one.
func (d VData) SameShape(o VData) bool {
	dr, or := d.Records(), o.Records()
	dc, oc := d.Cycles(), o.Cycles()
	if len(dr) != len(or) || len(dc) != len(oc) || !d.CtlEqual(o) {
		return false
	}
	for i, c := range dc {
		if c != oc[i] {
			return false
		}
	}
	for i, r := range dr {
		if r.Count != or[i].Count {
			return false
		}
	}
	return true
}
