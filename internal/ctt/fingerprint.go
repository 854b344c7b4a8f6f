// Fingerprints for merge-time hash-consing of vertex data.
//
// The inter-process merge groups rank CTTs whose vertex data is structurally
// identical. The exhaustive check (merge.compatible) walks every record of
// both payloads; the fingerprints below let the merge compare two payloads in
// O(1) instead: equal fingerprints (plus O(1) shape guards maintained by the
// caller) imply the exhaustive walk would succeed, with the SAME per-record
// relative/absolute unification decisions. A fingerprint mismatch decides
// nothing — the merge falls back to the exhaustive walk — so fingerprinting
// is purely an accelerator and cannot change grouping.
//
// Two fingerprints per payload, mirroring the two ways point-to-point records
// unify (paper Section IV-B):
//
//   - FingerprintRel folds each record under its rel-unification class: the
//     constant offset PeerRel for plain and rel-encoded p2p records, the
//     cyclic offset period for peer-pattern records, and the absolute peer
//     for collectives and for records poisoned RelUnsafe. Equal rel
//     fingerprints mean every record pair unifies exactly as the exhaustive
//     walk would (see the class-tag analysis in DESIGN.md).
//   - FingerprintAbs folds absolute peers for p2p records instead. It is
//     only valid while no plain p2p record is rel-encoded (once one is, its
//     absolute peer is stale); validity is returned alongside the hash.
//
// A third hash, InvariantKey, answers the opposite question. It folds exactly
// the fields merge.compatible requires equal under EITHER encoding — control
// vectors, cycles, record count, and per record the operation signature, run
// length, wildcard flag, request list, pattern period (p2p: the pattern's
// Period, or that there is none) or absolute peer (collectives) — and nothing
// an encoding decides (PeerRel, a plain p2p record's peer, the
// RelEncoded/RelUnsafe marks) or compatible ignores (stat storage shape). A
// pattern period is not an encoding: recordCompatible accepts a pattern pair
// only through PeerPattern.Equal, which compares Period verbatim, so
// compatible patterns have equal periods whether or not a period is minimal.
// Compatible payloads therefore always have equal keys, so unequal keys PROVE
// incompatibility: unlike the two fingerprints, a key mismatch is a decision.
// And because unification only rewrites fields the key excludes (it never
// writes Peers), a payload's key never changes for the life of the
// reduction, so it is memoized on the payload without an invalidation path.
// What the key cannot separate is a plain p2p peer, which has two encodings.
//
// A fourth, ShapeKey, is for decompression rather than the merge. It folds
// exactly what the replay walk reads of a payload — the control vectors,
// cycles and record count of hashControl, and each record's run length —
// and nothing the walk only copies into an event (operation, size, tag, peer,
// requests, timing). Payloads of one vertex that are SameShape make the walk
// take the same decisions, so the ranks holding them can share one replay
// skeleton (merge.Streamer); the key routes, SameShape confirms.
//
// Volatile payload — the time statistics folded together by unification — is
// deliberately excluded (only the storage shape is folded, so histogram and
// moment-only records defer to the exhaustive path instead of fast-merging
// and silently dropping a histogram... which the exhaustive path would also
// do; excluding shape entirely would be equally lossless, but folding it
// keeps the fast path byte-for-byte aligned with existing behavior).
package ctt

import "repro/internal/fp"

// Fingerprint class tags. Distinct classes must never fast-match each other
// unless the exhaustive walk would unify them identically, so classes that
// ARE mutually rel-unifiable (plain and rel-encoded p2p records with the
// same PeerRel) deliberately share fpClassRel.
const (
	fpClassCollective = 1 // non-p2p: unifies only on equal absolute Peer
	fpClassPattern    = 2 // peer-pattern: unifies on equal offset period
	fpClassRel        = 3 // p2p, rel-capable: unifies on equal PeerRel
	fpClassAbsOnly    = 4 // p2p, RelUnsafe: unifies only on equal Peer
	fpClassAbsPeer    = 5 // p2p under the absolute fingerprint
)

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

// hashCommon folds the parameters every unification class requires to match:
// the full operation signature, run length, request list, and stat shape.
// The four booleans (wildcard, the two stat storage shapes, pattern
// presence) pack into disjoint bits of one word — injective, and three
// fewer mix rounds per record on the FromRank hot path.
func (r *CommRecord) hashCommon(h fp.Hash) fp.Hash {
	var flags uint64
	if r.Ev.Wildcard {
		flags |= 1
	}
	if r.Time.Hist != nil {
		flags |= 2
	}
	if r.Compute.Hist != nil {
		flags |= 4
	}
	if r.Peers != nil {
		flags |= 8
	}
	return r.hashSignature(h, flags)
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

// HashRel folds the record under its relative-unification class.
func (r *CommRecord) HashRel(h fp.Hash) fp.Hash {
	h = r.hashCommon(h)
	switch {
	case !r.Ev.Op.IsPointToPoint():
		return h.Word(fpClassCollective).Int(int64(r.Ev.Peer))
	case r.Peers != nil:
		return hashPattern(h.Word(fpClassPattern), r.Peers)
	case r.RelUnsafe:
		return h.Word(fpClassAbsOnly).Int(int64(r.Ev.Peer))
	default:
		// Plain and rel-encoded records share the class: either pairing
		// rel-unifies on equal PeerRel. (Two plain records with equal PeerRel
		// and equal absolute Peer would abs-unify instead, but plain records
		// only survive in single-rank groups — any merge rel-encodes or
		// poisons them — and distinct ranks with equal PeerRel force distinct
		// absolute peers, so the case cannot arise.)
		return h.Word(fpClassRel).Int(int64(r.PeerRel))
	}
}

// HashAbs folds the record under the absolute-unification class. ok is false
// when the record is a rel-encoded plain p2p record, whose absolute peer is
// stale; the caller must then avoid the absolute fast path entirely.
func (r *CommRecord) HashAbs(h fp.Hash) (_ fp.Hash, ok bool) {
	h = r.hashCommon(h)
	switch {
	case !r.Ev.Op.IsPointToPoint():
		return h.Word(fpClassCollective).Int(int64(r.Ev.Peer)), true
	case r.Peers != nil:
		// Pattern records unify by period under both encodings; a
		// rel-encoded mark on a pattern record is irrelevant to matching.
		return hashPattern(h.Word(fpClassPattern), r.Peers), true
	case r.RelEncoded:
		return h, false
	default:
		// Plain and RelUnsafe records share the class: either pairing
		// abs-unifies on equal absolute Peer (poisoning is the caller's job).
		return h.Word(fpClassAbsPeer).Int(int64(r.Ev.Peer)), true
	}
}

// SpanRel returns the whole-tree relative fingerprint of the rank's executed
// vertices: for each vertex holding dynamic data, in GID order, the vertex
// id, an entry count of one, and the payload's relative fingerprint. This is
// exactly the merge's single-rank tree summary (the schema of
// merge.refreshSummary), memoized on the CTT alongside the per-vertex
// fingerprints it folds — each rank hashes its own finished tree once, and
// the reduction never recomputes leaf summaries. Staleness after merge-time
// poisoning is harmless: the span only routes tree pairs toward or away from
// the entry-level fast path, and every entry-level merge decision re-checks
// per-payload fingerprints or falls back to the exhaustive walk.
func (c *RankCTT) SpanRel() fp.Hash {
	if !c.spanOK {
		h := fp.New()
		for gid := range c.Data {
			d := &c.Data[gid]
			if !d.Executed() {
				continue
			}
			h = h.Word(uint64(gid)).Word(1).Word(uint64(d.FingerprintRelCached()))
		}
		c.span = h
		c.spanOK = true
	}
	return c.span
}

// hashControl folds the control-flow payload and record/cycle shape shared by
// both fingerprints and the invariant key.
func (d *VData) hashControl(h fp.Hash) fp.Hash {
	// Manual empty-vector folds: comm leaves — the bulk of all vertices —
	// have empty Counts and Taken, and the single length word the Hash
	// method would fold is cheaper produced inline than via the call.
	if d.Counts.Len() == 0 {
		h = h.Word(0)
	} else {
		h = d.Counts.Hash(h)
	}
	if d.Taken.Len() == 0 {
		h = h.Word(0)
	} else {
		h = d.Taken.Vector.Hash(h)
	}
	h = h.Word(uint64(len(d.Cycles)))
	for _, c := range d.Cycles {
		h = h.Word(uint64(c.Start)).Word(uint64(c.Len)).Int(c.Reps)
	}
	return h.Word(uint64(len(d.Records)))
}

// FingerprintRel returns the payload's relative-unification fingerprint.
func (d *VData) FingerprintRel() fp.Hash {
	h := d.hashControl(fp.New())
	for _, r := range d.Records {
		h = r.HashRel(h)
	}
	return h
}

// FingerprintRelCached returns FingerprintRel, memoized on the payload.
//
// Rank trees are fingerprinted once when collection finalizes them, not once
// per merge: in the distributed setting each rank hashes its own tree before
// the gather, so the reduction should never recompute leaf fingerprints
// serially. The memo stays valid across rel-encoding — plain and rel-encoded
// p2p records share fpClassRel, so marking a record RelEncoded does not move
// its fold — and across stat merging, which touches only volatile payload the
// fingerprint excludes. The one mutation that does move a record's class,
// RelUnsafe poisoning, must call InvalidateFingerprint first. Callers must
// not use this on vertex data still being appended to.
func (d *VData) FingerprintRelCached() fp.Hash {
	if !d.fpcOK {
		d.fpc = d.FingerprintRel()
		d.fpcOK = true
	}
	return d.fpc
}

// InvalidateFingerprint drops the memoized relative fingerprint after a
// mutation that changes it (the merge's RelUnsafe poisoning).
func (d *VData) InvalidateFingerprint() { d.fpcOK = false }

// FingerprintAbs returns the payload's absolute-unification fingerprint; ok
// is false when any record's absolute peer is stale (rel-encoded).
func (d *VData) FingerprintAbs() (_ fp.Hash, ok bool) {
	h := d.hashControl(fp.New())
	for _, r := range d.Records {
		var rok bool
		h, rok = r.HashAbs(h)
		if !rok {
			return 0, false
		}
	}
	return h, true
}

// InvariantKey returns the payload's encoding-invariant key (see the file
// header): payloads merge.compatible accepts have equal keys, and no
// unification changes a payload's key.
func (d *VData) InvariantKey() fp.Hash {
	h := d.hashControl(fp.New())
	for _, r := range d.Records {
		h = r.hashInvariant(h)
	}
	return h
}

// InvariantKeyCached returns InvariantKey, memoized on the payload. Like
// FingerprintRelCached it is for finished vertex data only; unlike it, it
// needs no invalidation, since unification leaves the key alone.
func (d *VData) InvariantKeyCached() fp.Hash {
	if !d.keyOK {
		d.key = d.InvariantKey()
		d.keyOK = true
	}
	return d.key
}

// ShapeKey returns the payload's replay-shape key (see the file header):
// payloads that are SameShape have equal keys.
func (d *VData) ShapeKey() fp.Hash {
	h := d.hashControl(fp.New())
	for _, r := range d.Records {
		h = h.Int(r.Count)
	}
	return h
}

// SameShape reports whether d and o agree on everything the replay walk
// reads: Counts, Taken, Cycles, the number of records and each record's
// Count. The vectors compare run-wise, as stride.Vector.Equal does, so two
// decoded payloads that spell one sequence in different runs are not the same
// shape — which costs a shared skeleton, never a wrong one.
func (d *VData) SameShape(o *VData) bool {
	if len(d.Records) != len(o.Records) || len(d.Cycles) != len(o.Cycles) ||
		!d.Counts.Equal(&o.Counts) || !d.Taken.Vector.Equal(&o.Taken.Vector) {
		return false
	}
	for i, c := range d.Cycles {
		if c != o.Cycles[i] {
			return false
		}
	}
	for i, r := range d.Records {
		if r.Count != o.Records[i].Count {
			return false
		}
	}
	return true
}
