// Package fp implements the 64-bit structural fingerprint fold behind the
// merge's invariant key, the replay shape key and the corpus class and
// content keys: a splitmix64-style pre-mix of each word followed by an
// FNV-1a-style combine. The pre-mix spreads the small integers that dominate
// trace data (ranks, tags, sizes, run counts) across the whole word before
// combining, so sequences differing only in low bits still diverge across the
// full 64-bit state.
//
// No consumer takes fingerprint equality for structural equality: an unequal
// merge key proves two payloads incompatible and an equal one only sends the
// pair to the record walk (DESIGN.md "Keyed merge"), a shape key routes and
// an element-wise compare confirms, and corpus ingest checks every
// reconstruction byte for byte.
package fp

import "encoding/binary"

// Hash is an accumulating 64-bit fingerprint state. Fold values with Word,
// Int, and Bool; the zero value is NOT a valid initial state — use New.
type Hash uint64

const (
	offset64 Hash   = 14695981039346656037
	prime64  Hash   = 1099511628211
	mixA     uint64 = 0xbf58476d1ce4e5b9 // splitmix64 finalizer constants
)

// New returns the initial fold state.
func New() Hash { return offset64 }

// Word folds one 64-bit word into the state.
func (h Hash) Word(x uint64) Hash {
	x ^= x >> 30
	x *= mixA
	x ^= x >> 27
	return (h ^ Hash(x)) * prime64
}

// Int folds a signed value.
func (h Hash) Int(x int64) Hash { return h.Word(uint64(x)) }

// Bool folds a flag.
func (h Hash) Bool(b bool) Hash {
	if b {
		return h.Word(1)
	}
	return h.Word(0)
}

// Bytes folds a byte slice into the state: 8-byte little-endian words, a
// zero-padded tail word, and finally the length, so slices that differ only
// in trailing zero bytes (or in length) still diverge. One Bytes call folds
// one logical value — chaining calls over a split buffer is not equivalent to
// folding the concatenation, by design (each call seals its length). A value
// that arrives in pieces folds through a Stream.
func (h Hash) Bytes(b []byte) Hash {
	n := len(b)
	for len(b) >= 8 {
		h = h.Word(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		h = h.Word(binary.LittleEndian.Uint64(tail[:]))
	}
	return h.Word(uint64(n))
}

// Stream folds one byte sequence handed over in pieces: after any split of b
// into Writes, Sum equals the Bytes fold of b onto the state the Stream
// started from. It holds back at most one partial word between Writes.
type Stream struct {
	h    Hash
	n    uint64  // bytes written
	tail [8]byte // the partial word, tail[:n%8]
}

// NewStream returns a Stream whose Sum over b is New().Bytes(b).
func NewStream() Stream { return Stream{h: offset64} }

// Write folds b, the next piece of the sequence.
func (s *Stream) Write(b []byte) {
	if k := int(s.n % 8); k > 0 {
		c := copy(s.tail[k:], b)
		s.n += uint64(c)
		b = b[c:]
		if k+c < 8 {
			return
		}
		s.h = s.h.Word(binary.LittleEndian.Uint64(s.tail[:]))
	}
	s.n += uint64(len(b))
	for len(b) >= 8 {
		s.h = s.h.Word(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	copy(s.tail[:], b)
}

// Sum is the fold of everything written so far, sealed as Bytes seals it:
// the zero-padded partial word, then the length. Writing may go on after it.
func (s *Stream) Sum() Hash {
	h := s.h
	if k := s.n % 8; k > 0 {
		var w [8]byte
		copy(w[:], s.tail[:k])
		h = h.Word(binary.LittleEndian.Uint64(w[:]))
	}
	return h.Word(s.n)
}
