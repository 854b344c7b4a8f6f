// Package blockio implements the CYPB block-compressed container: a framed,
// indexed wrapper that splits an arbitrary payload stream (in this repo, the
// CYPR merged-trace encoding) into fixed-target-size frames, compresses each
// frame independently with raw deflate, and appends a varint frame index in a
// footer. Because frames are independent, encoding fans out across a bounded
// worker pool (Writer) — the last single-threaded stage of the pipeline, byte
// serialization, becomes block-parallel the way Recorder-style tracing
// systems and pgzip do it. The read side is one function over a file held in
// memory, Unwrap, which also strips the other two layers a trace file can
// wear (none, gzip); Scan and ReadRange read one piece of a container on disk.
//
// Container layout (all integers varint unless noted):
//
//	"CYPB"  4-byte magic
//	version         (currently 1)
//	frame target    (most uncompressed bytes the writer put in one frame)
//	frame*          repeated, in payload order:
//	    usize+1     uncompressed frame length plus one (0 terminates)
//	    csize       compressed length
//	    crc         CRC-32 (IEEE) of the uncompressed frame bytes
//	    csize bytes of raw deflate data
//	0               body terminator
//	footer index:
//	    nframes
//	    per frame: offset (from container start), usize, csize, crc
//	footerLen       8-byte little-endian length of the footer index
//	"BPYC"  4-byte trailing magic
//
// The trailing fixed-width length plus magic make the index reachable from
// the end of the file, so Unwrap reads a container footer-first: the index
// sizes the payload and locates every frame before any byte is inflated, each
// frame header is checked against its index entry, and the frames must tile
// the span between header and footer exactly — a mangled index is an error
// even when every frame would inflate.
//
// Frame boundaries: a frame ends when it holds FrameSize bytes or where the
// writer's caller says so (Writer.Cut, a no-op on an empty frame). The layout
// does not record which, so a reader that predates Cut accepts a cut container
// like any other: frames of any length up to the target, tiling the payload.
// What a cut buys is on the read side: Scan keeps the frame table and
// Index.ReadRange inflates just the frames covering a payload range — exactly
// the range, when the writer cut at both its ends.
//
// Determinism: the boundaries are a function of FrameSize and the payload
// offsets at which Cut was called (the Cut positions are part of the input)
// and each frame is compressed at the fixed flateLevel, so the
// emitted container is byte-identical for that input regardless of the worker
// count or the caller's Write chunking. Reads inflate on the caller's
// goroutine.
package blockio

// Magic is the 4-byte container header magic.
var Magic = [4]byte{'C', 'Y', 'P', 'B'}

// trailerMagic closes the container; its reversal of Magic makes a truncated
// copy detectable from either end.
var trailerMagic = [4]byte{'B', 'P', 'Y', 'C'}

const (
	version = 1

	// DefaultFrameSize is the target uncompressed frame length. 128KB is
	// large enough that deflate's window (32KB) sees essentially the same
	// context it would in a single stream — the size penalty versus one gzip
	// member stays in the low percents — while still cutting a paper-scale
	// trace into enough frames to occupy a small worker pool.
	DefaultFrameSize = 128 << 10

	// maxFrameSize bounds declared frame lengths (compressed and
	// uncompressed). Frame headers are untrusted input: a few bytes can
	// declare a multi-gigabyte frame, so anything implausibly large is an
	// error before any buffer is sized to it.
	maxFrameSize = 1 << 27

	// maxFrames bounds the declared frame count in the footer.
	maxFrames = 1 << 24

	// maxInflate is deflate's best possible expansion (1032:1, one bit of
	// literal/length code plus one of distance code per 258-byte match): a
	// frame declaring more payload than its compressed bytes could produce is
	// refused before the payload buffer is sized to the claim.
	maxInflate = 1032

	// trailerLen is the fixed-width container suffix: the 8-byte footer
	// length plus the trailing magic.
	trailerLen = 12
)

// frameMeta is one frame's index entry as the writer tracks it for the footer.
type frameMeta struct {
	off   int64  // container offset of the frame's usize+1 header
	usize uint32 // uncompressed length
	csize uint32 // compressed length
	crc   uint32 // CRC-32 (IEEE) of the uncompressed bytes
}
