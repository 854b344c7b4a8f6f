package cst

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"

	"repro/internal/lang"
	"repro/internal/trace"
)

// The paper stores the program CST "in a compressed text file". This codec
// writes one line per vertex in pre-order; child counts make the structure
// self-delimiting, so decode is a single pass.

const magic = "CYPRESS-CST v1"

// Encode writes t to w in the text format.
func (t *Tree) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s %d %s\n", magic, t.NumVertices(), t.FuncName)
	var err error
	t.Walk(func(v *Vertex, _ int) {
		if err != nil {
			return
		}
		target := int32(-1)
		if v.Target != nil {
			target = v.Target.GID
		}
		rec := 0
		if v.Recursive {
			rec = 1
		}
		ret := 0
		if v.Returns {
			ret = 1
		}
		_, err = fmt.Fprintf(bw, "%d %d %d %d %d %d %d %d %q\n",
			v.GID, v.Kind, v.Site, v.Arm, v.Op, rec, ret, target, v.Callee)
		if err != nil {
			return
		}
		_, err = fmt.Fprintf(bw, "%d\n", len(v.Children))
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// parseInt parses a decimal integer with an optional leading '-' from b.
// Hand-rolled so the decoder's per-vertex hot loop parses fields straight out
// of the read buffer, with no string conversions and none of fmt's scan-state
// machinery (formerly two thirds of a trace decode's allocations).
func parseInt(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '-' {
		if len(b) == 1 {
			return 0, false
		}
		neg = true
		i = 1
	}
	var v int64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// nextLine splits the next newline-terminated line off b, without the
// terminator; a last line may lack one. ok is false when b is empty.
func nextLine(b []byte) (line, rest []byte, ok bool) {
	if len(b) == 0 {
		return nil, nil, false
	}
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return b[:i], b[i+1:], true
	}
	return b, nil, true
}

// Decode parses a tree written by Encode; the tree must end where data does.
// The parser is hand-rolled over the line format and builds all vertices in
// one slab: decoding is part of every downstream consumer's open path
// (replay, prediction, the bench harness), so it stays allocation-lean.
func Decode(data []byte) (*Tree, error) {
	hline, data, ok := nextLine(data)
	if !ok {
		return nil, fmt.Errorf("cst: reading header: %w", io.ErrUnexpectedEOF)
	}
	header := string(hline)
	if !strings.HasPrefix(header, magic) {
		return nil, fmt.Errorf("cst: bad magic %q", strings.TrimSpace(header))
	}
	fields := strings.Fields(header[len(magic):])
	if len(fields) != 2 {
		return nil, fmt.Errorf("cst: bad header %q", strings.TrimSpace(header))
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil {
		return nil, fmt.Errorf("cst: bad header %q: %w", strings.TrimSpace(header), err)
	}
	fn := fields[1]
	if n < 1 || n > 1<<24 {
		return nil, fmt.Errorf("cst: implausible vertex count %d", n)
	}
	verts := make([]Vertex, n)
	t := &Tree{FuncName: fn, ByGID: make([]*Vertex, 0, n)}
	type pending struct {
		v         *Vertex
		remaining int
	}
	var stack []pending
	var targets map[*Vertex]int32
	for i := 0; i < n; i++ {
		var line, cline []byte
		if line, data, ok = nextLine(data); !ok {
			return nil, fmt.Errorf("cst: vertex %d: %w", i, io.ErrUnexpectedEOF)
		}
		// Eight space-separated integers, then the %q-quoted callee.
		var nums [8]int64
		for j := range nums {
			sp := bytes.IndexByte(line, ' ')
			if sp < 0 {
				return nil, fmt.Errorf("cst: vertex %d: short line", i)
			}
			v, ok := parseInt(line[:sp])
			if !ok {
				return nil, fmt.Errorf("cst: vertex %d: bad field %q", i, line[:sp])
			}
			nums[j] = v
			line = line[sp+1:]
		}
		callee := ""
		if !bytes.Equal(line, quotedEmpty) {
			if callee, err = strconv.Unquote(string(line)); err != nil {
				return nil, fmt.Errorf("cst: vertex %d: bad callee %q: %w", i, line, err)
			}
		}
		if cline, data, ok = nextLine(data); !ok {
			return nil, fmt.Errorf("cst: vertex %d child count: %w", i, io.ErrUnexpectedEOF)
		}
		nc, ok := parseInt(cline)
		if !ok || nc < 0 {
			return nil, fmt.Errorf("cst: vertex %d: bad child count %q", i, cline)
		}
		nchild := int(nc)
		gid, kind, site, arm := nums[0], nums[1], nums[2], nums[3]
		op, rec, ret, target := nums[4], nums[5], nums[6], nums[7]
		if gid != int64(i) {
			return nil, fmt.Errorf("cst: vertex %d has GID %d; file not in pre-order", i, gid)
		}
		v := &verts[i]
		*v = Vertex{
			Kind: Kind(kind), GID: int32(gid), Site: lang.NodeID(site), Arm: int8(arm),
			Op: trace.Op(op), Recursive: rec != 0, Returns: ret != 0, Callee: callee,
		}
		if target >= 0 {
			if targets == nil {
				targets = map[*Vertex]int32{}
			}
			targets[v] = int32(target)
		}
		if len(stack) == 0 {
			if i != 0 {
				return nil, fmt.Errorf("cst: multiple roots")
			}
			t.Root = v
		} else {
			top := &stack[len(stack)-1]
			top.v.addChild(v)
			top.remaining--
			for len(stack) > 0 && stack[len(stack)-1].remaining == 0 {
				stack = stack[:len(stack)-1]
			}
		}
		t.ByGID = append(t.ByGID, v)
		if nchild > 0 {
			stack = append(stack, pending{v, nchild})
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("cst: truncated tree: %d vertices still expect children", len(stack))
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("cst: %d bytes after the last vertex", len(data))
	}
	for v, tg := range targets {
		if int(tg) >= len(t.ByGID) {
			return nil, fmt.Errorf("cst: RecCall target %d out of range", tg)
		}
		v.Target = t.ByGID[tg]
	}
	if err := t.Root.checkChildren(map[uint64]bool{}); err != nil {
		return nil, err
	}
	return t, nil
}

// quotedEmpty is the %q encoding of the empty callee, the overwhelmingly
// common case, matched directly so non-call vertices skip Unquote.
var quotedEmpty = []byte(`""`)

// Hash returns a structural fingerprint. All ranks of an SPMD job share one
// binary, hence one CST; merge refuses trees with different hashes. A tree
// does not change once Build or Decode has returned it, so the walk is taken
// once, on first use, however many ranks then ask (Compressor.Finish does for
// every rank of a job).
func (t *Tree) Hash() uint64 {
	t.hashOnce.Do(func() { t.hash = t.computeHash() })
	return t.hash
}

// computeHash is the walk behind Hash. The value is serialized in every v1
// trace header, so the bytes hashed here are pinned.
func (t *Tree) computeHash() uint64 {
	h := fnv.New64a()
	t.Walk(func(v *Vertex, d int) {
		target := int32(-1)
		if v.Target != nil {
			target = v.Target.GID
		}
		fmt.Fprintf(h, "%d/%d/%d/%d/%d/%d/%s/%v/%v;", d, v.Kind, v.Site, v.Arm, v.Op, target, v.Callee, v.Recursive, v.Returns)
	})
	return h.Sum64()
}
