// Package interp executes MPL programs on simulated MPI ranks. It is the
// stand-in for running the compiled, instrumented binary: every MPI intrinsic
// is forwarded to the mpisim runtime (whose tracer observes the event), and
// every control structure the CST keeps is bracketed with the structure
// markers the paper's compiler inserts (PMPI_COMM_Structure / _Exit,
// Figure 9), following the trace.Sink protocol. cst.Build marks the kept
// loop, branch-arm and call sites on the AST; a structure it pruned runs
// without markers.
package interp

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/lang"
	"repro/internal/mpisim"
	"repro/internal/trace"
)

// RunProgram parses, checks, and executes MPL source on n simulated ranks,
// returning the simulated job time in nanoseconds. sinks may be nil (no
// tracing) or contain one Sink per rank. It builds no CST, so no site is
// marked and the sinks receive events only, no structure markers.
func RunProgram(src string, n int, params mpisim.Params, sinks []trace.Sink) (float64, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return 0, err
	}
	if _, err := lang.Check(prog); err != nil {
		return 0, err
	}
	return mpisim.Run(n, params, sinks, func(r *mpisim.Rank) {
		Execute(prog, r)
	})
}

// Execute runs prog's main function on rank r. The program must have passed
// lang.Check, which gave every name its frame slot and every call its
// target. Runtime errors (division by zero, bad message sizes, undefined
// behavior) panic; mpisim.Run converts rank panics into errors.
func Execute(prog *lang.Program, r *mpisim.Rank) {
	if !prog.Resolved {
		panic("interp: program is not resolved: run lang.Check before Execute")
	}
	ex := newExecutor(r)
	r.Init()
	ex.callUser(prog.ByName["main"], 0)
	r.Finalize()
}

func newExecutor(r *mpisim.Rank) *executor {
	return &executor{
		rank: r,
		sink: r.Sink(),
		id:   int64(r.ID()),
		size: int64(r.Size()),
	}
}

type executor struct {
	rank     *mpisim.Rank
	sink     trace.Sink
	id, size int64
	// pending holds the requests not yet completed, in post order: a
	// handle names one of these or none.
	pending []*mpisim.Request
	depth   int
	// slots is the slot stack: the running call's frame is slots[fp:], and
	// the arguments of a call being evaluated are pushed above it.
	slots []int64
	fp    int
}

const maxDepth = 1 << 16

// callUser runs fn on a frame at slots[base:], where the caller has pushed
// the arguments.
func (ex *executor) callUser(fn *lang.FuncDecl, base int) int64 {
	ex.depth++
	if ex.depth > maxDepth {
		panic(fmt.Sprintf("interp: recursion deeper than %d in %s", maxDepth, fn.Name))
	}
	ex.slots = append(ex.slots, make([]int64, base+fn.FrameSize-len(ex.slots))...)
	callerFP := ex.fp
	ex.fp = base
	_, val := ex.block(fn.Body)
	ex.fp = callerFP
	ex.slots = ex.slots[:base]
	ex.depth--
	return val
}

// block executes a statement list; it reports whether a return unwound and
// the return value.
func (ex *executor) block(b *lang.Block) (bool, int64) {
	for _, s := range b.Stmts {
		if ret, v := ex.stmt(s); ret {
			return true, v
		}
	}
	return false, 0
}

func (ex *executor) stmt(s lang.Stmt) (bool, int64) {
	switch s := s.(type) {
	case *lang.VarStmt:
		v := ex.eval(s.Init)
		ex.slots[ex.fp+s.Slot] = v
		return false, 0
	case *lang.AssignStmt:
		v := ex.eval(s.Value)
		ex.slots[ex.fp+s.Slot] = v
		return false, 0
	case *lang.ExprStmt:
		ex.eval(s.X)
		return false, 0
	case *lang.ReturnStmt:
		if s.Value != nil {
			return true, ex.eval(s.Value)
		}
		return true, 0
	case *lang.Block:
		return ex.block(s)
	case *lang.IfStmt:
		arm := 0
		if !truthy(ex.eval(s.Cond)) {
			arm = 1
		}
		marked := s.ArmMarked[arm]
		if marked {
			ex.sink.BranchEnter(int32(s.ID()), int8(arm))
		} else if s.ArmMarked[1-arm] {
			// A kept if whose taken arm was pruned, or that has no else:
			// its reach counter still advances.
			ex.sink.BranchSkip(int32(s.ID()))
		}
		var ret bool
		var v int64
		switch {
		case arm == 0:
			ret, v = ex.block(s.Then)
		case s.Else != nil:
			ret, v = ex.stmt(s.Else)
		}
		if marked {
			ex.sink.StructExit()
		}
		return ret, v
	case *lang.ForStmt:
		if s.Init != nil {
			ex.stmt(s.Init) // a var or an assignment: never returns
		}
		if !s.Marked {
			return ex.silentLoop(s.Cond, s.Body, s.Post)
		}
		return ex.loop(int32(s.ID()), s.Cond, s.Body, s.Post)
	case *lang.WhileStmt:
		if !s.Marked {
			return ex.silentLoop(s.Cond, s.Body, nil)
		}
		return ex.loop(int32(s.ID()), s.Cond, s.Body, nil)
	}
	panic(fmt.Sprintf("interp: unknown statement %T", s))
}

// silentLoop runs a for loop (post is its assignment) or a while loop (post
// is nil) the CST pruned: no markers.
func (ex *executor) silentLoop(cond lang.Expr, body *lang.Block, post lang.Stmt) (bool, int64) {
	for truthy(ex.eval(cond)) {
		if ret, v := ex.block(body); ret {
			return ret, v
		}
		if post != nil {
			ex.stmt(post)
		}
	}
	return false, 0
}

// loop runs a kept for loop (post is its assignment) or while loop (post is
// nil) between its LoopEnter and StructExit markers.
func (ex *executor) loop(site int32, cond lang.Expr, body *lang.Block, post lang.Stmt) (bool, int64) {
	ex.sink.LoopEnter(site)
	for truthy(ex.eval(cond)) {
		ex.sink.LoopIter(site)
		if ret, v := ex.block(body); ret {
			ex.sink.StructExit()
			return ret, v
		}
		if post != nil {
			ex.stmt(post)
		}
	}
	ex.sink.StructExit()
	return false, 0
}

func truthy(v int64) bool { return v != 0 }

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (ex *executor) eval(e lang.Expr) int64 {
	switch e := e.(type) {
	case *lang.IntLit:
		return e.Value
	case *lang.AnyLit:
		return int64(trace.AnySource)
	case *lang.Ident:
		if e.Slot >= 0 {
			return ex.slots[ex.fp+e.Slot]
		}
		if e.Name == "rank" {
			return ex.id
		}
		return ex.size
	case *lang.UnaryExpr:
		v := ex.eval(e.X)
		if e.Neg {
			return -v
		}
		return boolToInt(v == 0)
	case *lang.BinaryExpr:
		l := ex.eval(e.L)
		r := ex.eval(e.R)
		switch e.Op {
		case lang.OpAdd:
			return l + r
		case lang.OpSub:
			return l - r
		case lang.OpMul:
			return l * r
		case lang.OpDiv:
			if r == 0 {
				panic(fmt.Sprintf("interp: %s: division by zero", e.Pos()))
			}
			return l / r
		case lang.OpMod:
			if r == 0 {
				panic(fmt.Sprintf("interp: %s: modulo by zero", e.Pos()))
			}
			return l % r
		case lang.OpLt:
			return boolToInt(l < r)
		case lang.OpGt:
			return boolToInt(l > r)
		case lang.OpLe:
			return boolToInt(l <= r)
		case lang.OpGe:
			return boolToInt(l >= r)
		case lang.OpEq:
			return boolToInt(l == r)
		case lang.OpNe:
			return boolToInt(l != r)
		case lang.OpAnd:
			return boolToInt(truthy(l) && truthy(r))
		case lang.OpOr:
			return boolToInt(truthy(l) || truthy(r))
		}
		panic(fmt.Sprintf("interp: unknown operator %v", e.Op))
	case *lang.CallExpr:
		return ex.call(e)
	}
	panic(fmt.Sprintf("interp: unknown expression %T", e))
}

// call pushes e's arguments onto the slot stack: a user function takes them
// as the first slots of its frame, an intrinsic reads and pops them.
func (ex *executor) call(e *lang.CallExpr) int64 {
	base := len(ex.slots)
	for _, a := range e.Args {
		v := ex.eval(a)
		ex.slots = append(ex.slots, v)
	}
	if e.Func != nil {
		if !e.Marked {
			return ex.callUser(e.Func, base)
		}
		ex.sink.CallEnter(int32(e.ID()))
		v := ex.callUser(e.Func, base)
		ex.sink.StructExit()
		return v
	}
	v := ex.intrinsic(e, ex.slots[base:])
	ex.slots = ex.slots[:base]
	return v
}

const maxMsgSize = 1 << 30

func (ex *executor) msgSize(e *lang.CallExpr, v int64) int {
	if v < 0 || v > maxMsgSize {
		panic(fmt.Sprintf("interp: %s: message size %d out of range", e.Pos(), v))
	}
	return int(v)
}

func (ex *executor) intrinsic(e *lang.CallExpr, args []int64) int64 {
	r := ex.rank
	in := e.Intrinsic
	if in.IsComm {
		ex.sink.CommSite(int32(e.ID()))
	}
	switch in.Code {
	case lang.BuiltinSend:
		r.Send(int(args[0]), ex.msgSize(e, args[1]), int(args[2]))
	case lang.BuiltinRecv:
		r.Recv(int(args[0]), ex.msgSize(e, args[1]), int(args[2]))
	case lang.BuiltinIsend:
		req := r.Isend(int(args[0]), ex.msgSize(e, args[1]), int(args[2]))
		ex.pending = append(ex.pending, req)
		return int64(req.ID)
	case lang.BuiltinIrecv:
		req := r.Irecv(int(args[0]), ex.msgSize(e, args[1]), int(args[2]))
		ex.pending = append(ex.pending, req)
		return int64(req.ID)
	case lang.BuiltinWait:
		i := slices.IndexFunc(ex.pending, func(q *mpisim.Request) bool { return int64(q.ID) == args[0] })
		if i < 0 {
			panic(fmt.Sprintf("interp: %s: wait on unknown request %d (never posted or already completed)", e.Pos(), args[0]))
		}
		req := ex.pending[i]
		ex.pending = slices.Delete(ex.pending, i, i+1)
		r.Wait(req)
	case lang.BuiltinWaitall:
		r.Waitall()
		ex.pending = ex.pending[:0]
	case lang.BuiltinWaitsome:
		done := r.Waitsome()
		ex.pending = slices.DeleteFunc(ex.pending, func(q *mpisim.Request) bool { return slices.Contains(done, q) })
		return int64(len(done))
	case lang.BuiltinTestany:
		done := r.Testany()
		if done == nil {
			return 0
		}
		ex.pending = slices.DeleteFunc(ex.pending, func(q *mpisim.Request) bool { return q == done })
		return 1
	case lang.BuiltinBarrier:
		r.Barrier()
	case lang.BuiltinBcast:
		r.Bcast(int(args[0]), ex.msgSize(e, args[1]))
	case lang.BuiltinReduce:
		r.Reduce(int(args[0]), ex.msgSize(e, args[1]))
	case lang.BuiltinAllreduce:
		r.Allreduce(ex.msgSize(e, args[0]))
	case lang.BuiltinGather:
		r.Gather(int(args[0]), ex.msgSize(e, args[1]))
	case lang.BuiltinScatter:
		r.Scatter(int(args[0]), ex.msgSize(e, args[1]))
	case lang.BuiltinAllgather:
		r.Allgather(ex.msgSize(e, args[0]))
	case lang.BuiltinAlltoall:
		r.Alltoall(ex.msgSize(e, args[0]))
	case lang.BuiltinCompute:
		if args[0] < 0 {
			panic(fmt.Sprintf("interp: %s: negative compute time %d", e.Pos(), args[0]))
		}
		r.Compute(float64(args[0]))
	case lang.BuiltinMin:
		return min(args[0], args[1])
	case lang.BuiltinMax:
		return max(args[0], args[1])
	case lang.BuiltinLog2:
		if args[0] < 1 {
			panic(fmt.Sprintf("interp: %s: log2 of %d", e.Pos(), args[0]))
		}
		return int64(bits.Len64(uint64(args[0])) - 1)
	default:
		panic(fmt.Sprintf("interp: unknown intrinsic %q", in.Name))
	}
	return 0
}
