package lang

import "fmt"

// NodeID identifies an AST node. IDs are assigned densely by the parser in
// creation order and are stable for a given source text; the instrumenter and
// the CST builder use them to link runtime structure markers to static
// vertices (the paper's PMPI_COMM_Structure id argument).
type NodeID int32

// NoNode marks the absence of a node reference.
const NoNode NodeID = -1

// Node is implemented by every AST node.
type Node interface {
	ID() NodeID
	Pos() Pos
}

type base struct {
	id  NodeID
	pos Pos
}

func (b base) ID() NodeID { return b.id }
func (b base) Pos() Pos   { return b.pos }

// Program is a whole MPL translation unit.
type Program struct {
	base
	Funcs []*FuncDecl
	// ByName indexes functions for call resolution.
	ByName map[string]*FuncDecl
	// NumNodes is one past the largest NodeID assigned.
	NumNodes int32
	// Resolved is set by a successful Check: every name below it carries
	// its frame slot and every call its target.
	Resolved bool
}

// FuncDecl is a function definition.
type FuncDecl struct {
	base
	Name   string
	Params []string
	Body   *Block
	// FrameSize is the number of slots a call of the function needs:
	// the parameters first, then the locals, sibling blocks sharing slots
	// (set by Check).
	FrameSize int
	// Recursive is set by Check when the function is on a call-graph cycle.
	Recursive bool
}

// Block is a brace-delimited statement list.
type Block struct {
	base
	Stmts []Stmt
}

// Stmt is implemented by statement nodes.
type Stmt interface {
	Node
	stmt()
}

// VarStmt declares and initializes a variable: var x = expr;
type VarStmt struct {
	base
	Name string
	Init Expr
	Slot int // frame slot of the new variable (set by Check)
}

// AssignStmt assigns to an existing variable: x = expr;
type AssignStmt struct {
	base
	Name  string
	Value Expr
	Slot  int // frame slot of the assigned variable (set by Check)
}

// IfStmt is a two-way branch; Else may be nil, a *Block, or another *IfStmt
// (else-if chains).
type IfStmt struct {
	base
	Cond Expr
	Then *Block
	Else Stmt
	// ArmMarked is indexed by arm (0 = then, 1 = else): the CST keeps that
	// arm, so the interpreter brackets it with structure markers (set by
	// cst.Build, like Marked below).
	ArmMarked [2]bool
}

// ForStmt is a C-style loop: for init; cond; post { body }.
// Init and Post may be nil; Cond may be nil (infinite loop is rejected by
// the checker since MPL has no break).
type ForStmt struct {
	base
	Init Stmt // VarStmt or AssignStmt
	Cond Expr
	Post Stmt // AssignStmt
	Body *Block
	// Marked is set by cst.Build when the CST keeps the loop: only then does
	// the interpreter bracket it with structure markers.
	Marked bool
}

// WhileStmt is a condition-controlled loop.
type WhileStmt struct {
	base
	Cond   Expr
	Body   *Block
	Marked bool // see ForStmt.Marked
}

// ReturnStmt exits the current function; Value may be nil.
type ReturnStmt struct {
	base
	Value Expr
}

// ExprStmt evaluates an expression for its side effects (calls).
type ExprStmt struct {
	base
	X Expr
}

func (*VarStmt) stmt()    {}
func (*AssignStmt) stmt() {}
func (*IfStmt) stmt()     {}
func (*ForStmt) stmt()    {}
func (*WhileStmt) stmt()  {}
func (*ReturnStmt) stmt() {}
func (*ExprStmt) stmt()   {}
func (*Block) stmt()      {}

// Expr is implemented by expression nodes.
type Expr interface {
	Node
	expr()
}

// IntLit is an integer literal.
type IntLit struct {
	base
	Value int64
}

// Ident references a variable (or the builtins rank/size).
type Ident struct {
	base
	Name string
	Slot int // frame slot (set by Check); -1 for the predeclared rank and size
}

// AnyLit is the ANY wildcard source literal.
type AnyLit struct {
	base
}

// BinOp enumerates binary operators.
type BinOp uint8

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpLt
	OpGt
	OpLe
	OpGe
	OpEq
	OpNe
	OpAnd
	OpOr
)

var binOpNames = [...]string{"+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=", "&&", "||"}

func (op BinOp) String() string { return binOpNames[op] }

// BinaryExpr applies a binary operator. Logical && and || evaluate both
// operands eagerly (no short-circuit CFG edges), which keeps branch structure
// in the CST one-to-one with source if statements.
type BinaryExpr struct {
	base
	Op   BinOp
	L, R Expr
}

// UnaryExpr applies unary minus or logical not.
type UnaryExpr struct {
	base
	Neg bool // true: -x, false: !x
	X   Expr
}

// CallExpr invokes a user-defined function or an MPI/builtin intrinsic.
type CallExpr struct {
	base
	Name string
	Args []Expr
	// Check resolves the callee: Func for a user function, Intrinsic for a
	// builtin. The other stays nil.
	Func      *FuncDecl
	Intrinsic *Intrinsic
	// Marked is set by cst.Build when the CST keeps this user-function call
	// site: only then does the interpreter bracket the call with markers.
	Marked bool
}

func (*IntLit) expr()     {}
func (*Ident) expr()      {}
func (*AnyLit) expr()     {}
func (*BinaryExpr) expr() {}
func (*UnaryExpr) expr()  {}
func (*CallExpr) expr()   {}

// Builtin identifies an intrinsic, so a resolved call dispatches without
// its name.
type Builtin uint8

const (
	BuiltinSend Builtin = iota
	BuiltinRecv
	BuiltinIsend
	BuiltinIrecv
	BuiltinWait
	BuiltinWaitall
	BuiltinWaitsome
	BuiltinTestany
	BuiltinBarrier
	BuiltinBcast
	BuiltinReduce
	BuiltinAllreduce
	BuiltinGather
	BuiltinScatter
	BuiltinAllgather
	BuiltinAlltoall
	BuiltinCompute
	BuiltinMin
	BuiltinMax
	BuiltinLog2
)

// Intrinsic describes a builtin callable.
type Intrinsic struct {
	Name   string
	Code   Builtin
	Arity  int
	IsComm bool // emits an MPI event
	HasRet bool // produces a value
}

// Intrinsics is the builtin table. Communication intrinsics mirror the MPI
// routines the paper's runtime intercepts; compute advances the synthetic
// compute clock; min/max/log2 are arithmetic helpers.
var Intrinsics = map[string]*Intrinsic{
	"send":      {"send", BuiltinSend, 3, true, false},        // send(dest, bytes, tag)
	"recv":      {"recv", BuiltinRecv, 3, true, false},        // recv(src|ANY, bytes, tag)
	"isend":     {"isend", BuiltinIsend, 3, true, true},       // req = isend(dest, bytes, tag)
	"irecv":     {"irecv", BuiltinIrecv, 3, true, true},       // req = irecv(src|ANY, bytes, tag)
	"wait":      {"wait", BuiltinWait, 1, true, false},        // wait(req)
	"waitall":   {"waitall", BuiltinWaitall, 0, true, false},  // waits all pending requests
	"waitsome":  {"waitsome", BuiltinWaitsome, 0, true, true}, // completes >=1 pending, returns count
	"testany":   {"testany", BuiltinTestany, 0, true, true},   // completes <=1 pending, returns 0/1
	"barrier":   {"barrier", BuiltinBarrier, 0, true, false},
	"bcast":     {"bcast", BuiltinBcast, 2, true, false},         // bcast(root, bytes)
	"reduce":    {"reduce", BuiltinReduce, 2, true, false},       // reduce(root, bytes)
	"allreduce": {"allreduce", BuiltinAllreduce, 1, true, false}, // allreduce(bytes)
	"gather":    {"gather", BuiltinGather, 2, true, false},
	"scatter":   {"scatter", BuiltinScatter, 2, true, false},
	"allgather": {"allgather", BuiltinAllgather, 1, true, false},
	"alltoall":  {"alltoall", BuiltinAlltoall, 1, true, false},
	"compute":   {"compute", BuiltinCompute, 1, false, false}, // compute(ns)
	"min":       {"min", BuiltinMin, 2, false, true},
	"max":       {"max", BuiltinMax, 2, false, true},
	"log2":      {"log2", BuiltinLog2, 1, false, true}, // floor(log2(x)), x >= 1
}

// IsIntrinsic reports whether name is a builtin.
func IsIntrinsic(name string) bool {
	_, ok := Intrinsics[name]
	return ok
}

// Error is a positioned front-end error.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
