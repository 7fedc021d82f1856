// Package isa defines the instruction model shared by the synthetic
// application generators (internal/trace) and the SMT pipeline
// (internal/pipeline).
//
// The simulator is trace-driven: each thread supplies its committed-path
// instruction stream, and instructions carry everything the timing model
// needs — operation class, register dependences, the effective address of
// memory operations, and the outcome of branches.
package isa

import "fmt"

// Class identifies the functional-unit class and timing behaviour of an
// instruction.
type Class uint8

const (
	// IntAlu is a single-cycle integer operation (add, logical, shift,
	// compare). It executes on an integer ALU.
	IntAlu Class = iota
	// IntMul is an integer multiply.
	IntMul
	// IntDiv is an integer divide.
	IntDiv
	// FpAlu is a floating-point add/subtract/compare.
	FpAlu
	// FpMul is a floating-point multiply.
	FpMul
	// FpDiv is a floating-point divide or square root.
	FpDiv
	// Load reads memory; its latency depends on the cache hierarchy.
	Load
	// Store writes memory; it retires the write at commit.
	Store
	// Branch is a conditional branch; Taken records the committed-path
	// outcome, which the branch predictor is checked against.
	Branch
	// NumClasses is the number of instruction classes.
	NumClasses
)

// String returns the mnemonic-style name of the class.
func (c Class) String() string {
	switch c {
	case IntAlu:
		return "int-alu"
	case IntMul:
		return "int-mul"
	case IntDiv:
		return "int-div"
	case FpAlu:
		return "fp-alu"
	case FpMul:
		return "fp-mul"
	case FpDiv:
		return "fp-div"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// IsMem reports whether the class accesses data memory.
func (c Class) IsMem() bool { return c == Load || c == Store }

// IsFp reports whether the class executes on the floating-point side of
// the machine (and therefore consumes a floating-point rename register
// when it has a destination).
func (c Class) IsFp() bool { return c == FpAlu || c == FpMul || c == FpDiv }

// ExecLatency returns the execution latency of the class in cycles,
// excluding memory-hierarchy latency for loads (which the cache model
// supplies) and excluding issue/wakeup overheads (which the pipeline
// models structurally).
func (c Class) ExecLatency() int {
	switch c {
	case IntAlu, Branch, Store:
		return 1
	case IntMul:
		return 3
	case IntDiv:
		return 20
	case FpAlu:
		return 2
	case FpMul:
		return 4
	case FpDiv:
		return 12
	case Load:
		return 1 // address generation; cache latency is added on top
	default:
		return 1
	}
}

// Register-file shape. Architectural registers are thread-private; the
// integer and floating-point files each hold RegsPerFile registers.
const (
	// RegsPerFile is the number of architectural registers in each of
	// the integer and floating-point files.
	RegsPerFile = 32
	// NoReg marks an absent register operand.
	NoReg = int8(-1)
)

// Inst is one committed-path instruction.
//
// Register operands are architectural indices in [0, RegsPerFile). For
// integer-side classes they name integer registers; for floating-point
// classes they name FP registers. Loads may target either file (FpDest
// distinguishes); stores carry their data dependence in Src2.
type Inst struct {
	// Seq is the per-thread dynamic sequence number, starting at 0.
	Seq uint64
	// PC is the instruction's address. The synthetic generators lay
	// static code out over a few basic blocks, so PCs repeat with
	// realistic locality for the branch predictor and the BBV phase
	// detector.
	PC uint64
	// BB is the basic-block identifier, used by phase detection.
	BB uint16
	// Class selects the timing behaviour.
	Class Class
	// FpDest marks a Load whose destination is a floating-point
	// register. Ignored for other classes.
	FpDest bool
	// Dest is the destination architectural register, or NoReg.
	Dest int8
	// Src1, Src2 are source architectural registers, or NoReg.
	Src1, Src2 int8
	// Addr is the effective address for Load/Store.
	Addr uint64
	// Taken is the committed outcome for Branch.
	Taken bool
	// Target is the branch target address for Branch.
	Target uint64
}

// HasDest reports whether the instruction writes a register.
func (in *Inst) HasDest() bool { return in.Dest != NoReg }

// DestIsFp reports whether the destination register, if any, is in the
// floating-point file.
func (in *Inst) DestIsFp() bool {
	if in.Class == Load {
		return in.FpDest
	}
	return in.Class.IsFp()
}

// Stream produces a thread's committed-path instruction stream.
//
// Implementations must be deterministic and copyable: CloneStream must
// return an independent Stream that continues the identical sequence, so
// the simulator can checkpoint and replay execution (required by the
// paper's OFF-LINE and RAND-HILL learning algorithms).
type Stream interface {
	// Next writes the next instruction into *out and returns true, or
	// returns false if the stream is exhausted.
	Next(out *Inst) bool
	// CloneStream returns a deep copy positioned at the same point. dst,
	// a stream the caller no longer needs (or nil), may be overwritten
	// and returned when it is of the implementation's own type, so a
	// checkpoint loop that recycles its copies does not allocate; any
	// other dst is ignored and a new copy is returned.
	CloneStream(dst Stream) Stream
}
