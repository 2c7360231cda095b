// Package vm implements the smart-contract virtual machine of the
// medical blockchain: a deterministic, gas-metered stack machine with
// contract storage, event emission, and host calls (the bridge that the
// monitor-node oracle of paper Fig. 3/4 serves).
//
// Gas is the experiment-visible cost unit: when the same contract runs
// on every node of an N-node chain (classic duplicated smart-contract
// execution), the cluster burns N× the gas a single execution needs —
// that multiplication is exactly what experiment E2 measures and what
// the paper's transformed architecture removes.
//
// Programs are byte code produced by the assembler in asm.go. Execution
// is deterministic: identical (program, storage, context) inputs yield
// identical results on every node.
package vm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"medchain/internal/cryptoutil"
)

// Op is a single byte-code operation.
type Op byte

// Operation set.
const (
	OpHalt  Op = iota // stop, success
	OpPushI           // push immediate int64
	OpPushB           // push immediate byte string
	OpPop
	OpDup
	OpSwap
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
	OpLt
	OpLe
	OpGt
	OpGe
	OpEq
	OpNeq
	OpNot
	OpAnd
	OpOr
	OpJmp // unconditional jump to u32 address
	OpJz  // jump if top == 0 (pops)
	OpJnz // jump if top != 0 (pops)
	OpSLoad
	OpSStore
	OpEmit
	OpHost
	OpHash
	OpConcat
	OpLen
	OpItoB
	OpBtoI
	OpCaller
	OpSelf
	OpRevert
	opMax
)

var opNames = [...]string{
	OpHalt: "HALT", OpPushI: "PUSHI", OpPushB: "PUSHB", OpPop: "POP",
	OpDup: "DUP", OpSwap: "SWAP", OpAdd: "ADD", OpSub: "SUB",
	OpMul: "MUL", OpDiv: "DIV", OpMod: "MOD", OpNeg: "NEG",
	OpLt: "LT", OpLe: "LE", OpGt: "GT", OpGe: "GE", OpEq: "EQ",
	OpNeq: "NEQ", OpNot: "NOT", OpAnd: "AND", OpOr: "OR",
	OpJmp: "JMP", OpJz: "JZ", OpJnz: "JNZ", OpSLoad: "SLOAD",
	OpSStore: "SSTORE", OpEmit: "EMIT", OpHost: "HOST", OpHash: "HASH",
	OpConcat: "CONCAT", OpLen: "LEN", OpItoB: "ITOB", OpBtoI: "BTOI",
	OpCaller: "CALLER", OpSelf: "SELF", OpRevert: "REVERT",
}

// String returns the mnemonic of the op.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("OP(%d)", byte(o))
}

// Gas costs per operation class.
const (
	gasBase    = 1   // stack/arithmetic ops
	gasJump    = 2   // control flow
	gasHash    = 30  // HASH
	gasLoad    = 20  // SLOAD
	gasStore   = 50  // SSTORE
	gasEmit    = 25  // EMIT
	gasHost    = 100 // HOST call overhead (result cost added by handler)
	gasPerByte = 1   // per byte of pushed/concatenated/stored data
)

// Execution errors.
var (
	ErrOutOfGas       = errors.New("vm: out of gas")
	ErrStackUnderflow = errors.New("vm: stack underflow")
	ErrStackOverflow  = errors.New("vm: stack overflow")
	ErrBadJump        = errors.New("vm: jump target out of range")
	ErrBadOpcode      = errors.New("vm: unknown opcode")
	ErrTruncated      = errors.New("vm: truncated program")
	ErrTypeMismatch   = errors.New("vm: operand type mismatch")
	ErrDivByZero      = errors.New("vm: division by zero")
	ErrReverted       = errors.New("vm: execution reverted")
	ErrNoHost         = errors.New("vm: host function not available")
)

// maxStack bounds the operand stack.
const maxStack = 1024

// Value is a stack operand: either an int64 or a byte string.
type Value struct {
	isBytes bool
	i       int64
	b       []byte
}

// Int builds an integer value.
func Int(i int64) Value { return Value{i: i} }

// Bytes builds a byte-string value.
func Bytes(b []byte) Value { return Value{isBytes: true, b: b} }

// AsInt returns the integer payload (0 for byte strings).
func (v Value) AsInt() int64 { return v.i }

// AsBytes returns the byte payload (nil for ints).
func (v Value) AsBytes() []byte { return v.b }

// String renders the value for debugging.
func (v Value) String() string {
	if v.isBytes {
		return fmt.Sprintf("bytes(%q)", v.b)
	}
	return fmt.Sprintf("int(%d)", v.i)
}

// truthy reports whether the value counts as true for JZ/JNZ/NOT.
func (v Value) truthy() bool {
	if v.isBytes {
		return len(v.b) > 0
	}
	return v.i != 0
}

// Storage is the contract's persistent key/value store.
type Storage interface {
	// Get returns the stored value and whether it exists.
	Get(key []byte) ([]byte, bool)
	// Set stores a value.
	Set(key, value []byte)
}

// MemStorage is an in-memory Storage.
type MemStorage struct {
	m map[string][]byte
}

// NewMemStorage creates an empty store.
func NewMemStorage() *MemStorage { return &MemStorage{m: make(map[string][]byte)} }

// Get implements Storage.
func (s *MemStorage) Get(key []byte) ([]byte, bool) {
	v, ok := s.m[string(key)]
	return v, ok
}

// Set implements Storage.
func (s *MemStorage) Set(key, value []byte) {
	cp := make([]byte, len(value))
	copy(cp, value)
	s.m[string(key)] = cp
}

// Len returns the number of stored keys.
func (s *MemStorage) Len() int { return len(s.m) }

// Keys returns all keys (ordering unspecified).
func (s *MemStorage) Keys() []string {
	out := make([]string, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	return out
}

// Event is an emitted contract event. The monitor node (package oracle)
// subscribes to these.
type Event struct {
	// Contract is the emitting contract address.
	Contract cryptoutil.Address `json:"contract"`
	// Topic is the event name.
	Topic string `json:"topic"`
	// Data is the event payload.
	Data []byte `json:"data"`
}

// HostFunc handles a HOST call: it receives the argument bytes and
// returns result bytes and an extra gas charge.
type HostFunc func(arg []byte) (result []byte, gasCost int64, err error)

// Context carries the per-execution environment.
type Context struct {
	// Caller is the transaction sender.
	Caller cryptoutil.Address
	// Self is the executing contract's address.
	Self cryptoutil.Address
	// Storage is the contract's persistent store. Required.
	Storage Storage
	// Host resolves HOST call names; nil disables host calls.
	Host map[string]HostFunc
	// GasLimit bounds execution. Required (>0).
	GasLimit int64
}

// Result is the outcome of an execution.
type Result struct {
	// GasUsed is the gas consumed (≤ GasLimit).
	GasUsed int64
	// Events are the emitted events in order.
	Events []Event
	// Value is the top of stack at HALT (zero Value if the stack was
	// empty).
	Value Value
	// RevertReason holds the REVERT message when Err is ErrReverted.
	RevertReason string
}

// Execute runs the program under ctx. On error the Result still
// reports gas used; storage writes made before the error are the
// caller's to discard (the chain executor uses a write-buffering
// storage for that).
func Execute(program []byte, ctx *Context) (*Result, error) {
	if ctx == nil || ctx.Storage == nil {
		return nil, errors.New("vm: nil context or storage")
	}
	if ctx.GasLimit <= 0 {
		return &Result{}, ErrOutOfGas
	}
	ex := &executor{prog: program, ctx: ctx, gas: ctx.GasLimit}
	err := ex.run()
	res := &Result{GasUsed: ctx.GasLimit - ex.gas, Events: ex.events, RevertReason: ex.revertMsg}
	if err == nil && len(ex.stack) > 0 {
		res.Value = ex.stack[len(ex.stack)-1]
	}
	return res, err
}

type executor struct {
	prog      []byte
	ctx       *Context
	pc        int
	stack     []Value
	gas       int64
	events    []Event
	revertMsg string
}

func (e *executor) charge(g int64) error {
	if e.gas < g {
		e.gas = 0
		return ErrOutOfGas
	}
	e.gas -= g
	return nil
}

func (e *executor) push(v Value) error {
	if len(e.stack) >= maxStack {
		return ErrStackOverflow
	}
	e.stack = append(e.stack, v)
	return nil
}

func (e *executor) pop() (Value, error) {
	if len(e.stack) == 0 {
		return Value{}, ErrStackUnderflow
	}
	v := e.stack[len(e.stack)-1]
	e.stack = e.stack[:len(e.stack)-1]
	return v, nil
}

func (e *executor) popInt() (int64, error) {
	v, err := e.pop()
	if err != nil {
		return 0, err
	}
	if v.isBytes {
		return 0, fmt.Errorf("%w: want int, got bytes", ErrTypeMismatch)
	}
	return v.i, nil
}

func (e *executor) popBytes() ([]byte, error) {
	v, err := e.pop()
	if err != nil {
		return nil, err
	}
	if !v.isBytes {
		return nil, fmt.Errorf("%w: want bytes, got int", ErrTypeMismatch)
	}
	return v.b, nil
}

func (e *executor) readU32() (int, error) {
	if e.pc+4 > len(e.prog) {
		return 0, ErrTruncated
	}
	v := int(binary.BigEndian.Uint32(e.prog[e.pc:]))
	e.pc += 4
	return v, nil
}

func (e *executor) readI64() (int64, error) {
	if e.pc+8 > len(e.prog) {
		return 0, ErrTruncated
	}
	v := int64(binary.BigEndian.Uint64(e.prog[e.pc:]))
	e.pc += 8
	return v, nil
}

func (e *executor) readBytes() ([]byte, error) {
	n, err := e.readU32()
	if err != nil {
		return nil, err
	}
	if e.pc+n > len(e.prog) {
		return nil, ErrTruncated
	}
	b := e.prog[e.pc : e.pc+n]
	e.pc += n
	return b, nil
}

func (e *executor) run() error {
	for {
		if e.pc >= len(e.prog) {
			return nil // falling off the end halts successfully
		}
		op := Op(e.prog[e.pc])
		e.pc++
		if err := e.step(op); err != nil {
			if errors.Is(err, errHalt) {
				return nil
			}
			return err
		}
	}
}

// errHalt is an internal sentinel for OpHalt.
var errHalt = errors.New("vm: halt")

func (e *executor) step(op Op) error {
	switch op {
	case OpHalt:
		if err := e.charge(gasBase); err != nil {
			return err
		}
		return errHalt

	case OpPushI:
		v, err := e.readI64()
		if err != nil {
			return err
		}
		if err := e.charge(gasBase); err != nil {
			return err
		}
		return e.push(Int(v))

	case OpPushB:
		b, err := e.readBytes()
		if err != nil {
			return err
		}
		if err := e.charge(gasBase + int64(len(b))*gasPerByte); err != nil {
			return err
		}
		return e.push(Bytes(b))

	case OpPop:
		if err := e.charge(gasBase); err != nil {
			return err
		}
		_, err := e.pop()
		return err

	case OpDup:
		if err := e.charge(gasBase); err != nil {
			return err
		}
		if len(e.stack) == 0 {
			return ErrStackUnderflow
		}
		return e.push(e.stack[len(e.stack)-1])

	case OpSwap:
		if err := e.charge(gasBase); err != nil {
			return err
		}
		n := len(e.stack)
		if n < 2 {
			return ErrStackUnderflow
		}
		e.stack[n-1], e.stack[n-2] = e.stack[n-2], e.stack[n-1]
		return nil

	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr:
		if err := e.charge(gasBase); err != nil {
			return err
		}
		b, err := e.popInt()
		if err != nil {
			return err
		}
		a, err := e.popInt()
		if err != nil {
			return err
		}
		var out int64
		switch op {
		case OpAdd:
			out = a + b
		case OpSub:
			out = a - b
		case OpMul:
			out = a * b
		case OpDiv:
			if b == 0 {
				return ErrDivByZero
			}
			out = a / b
		case OpMod:
			if b == 0 {
				return ErrDivByZero
			}
			out = a % b
		case OpLt:
			out = b2i(a < b)
		case OpLe:
			out = b2i(a <= b)
		case OpGt:
			out = b2i(a > b)
		case OpGe:
			out = b2i(a >= b)
		case OpAnd:
			out = b2i(a != 0 && b != 0)
		case OpOr:
			out = b2i(a != 0 || b != 0)
		}
		return e.push(Int(out))

	case OpNeg:
		if err := e.charge(gasBase); err != nil {
			return err
		}
		a, err := e.popInt()
		if err != nil {
			return err
		}
		return e.push(Int(-a))

	case OpEq, OpNeq:
		if err := e.charge(gasBase); err != nil {
			return err
		}
		b, err := e.pop()
		if err != nil {
			return err
		}
		a, err := e.pop()
		if err != nil {
			return err
		}
		eq := valuesEqual(a, b)
		if op == OpNeq {
			eq = !eq
		}
		return e.push(Int(b2i(eq)))

	case OpNot:
		if err := e.charge(gasBase); err != nil {
			return err
		}
		v, err := e.pop()
		if err != nil {
			return err
		}
		return e.push(Int(b2i(!v.truthy())))

	case OpJmp, OpJz, OpJnz:
		target, err := e.readU32()
		if err != nil {
			return err
		}
		if err := e.charge(gasJump); err != nil {
			return err
		}
		if target > len(e.prog) {
			return fmt.Errorf("%w: %d", ErrBadJump, target)
		}
		take := true
		if op != OpJmp {
			v, err := e.pop()
			if err != nil {
				return err
			}
			if op == OpJz {
				take = !v.truthy()
			} else {
				take = v.truthy()
			}
		}
		if take {
			e.pc = target
		}
		return nil

	case OpSLoad:
		if err := e.charge(gasLoad); err != nil {
			return err
		}
		key, err := e.popBytes()
		if err != nil {
			return err
		}
		v, ok := e.ctx.Storage.Get(key)
		if !ok {
			return e.push(Bytes(nil))
		}
		return e.push(Bytes(v))

	case OpSStore:
		val, err := e.pop()
		if err != nil {
			return err
		}
		key, err := e.popBytes()
		if err != nil {
			return err
		}
		var raw []byte
		if val.isBytes {
			raw = val.b
		} else {
			raw = make([]byte, 8)
			binary.BigEndian.PutUint64(raw, uint64(val.i))
		}
		if err := e.charge(gasStore + int64(len(raw))*gasPerByte); err != nil {
			return err
		}
		e.ctx.Storage.Set(key, raw)
		return nil

	case OpEmit:
		data, err := e.pop()
		if err != nil {
			return err
		}
		topic, err := e.popBytes()
		if err != nil {
			return err
		}
		var raw []byte
		if data.isBytes {
			raw = data.b
		} else {
			raw = make([]byte, 8)
			binary.BigEndian.PutUint64(raw, uint64(data.i))
		}
		if err := e.charge(gasEmit + int64(len(raw))*gasPerByte); err != nil {
			return err
		}
		e.events = append(e.events, Event{Contract: e.ctx.Self, Topic: string(topic), Data: raw})
		return nil

	case OpHost:
		arg, err := e.pop()
		if err != nil {
			return err
		}
		name, err := e.popBytes()
		if err != nil {
			return err
		}
		if err := e.charge(gasHost); err != nil {
			return err
		}
		fn, ok := e.ctx.Host[string(name)]
		if !ok {
			return fmt.Errorf("%w: %q", ErrNoHost, name)
		}
		var raw []byte
		if arg.isBytes {
			raw = arg.b
		} else {
			raw = make([]byte, 8)
			binary.BigEndian.PutUint64(raw, uint64(arg.i))
		}
		out, cost, err := fn(raw)
		if err != nil {
			return fmt.Errorf("vm: host %q: %w", name, err)
		}
		if cost > 0 {
			if err := e.charge(cost); err != nil {
				return err
			}
		}
		return e.push(Bytes(out))

	case OpHash:
		if err := e.charge(gasHash); err != nil {
			return err
		}
		b, err := e.popBytes()
		if err != nil {
			return err
		}
		d := cryptoutil.Sum(b)
		return e.push(Bytes(d.Bytes()))

	case OpConcat:
		bv, err := e.popBytes()
		if err != nil {
			return err
		}
		av, err := e.popBytes()
		if err != nil {
			return err
		}
		if err := e.charge(gasBase + int64(len(av)+len(bv))*gasPerByte); err != nil {
			return err
		}
		out := make([]byte, 0, len(av)+len(bv))
		out = append(out, av...)
		out = append(out, bv...)
		return e.push(Bytes(out))

	case OpLen:
		if err := e.charge(gasBase); err != nil {
			return err
		}
		b, err := e.popBytes()
		if err != nil {
			return err
		}
		return e.push(Int(int64(len(b))))

	case OpItoB:
		if err := e.charge(gasBase); err != nil {
			return err
		}
		i, err := e.popInt()
		if err != nil {
			return err
		}
		raw := make([]byte, 8)
		binary.BigEndian.PutUint64(raw, uint64(i))
		return e.push(Bytes(raw))

	case OpBtoI:
		if err := e.charge(gasBase); err != nil {
			return err
		}
		b, err := e.popBytes()
		if err != nil {
			return err
		}
		if len(b) != 8 {
			return fmt.Errorf("%w: BTOI needs 8 bytes, got %d", ErrTypeMismatch, len(b))
		}
		return e.push(Int(int64(binary.BigEndian.Uint64(b))))

	case OpCaller:
		if err := e.charge(gasBase); err != nil {
			return err
		}
		return e.push(Bytes(e.ctx.Caller[:]))

	case OpSelf:
		if err := e.charge(gasBase); err != nil {
			return err
		}
		return e.push(Bytes(e.ctx.Self[:]))

	case OpRevert:
		if err := e.charge(gasBase); err != nil {
			return err
		}
		msg, err := e.popBytes()
		if err != nil {
			return err
		}
		e.revertMsg = string(msg)
		return fmt.Errorf("%w: %s", ErrReverted, msg)

	default:
		return fmt.Errorf("%w: %d at pc %d", ErrBadOpcode, byte(op), e.pc-1)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func valuesEqual(a, b Value) bool {
	if a.isBytes != b.isBytes {
		return false
	}
	if a.isBytes {
		if len(a.b) != len(b.b) {
			return false
		}
		for i := range a.b {
			if a.b[i] != b.b[i] {
				return false
			}
		}
		return true
	}
	return a.i == b.i
}
