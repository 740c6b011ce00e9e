package wasm

import "errors"

// Trap is a WebAssembly trap: an unrecoverable fault inside the sandbox.
// Traps terminate the faulting function call but never the host — the
// isolation behaviour the paper relies on ("In the event of a boundary
// violation, the function execution simply fails without affecting other
// parts of the system", §7).
type Trap struct {
	msg string
}

// Error implements error.
func (t *Trap) Error() string { return "wasm trap: " + t.msg }

// Trap values matched with errors.Is.
var (
	TrapUnreachable      = &Trap{msg: "unreachable executed"}
	TrapOutOfBounds      = &Trap{msg: "out-of-bounds memory access"}
	TrapDivByZero        = &Trap{msg: "integer divide by zero"}
	TrapIntegerOverflow  = &Trap{msg: "integer overflow"}
	TrapInvalidConv      = &Trap{msg: "invalid conversion to integer"}
	TrapCallDepth        = &Trap{msg: "call stack exhausted"}
	TrapUndefinedElement = &Trap{msg: "undefined table element"}
	TrapIndirectType     = &Trap{msg: "indirect call type mismatch"}
)

// IsTrap reports whether err is (or wraps) a WebAssembly trap.
func IsTrap(err error) bool {
	var t *Trap
	return errors.As(err, &t)
}
