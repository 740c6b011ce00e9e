package wasm

import (
	"fmt"
	"unsafe"
)

// InstrSize is the size of one compiled instruction slot.
const InstrSize = unsafe.Sizeof(instr{})

// InstantiateUnfused instantiates m exactly as Instantiate does, then swaps
// every module-defined body for compileFunc's output before fuse: the
// reference the fusion differential tests run against. A start function,
// if the module has one, has already run fused.
func InstantiateUnfused(m *Module, imports Imports, cfg *Config) (*Instance, error) {
	inst, err := Instantiate(m, imports, cfg)
	if err != nil {
		return nil, err
	}
	for i := range m.Codes {
		cf, err := compileFunc(m, i)
		if err != nil {
			return nil, err
		}
		inst.funcs[m.NumImportedFuncs+i].cf = cf
	}
	return inst, nil
}

// CheckFusedLayout compiles and fuses every body of m and checks the layout
// fuse promises: a superinstruction covers span slots, its later slots keep
// their unfused instrs, no branch target lies inside a run, and every slot
// outside a run is untouched. It returns the number of superinstructions.
func CheckFusedLayout(m *Module) (int, error) {
	fused := 0
	for fn := range m.Codes {
		ref, err := compileFunc(m, fn)
		if err != nil {
			return 0, err
		}
		code := append([]instr(nil), ref.code...)
		fuse(code)

		targets := map[int]bool{}
		for _, in := range ref.code {
			switch in.op {
			case opBr, opBrIf:
				targets[int(in.imm0>>32)] = true
			case opBrTable:
				for _, t := range in.tbl {
					targets[int(t>>32)] = true
				}
			case opIf, opElse:
				targets[int(in.imm0)] = true
			}
		}

		same := func(a, b instr) bool { return a.op == b.op && a.imm0 == b.imm0 && a.imm1 == b.imm1 }
		for i := 0; i < len(code); {
			k := span(code[i].op)
			if k == 1 {
				if !same(code[i], ref.code[i]) {
					return 0, fmt.Errorf("func %d slot %d: rewritten without a fused op", fn, i)
				}
				i++
				continue
			}
			fused++
			if i+k > len(code) {
				return 0, fmt.Errorf("func %d slot %d: run of %d overruns the body", fn, i, k)
			}
			for j := i + 1; j < i+k; j++ {
				if !same(code[j], ref.code[j]) {
					return 0, fmt.Errorf("func %d slot %d: dead slot %d rewritten", fn, i, j)
				}
				if targets[j] {
					return 0, fmt.Errorf("func %d slot %d: branch target %d inside a fused run", fn, i, j)
				}
			}
			i += k
		}
	}
	return fused, nil
}

// LoopDispatches compiles and fuses every exported function body of m and,
// for each loop in body order, counts the dispatches on the straight path
// from loop+1 to the br that closes the loop: one per live slot, a fused
// run counting once. A loop no br closes counts -1.
func LoopDispatches(m *Module) (map[string][]int, error) {
	names := map[uint32]string{}
	for _, e := range m.Exports {
		if e.Kind == ExternFunc {
			names[e.Index] = e.Name
		}
	}
	loops := map[string][]int{}
	for fn := range m.Codes {
		name, ok := names[uint32(m.NumImportedFuncs+fn)]
		if !ok {
			continue
		}
		cf, err := compileFunc(m, fn)
		if err != nil {
			return nil, err
		}
		code := cf.code
		fuse(code)
		for l := range code {
			if code[l].op == opLoop {
				loops[name] = append(loops[name], backEdgeDispatches(code, l))
			}
		}
	}
	return loops, nil
}

// backEdgeDispatches walks the live slots from the loop at l to the first
// run holding a br back to it.
func backEdgeDispatches(code []instr, l int) int {
	n := 0
	for i := l + 1; i < len(code); {
		n++
		k := span(code[i].op)
		for _, in := range code[i : i+k] {
			if in.op == opBr && int(in.imm0>>32) == l+1 {
				return n
			}
		}
		i += k
	}
	return -1
}
