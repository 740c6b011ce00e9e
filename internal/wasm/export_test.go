package wasm

import "fmt"

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
