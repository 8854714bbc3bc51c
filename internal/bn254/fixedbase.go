package bn254

import "math/big"

// Fixed-base scalar multiplication with precomputed window tables. The
// Pedersen commitment g^_z^a * g^_r^b is the hot operation of the DKG
// (every coefficient of every dealer's polynomials, every share
// verification, every verification-key evaluation), and its bases are
// fixed public generators — the textbook case for windowed fixed-base
// precomputation: with 4-bit windows, T[i][d] = d * 16^i * B is computed
// once, and every subsequent multiplication is just ~64 mixed additions
// with no doublings.
//
// Cross-checked against the generic ladder in TestFixedBaseMatchesGeneric
// and measured in BenchmarkAblationFixedBase.

const fixedWindowBits = 4

// fixedWindows is the number of 4-bit windows covering a 254-bit scalar.
const fixedWindows = (254 + fixedWindowBits - 1) / fixedWindowBits

// FixedBaseG2 holds precomputed window tables for one G2 base point.
type FixedBaseG2 struct {
	base *G2
	// table[i][d-1] = d * 16^i * base, d = 1..15, in affine form.
	table [fixedWindows][1<<fixedWindowBits - 1]G2
}

// NewFixedBaseG2 precomputes the tables for base (~1200 group operations,
// amortized across every later multiplication). All of them run in
// Jacobian coordinates; two batch inversions — one for the 64 window
// bases 16^i * base, one for the 960 table entries — make them affine.
func NewFixedBaseG2(base *G2) *FixedBaseG2 {
	f := &FixedBaseG2{base: new(G2).Set(base)}
	if base.IsInfinity() {
		return f
	}
	const n = len(f.table[0])
	scratch := make([]fp2, 2*n*fixedWindows)

	var windowsJac [fixedWindows]jacG2
	var windows [fixedWindows]G2
	windowsJac[0].fromAffine(base)
	for i := 1; i < fixedWindows; i++ {
		windowsJac[i] = windowsJac[i-1]
		for s := 0; s < fixedWindowBits; s++ {
			windowsJac[i].double(&windowsJac[i])
		}
	}
	batchToAffineG2(windows[:], windowsJac[:], scratch)

	jac := make([]jacG2, n*fixedWindows)
	for i := range windows {
		multiplesG2(jac[n*i:n*(i+1)], &windows[i])
	}
	flat := make([]G2, len(jac))
	batchToAffineG2(flat, jac, scratch)
	for i := range f.table {
		copy(f.table[i][:], flat[n*i:])
	}
	return f
}

// Base returns a copy of the table's base point.
func (f *FixedBaseG2) Base() *G2 { return new(G2).Set(f.base) }

// accumulate adds k*base into the Jacobian accumulator.
func (f *FixedBaseG2) accumulate(acc *jacG2, k *big.Int) {
	for i := 0; i < fixedWindows; i++ {
		if digit := scalarDigit(k, i*fixedWindowBits, fixedWindowBits); digit != 0 {
			acc.addMixed(acc, &f.table[i][digit-1])
		}
	}
}

// ScalarMult computes k*base (k reduced modulo the group order).
func (f *FixedBaseG2) ScalarMult(k *big.Int) *G2 {
	var kr big.Int
	kr.Mod(k, Order)
	var acc jacG2
	acc.z.SetZero()
	f.accumulate(&acc, &kr)
	return acc.toAffine(new(G2))
}

// CommitG2 computes a*f + b*g for two prepared bases — the two-generator
// Pedersen commitment — with a single shared accumulator (~128 mixed
// additions, no doublings, one inversion).
func CommitG2(f, g *FixedBaseG2, a, b *big.Int) *G2 {
	var ar, br big.Int
	ar.Mod(a, Order)
	br.Mod(b, Order)
	var acc jacG2
	acc.z.SetZero()
	f.accumulate(&acc, &ar)
	g.accumulate(&acc, &br)
	return acc.toAffine(new(G2))
}
