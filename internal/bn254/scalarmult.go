package bn254

import "math/big"

// The scalar ladders: everything that turns a *big.Int scalar into point
// arithmetic (jacobian.go). In G1 every long scalar runs on the GLV split
// (glv.go): ScalarMult and G1MSM on the variable-time width-5 NAF ladder,
// MultiScalarMultSharedG1 on the regular one. G2 keeps the 4-bit
// fixed-window ladder.

const windowBits = 4

// The window table costs one field inversion (to make its entries affine)
// on top of its group operations, which only a long scalar earns back;
// below these bit lengths a plain double-and-add on the base point is
// cheaper. The DKG multiplies commitments by powers of small player
// indices, a few bits each. Measured crossovers: BenchmarkAblationLadder
// and docs/PERF.md.
const (
	shortScalarBitsG1 = 128
	shortScalarBitsG2 = 96
)

// scalarDigit returns the width-bit digit of k that starts at bit start,
// for the variable-time ladders on public scalars.
func scalarDigit(k *big.Int, start, width int) int {
	digit := 0
	for d := width - 1; d >= 0; d-- {
		digit = digit<<1 | int(k.Bit(start+d))
	}
	return digit
}

// scalarLimbs returns k mod r as limbs, for any sign and size of k. This is
// where a secret scalar leaves math/big: the reduction and the negation
// are masked, but reading the *big.Int (its sign, length and words) is not
// constant time, and a k of more than 256 bits — never a reduced secret —
// is reduced by big.Int division.
func scalarLimbs(k *big.Int) u256 {
	if k.BitLen() > 256 {
		k = new(big.Int).Mod(k, Order)
	}
	var buf [32]byte
	k.FillBytes(buf[:]) // |k|
	v := u256(loadLimbs(&buf))
	v.reduceOrder()
	v.negOrder(uint64(int64(k.Sign()) >> 1)) // all ones when k < 0
	return v
}

// scalarMultJacG1 computes k*a for a non-negative k, already reduced.
// Variable time: for public scalars.
func scalarMultJacG1(a *G1, k *big.Int) *G1 {
	if a.IsInfinity() || k.Sign() == 0 {
		return new(G1)
	}
	if k.BitLen() <= shortScalarBitsG1 {
		return scalarMultBinaryG1(a, k)
	}
	return scalarMultWindowG1(a, k)
}

// scalarMultBinaryG1 is the table-free Jacobian double-and-add ladder.
func scalarMultBinaryG1(a *G1, k *big.Int) *G1 {
	var acc jacG1
	acc.z.SetZero()
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc.double(&acc)
		if k.Bit(i) == 1 {
			acc.addMixed(&acc, a)
		}
	}
	return acc.toAffine(new(G1))
}

// scalarMultWindowG1 is the width-5 NAF ladder over the odd multiples of a
// and of φ(a), for a finite a and a positive k < r: a k longer than 128
// bits runs as its two GLV halves on one run of ~127 doublings. Variable
// time: for public scalars.
func scalarMultWindowG1(a *G1, k *big.Int) *G1 {
	var jac [glvTableSize]jacG1
	var tables [2 * glvTableSize]G1
	var scratch [2 * glvTableSize]fp
	fillGLVTables(tables[:], jac[:], scratch[:], []*G1{a})

	var terms [2]wnafTerm
	kl := scalarLimbs(k)
	var acc jacG1
	ladderWNAF(&acc, tables[:], appendWNAFTerms(terms[:0], 0, glvTableSize, &kl))
	return acc.toAffine(new(G1))
}

// scalarMultJacG2 mirrors scalarMultJacG1 over Fp2, on the 4-bit window.
func scalarMultJacG2(a *G2, k *big.Int) *G2 {
	if a.IsInfinity() || k.Sign() == 0 {
		return new(G2)
	}
	if k.BitLen() <= shortScalarBitsG2 {
		return scalarMultBinaryG2(a, k)
	}
	return scalarMultWindowG2(a, k)
}

func scalarMultBinaryG2(a *G2, k *big.Int) *G2 {
	var acc jacG2
	acc.z.SetZero()
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc.double(&acc)
		if k.Bit(i) == 1 {
			acc.addMixed(&acc, a)
		}
	}
	return acc.toAffine(new(G2))
}

func scalarMultWindowG2(a *G2, k *big.Int) *G2 {
	const n = 1<<windowBits - 1
	var jac [n]jacG2
	var table [n]G2
	var scratch [2 * n]fp2
	multiplesG2(jac[:], a)
	batchToAffineG2(table[:], jac[:], scratch[:])

	var acc jacG2
	acc.z.SetZero()
	top := (k.BitLen() + windowBits - 1) / windowBits * windowBits
	for w := top - windowBits; w >= 0; w -= windowBits {
		if w != top-windowBits {
			for d := 0; d < windowBits; d++ {
				acc.double(&acc)
			}
		}
		if idx := scalarDigit(k, w, windowBits); idx != 0 {
			acc.addMixed(&acc, &table[idx-1])
		}
	}
	return acc.toAffine(new(G2))
}

// scalarMultAffineG1 is the binary double-and-add reference used by the
// ablation benchmark and the cross-check tests.
func scalarMultAffineG1(a *G1, k *big.Int) *G1 {
	var acc, base G1
	base.Set(a)
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc.Double(&acc)
		if k.Bit(i) == 1 {
			acc.Add(&acc, &base)
		}
	}
	return new(G1).Set(&acc)
}

// scalarMultAffineG2 mirrors scalarMultAffineG1 for G2.
func scalarMultAffineG2(a *G2, k *big.Int) *G2 {
	var acc, base G2
	base.Set(a)
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc.Double(&acc)
		if k.Bit(i) == 1 {
			acc.Add(&acc, &base)
		}
	}
	return new(G2).Set(&acc)
}
