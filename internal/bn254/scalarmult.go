package bn254

import "math/big"

// The scalar ladders: everything that walks the bits of a *big.Int scalar
// over the point arithmetic of jacobian.go.

const windowBits = 4

// The window table costs one field inversion (to make its entries affine)
// on top of its fourteen group operations, which only a long scalar earns
// back; below these bit lengths a plain double-and-add on the base point
// is cheaper. The DKG multiplies commitments by powers of small player
// indices, a few bits each. Measured crossovers: BenchmarkAblationLadder
// and docs/PERF.md.
const (
	shortScalarBitsG1 = 160
	shortScalarBitsG2 = 96
)

// scalarDigit returns the width-bit digit of k that starts at bit start.
func scalarDigit(k *big.Int, start, width int) int {
	digit := 0
	for d := width - 1; d >= 0; d-- {
		digit = digit<<1 | int(k.Bit(start+d))
	}
	return digit
}

// scalarMultJacG1 computes k*a for a non-negative k, already reduced.
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

// scalarMultWindowG1 is the 4-bit fixed-window Jacobian ladder, for a
// finite a and a positive k.
func scalarMultWindowG1(a *G1, k *big.Int) *G1 {
	// The multiples 1a..15a, built in Jacobian form and made affine with
	// one shared inversion, so the ~64 window additions are mixed ones.
	const n = 1<<windowBits - 1
	var jac [n]jacG1
	var table [n]G1
	var scratch [2 * n]fp
	multiplesG1(jac[:], a)
	batchToAffineG1(table[:], jac[:], scratch[:])

	var acc jacG1
	acc.z.SetZero()
	// Round up to a whole number of windows.
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
	return acc.toAffine(new(G1))
}

// scalarMultJacG2 mirrors scalarMultJacG1 over Fp2.
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
