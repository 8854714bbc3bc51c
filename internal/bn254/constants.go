// Package bn254 implements the Barreto-Naehrig pairing-friendly elliptic
// curve commonly known as BN254 (alt_bn128), entirely from the Go standard
// library. It provides the groups G1, G2, GT of prime order Order, the
// optimal ate pairing e: G1 x G2 -> GT, multi-pairings that share a final
// exponentiation, and hash-to-group maps.
//
// The curve is defined by the BN parameter u = 4965661367192848881:
//
//	p = 36u^4 + 36u^3 + 24u^2 + 6u + 1   (field modulus, 254 bits)
//	r = 36u^4 + 36u^3 + 18u^2 + 6u + 1   (group order, 254 bits)
//
// G1 is E(Fp): y^2 = x^3 + 3. G2 is the D-type sextic twist E'(Fp2):
// y^2 = x^3 + 3/xi with xi = 9 + i, Fp2 = Fp[i]/(i^2+1). GT is the order-r
// subgroup of Fp12*.
//
// Every derived constant (Frobenius coefficients, twist cofactor, final
// exponentiation exponents, the G1 endomorphism and its lattice basis, the
// G2 generator) is computed at package init from u alone, so there are no
// long magic constants to mistype; the few that the field arithmetic needs
// as compile-time constants (the limbs of p and -1/p mod 2^64) are checked
// against the derived values at init.
//
// Fp is a fixed-width Montgomery field: four 64-bit limbs on math/bits,
// value types on the stack, no allocation and no data-dependent branch
// from fp.Mul up through the Miller loop (fp.go). math/big appears only
// where a scalar or an exponent crosses the exported API and where the
// constants below are derived; Substrate names the representation for the
// benchmark documents.
package bn254

import (
	"math/big"
)

// Substrate names the field arithmetic under this package, as recorded in
// BENCH_core.json.
const Substrate = "montgomery-4x64"

var (
	// u is the BN parameter.
	u = new(big.Int).SetUint64(4965661367192848881)

	// P is the prime modulus of the base field Fp.
	P *big.Int

	// Order is the prime order r of G1, G2 and GT.
	Order *big.Int

	// sixUPlus2 is the Miller loop length of the optimal ate pairing.
	sixUPlus2 *big.Int

	// sixUPlus2NAF is the signed-digit schedule of the Miller loop, least
	// significant digit first: the NAF of 6u+2 has 22 nonzero digits
	// against 37 set bits in binary, and a negative digit costs the same
	// as a positive one (the line through (T, -Q) instead of (T, Q)). The
	// dropped vertical-line factors lie in Fp6 and are killed by the final
	// exponentiation, so pairing values are unchanged. The fixed-argument
	// tables (PrecomputeG2) record lines in exactly this schedule.
	sixUPlus2NAF []int8

	// uNAF is the NAF of u, the exponent of the three cyclotomic
	// exponentiations in the hard part of the final exponentiation.
	uNAF []int8

	// twistCofactor is #E'(Fp2)/r = 2p - r = p - 1 + t.
	twistCofactor *big.Int

	// hardExponent is (p^4 - p^2 + 1)/r, the exponent of the "hard part"
	// of the final exponentiation, used by the naive reference
	// implementation that cross-checks the optimized one.
	hardExponent *big.Int

	// pSquared is p^2, used by Fp2 exponentiation helpers.
	pSquared *big.Int

	// glvLambda is λ = 36u^4 − 1, the cube root of unity mod r with
	// φ(P) = [λ]P on G1 (glv.go).
	glvLambda *big.Int
)

var (
	// xi = 9 + i, the quadratic/cubic non-residue in Fp2 defining the
	// towers Fp6 = Fp2[v]/(v^3 - xi) and Fp12 = Fp6[w]/(w^2 - v).
	xi fp2

	// bG1 = 3, the constant of E(Fp).
	bG1 fp

	// fpHalf = 1/2, for the complex square root in Fp2.
	fpHalf fp

	// bTwist = 3/xi, the constant of the sextic twist E'(Fp2).
	bTwist fp2

	// frobGamma[k] = xi^(k(p-1)/6) for k = 0..5: the coefficients of the
	// Frobenius endomorphism on Fp12 in the flat w-power basis.
	frobGamma [6]fp2

	// xiToPMinus1Over3 and xiToPMinus1Over2 define the "untwist-Frobenius-
	// twist" endomorphism pi on E'(Fp2): pi(x, y) = (conj(x)*xiToPMinus1Over3,
	// conj(y)*xiToPMinus1Over2).
	xiToPMinus1Over3 fp2
	xiToPMinus1Over2 fp2
)

var (
	g1Gen *G1
	g2Gen *G2
	gtGen *GT
)

func init() {
	initScalars()
	initField()
	initTowerConstants()
	initGLV()
	initGenerators()
}

// initScalars derives p, r and the pairing exponents from u.
func initScalars() {
	one := big.NewInt(1)
	u2 := new(big.Int).Mul(u, u)
	u3 := new(big.Int).Mul(u2, u)
	u4 := new(big.Int).Mul(u3, u)

	// p = 36u^4 + 36u^3 + 24u^2 + 6u + 1
	P = new(big.Int).Mul(u4, big.NewInt(36))
	P.Add(P, new(big.Int).Mul(u3, big.NewInt(36)))
	P.Add(P, new(big.Int).Mul(u2, big.NewInt(24)))
	P.Add(P, new(big.Int).Mul(u, big.NewInt(6)))
	P.Add(P, one)

	// r = 36u^4 + 36u^3 + 18u^2 + 6u + 1
	Order = new(big.Int).Mul(u4, big.NewInt(36))
	Order.Add(Order, new(big.Int).Mul(u3, big.NewInt(36)))
	Order.Add(Order, new(big.Int).Mul(u2, big.NewInt(18)))
	Order.Add(Order, new(big.Int).Mul(u, big.NewInt(6)))
	Order.Add(Order, one)

	if !P.ProbablyPrime(64) || !Order.ProbablyPrime(64) {
		panic("bn254: derived parameters are not prime")
	}

	sixUPlus2 = new(big.Int).Mul(u, big.NewInt(6))
	sixUPlus2.Add(sixUPlus2, big.NewInt(2))
	sixUPlus2NAF = nafDigits(sixUPlus2)
	uNAF = nafDigits(u)

	// #E'(Fp2) = r * (2p - r), so the twist cofactor is 2p - r.
	twistCofactor = new(big.Int).Lsh(P, 1)
	twistCofactor.Sub(twistCofactor, Order)

	pSquared = new(big.Int).Mul(P, P)

	// hardExponent = (p^4 - p^2 + 1)/r.
	p4 := new(big.Int).Mul(pSquared, pSquared)
	hardExponent = new(big.Int).Sub(p4, pSquared)
	hardExponent.Add(hardExponent, one)
	var rem big.Int
	hardExponent.QuoRem(hardExponent, Order, &rem)
	if rem.Sign() != 0 {
		panic("bn254: (p^4-p^2+1) not divisible by r")
	}
}

// initTowerConstants computes the non-residue, twist constant and all
// Frobenius coefficients.
func initTowerConstants() {
	xi.c0.SetInt64(9)
	xi.c1.SetInt64(1)

	bG1.SetInt64(3)
	fpHalf.SetInt64(2)
	fpHalf.Inverse(&fpHalf)

	var xiInv fp2
	xiInv.Inverse(&xi)
	var three fp2
	three.c0.SetInt64(3)
	bTwist.Mul(&three, &xiInv)

	// frobGamma[k] = xi^(k(p-1)/6).
	exp := new(big.Int).Sub(P, big.NewInt(1))
	exp.Div(exp, big.NewInt(6))
	var g1 fp2
	g1.Exp(&xi, exp)
	frobGamma[0].SetOne()
	for k := 1; k < 6; k++ {
		frobGamma[k].Mul(&frobGamma[k-1], &g1)
	}

	// xi^((p-1)/3) = gamma^2, xi^((p-1)/2) = gamma^3.
	xiToPMinus1Over3.Set(&frobGamma[2])
	xiToPMinus1Over2.Set(&frobGamma[3])
}

// initGLV derives the endomorphism φ(x, y) = (βx, y) = [λ]P of G1 and
// the constants glvSplit works with (glv.go), all from u:
//
//	β = −(18u^3 + 18u^2 + 9u + 2) mod p,   λ = 36u^4 − 1,
//	(a1, b1) = (2u + 1, 6u^2 + 4u + 1),   (a2, b2) = (6u^2 + 2u, −(2u + 1)).
//
// Of the two cube roots of unity in Fp, β is the one that pairs with λ:
// TestGLVConstants checks φ(G) = [λ]G.
func initGLV() {
	poly := func(c ...int64) *big.Int { // Σ c[i]·u^i
		acc := new(big.Int)
		for i := len(c) - 1; i >= 0; i-- {
			acc.Mul(acc, u)
			acc.Add(acc, big.NewInt(c[i]))
		}
		return acc
	}
	glvLambda = poly(-1, 0, 0, 0, 36)
	t := new(big.Int).Mul(glvLambda, glvLambda)
	t.Add(t, glvLambda)
	if t.Add(t, big.NewInt(1)).Mod(t, Order).Sign() != 0 {
		panic("bn254: λ is not a cube root of unity mod r")
	}
	beta := poly(2, 9, 18, 18)
	glvBeta.SetBig(beta.Neg(beta))
	var b3 fp
	b3.Square(&glvBeta)
	if !b3.Mul(&b3, &glvBeta).Equal(&fpOne) || glvBeta.Equal(&fpOne) {
		panic("bn254: β is not a primitive cube root of unity in Fp")
	}

	a1, b1 := poly(1, 2), poly(1, 4, 6)
	a2, b2 := poly(0, 2, 6), poly(-1, -2)
	for _, v := range [][2]*big.Int{{a1, b1}, {a2, b2}} {
		t.Mul(v[1], glvLambda)
		if t.Add(t, v[0]).Mod(t, Order).Sign() != 0 {
			panic("bn254: GLV basis vector is not in the lattice")
		}
	}
	det := new(big.Int).Mul(a1, b2)
	det.Sub(det, t.Mul(a2, b1))
	if det.CmpAbs(Order) != 0 {
		panic("bn254: GLV basis does not span the lattice")
	}
	// Babai rounding: (k, 0) = c1·(a1, b1) + c2·(a2, b2) over Q with
	// c1 = k·b2/det and c2 = −k·b1/det. With g = round(2^256·b/det) and
	// k < 2^254, round(k·g/2^256) is within 1/2 + 1/8 of c, so
	// |k1| <= 5/8·(|a1| + |a2|) and |k2| <= 5/8·(|b1| + |b2|).
	round := func(num *big.Int) *big.Int {
		n, d := new(big.Int).Lsh(num, 257), new(big.Int).Lsh(det, 1)
		if d.Sign() < 0 {
			n.Neg(n)
			d.Neg(d)
		}
		return n.Add(n, new(big.Int).Rsh(d, 1)).Div(n, d)
	}
	g1, g2 := round(b2), round(new(big.Int).Neg(b1))
	if g1.Sign() < 0 || g2.Sign() < 0 || g1.BitLen() > 130 || g2.BitLen() > 130 {
		panic("bn254: GLV rounding constants out of range")
	}
	halfBound := func(x, y *big.Int) bool { // 5/8·(|x| + |y|) < 2^127
		s := new(big.Int).Abs(x)
		s.Add(s, new(big.Int).Abs(y))
		return s.Mul(s, big.NewInt(5)).BitLen() <= 130
	}
	if !halfBound(a1, a2) || !halfBound(b1, b2) {
		panic("bn254: GLV basis too long for 127-bit halves")
	}

	mod := new(big.Int).Lsh(big.NewInt(1), 256)
	limbs := func(x *big.Int) u256 { // two's complement mod 2^256
		var buf [32]byte
		new(big.Int).Mod(x, mod).FillBytes(buf[:])
		return u256(loadLimbs(&buf))
	}
	glvA1, glvB1, glvA2, glvB2 = limbs(a1), limbs(b1), limbs(a2), limbs(b2)
	glvRound1, glvRound2 = limbs(g1), limbs(g2)
	orderLimbs = limbs(Order)
	orderLimbs2 = limbs(new(big.Int).Lsh(Order, 1))
	orderLimbs4 = limbs(new(big.Int).Lsh(Order, 2))
}

// initGenerators fixes the conventional G1 generator (1, 2), derives a G2
// generator deterministically by hashing to the twist and clearing the
// cofactor, and computes the GT generator as their pairing.
func initGenerators() {
	g1Gen = &G1{notInf: true}
	g1Gen.x.SetInt64(1)
	g1Gen.y.SetInt64(2)
	if !g1Gen.isOnCurve() {
		panic("bn254: (1,2) is not on E(Fp)")
	}
	// The plain ladder: ScalarMult would reduce r to zero first, and the
	// GLV split presumes the point already has order r.
	if !scalarMultBinaryG1(g1Gen, Order).IsInfinity() {
		panic("bn254: G1 generator does not have order r")
	}
	if new(G1).Double(g1Gen).IsInfinity() {
		panic("bn254: G1 generator degenerate")
	}

	g2Gen = hashToG2Internal("BN254-G2-GENERATOR", []byte("v1"))
	if g2Gen.IsInfinity() {
		panic("bn254: failed to derive G2 generator")
	}
	if !g2Gen.inSubgroup() {
		panic("bn254: G2 generator does not have order r")
	}

	gtGen = Pair(g1Gen, g2Gen)
	if gtGen.IsOne() {
		panic("bn254: pairing of generators is degenerate")
	}
}

// G1Generator returns a copy of the fixed generator of G1.
func G1Generator() *G1 { return new(G1).Set(g1Gen) }

// G2Generator returns a copy of the fixed generator of G2.
func G2Generator() *G2 { return new(G2).Set(g2Gen) }
