package bn254

import "errors"

// This file implements the optimal ate pairing
//
//	e(P, Q) = f^((p^12-1)/r),  f = f_{6u+2,Q}(P) * l_{T,pi(Q)}(P) * l_{T',-pi^2(Q)}(P)
//
// with line functions in affine slope form on the twist (precompute.go
// computes them) and evaluated as sparse Fp12 elements. For a twist point T = (x, y)
// untwisted to (x w^2, y w^3), the line through psi(T) with twist-slope
// lambda, evaluated at P = (xP, yP) in G1, is
//
//	l(P) = yP - lambda*xP * w + (lambda*x - y) * w^3
//
// i.e. sparse with coefficients at w^0 (in Fp), w^1 and w^3 (in Fp2).

// lineEval holds a sparse line value.
type lineEval struct {
	a0 fp  // coefficient of w^0
	a1 fp2 // coefficient of w^1
	a3 fp2 // coefficient of w^3
	// vertical lines have a different shape: xP - x*w^2.
	vertical bool
	v0       fp  // coefficient of w^0 for vertical lines
	v2       fp2 // coefficient of w^2 for vertical lines
}

// asFp12 expands the sparse line into a full Fp12 element.
func (l *lineEval) asFp12(out *fp12) {
	out.SetZero()
	if l.vertical {
		out.c0.b0.SetFp(&l.v0) // w^0
		out.c0.b1.Set(&l.v2)   // w^2
		return
	}
	out.c0.b0.SetFp(&l.a0) // w^0
	out.c1.b0.Set(&l.a1)   // w^1
	out.c1.b1.Set(&l.a3)   // w^3
}

// mulSparse6 sets out = c * (b0 + b1*v), the product of an fp6 element and
// a sparse one (b2 = 0), with five fp2 multiplications: Karatsuba on the
// pairs (c0, c1) and the shared products c0*b0, c1*b1. out may alias c.
func mulSparse6(out, c *fp6, b0, b1 *fp2) {
	var a, b, z0, z1, z2, s, t fp2
	a.Mul(&c.b0, b0)
	b.Mul(&c.b1, b1)
	// z0 = c0*b0 + xi*(c2*b1)
	z0.Mul(&c.b2, b1)
	z0.MulXi(&z0)
	z0.Add(&z0, &a)
	// z1 = c0*b1 + c1*b0 = (c0+c1)(b0+b1) - a - b
	s.Add(&c.b0, &c.b1)
	t.Add(b0, b1)
	z1.Mul(&s, &t)
	z1.Sub(&z1, &a)
	z1.Sub(&z1, &b)
	// z2 = c1*b1 + c2*b0
	z2.Mul(&c.b2, b0)
	z2.Add(&z2, &b)
	out.b0, out.b1, out.b2 = z0, z1, z2
}

// mulByLine multiplies f in place by the sparse line value, exploiting its
// shape (coefficients only at w^0, w^1, w^3 — or w^0, w^2 for vertical
// lines). Cross-checked against the generic asFp12 + Mul path in
// TestSparseLineMulMatchesGeneric and in BenchmarkAblationLineMul.
func mulByLine(f *fp12, l *lineEval) {
	if l.vertical {
		// line = (v0 + v2*v) + 0*w: both halves scale by the same sparse
		// fp6 element.
		var v0 fp2
		v0.SetFp(&l.v0)
		mulSparse6(&f.c0, &f.c0, &v0, &l.v2)
		mulSparse6(&f.c1, &f.c1, &v0, &l.v2)
		return
	}
	// line = a + b*w with a = (a0, 0, 0), b = (a1, a3, 0), Karatsuba over w:
	// t0 = f.c0 * a, a scaling by the base-field constant a0.
	var t0, t1, sum, z1 fp6
	t0.b0.MulFp(&f.c0.b0, &l.a0)
	t0.b1.MulFp(&f.c0.b1, &l.a0)
	t0.b2.MulFp(&f.c0.b2, &l.a0)
	// t1 = f.c1 * b.
	mulSparse6(&t1, &f.c1, &l.a1, &l.a3)
	// z1 = (f.c0 + f.c1)*(a + b) - t0 - t1, with a+b = (a0+a1, a3, 0).
	sum.Add(&f.c0, &f.c1)
	ab0 := l.a1
	ab0.c0.Add(&ab0.c0, &l.a0)
	mulSparse6(&z1, &sum, &ab0, &l.a3)
	z1.Sub(&z1, &t0)
	f.c1.Sub(&z1, &t1)
	// z0 = t0 + v*t1.
	f.c0.MulByV(&t1)
	f.c0.Add(&f.c0, &t0)
}

// miller computes the Miller function value f for one (P, Q) pair,
// accumulating into f (callers initialize f to one). A fresh Q is a fixed
// Q whose line table lives on the stack for the length of the loop: the
// G2 arithmetic runs first (buildLines, one inversion for all of it), then
// the same accumulation loop MillerLoopFixed uses.
func miller(p *G1, q *G2, f *fp12) {
	if p.IsInfinity() || q.IsInfinity() {
		return
	}
	var buf [maxMillerLines]prepLine
	cs := [1]millerCursor{{p: *p, lines: buildLines(q, buf[:0])}}
	millerAccumulate(cs[:], f)
}

// finalExponentiation sets out = f^((p^12-1)/r); out may alias f. The easy
// part is computed exactly; the hard part uses the Fuentes-Castaneda et
// al. addition chain (which computes a fixed power of the classical hard
// part — still a non-degenerate pairing with the same kernel structure).
func finalExponentiation(out, f *fp12) {
	// Easy part: f^((p^6-1)(p^2+1)).
	var t0, t1, inv fp12
	t0.Conjugate(f)
	inv.Inverse(f)
	t0.Mul(&t0, &inv) // f^(p^6-1)
	t1.FrobeniusP2(&t0)
	t0.Mul(&t0, &t1) // f^((p^6-1)(p^2+1))

	hardPart(out, &t0)
}

// hardPart computes the hard part of the final exponentiation on an
// element already raised to (p^6-1)(p^2+1).
func hardPart(out, in *fp12) {
	var fp1, fp2x, fp3 fp12
	fp1.Frobenius(in)
	fp2x.FrobeniusP2(in)
	fp3.Frobenius(&fp2x)

	// The input is in the cyclotomic subgroup, so compressed squarings
	// apply to the exponentiations by u.
	var fu, fu2, fu3 fp12
	fu.cyclotomicExpNAF(in, uNAF)
	fu2.cyclotomicExpNAF(&fu, uNAF)
	fu3.cyclotomicExpNAF(&fu2, uNAF)

	var y3, fu2p, fu3p, y2 fp12
	y3.Frobenius(&fu)
	fu2p.Frobenius(&fu2)
	fu3p.Frobenius(&fu3)
	y2.FrobeniusP2(&fu2)

	var y0 fp12
	y0.Mul(&fp1, &fp2x)
	y0.Mul(&y0, &fp3)

	var y1, y4, y5, y6 fp12
	y1.Conjugate(in)
	y5.Conjugate(&fu2)
	y3.Conjugate(&y3)
	y4.Mul(&fu, &fu2p)
	y4.Conjugate(&y4)
	y6.Mul(&fu3, &fu3p)
	y6.Conjugate(&y6)

	var t0, t1 fp12
	t0.Square(&y6)
	t0.Mul(&t0, &y4)
	t0.Mul(&t0, &y5)
	t1.Mul(&y3, &y5)
	t1.Mul(&t1, &t0)
	t0.Mul(&t0, &y2)
	t1.Square(&t1)
	t1.Mul(&t1, &t0)
	t1.Square(&t1)
	t0.Mul(&t1, &y1)
	t1.Mul(&t1, &y0)
	t0.Square(&t0)
	out.Mul(&t0, &t1)
}

// Pair computes the optimal ate pairing e(p, q).
func Pair(p *G1, q *G2) *GT {
	out := NewGT()
	miller(p, q, &out.v)
	finalExponentiation(&out.v, &out.v)
	return out
}

// MultiPair computes the product of pairings prod_i e(ps[i], qs[i]) with a
// single shared final exponentiation. This is how a verifier evaluates the
// "product of four pairings" of the paper's verification equation at the
// cost of four Miller loops sharing one squaring chain and one
// exponentiation (see millerProduct).
func MultiPair(ps []*G1, qs []*G2) (*GT, error) {
	if len(ps) != len(qs) {
		return nil, errors.New("bn254: mismatched pairing input lengths")
	}
	slots := make([]*PairingSlot, len(ps))
	for i := range ps {
		slots[i] = &PairingSlot{P: ps[i], Q: qs[i]}
	}
	return MultiPairMixed(slots)
}

// PairingCheck reports whether prod_i e(ps[i], qs[i]) == 1. It skips the
// expensive final exponentiation's cost asymmetry by checking the
// exponentiated product directly.
func PairingCheck(ps []*G1, qs []*G2) bool {
	acc, err := MultiPair(ps, qs)
	if err != nil {
		return false
	}
	return acc.IsOne()
}
