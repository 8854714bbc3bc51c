package bn254

import "math/big"

// Reference implementations the optimized paths are compared against: the
// per-step affine G2 arithmetic behind the Miller loop (one Fp2 inversion
// per line — what PrecomputeG2 did before the steps moved to Jacobian
// coordinates with one shared inversion), the square-and-multiply final
// exponentiation, and the G1 Strauss ladder from before the GLV split.

// lineCoeffDoubleAffine computes the tangent-line coefficients at t and
// doubles t in place.
func lineCoeffDoubleAffine(t *G2, out *prepLine) {
	// lambda = 3x^2 / 2y on the twist.
	var num, den fp2
	num.Square(&t.x)
	num.triple(&num)
	den.Double(&t.y)
	den.Inverse(&den)

	out.vertical = false
	out.lambda.Mul(&num, &den)
	out.c.Mul(&out.lambda, &t.x)
	out.c.Sub(&out.c, &t.y)

	var x3, y3 fp2
	x3.Square(&out.lambda)
	x3.Sub(&x3, &t.x)
	x3.Sub(&x3, &t.x)
	y3.Sub(&t.x, &x3)
	y3.Mul(&y3, &out.lambda)
	y3.Sub(&y3, &t.y)
	t.x.Set(&x3)
	t.y.Set(&y3)
}

// lineCoeffAddAffine computes the coefficients of the line through t and q
// and sets t = t + q.
func lineCoeffAddAffine(t, q *G2, out *prepLine) {
	if t.x.Equal(&q.x) {
		if t.y.Equal(&q.y) {
			lineCoeffDoubleAffine(t, out)
			return
		}
		// Vertical line x = t.x.
		out.vertical = true
		out.c.Neg(&t.x)
		t.SetInfinity()
		return
	}
	var num, den fp2
	num.Sub(&q.y, &t.y)
	den.Sub(&q.x, &t.x)
	den.Inverse(&den)

	out.vertical = false
	out.lambda.Mul(&num, &den)
	out.c.Mul(&out.lambda, &t.x)
	out.c.Sub(&out.c, &t.y)

	var x3, y3 fp2
	x3.Square(&out.lambda)
	x3.Sub(&x3, &t.x)
	x3.Sub(&x3, &q.x)
	y3.Sub(&t.x, &x3)
	y3.Mul(&y3, &out.lambda)
	y3.Sub(&y3, &t.y)
	t.x.Set(&x3)
	t.y.Set(&y3)
}

// linesAffine is buildLines on affine arithmetic.
func linesAffine(q *G2) []prepLine {
	var t, negQ G2
	t.Set(q)
	negQ.Neg(q)
	var lines []prepLine
	for i := len(sixUPlus2NAF) - 2; i >= 0; i-- {
		var dl prepLine
		lineCoeffDoubleAffine(&t, &dl)
		lines = append(lines, dl)
		if d := sixUPlus2NAF[i]; d != 0 {
			var al prepLine
			if d == 1 {
				lineCoeffAddAffine(&t, q, &al)
			} else {
				lineCoeffAddAffine(&t, &negQ, &al)
			}
			lines = append(lines, al)
		}
	}
	var q1, q2 G2
	q1.frobenius(q)
	q2.frobenius(&q1)
	q2.Neg(&q2)
	var f1, f2 prepLine
	lineCoeffAddAffine(&t, &q1, &f1)
	lineCoeffAddAffine(&t, &q2, &f2)
	return append(lines, f1, f2)
}

// millerAffine is the Miller loop with every line computed on the spot by
// affine arithmetic and multiplied in as a full (non-sparse) Fp12 element.
func millerAffine(p *G1, q *G2, f *fp12) {
	if p.IsInfinity() || q.IsInfinity() {
		return
	}
	lines := linesAffine(q)
	var acc, lf fp12
	var l lineEval
	acc.SetOne()
	next := func() {
		lines[0].evalInto(p, &l)
		lines = lines[1:]
		l.asFp12(&lf)
		acc.Mul(&acc, &lf)
	}
	for i := len(sixUPlus2NAF) - 2; i >= 0; i-- {
		acc.Square(&acc)
		next()
		if sixUPlus2NAF[i] != 0 {
			next()
		}
	}
	next()
	next()
	f.Mul(f, &acc)
}

// finalExponentiationNaive is the reference final exponentiation: easy
// part, then a plain square-and-multiply by (p^4-p^2+1)/r.
func finalExponentiationNaive(f *fp12) *fp12 {
	var t0, t1, inv fp12
	t0.Conjugate(f)
	inv.Inverse(f)
	t0.Mul(&t0, &inv)
	t1.FrobeniusP2(&t0)
	t0.Mul(&t0, &t1)

	out := new(fp12)
	out.Exp(&t0, hardExponent)
	return out
}

// pairNaive is Pair on the reference Miller loop and final exponentiation.
func pairNaive(p *G1, q *G2) *GT {
	var f fp12
	f.SetOne()
	millerAffine(p, q, &f)
	out := &GT{}
	out.v.Set(finalExponentiationNaive(&f))
	return out
}

// multiplesG1 is multiplesG2 over G1: it fills out[i] = (i+1)*p in Jacobian form: even multiples by
// doubling, odd ones by one mixed addition. p must be finite.
func multiplesG1(out []jacG1, p *G1) {
	out[0].fromAffine(p)
	for i := 1; i < len(out); i++ {
		if i%2 == 1 {
			out[i].double(&out[i/2])
		} else {
			out[i].addMixed(&out[i-1], p)
		}
	}
}

// msmStraussWindow4 is the G1 Strauss ladder before the GLV split: per-point
// tables of 1P..15P, 4-bit unsigned windows over the full scalar length,
// ~252 doublings. BenchmarkAblationGLV measures against it.
func msmStraussWindow4(points []*G1, scalars []*big.Int, maxBits int) *G1 {
	const n = 1<<windowBits - 1
	jac := make([]jacG1, n*len(points))
	for i, p := range points {
		multiplesG1(jac[n*i:n*(i+1)], p)
	}
	tables := make([]G1, len(jac))
	batchToAffineG1(tables, jac, make([]fp, 2*len(jac)))

	var acc jacG1
	acc.z.SetZero()
	top := (maxBits + windowBits - 1) / windowBits * windowBits
	for w := top - windowBits; w >= 0; w -= windowBits {
		if w != top-windowBits {
			for d := 0; d < windowBits; d++ {
				acc.double(&acc)
			}
		}
		for i, s := range scalars {
			if idx := scalarDigit(s, w, windowBits); idx != 0 {
				acc.addMixed(&acc, &tables[n*i+idx-1])
			}
		}
	}
	return acc.toAffine(new(G1))
}

// Field helpers that only the tests call.

// Exp sets z = x^e for a non-negative public exponent e.
func (z *fp) Exp(x *fp, e *big.Int) *fp {
	acc, base := fpOne, *x
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc.Square(&acc)
		if e.Bit(i) == 1 {
			acc.Mul(&acc, &base)
		}
	}
	*z = acc
	return z
}

// isSquare reports whether z is a quadratic residue (including zero).
func (z *fp) isSquare() bool {
	var w fp
	w.rootPower(z)
	w.Square(&w)
	w.Mul(&w, z)
	return w.Equal(&fpOne) || z.IsZero()
}

// isSquare reports whether x is a square in Fp2, via the norm map: x is a
// square iff its norm a^2 + b^2 is a square in Fp.
func (z *fp2) isSquare() bool {
	var a2, b2, norm fp
	a2.Square(&z.c0)
	b2.Square(&z.c1)
	norm.Add(&a2, &b2)
	return norm.isSquare()
}
