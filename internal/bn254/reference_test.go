package bn254

import (
	"math/big"
	"math/bits"
)

// Reference implementations the optimized paths are compared against: the
// per-step affine G2 arithmetic behind the Miller loop (one Fp2 inversion
// per line — what PrecomputeG2 did before the steps moved to Jacobian
// coordinates with one shared inversion), the square-and-multiply final
// exponentiation, the G1 Strauss ladder from before the GLV split, the
// Montgomery product from before the no-carry schedule with the Fp2 and G2
// formulas on top of it (and fp2.Mul before lazy reduction), and the G2
// fixed-base window and a variable-time comb, both measured against the
// constant-time comb.

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

// maddReference returns the two words of a*b + c + d, which cannot
// overflow them: (2^64-1)^2 + 2(2^64-1) = 2^128 - 1.
func maddReference(a, b, c, d uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(a, b)
	var carry uint64
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	lo, carry = bits.Add64(lo, d, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return hi, lo
}

// mulReference is fp.Mul before the no-carry schedule: the same CIOS
// rounds, each word product added into the accumulator with its own two
// carries (maddReference). It keeps Mul's contract — any four-limb x,
// y < p, a fully reduced result — and TestMulMatchesReference holds the
// two to it.
// mulReference is fp.Mul before the no-carry schedule: the same CIOS
// rounds, each word product added into the accumulator with its own two
// carries (maddReference). It keeps Mul's contract — any four-limb x,
// y < p, a fully reduced result — and TestMulMatchesReference holds the
// two to each other.
func mulReference(z, x, y *fp) *fp {
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	var t0, t1, t2, t3, a, c, lo, m uint64

	v := x[0]
	a, lo = bits.Mul64(v, y0)
	m = lo * qInvNeg
	c, _ = maddReference(m, q0, lo, 0)
	a, lo = maddReference(v, y1, a, 0)
	c, t0 = maddReference(m, q1, lo, c)
	a, lo = maddReference(v, y2, a, 0)
	c, t1 = maddReference(m, q2, lo, c)
	a, lo = maddReference(v, y3, a, 0)
	c, t2 = maddReference(m, q3, lo, c)
	t3 = c + a

	v = x[1]
	a, lo = maddReference(v, y0, t0, 0)
	m = lo * qInvNeg
	c, _ = maddReference(m, q0, lo, 0)
	a, lo = maddReference(v, y1, t1, a)
	c, t0 = maddReference(m, q1, lo, c)
	a, lo = maddReference(v, y2, t2, a)
	c, t1 = maddReference(m, q2, lo, c)
	a, lo = maddReference(v, y3, t3, a)
	c, t2 = maddReference(m, q3, lo, c)
	t3 = c + a

	v = x[2]
	a, lo = maddReference(v, y0, t0, 0)
	m = lo * qInvNeg
	c, _ = maddReference(m, q0, lo, 0)
	a, lo = maddReference(v, y1, t1, a)
	c, t0 = maddReference(m, q1, lo, c)
	a, lo = maddReference(v, y2, t2, a)
	c, t1 = maddReference(m, q2, lo, c)
	a, lo = maddReference(v, y3, t3, a)
	c, t2 = maddReference(m, q3, lo, c)
	t3 = c + a

	v = x[3]
	a, lo = maddReference(v, y0, t0, 0)
	m = lo * qInvNeg
	c, _ = maddReference(m, q0, lo, 0)
	a, lo = maddReference(v, y1, t1, a)
	c, t0 = maddReference(m, q1, lo, c)
	a, lo = maddReference(v, y2, t2, a)
	c, t1 = maddReference(m, q2, lo, c)
	a, lo = maddReference(v, y3, t3, a)
	c, t2 = maddReference(m, q3, lo, c)
	t3 = c + a

	z.reduceOnce(t0, t1, t2, t3)
	return z
}

// fp2MulKaratsuba is fp2.Mul before lazy reduction: Karatsuba on three
// reduced Mul products.
func fp2MulKaratsuba(z, x, y *fp2) *fp2 {
	var ac, bd, s, t fp
	ac.Mul(&x.c0, &y.c0)
	bd.Mul(&x.c1, &y.c1)
	s.Add(&x.c0, &x.c1)
	t.Add(&y.c0, &y.c1)
	s.Mul(&s, &t)
	s.Sub(&s, &ac)
	z.c1.Sub(&s, &bd)
	z.c0.Sub(&ac, &bd)
	return z
}

// fp2MulReference is fp2MulKaratsuba on mulReference: fp2.Mul before both
// the no-carry schedule and lazy reduction.
func fp2MulReference(z, x, y *fp2) *fp2 {
	var ac, bd, s, t fp
	mulReference(&ac, &x.c0, &y.c0)
	mulReference(&bd, &x.c1, &y.c1)
	s.Add(&x.c0, &x.c1)
	t.Add(&y.c0, &y.c1)
	mulReference(&s, &s, &t)
	s.Sub(&s, &ac)
	z.c1.Sub(&s, &bd)
	z.c0.Sub(&ac, &bd)
	return z
}

// fp2SquareReference is fp2.Square on mulReference.
func fp2SquareReference(z, x *fp2) *fp2 {
	var apb, amb, ab fp
	apb.Add(&x.c0, &x.c1)
	amb.Sub(&x.c0, &x.c1)
	mulReference(&ab, &x.c0, &x.c1)
	mulReference(&z.c0, &apb, &amb)
	z.c1.Double(&ab)
	return z
}

// addMixedReference is jacG2.addMixed on fp2MulReference and
// fp2SquareReference.
func addMixedReference(j, a *jacG2, b *G2) *jacG2 {
	if a.z.IsZero() {
		return j.fromAffine(b)
	}
	var z1z1, u2, s2 fp2
	fp2SquareReference(&z1z1, &a.z)
	fp2MulReference(&u2, &b.x, &z1z1)
	fp2MulReference(&s2, &b.y, &a.z)
	fp2MulReference(&s2, &s2, &z1z1)
	var h, r fp2
	h.Sub(&u2, &a.x)
	r.Sub(&s2, &a.y)
	r.Double(&r)
	if h.IsZero() {
		if r.IsZero() {
			return j.double(a)
		}
		j.z.SetZero()
		return j
	}
	var hh, i4, jj, v fp2
	fp2SquareReference(&hh, &h)
	i4.Double(&hh)
	i4.Double(&i4)
	fp2MulReference(&jj, &h, &i4)
	fp2MulReference(&v, &a.x, &i4)
	var x3 fp2
	fp2SquareReference(&x3, &r)
	x3.Sub(&x3, &jj)
	x3.Sub(&x3, &v)
	x3.Sub(&x3, &v)
	var y3, t fp2
	y3.Sub(&v, &x3)
	fp2MulReference(&y3, &y3, &r)
	fp2MulReference(&t, &a.y, &jj)
	t.Double(&t)
	y3.Sub(&y3, &t)
	var z3 fp2
	z3.Add(&a.z, &h)
	fp2SquareReference(&z3, &z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &hh)

	j.x.Set(&x3)
	j.y.Set(&y3)
	j.z.Set(&z3)
	return j
}

// fixedWindowG2 is the fixed-base multiplication before the comb: 4-bit
// windows, table[i][d−1] = d·16^i·base in affine form, 64 × 15 entries per
// base. It skips zero digits and indexes its table by the digit: variable
// time. BenchmarkAblationFixedBase measures the comb against it.
type fixedWindowG2 struct {
	table [64][15]G2
}

// newFixedWindowG2 builds the window tables of a finite base.
func newFixedWindowG2(base *G2) *fixedWindowG2 {
	f := &fixedWindowG2{}
	const n = len(f.table[0])
	const windows = len(f.table)
	scratch := make([]fp2, 2*n*windows)
	var windowsJac [windows]jacG2
	var bases [windows]G2
	windowsJac[0].fromAffine(base)
	for i := 1; i < windows; i++ {
		windowsJac[i] = windowsJac[i-1]
		for s := 0; s < 4; s++ {
			windowsJac[i].double(&windowsJac[i])
		}
	}
	batchToAffineG2(bases[:], windowsJac[:], scratch)
	jac := make([]jacG2, n*windows)
	for i := range bases {
		multiplesG2(jac[n*i:n*(i+1)], &bases[i])
	}
	flat := make([]G2, len(jac))
	batchToAffineG2(flat, jac, scratch)
	for i := range f.table {
		copy(f.table[i][:], flat[n*i:])
	}
	return f
}

func (f *fixedWindowG2) accumulate(acc *jacG2, k *big.Int) {
	for i := range f.table {
		if digit := scalarDigit(k, 4*i, 4); digit != 0 {
			acc.addMixed(acc, &f.table[i][digit-1])
		}
	}
}

// commitWindowG2 is CommitG2 on the window tables: all of f's additions,
// then all of g's, into one accumulator.
func commitWindowG2(f, g *fixedWindowG2, a, b *big.Int) *G2 {
	var ar, br big.Int
	ar.Mod(a, Order)
	br.Mod(b, Order)
	var acc jacG2
	acc.z.SetZero()
	f.accumulate(&acc, &ar)
	g.accumulate(&acc, &br)
	return acc.toAffine(new(G2))
}

// ladderVarTime is comb.ladder with the table loaded at the digit and the
// sign applied by a branch: what the masked scans cost, and a variant not
// to ship, since its loads and branches follow the secret digits.
func (c *comb) ladderVarTime(acc *jacG2, terms []combTerm) {
	n := c.entries()
	var q G2
	for s := c.steps - 1; s >= 0; s-- {
		if s != c.steps-1 {
			acc.double(acc)
		}
		for t := range terms {
			for b := 0; b < c.subTables; b++ {
				col := b*c.steps + s
				e := &terms[t].table[b*n+int(terms[t].digits.idx[col])]
				q.x.c0 = fp{e[0], e[1], e[2], e[3]}
				q.x.c1 = fp{e[4], e[5], e[6], e[7]}
				q.y.c0 = fp{e[8], e[9], e[10], e[11]}
				q.y.c1 = fp{e[12], e[13], e[14], e[15]}
				q.notInf = true
				if terms[t].digits.neg[col] != 0 {
					q.y.Neg(&q.y)
				}
				if s == c.steps-1 && t == 0 && b == 0 {
					acc.fromAffine(&q)
				} else {
					acc.addMixed(acc, &q)
				}
			}
		}
	}
}

// commitVarTime is CommitG2 on ladderVarTime, for finite bases.
func commitVarTime(f, g *FixedBaseG2, a, b *big.Int) *G2 {
	var terms [2]combTerm
	terms[0].set(f, a)
	terms[1].set(g, b)
	var acc jacG2
	f.comb.ladderVarTime(&acc, terms[:])
	return acc.toAffine(new(G2))
}
