package bn254

// Cyclotomic-subgroup arithmetic. After the easy part of the final
// exponentiation, f lies in the cyclotomic subgroup G_{Phi_12}(p) of
// Fp12*, where the Granger-Scott compressed squaring applies: nine fp2
// squarings instead of a full fp12 multiplication. The exponentiations by
// the curve parameter u inside the hard part — and GT exponentiations,
// whose inputs are always pairing outputs — use it.
//
// Correctness is established behaviourally: TestCyclotomicSquare checks
// the formula against the generic squaring on pairing outputs, and the
// pairing test-suite invariants (bilinearity etc.) all exercise this path.

// cyclotomicSquare sets z = x^2 for x in the cyclotomic subgroup.
func (z *fp12) cyclotomicSquare(x *fp12) *fp12 {
	// Granger-Scott (Pairing 2010), in the (C0.B0, C1.B1) / (C0.B2, C1.B0)
	// / (C0.B1, C1.B2) Fp4 pairing-up of coefficients.
	var t0, t1, t2, t3, t4, t5, t6, t7, t8, t fp2

	t0.Square(&x.c1.b1)
	t1.Square(&x.c0.b0)
	t6.Add(&x.c1.b1, &x.c0.b0)
	t6.Square(&t6)
	t6.Sub(&t6, &t0)
	t6.Sub(&t6, &t1)

	t2.Square(&x.c0.b2)
	t3.Square(&x.c1.b0)
	t7.Add(&x.c0.b2, &x.c1.b0)
	t7.Square(&t7)
	t7.Sub(&t7, &t2)
	t7.Sub(&t7, &t3)

	t4.Square(&x.c1.b2)
	t5.Square(&x.c0.b1)
	t8.Add(&x.c1.b2, &x.c0.b1)
	t8.Square(&t8)
	t8.Sub(&t8, &t4)
	t8.Sub(&t8, &t5)
	t8.MulXi(&t8)

	t.MulXi(&t0)
	t0.Add(&t, &t1)
	t.MulXi(&t2)
	t2.Add(&t, &t3)
	t.MulXi(&t4)
	t4.Add(&t, &t5)

	// threeMinusTwo(out, t, x) = 3t - 2x ; threePlusTwo(out, t, x) = 3t + 2x.
	z3m2 := func(out *fp2, ti *fp2, xi *fp2, plus bool) {
		var s fp2
		if plus {
			s.Add(ti, xi)
		} else {
			s.Sub(ti, xi)
		}
		s.Double(&s)
		out.Add(&s, ti)
	}
	var c00, c01, c02, c10, c11, c12 fp2
	z3m2(&c00, &t0, &x.c0.b0, false)
	z3m2(&c01, &t2, &x.c0.b1, false)
	z3m2(&c02, &t4, &x.c0.b2, false)
	z3m2(&c10, &t8, &x.c1.b0, true)
	z3m2(&c11, &t6, &x.c1.b1, true)
	z3m2(&c12, &t7, &x.c1.b2, true)

	z.c0.b0.Set(&c00)
	z.c0.b1.Set(&c01)
	z.c0.b2.Set(&c02)
	z.c1.b0.Set(&c10)
	z.c1.b1.Set(&c11)
	z.c1.b2.Set(&c12)
	return z
}

// cyclotomicExpNAF sets z = x^e for x in the cyclotomic subgroup, e given
// by its NAF digits (least significant first), using compressed squarings:
// inversion in the cyclotomic subgroup is conjugation, so the negative
// digits cost the same as positive ones and the multiplication count drops
// by about a third versus the binary ladder.
func (z *fp12) cyclotomicExpNAF(x *fp12, naf []int8) *fp12 {
	var base, conj fp12
	base.Set(x)
	conj.Conjugate(x)
	var acc fp12
	acc.SetOne()
	for i := len(naf) - 1; i >= 0; i-- {
		acc.cyclotomicSquare(&acc)
		switch naf[i] {
		case 1:
			acc.Mul(&acc, &base)
		case -1:
			acc.Mul(&acc, &conj)
		}
	}
	return z.Set(&acc)
}
