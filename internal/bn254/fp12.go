package bn254

// fp12 is an element c0 + c1*w of Fp12 = Fp6[w]/(w^2 - v). In the flat
// basis {1, w, w^2, ..., w^5} over Fp2 (with w^6 = xi), the coefficient of
// w^k is, for k = 0..5:
//
//	c0.b0, c1.b0, c0.b1, c1.b1, c0.b2, c1.b2
//
// which is the mapping used by the Frobenius endomorphism below.
type fp12 struct {
	c0, c1 fp6
}

func (z *fp12) Set(x *fp12) *fp12 {
	z.c0.Set(&x.c0)
	z.c1.Set(&x.c1)
	return z
}

func (z *fp12) SetOne() *fp12 {
	z.c0.SetOne()
	z.c1.SetZero()
	return z
}

func (z *fp12) SetZero() *fp12 {
	z.c0.SetZero()
	z.c1.SetZero()
	return z
}

func (z *fp12) IsOne() bool { return z.c0.IsOne() && z.c1.IsZero() }

func (z *fp12) IsZero() bool { return z.c0.IsZero() && z.c1.IsZero() }

func (z *fp12) Equal(x *fp12) bool { return z.c0.Equal(&x.c0) && z.c1.Equal(&x.c1) }

func (z *fp12) Mul(x, y *fp12) *fp12 {
	// (a0 + a1 w)(b0 + b1 w) = a0 b0 + a1 b1 v + (a0 b1 + a1 b0) w.
	var t0, t1, s0, s1, z0, z1 fp6
	t0.Mul(&x.c0, &y.c0)
	t1.Mul(&x.c1, &y.c1)
	s0.Add(&x.c0, &x.c1)
	s1.Add(&y.c0, &y.c1)
	z1.Mul(&s0, &s1)
	z1.Sub(&z1, &t0)
	z1.Sub(&z1, &t1)
	z0.MulByV(&t1)
	z0.Add(&z0, &t0)
	z.c0.Set(&z0)
	z.c1.Set(&z1)
	return z
}

func (z *fp12) Square(x *fp12) *fp12 {
	// (a0 + a1 w)^2 = a0^2 + a1^2 v + 2 a0 a1 w, via:
	// z0 = (a0 + a1)(a0 + v a1) - a0 a1 - v a0 a1, z1 = 2 a0 a1.
	var t, va1, sum, mix, prod fp6
	prod.Mul(&x.c0, &x.c1)
	va1.MulByV(&x.c1)
	sum.Add(&x.c0, &x.c1)
	mix.Add(&x.c0, &va1)
	t.Mul(&sum, &mix)
	t.Sub(&t, &prod)
	var vprod fp6
	vprod.MulByV(&prod)
	t.Sub(&t, &vprod)
	z.c0.Set(&t)
	z.c1.Add(&prod, &prod)
	return z
}

// Conjugate sets z = c0 - c1*w, which equals x^(p^6).
func (z *fp12) Conjugate(x *fp12) *fp12 {
	z.c0.Set(&x.c0)
	z.c1.Neg(&x.c1)
	return z
}

func (z *fp12) Inverse(x *fp12) *fp12 {
	// (c0 + c1 w)^-1 = (c0 - c1 w)/(c0^2 - v c1^2).
	var t0, t1 fp6
	t0.Square(&x.c0)
	t1.Square(&x.c1)
	t1.MulByV(&t1)
	t0.Sub(&t0, &t1)
	t0.Inverse(&t0)
	z.c0.Mul(&x.c0, &t0)
	var neg fp6
	neg.Neg(&x.c1)
	z.c1.Mul(&neg, &t0)
	return z
}

// flatGet returns the coefficient of w^k, k in 0..5.
func (z *fp12) flatGet(k int) *fp2 {
	switch k {
	case 0:
		return &z.c0.b0
	case 1:
		return &z.c1.b0
	case 2:
		return &z.c0.b1
	case 3:
		return &z.c1.b1
	case 4:
		return &z.c0.b2
	default:
		return &z.c1.b2
	}
}

// Frobenius sets z = x^p using the precomputed gamma coefficients:
// if x = sum_k a_k w^k then x^p = sum_k conj(a_k) gamma_k w^k.
func (z *fp12) Frobenius(x *fp12) *fp12 {
	var out fp12
	for k := 0; k < 6; k++ {
		var c fp2
		c.Conjugate(x.flatGet(k))
		c.Mul(&c, &frobGamma[k])
		out.flatGet(k).Set(&c)
	}
	return z.Set(&out)
}

// FrobeniusP2 sets z = x^(p^2).
func (z *fp12) FrobeniusP2(x *fp12) *fp12 {
	var t fp12
	t.Frobenius(x)
	return z.Frobenius(&t)
}
