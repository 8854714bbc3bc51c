package bn254

// fp6 is an element b0 + b1*v + b2*v^2 of Fp6 = Fp2[v]/(v^3 - xi).
type fp6 struct {
	b0, b1, b2 fp2
}

func (z *fp6) Set(x *fp6) *fp6 {
	z.b0.Set(&x.b0)
	z.b1.Set(&x.b1)
	z.b2.Set(&x.b2)
	return z
}

func (z *fp6) SetZero() *fp6 {
	z.b0.SetZero()
	z.b1.SetZero()
	z.b2.SetZero()
	return z
}

func (z *fp6) SetOne() *fp6 {
	z.b0.SetOne()
	z.b1.SetZero()
	z.b2.SetZero()
	return z
}

func (z *fp6) IsZero() bool { return z.b0.IsZero() && z.b1.IsZero() && z.b2.IsZero() }

func (z *fp6) IsOne() bool { return z.b0.IsOne() && z.b1.IsZero() && z.b2.IsZero() }

func (z *fp6) Equal(x *fp6) bool {
	return z.b0.Equal(&x.b0) && z.b1.Equal(&x.b1) && z.b2.Equal(&x.b2)
}

func (z *fp6) Add(x, y *fp6) *fp6 {
	z.b0.Add(&x.b0, &y.b0)
	z.b1.Add(&x.b1, &y.b1)
	z.b2.Add(&x.b2, &y.b2)
	return z
}

func (z *fp6) Sub(x, y *fp6) *fp6 {
	z.b0.Sub(&x.b0, &y.b0)
	z.b1.Sub(&x.b1, &y.b1)
	z.b2.Sub(&x.b2, &y.b2)
	return z
}

func (z *fp6) Neg(x *fp6) *fp6 {
	z.b0.Neg(&x.b0)
	z.b1.Neg(&x.b1)
	z.b2.Neg(&x.b2)
	return z
}

func (z *fp6) Mul(x, y *fp6) *fp6 {
	// Karatsuba-style multiplication modulo v^3 = xi.
	var t0, t1, t2 fp2
	t0.Mul(&x.b0, &y.b0)
	t1.Mul(&x.b1, &y.b1)
	t2.Mul(&x.b2, &y.b2)

	var s, t, z0, z1, z2 fp2
	// z0 = t0 + xi*((b1+b2)(c1+c2) - t1 - t2)
	s.Add(&x.b1, &x.b2)
	t.Add(&y.b1, &y.b2)
	z0.Mul(&s, &t)
	z0.Sub(&z0, &t1)
	z0.Sub(&z0, &t2)
	z0.MulXi(&z0)
	z0.Add(&z0, &t0)

	// z1 = (b0+b1)(c0+c1) - t0 - t1 + xi*t2
	s.Add(&x.b0, &x.b1)
	t.Add(&y.b0, &y.b1)
	z1.Mul(&s, &t)
	z1.Sub(&z1, &t0)
	z1.Sub(&z1, &t1)
	var xit2 fp2
	xit2.MulXi(&t2)
	z1.Add(&z1, &xit2)

	// z2 = (b0+b2)(c0+c2) - t0 - t2 + t1
	s.Add(&x.b0, &x.b2)
	t.Add(&y.b0, &y.b2)
	z2.Mul(&s, &t)
	z2.Sub(&z2, &t0)
	z2.Sub(&z2, &t2)
	z2.Add(&z2, &t1)

	z.b0.Set(&z0)
	z.b1.Set(&z1)
	z.b2.Set(&z2)
	return z
}

func (z *fp6) Square(x *fp6) *fp6 { return z.Mul(x, x) }

// MulByV sets z = x * v, i.e. (b0, b1, b2) -> (xi*b2, b0, b1).
func (z *fp6) MulByV(x *fp6) *fp6 {
	var t0 fp2
	t0.MulXi(&x.b2)
	z.b2 = x.b1
	z.b1 = x.b0
	z.b0 = t0
	return z
}

func (z *fp6) Inverse(x *fp6) *fp6 {
	// Standard cubic-extension inversion:
	// t0 = b0^2 - xi*b1*b2, t1 = xi*b2^2 - b0*b1, t2 = b1^2 - b0*b2,
	// d = b0*t0 + xi*(b1*t2 + b2*t1), z = (t0, t1, t2)/d.
	var t0, t1, t2, tmp fp2
	t0.Square(&x.b0)
	tmp.Mul(&x.b1, &x.b2)
	tmp.MulXi(&tmp)
	t0.Sub(&t0, &tmp)

	t1.Square(&x.b2)
	t1.MulXi(&t1)
	tmp.Mul(&x.b0, &x.b1)
	t1.Sub(&t1, &tmp)

	t2.Square(&x.b1)
	tmp.Mul(&x.b0, &x.b2)
	t2.Sub(&t2, &tmp)

	var d, e fp2
	d.Mul(&x.b0, &t0)
	e.Mul(&x.b1, &t2)
	tmp.Mul(&x.b2, &t1)
	e.Add(&e, &tmp)
	e.MulXi(&e)
	d.Add(&d, &e)
	d.Inverse(&d)

	z.b0.Mul(&t0, &d)
	z.b1.Mul(&t1, &d)
	z.b2.Mul(&t2, &d)
	return z
}
