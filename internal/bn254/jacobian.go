package bn254

// Jacobian-coordinate point arithmetic for scalar multiplication. The
// public G1/G2 types stay affine (simple, canonical equality and
// serialization); the scalar ladders (scalarmult.go, glv.go) internally
// convert to Jacobian projective coordinates (X, Y, Z) with x = X/Z^2,
// y = Y/Z^3, run inversion-free, and convert back with a single field
// inversion. A field inversion costs about 330
// multiplications, so every table of multiples is built in Jacobian form
// too and normalized with one shared inversion (batchToAffine). The affine
// Add/Double remain as the readable reference implementation and are
// cross-checked against this path in tests and in the
// BenchmarkAblationScalarMult ablation.
//
// Formulas (curves with a = 0): doubling dbl-2009-l, mixed addition
// madd-2007-bl from the Explicit-Formulas Database.

// jacG1 is a G1 point in Jacobian coordinates. Z = 0 encodes infinity.
type jacG1 struct {
	x, y, z fp
}

func (j *jacG1) fromAffine(a *G1) *jacG1 {
	if a.IsInfinity() {
		j.x.SetOne()
		j.y.SetOne()
		j.z.SetZero()
		return j
	}
	j.x.Set(&a.x)
	j.y.Set(&a.y)
	j.z.SetOne()
	return j
}

func (j *jacG1) toAffine(out *G1) *G1 {
	if j.z.IsZero() {
		return out.SetInfinity()
	}
	var zinv, zinv2, zinv3 fp
	zinv.Inverse(&j.z)
	zinv2.Square(&zinv)
	zinv3.Mul(&zinv2, &zinv)
	out.x.Mul(&j.x, &zinv2)
	out.y.Mul(&j.y, &zinv3)
	out.notInf = true
	return out
}

// cmov sets j = a when mask is all ones and leaves j unchanged when it is
// zero, without a branch.
func (j *jacG1) cmov(a *jacG1, mask uint64) {
	j.x.cmov(&a.x, mask)
	j.y.cmov(&a.y, mask)
	j.z.cmov(&a.z, mask)
}

// double sets j = 2a (a may alias j).
func (j *jacG1) double(a *jacG1) *jacG1 {
	if a.z.IsZero() {
		j.z.SetZero()
		return j
	}
	// A = X^2, B = Y^2, C = B^2
	var A, B, C fp
	A.Square(&a.x)
	B.Square(&a.y)
	C.Square(&B)
	// D = 2*((X+B)^2 - A - C)
	var D, t fp
	t.Add(&a.x, &B)
	t.Square(&t)
	t.Sub(&t, &A)
	t.Sub(&t, &C)
	D.Double(&t)
	// E = 3*A, F = E^2
	var E, F fp
	E.Double(&A)
	E.Add(&E, &A)
	F.Square(&E)
	// X3 = F - 2*D
	var x3 fp
	x3.Sub(&F, &D)
	x3.Sub(&x3, &D)
	// Y3 = E*(D - X3) - 8*C
	var y3, c8 fp
	y3.Sub(&D, &x3)
	y3.Mul(&y3, &E)
	c8.Double(&C)
	c8.Double(&c8)
	c8.Double(&c8)
	y3.Sub(&y3, &c8)
	// Z3 = 2*Y*Z
	var z3 fp
	z3.Mul(&a.y, &a.z)
	z3.Double(&z3)

	j.x.Set(&x3)
	j.y.Set(&y3)
	j.z.Set(&z3)
	return j
}

// addMixed sets j = a + b for an affine b (b must be finite; a may alias j).
func (j *jacG1) addMixed(a *jacG1, b *G1) *jacG1 {
	if a.z.IsZero() {
		return j.fromAffine(b)
	}
	// Z1Z1 = Z1^2, U2 = X2*Z1Z1, S2 = Y2*Z1*Z1Z1
	var z1z1, u2, s2 fp
	z1z1.Square(&a.z)
	u2.Mul(&b.x, &z1z1)
	s2.Mul(&b.y, &a.z)
	s2.Mul(&s2, &z1z1)
	// H = U2 - X1, r = 2*(S2 - Y1)
	var h, r fp
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
	// HH = H^2, I = 4*HH, J = H*I, V = X1*I
	var hh, i4, jj, v fp
	hh.Square(&h)
	i4.Double(&hh)
	i4.Double(&i4)
	jj.Mul(&h, &i4)
	v.Mul(&a.x, &i4)
	// X3 = r^2 - J - 2*V
	var x3 fp
	x3.Square(&r)
	x3.Sub(&x3, &jj)
	x3.Sub(&x3, &v)
	x3.Sub(&x3, &v)
	// Y3 = r*(V - X3) - 2*Y1*J
	var y3, t fp
	y3.Sub(&v, &x3)
	y3.Mul(&y3, &r)
	t.Mul(&a.y, &jj)
	t.Double(&t)
	y3.Sub(&y3, &t)
	// Z3 = (Z1 + H)^2 - Z1Z1 - HH
	var z3 fp
	z3.Add(&a.z, &h)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &hh)

	j.x.Set(&x3)
	j.y.Set(&y3)
	j.z.Set(&z3)
	return j
}

// jacG2 mirrors jacG1 over Fp2.
type jacG2 struct {
	x, y, z fp2
}

func (j *jacG2) fromAffine(a *G2) *jacG2 {
	if a.IsInfinity() {
		j.x.SetOne()
		j.y.SetOne()
		j.z.SetZero()
		return j
	}
	j.x.Set(&a.x)
	j.y.Set(&a.y)
	j.z.SetOne()
	return j
}

func (j *jacG2) toAffine(out *G2) *G2 {
	if j.z.IsZero() {
		return out.SetInfinity()
	}
	var zinv, zinv2, zinv3 fp2
	zinv.Inverse(&j.z)
	zinv2.Square(&zinv)
	zinv3.Mul(&zinv2, &zinv)
	out.x.Mul(&j.x, &zinv2)
	out.y.Mul(&j.y, &zinv3)
	out.notInf = true
	return out
}

func (j *jacG2) double(a *jacG2) *jacG2 {
	if a.z.IsZero() {
		j.z.SetZero()
		return j
	}
	var A, B, C fp2
	A.Square(&a.x)
	B.Square(&a.y)
	C.Square(&B)
	var D, t fp2
	t.Add(&a.x, &B)
	t.Square(&t)
	t.Sub(&t, &A)
	t.Sub(&t, &C)
	D.Double(&t)
	var E, F fp2
	E.triple(&A)
	F.Square(&E)
	var x3 fp2
	x3.Sub(&F, &D)
	x3.Sub(&x3, &D)
	var y3, c8 fp2
	y3.Sub(&D, &x3)
	y3.Mul(&y3, &E)
	c8.Double(&C)
	c8.Double(&c8)
	c8.Double(&c8)
	y3.Sub(&y3, &c8)
	var z3 fp2
	z3.Mul(&a.y, &a.z)
	z3.Double(&z3)

	j.x.Set(&x3)
	j.y.Set(&y3)
	j.z.Set(&z3)
	return j
}

func (j *jacG2) addMixed(a *jacG2, b *G2) *jacG2 {
	if a.z.IsZero() {
		return j.fromAffine(b)
	}
	var z1z1, u2, s2 fp2
	z1z1.Square(&a.z)
	u2.Mul(&b.x, &z1z1)
	s2.Mul(&b.y, &a.z)
	s2.Mul(&s2, &z1z1)
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
	hh.Square(&h)
	i4.Double(&hh)
	i4.Double(&i4)
	jj.Mul(&h, &i4)
	v.Mul(&a.x, &i4)
	var x3 fp2
	x3.Square(&r)
	x3.Sub(&x3, &jj)
	x3.Sub(&x3, &v)
	x3.Sub(&x3, &v)
	var y3, t fp2
	y3.Sub(&v, &x3)
	y3.Mul(&y3, &r)
	t.Mul(&a.y, &jj)
	t.Double(&t)
	y3.Sub(&y3, &t)
	var z3 fp2
	z3.Add(&a.z, &h)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &hh)

	j.x.Set(&x3)
	j.y.Set(&y3)
	j.z.Set(&z3)
	return j
}

// set copies b into j.
func (j *jacG2) set(b *jacG2) *jacG2 {
	j.x.Set(&b.x)
	j.y.Set(&b.y)
	j.z.Set(&b.z)
	return j
}

// add mirrors jacG1.add (add-2007-bl) over Fp2; any of the arguments may
// alias j.
func (j *jacG2) add(a, b *jacG2) *jacG2 {
	if a.z.IsZero() {
		return j.set(b)
	}
	if b.z.IsZero() {
		return j.set(a)
	}
	var z1z1, z2z2 fp2
	z1z1.Square(&a.z)
	z2z2.Square(&b.z)
	var u1, u2 fp2
	u1.Mul(&a.x, &z2z2)
	u2.Mul(&b.x, &z1z1)
	var s1, s2 fp2
	s1.Mul(&a.y, &b.z)
	s1.Mul(&s1, &z2z2)
	s2.Mul(&b.y, &a.z)
	s2.Mul(&s2, &z1z1)
	var h, r fp2
	h.Sub(&u2, &u1)
	r.Sub(&s2, &s1)
	r.Double(&r)
	if h.IsZero() {
		if r.IsZero() {
			return j.double(a)
		}
		j.z.SetZero()
		return j
	}
	var i, jj, v, t fp2
	t.Double(&h)
	i.Square(&t)
	jj.Mul(&h, &i)
	v.Mul(&u1, &i)
	var x3 fp2
	x3.Square(&r)
	x3.Sub(&x3, &jj)
	x3.Sub(&x3, &v)
	x3.Sub(&x3, &v)
	var y3 fp2
	y3.Sub(&v, &x3)
	y3.Mul(&y3, &r)
	t.Mul(&s1, &jj)
	t.Double(&t)
	y3.Sub(&y3, &t)
	var z3 fp2
	z3.Add(&a.z, &b.z)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &z2z2)
	z3.Mul(&z3, &h)

	j.x.Set(&x3)
	j.y.Set(&y3)
	j.z.Set(&z3)
	return j
}

// psi is G2.frobenius in Jacobian form: with x = X/Z² and y = Y/Z³,
// conjugating Z as well keeps both quotients, so
// ψ(X:Y:Z) = (conj(X)·ξ^((p−1)/3) : conj(Y)·ξ^((p−1)/2) : conj(Z)).
func (j *jacG2) psi(a *jacG2) *jacG2 {
	j.x.Conjugate(&a.x)
	j.x.Mul(&j.x, &xiToPMinus1Over3)
	j.y.Conjugate(&a.y)
	j.y.Mul(&j.y, &xiToPMinus1Over2)
	j.z.Conjugate(&a.z)
	return j
}

// equal reports whether j and a are the same point, comparing
// X1·Z2² = X2·Z1² and Y1·Z2³ = Y2·Z1³ instead of normalizing either.
func (j *jacG2) equal(a *jacG2) bool {
	if j.z.IsZero() || a.z.IsZero() {
		return j.z.IsZero() && a.z.IsZero()
	}
	var z1z1, z2z2, u1, u2, s1, s2 fp2
	z1z1.Square(&j.z)
	z2z2.Square(&a.z)
	u1.Mul(&j.x, &z2z2)
	u2.Mul(&a.x, &z1z1)
	s1.Mul(&j.y, &a.z)
	s1.Mul(&s1, &z2z2)
	s2.Mul(&a.y, &j.z)
	s2.Mul(&s2, &z1z1)
	return u1.Equal(&u2) && s1.Equal(&s2)
}

// multiplesG1 fills out[i] = (i+1)*p in Jacobian form: even multiples by
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

// multiplesG2 mirrors multiplesG1 over Fp2.
func multiplesG2(out []jacG2, p *G2) {
	out[0].fromAffine(p)
	for i := 1; i < len(out); i++ {
		if i%2 == 1 {
			out[i].double(&out[i/2])
		} else {
			out[i].addMixed(&out[i-1], p)
		}
	}
}

// batchToAffineG1 converts the Jacobian points src to affine form in dst
// with a single field inversion shared by the whole batch (Montgomery's
// trick over the Z coordinates). scratch needs 2*len(src) elements.
func batchToAffineG1(dst []G1, src []jacG1, scratch []fp) {
	zinv, prefix := scratch[:len(src)], scratch[len(src):2*len(src)]
	for i := range src {
		zinv[i] = src[i].z
	}
	batchInverse(zinv, prefix)
	for i := range src {
		if src[i].z.IsZero() {
			dst[i].SetInfinity()
			continue
		}
		var zinv2, zinv3 fp
		zinv2.Square(&zinv[i])
		zinv3.Mul(&zinv2, &zinv[i])
		dst[i].x.Mul(&src[i].x, &zinv2)
		dst[i].y.Mul(&src[i].y, &zinv3)
		dst[i].notInf = true
	}
}

// batchToAffineG2 mirrors batchToAffineG1 over Fp2.
func batchToAffineG2(dst []G2, src []jacG2, scratch []fp2) {
	zinv, prefix := scratch[:len(src)], scratch[len(src):2*len(src)]
	for i := range src {
		zinv[i] = src[i].z
	}
	batchInverseFp2(zinv, prefix)
	for i := range src {
		if src[i].z.IsZero() {
			dst[i].SetInfinity()
			continue
		}
		var zinv2, zinv3 fp2
		zinv2.Square(&zinv[i])
		zinv3.Mul(&zinv2, &zinv[i])
		dst[i].x.Mul(&src[i].x, &zinv2)
		dst[i].y.Mul(&src[i].y, &zinv3)
		dst[i].notInf = true
	}
}
