package bn254

import "fmt"

// fp2 is an element c0 + c1*i of Fp2 = Fp[i]/(i^2 + 1). The zero value is
// the field's zero element.
type fp2 struct {
	c0, c1 fp
}

func (z *fp2) Set(x *fp2) *fp2 {
	z.c0.Set(&x.c0)
	z.c1.Set(&x.c1)
	return z
}

func (z *fp2) SetZero() *fp2 {
	z.c0.SetZero()
	z.c1.SetZero()
	return z
}

func (z *fp2) SetOne() *fp2 {
	z.c0.SetOne()
	z.c1.SetZero()
	return z
}

// SetFp embeds an Fp element into Fp2.
func (z *fp2) SetFp(x *fp) *fp2 {
	z.c0.Set(x)
	z.c1.SetZero()
	return z
}

func (z *fp2) IsZero() bool { return z.c0.IsZero() && z.c1.IsZero() }

func (z *fp2) IsOne() bool {
	var one fp
	one.SetOne()
	return z.c0.Equal(&one) && z.c1.IsZero()
}

func (z *fp2) Equal(x *fp2) bool { return z.c0.Equal(&x.c0) && z.c1.Equal(&x.c1) }

func (z *fp2) Add(x, y *fp2) *fp2 {
	z.c0.Add(&x.c0, &y.c0)
	z.c1.Add(&x.c1, &y.c1)
	return z
}

func (z *fp2) Double(x *fp2) *fp2 { return z.Add(x, x) }

func (z *fp2) Sub(x, y *fp2) *fp2 {
	z.c0.Sub(&x.c0, &y.c0)
	z.c1.Sub(&x.c1, &y.c1)
	return z
}

func (z *fp2) Neg(x *fp2) *fp2 {
	z.c0.Neg(&x.c0)
	z.c1.Neg(&x.c1)
	return z
}

// Conjugate sets z = c0 - c1*i, which is x^p.
func (z *fp2) Conjugate(x *fp2) *fp2 {
	z.c0.Set(&x.c0)
	z.c1.Neg(&x.c1)
	return z
}

func (z *fp2) Mul(x, y *fp2) *fp2 {
	// (a + bi)(c + di) = (ac - bd) + (ad + bc)i, via Karatsuba:
	// ad + bc = (a+b)(c+d) - ac - bd. The three products stay double-width
	// and unreduced (lazy reduction), so only the two results pay for a
	// Montgomery reduction. Bounds, with a, b, c, d < p < R/4: the sums
	// are below 2p; ad + bc < 2p^2 < p*R, and ac - bd is lifted into
	// [0, p*R) by fpWide.sub, so both fit montReduce.
	var u, v fp
	u.addUnreduced(&x.c0, &x.c1)
	v.addUnreduced(&y.c0, &y.c1)
	var ac, bd, s fpWide
	ac.mul(&x.c0, &y.c0)
	bd.mul(&x.c1, &y.c1)
	s.mul(&u, &v)
	s.sub(&ac).sub(&bd) // (a+b)(c+d) >= ac + bd: never wraps
	ac.sub(&bd)
	z.c1.montReduce(&s)
	z.c0.montReduce(&ac)
	return z
}

func (z *fp2) Square(x *fp2) *fp2 {
	// (a + bi)^2 = (a+b)(a-b) + 2ab*i. a+b and 2a are Mul's first
	// arguments, which may be unreduced.
	var apb, amb, a2 fp
	apb.addUnreduced(&x.c0, &x.c1)
	amb.Sub(&x.c0, &x.c1)
	a2.addUnreduced(&x.c0, &x.c0)
	z.c1.Mul(&a2, &x.c1)
	z.c0.Mul(&apb, &amb)
	return z
}

// MulFp sets z = x * s for a base-field scalar s.
func (z *fp2) MulFp(x *fp2, s *fp) *fp2 {
	z.c0.Mul(&x.c0, s)
	z.c1.Mul(&x.c1, s)
	return z
}

// MulXi sets z = x * xi where xi = 9 + i.
func (z *fp2) MulXi(x *fp2) *fp2 {
	// (a + bi)(9 + i) = (9a - b) + (a + 9b)i, with 9a = 8a + a.
	var nineA, nineB fp
	nineA.Double(&x.c0)
	nineA.Double(&nineA)
	nineA.Double(&nineA)
	nineA.Add(&nineA, &x.c0)
	nineB.Double(&x.c1)
	nineB.Double(&nineB)
	nineB.Double(&nineB)
	nineB.Add(&nineB, &x.c1)
	nineA.Sub(&nineA, &x.c1)
	z.c1.Add(&x.c0, &nineB)
	z.c0 = nineA
	return z
}

// triple sets z = 3x.
func (z *fp2) triple(x *fp2) *fp2 {
	var t fp2
	t.Double(x)
	return z.Add(&t, x)
}

func (z *fp2) Inverse(x *fp2) *fp2 {
	// (a + bi)^-1 = (a - bi)/(a^2 + b^2).
	var a2, b2, norm, inv fp
	a2.Square(&x.c0)
	b2.Square(&x.c1)
	norm.Add(&a2, &b2)
	inv.Inverse(&norm)
	z.c0.Mul(&x.c0, &inv)
	var t fp
	t.Neg(&x.c1)
	z.c1.Mul(&t, &inv)
	return z
}

// Sqrt sets z to a square root of x and reports whether one exists. It uses
// the complex method: with s = sqrt(a^2+b^2), a root is re + im*i where
// re = sqrt((a+s)/2) (or (a-s)/2) and im = b/(2 re). For t a square,
// w = t^((p-3)/4) gives both re = w*t and 1/re = w (their product is the
// Legendre symbol of t), so the division costs no inversion.
func (z *fp2) Sqrt(x *fp2) bool {
	if x.IsZero() {
		z.SetZero()
		return true
	}
	if x.c1.IsZero() {
		// x = a: either sqrt(a) in Fp, or sqrt(-a)*i.
		var r fp
		if r.Sqrt(&x.c0) {
			z.c0.Set(&r)
			z.c1.SetZero()
			return true
		}
		var na fp
		na.Neg(&x.c0)
		if r.Sqrt(&na) {
			z.c0.SetZero()
			z.c1.Set(&r)
			return true
		}
		return false
	}
	var a2, b2, norm, s fp
	a2.Square(&x.c0)
	b2.Square(&x.c1)
	norm.Add(&a2, &b2)
	if !s.Sqrt(&norm) {
		return false
	}
	var t, w, re, chk fp
	t.Add(&x.c0, &s)
	t.Mul(&t, &fpHalf)
	w.rootPower(&t)
	re.Mul(&w, &t)
	if !chk.Square(&re).Equal(&t) {
		t.Sub(&x.c0, &s)
		t.Mul(&t, &fpHalf)
		w.rootPower(&t)
		re.Mul(&w, &t)
		if !chk.Square(&re).Equal(&t) {
			return false
		}
	}
	var root fp2
	root.c0.Set(&re)
	root.c1.Mul(&x.c1, &w)
	root.c1.Mul(&root.c1, &fpHalf)
	// Double-check by squaring: guards against the degenerate re = 0 case.
	var chk2 fp2
	if !chk2.Square(&root).Equal(x) {
		return false
	}
	z.Set(&root)
	return true
}

// batchInverseFp2 is batchInverse over Fp2: one inversion for the whole
// slice, zeros left zero, scratch at least as long as xs.
func batchInverseFp2(xs, scratch []fp2) {
	var acc fp2
	acc.SetOne()
	for i := range xs {
		scratch[i] = acc
		if !xs[i].IsZero() {
			acc.Mul(&acc, &xs[i])
		}
	}
	acc.Inverse(&acc)
	for i := len(xs) - 1; i >= 0; i-- {
		if xs[i].IsZero() {
			continue
		}
		var inv fp2
		inv.Mul(&acc, &scratch[i])
		acc.Mul(&acc, &xs[i])
		xs[i] = inv
	}
}

// cmp orders Fp2 elements lexicographically by (c1, c0), used to define a
// canonical sign for point compression.
func (z *fp2) cmp(x *fp2) int {
	if c := z.c1.cmp(&x.c1); c != 0 {
		return c
	}
	return z.c0.cmp(&x.c0)
}

func (z *fp2) String() string { return fmt.Sprintf("(%s, %s)", &z.c0, &z.c1) }
