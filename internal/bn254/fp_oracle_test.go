package bn254

import (
	"bytes"
	"math/big"
	"testing"
)

// fpOracle is the field this package ran on before the limb representation:
// a big.Int kept in [0, p), multiplication by Mul+Mod, inversion by
// ModInverse, roots by ModSqrt. It survives as the differential oracle for
// fp and, through fp2Oracle, for the quadratic extension.
type fpOracle struct {
	v big.Int
}

func (z *fpOracle) SetBig(x *big.Int) *fpOracle {
	z.v.Mod(x, P)
	return z
}

func (z *fpOracle) Add(x, y *fpOracle) *fpOracle {
	z.v.Add(&x.v, &y.v)
	if z.v.Cmp(P) >= 0 {
		z.v.Sub(&z.v, P)
	}
	return z
}

func (z *fpOracle) Double(x *fpOracle) *fpOracle { return z.Add(x, x) }

func (z *fpOracle) Sub(x, y *fpOracle) *fpOracle {
	z.v.Sub(&x.v, &y.v)
	if z.v.Sign() < 0 {
		z.v.Add(&z.v, P)
	}
	return z
}

func (z *fpOracle) Neg(x *fpOracle) *fpOracle {
	if x.v.Sign() == 0 {
		z.v.SetInt64(0)
		return z
	}
	z.v.Sub(P, &x.v)
	return z
}

func (z *fpOracle) Mul(x, y *fpOracle) *fpOracle {
	z.v.Mul(&x.v, &y.v)
	z.v.Mod(&z.v, P)
	return z
}

func (z *fpOracle) Square(x *fpOracle) *fpOracle { return z.Mul(x, x) }

func (z *fpOracle) Inverse(x *fpOracle) *fpOracle {
	if x.v.Sign() == 0 {
		z.v.SetInt64(0)
		return z
	}
	z.v.ModInverse(&x.v, P)
	return z
}

func (z *fpOracle) Sqrt(x *fpOracle) bool {
	var t big.Int
	if t.ModSqrt(&x.v, P) == nil {
		return false
	}
	z.v.Set(&t)
	return true
}

func (z *fpOracle) isSquare() bool {
	if z.v.Sign() == 0 {
		return true
	}
	var e, t big.Int
	e.Sub(P, big.NewInt(1))
	e.Rsh(&e, 1)
	t.Exp(&z.v, &e, P)
	return t.Cmp(big.NewInt(1)) == 0
}

func (z *fpOracle) Bytes() [32]byte {
	var out [32]byte
	z.v.FillBytes(out[:])
	return out
}

func (z *fpOracle) cmp(x *fpOracle) int { return z.v.Cmp(&x.v) }

// fp2Oracle is Fp2 over fpOracle, with the formulas fp2.go had on that
// field: the two-reduction Karatsuba product and the five-exponentiation
// complex square root.
type fp2Oracle struct {
	c0, c1 fpOracle
}

func (z *fp2Oracle) Mul(x, y *fp2Oracle) *fp2Oracle {
	var ac, bd, apb, cpd, t big.Int
	ac.Mul(&x.c0.v, &y.c0.v)
	bd.Mul(&x.c1.v, &y.c1.v)
	apb.Add(&x.c0.v, &x.c1.v)
	cpd.Add(&y.c0.v, &y.c1.v)
	t.Mul(&apb, &cpd)
	t.Sub(&t, &ac)
	t.Sub(&t, &bd)
	ac.Sub(&ac, &bd)
	z.c0.v.Mod(&ac, P)
	z.c1.v.Mod(&t, P)
	return z
}

func (z *fp2Oracle) Square(x *fp2Oracle) *fp2Oracle {
	var apb, amb, ab fpOracle
	apb.Add(&x.c0, &x.c1)
	amb.Sub(&x.c0, &x.c1)
	ab.Mul(&x.c0, &x.c1)
	z.c0.Mul(&apb, &amb)
	z.c1.Double(&ab)
	return z
}

func (z *fp2Oracle) Inverse(x *fp2Oracle) *fp2Oracle {
	var a2, b2, norm, inv, t fpOracle
	a2.Square(&x.c0)
	b2.Square(&x.c1)
	norm.Add(&a2, &b2)
	inv.Inverse(&norm)
	t.Neg(&x.c1)
	z.c0.Mul(&x.c0, &inv)
	z.c1.Mul(&t, &inv)
	return z
}

func (z *fp2Oracle) Sqrt(x *fp2Oracle) bool {
	if x.c0.v.Sign() == 0 && x.c1.v.Sign() == 0 {
		z.c0.v.SetInt64(0)
		z.c1.v.SetInt64(0)
		return true
	}
	if x.c1.v.Sign() == 0 {
		var r, na fpOracle
		if r.Sqrt(&x.c0) {
			z.c0.v.Set(&r.v)
			z.c1.v.SetInt64(0)
			return true
		}
		na.Neg(&x.c0)
		if r.Sqrt(&na) {
			z.c0.v.SetInt64(0)
			z.c1.v.Set(&r.v)
			return true
		}
		return false
	}
	var a2, b2, norm, s fpOracle
	a2.Square(&x.c0)
	b2.Square(&x.c1)
	norm.Add(&a2, &b2)
	if !s.Sqrt(&norm) {
		return false
	}
	var half, t, re fpOracle
	half.SetBig(big.NewInt(2))
	half.Inverse(&half)
	t.Add(&x.c0, &s)
	t.Mul(&t, &half)
	if !t.isSquare() {
		t.Sub(&x.c0, &s)
		t.Mul(&t, &half)
	}
	if !re.Sqrt(&t) {
		return false
	}
	var twoRe, inv, im fpOracle
	twoRe.Double(&re)
	inv.Inverse(&twoRe)
	im.Mul(&x.c1, &inv)
	var root, chk fp2Oracle
	root.c0.v.Set(&re.v)
	root.c1.v.Set(&im.v)
	chk.Square(&root)
	if chk.c0.cmp(&x.c0) != 0 || chk.c1.cmp(&x.c1) != 0 {
		return false
	}
	z.c0.v.Set(&re.v)
	z.c1.v.Set(&im.v)
	return true
}

// fpPair is one value held in both representations.
type fpPair struct {
	f fp
	o fpOracle
}

// set copies q into p; plain assignment would share the big.Int's limbs.
func (p *fpPair) set(q *fpPair) {
	p.f = q.f
	p.o.v.Set(&q.o.v)
}

// pairFromBytes reduces a big-endian integer of any length into both.
func pairFromBytes(raw []byte) fpPair {
	var p fpPair
	v := new(big.Int).SetBytes(raw)
	p.o.SetBig(v)
	p.f.SetBig(v)
	return p
}

func (p *fpPair) check(t *testing.T, what string) {
	t.Helper()
	got, want := p.f.Bytes(), p.o.Bytes()
	if got != want {
		t.Fatalf("%s: limbs give %x, big.Int gives %x", what, got, want)
	}
	if !lessThanModulus(&p.f) {
		t.Fatalf("%s: residue %x not reduced", what, p.f)
	}
}

// lessThanModulus reports whether the raw limbs are below p.
func lessThanModulus(x *fp) bool {
	q := fp{q0, q1, q2, q3}
	for i := 3; i >= 0; i-- {
		if x[i] != q[i] {
			return x[i] < q[i]
		}
	}
	return false
}

// checkFpOps runs every field operation on (x, y) in both representations
// and demands equal canonical bytes, including with aliased operands.
func checkFpOps(t *testing.T, rawX, rawY []byte) {
	t.Helper()
	x, y := pairFromBytes(rawX), pairFromBytes(rawY)
	x.check(t, "x")
	y.check(t, "y")

	var z fpPair
	z.f.Add(&x.f, &y.f)
	z.o.Add(&x.o, &y.o)
	z.check(t, "add")
	z.f.Sub(&x.f, &y.f)
	z.o.Sub(&x.o, &y.o)
	z.check(t, "sub")
	z.f.Neg(&x.f)
	z.o.Neg(&x.o)
	z.check(t, "neg")
	z.f.Double(&x.f)
	z.o.Double(&x.o)
	z.check(t, "double")
	z.f.Mul(&x.f, &y.f)
	z.o.Mul(&x.o, &y.o)
	z.check(t, "mul")
	z.f.Square(&x.f)
	z.o.Square(&x.o)
	z.check(t, "square")
	z.f.Inverse(&x.f)
	z.o.Inverse(&x.o)
	z.check(t, "inverse")
	z.f.Exp(&x.f, &y.o.v)
	z.o.v.Exp(&x.o.v, &y.o.v, P)
	z.check(t, "exp")

	// Aliased operands.
	z.set(&x)
	z.f.Mul(&z.f, &z.f)
	z.o.Mul(&z.o, &z.o)
	z.check(t, "z.Mul(z, z)")
	z.set(&y)
	z.f.Sub(&x.f, &z.f)
	z.o.Sub(&x.o, &z.o)
	z.check(t, "z.Sub(x, z)")
	z.set(&y)
	z.f.Add(&z.f, &z.f)
	z.o.Add(&z.o, &z.o)
	z.check(t, "z.Add(z, z)")
	z.set(&x)
	z.f.Mul(&y.f, &z.f)
	z.o.Mul(&y.o, &z.o)
	z.check(t, "z.Mul(y, z)")
	z.set(&x)
	z.f.Inverse(&z.f)
	z.o.Inverse(&z.o)
	z.check(t, "z.Inverse(z)")

	// Roots: the same verdict, the same root, receiver kept on failure.
	z.set(&y)
	okF, okO := z.f.Sqrt(&x.f), z.o.Sqrt(&x.o)
	if okF != okO || x.f.isSquare() != x.o.isSquare() || okF != x.f.isSquare() {
		t.Fatalf("sqrt/isSquare verdicts differ on %x: limbs %v, big.Int %v", x.o.Bytes(), okF, okO)
	}
	z.check(t, "sqrt")

	// Order, equality, zero test.
	if got, want := x.f.cmp(&y.f), x.o.cmp(&y.o); got != want {
		t.Fatalf("cmp = %d, big.Int says %d", got, want)
	}
	if x.f.Equal(&y.f) != (x.o.cmp(&y.o) == 0) || x.f.IsZero() != (x.o.v.Sign() == 0) {
		t.Fatal("Equal/IsZero disagree with big.Int")
	}

	// The codec: Bytes round-trips; SetBytes accepts exactly the 32-byte
	// encodings below p and otherwise leaves the receiver alone.
	enc := x.f.Bytes()
	z.set(&y)
	if !z.f.SetBytes(enc[:]) || !z.f.Equal(&x.f) {
		t.Fatalf("SetBytes(Bytes(x)) != x for %x", enc)
	}
	z.set(&y)
	canonical := len(rawX) == 32 && new(big.Int).SetBytes(rawX).Cmp(P) < 0
	if got := z.f.SetBytes(rawX); got != canonical {
		t.Fatalf("SetBytes(%x) = %v, want %v", rawX, got, canonical)
	}
	if !canonical && !z.f.Equal(&y.f) {
		t.Fatalf("rejected SetBytes(%x) changed the receiver", rawX)
	}

	// The hash boundary: any 256-bit integer, reduced.
	var digest [32]byte
	copy(digest[:], rawX)
	z.f.SetBytesReduce(&digest)
	z.o.SetBig(new(big.Int).SetBytes(digest[:]))
	z.check(t, "SetBytesReduce")

	// Below it, Mul's contract: any four-limb x times a reduced y is
	// reduced. On limbs x and y*R the product is x*y*R/R = x*y mod p, whose
	// canonical bytes are x*y/R mod p.
	raw := loadLimbs(&digest)
	z.f.Mul(&raw, &y.f)
	z.o.v.Mul(new(big.Int).SetBytes(digest[:]), &y.o.v)
	z.o.v.Mul(&z.o.v, new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 256), P))
	z.o.v.Mod(&z.o.v, P)
	z.check(t, "Mul(unreduced x, y)")
}

// fpSeeds are the values the issue names plus the edges of the limb
// representation, as big-endian bytes.
func fpSeeds() [][]byte {
	be := func(v *big.Int) []byte {
		var out [32]byte
		v.FillBytes(out[:])
		return out[:]
	}
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	pm := func(d int64) *big.Int { return new(big.Int).Sub(P, big.NewInt(d)) }
	seeds := [][]byte{
		be(big.NewInt(0)), be(big.NewInt(1)), be(big.NewInt(2)),
		be(pm(1)), be(pm(2)), be(new(big.Int).Rsh(pm(1), 1)),
		be(new(big.Int).Mod(r, P)), be(new(big.Int).Mod(new(big.Int).Mul(r, r), P)),
		be(P), be(new(big.Int).Add(P, big.NewInt(1))), // non-canonical
		bytes.Repeat([]byte{0xff}, 32), // 2^256 - 1
		be(new(big.Int).Lsh(big.NewInt(1), 64)), be(new(big.Int).Lsh(big.NewInt(1), 255)),
		be(new(big.Int).SetUint64(^uint64(0))),
		{}, {0x01}, bytes.Repeat([]byte{0x01}, 33), // wrong lengths
		// Unreduced x for Mul: 2p-1, the largest multiple of p below
		// 2^256, and (p-1)^2 as 64 bytes. With the seeds above they pair
		// into the all-ones digest through SetBytesReduce (x = 2^256-1,
		// y = R mod p, whose limbs are R^2), (p-1)*(p-1) and 0*(p-1).
		be(new(big.Int).Sub(new(big.Int).Lsh(P, 1), big.NewInt(1))),
		be(new(big.Int).Mul(P, new(big.Int).Div(r, P))),
		new(big.Int).Mul(pm(1), pm(1)).FillBytes(make([]byte, 64)),
	}
	return seeds
}

func FuzzFpOps(f *testing.F) {
	seeds := fpSeeds()
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) > 64 || len(b) > 64 {
			return
		}
		checkFpOps(t, a, b)
	})
}

// fp2Pair is one Fp2 value in both representations.
type fp2Pair struct {
	f fp2
	o fp2Oracle
}

func (p *fp2Pair) set(q *fp2Pair) {
	p.f = q.f
	p.o.c0.v.Set(&q.o.c0.v)
	p.o.c1.v.Set(&q.o.c1.v)
}

func (p *fp2Pair) check(t *testing.T, what string) {
	t.Helper()
	if p.f.c0.Bytes() != p.o.c0.Bytes() || p.f.c1.Bytes() != p.o.c1.Bytes() {
		t.Fatalf("%s: limbs give %s, big.Int gives (0x%x, 0x%x)", what, &p.f, &p.o.c0.v, &p.o.c1.v)
	}
}

func checkFp2Ops(t *testing.T, a0, a1, b0, b1 []byte) {
	t.Helper()
	mk := func(r0, r1 []byte) fp2Pair {
		c0, c1 := pairFromBytes(r0), pairFromBytes(r1)
		p := fp2Pair{f: fp2{c0.f, c1.f}}
		p.o.c0.v.Set(&c0.o.v)
		p.o.c1.v.Set(&c1.o.v)
		return p
	}
	x, y := mk(a0, a1), mk(b0, b1)
	var z fp2Pair
	z.f.Mul(&x.f, &y.f)
	z.o.Mul(&x.o, &y.o)
	z.check(t, "fp2 mul")
	z.f.Square(&x.f)
	z.o.Square(&x.o)
	z.check(t, "fp2 square")
	z.f.Inverse(&x.f)
	z.o.Inverse(&x.o)
	z.check(t, "fp2 inverse")
	z.set(&x)
	z.f.Mul(&z.f, &z.f)
	z.o.Mul(&z.o, &z.o)
	z.check(t, "fp2 z.Mul(z, z)")
	z.set(&x)
	z.f.Mul(&y.f, &z.f)
	z.o.Mul(&y.o, &z.o)
	z.check(t, "fp2 z.Mul(y, z)")

	// Roots of x and of x^2 (always a square): same verdict, same root.
	var sq fp2Pair
	sq.f.Square(&x.f)
	sq.o.Square(&x.o)
	for _, in := range []*fp2Pair{&x, &sq} {
		z.set(&y)
		okF, okO := z.f.Sqrt(&in.f), z.o.Sqrt(&in.o)
		if okF != okO || okF != in.f.isSquare() {
			t.Fatalf("fp2 sqrt verdicts differ on %s: limbs %v, big.Int %v", &in.f, okF, okO)
		}
		if !okF {
			if !z.f.Equal(&y.f) {
				t.Fatalf("failed fp2 sqrt of %s changed the receiver", &in.f)
			}
			continue
		}
		z.check(t, "fp2 sqrt")
	}
}

func FuzzFp2Ops(f *testing.F) {
	seeds := fpSeeds()[:9]
	for i, a := range seeds {
		f.Add(a, seeds[(i+1)%len(seeds)], seeds[(i+3)%len(seeds)], seeds[(i+4)%len(seeds)])
		f.Add(a, seeds[0], seeds[(i+2)%len(seeds)], seeds[0]) // c1 = 0: the Fp embedding
	}
	f.Fuzz(func(t *testing.T, a0, a1, b0, b1 []byte) {
		if len(a0) > 64 || len(a1) > 64 || len(b0) > 64 || len(b1) > 64 {
			return
		}
		checkFp2Ops(t, a0, a1, b0, b1)
	})
}

// TestMulMatchesReference holds Mul to the CIOS body it replaced on
// every four-limb x — seeded random limbs, the edges around p, 2p and
// 2^256 — and y in {R^2, p-1, random below p}.
func TestMulMatchesReference(t *testing.T) {
	limbs := func(label string, i int) fp {
		d := expandMessage("fp-mul-reference/"+label, nil, uint32(i))
		return loadLimbs(&d)
	}
	pLimbs := fp{q0, q1, q2, q3}
	ones := ^uint64(0)
	xs := []fp{{}, {1}, pLimbs, {q0 - 1, q1, q2, q3}, {q0 + 1, q1, q2, q3}, {ones, ones, ones, ones}, {0, 0, 0, 1 << 63}}
	for i := 0; i < 2000; i++ {
		xs = append(xs, limbs("x", i))
	}
	ys := []fp{fpR2, {q0 - 1, q1, q2, q3}}
	for i := 0; i < 50; i++ {
		y := limbs("y", i)
		y.reduceOnce(y[0], y[1], y[2], y[3]&(1<<62-1)) // below 2^254 < 2p, then below p
		ys = append(ys, y)
	}
	for _, x := range xs {
		for _, y := range ys {
			var got, want fp
			got.Mul(&x, &y)
			mulReference(&want, &x, &y)
			if got != want {
				t.Fatalf("Mul(%x, %x) = %x, reference %x", x, y, got, want)
			}
			if !lessThanModulus(&got) {
				t.Fatalf("Mul(%x, %x) = %x is not reduced", x, y, got)
			}
		}
	}
}

// TestFp2MulMatchesKaratsuba holds fp2.Mul's lazy reduction to Karatsuba
// on reduced products, on components at the edges (0, 1, p-1, p-2, R mod
// p) and seeded random ones, with the receiver aliasing either operand.
func TestFp2MulMatchesKaratsuba(t *testing.T) {
	edges := []fp{{}, fpOne, {1}, {q0 - 1, q1, q2, q3}, {q0 - 2, q1, q2, q3}}
	for i := 0; i < 8; i++ {
		d := expandMessage("fp2-mul-karatsuba", nil, uint32(i))
		var e fp
		edges = append(edges, *e.SetBytesReduce(&d))
	}
	var xs []fp2
	for _, a := range edges {
		for _, b := range edges {
			xs = append(xs, fp2{a, b})
		}
	}
	for _, x := range xs {
		for _, y := range xs {
			var got, want fp2
			got.Mul(&x, &y)
			fp2MulKaratsuba(&want, &x, &y)
			if got != want {
				t.Fatalf("fp2 Mul(%s, %s) = %s, Karatsuba %s", &x, &y, &got, &want)
			}
			if !lessThanModulus(&got.c0) || !lessThanModulus(&got.c1) {
				t.Fatalf("fp2 Mul(%s, %s) = %x not reduced", &x, &y, got)
			}
			z := x
			if z.Mul(&z, &y); z != want {
				t.Fatal("fp2 z.Mul(z, y) differs")
			}
			z = y
			if z.Mul(&x, &z); z != want {
				t.Fatal("fp2 z.Mul(x, z) differs")
			}
		}
	}
}

// TestFpMatchesOracleRandom is the fuzz bodies on seeded random inputs, so
// that a plain `go test` covers more than the seed corpus.
func TestFpMatchesOracleRandom(t *testing.T) {
	draw := func(label string, i int) []byte {
		d := expandMessage("fp-oracle/"+label, nil, uint32(i))
		return d[:]
	}
	for i := 0; i < 300; i++ {
		checkFpOps(t, draw("x", i), draw("y", i))
	}
	for i := 0; i < 60; i++ {
		checkFp2Ops(t, draw("a0", i), draw("a1", i), draw("b0", i), draw("b1", i))
	}
}
