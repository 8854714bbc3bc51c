package bn254

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
)

func randScalarT(t testing.TB) *big.Int {
	t.Helper()
	k, err := RandScalar(rand.Reader)
	if err != nil {
		t.Fatalf("RandScalar: %v", err)
	}
	return k
}

func TestDerivedParameters(t *testing.T) {
	// p and r must match the published alt_bn128 constants.
	wantP, _ := new(big.Int).SetString("21888242871839275222246405745257275088696311157297823662689037894645226208583", 10)
	wantR, _ := new(big.Int).SetString("21888242871839275222246405745257275088548364400416034343698204186575808495617", 10)
	if P.Cmp(wantP) != 0 {
		t.Errorf("P mismatch:\n got %s\nwant %s", P, wantP)
	}
	if Order.Cmp(wantR) != 0 {
		t.Errorf("Order mismatch:\n got %s\nwant %s", Order, wantR)
	}
	if new(big.Int).Mod(P, big.NewInt(4)).Int64() != 3 {
		t.Error("expected p = 3 mod 4")
	}
}

func TestFpFieldAxioms(t *testing.T) {
	rnd := func() *fp {
		k, _ := rand.Int(rand.Reader, P)
		var x fp
		x.SetBig(k)
		return &x
	}
	for i := 0; i < 32; i++ {
		a, b, c := rnd(), rnd(), rnd()
		var ab, ba fp
		ab.Mul(a, b)
		ba.Mul(b, a)
		if !ab.Equal(&ba) {
			t.Fatal("fp mul not commutative")
		}
		var lhs, rhs, t1, t2 fp
		// a*(b+c) == a*b + a*c
		t1.Add(b, c)
		lhs.Mul(a, &t1)
		t1.Mul(a, b)
		t2.Mul(a, c)
		rhs.Add(&t1, &t2)
		if !lhs.Equal(&rhs) {
			t.Fatal("fp distributivity failed")
		}
		if !a.IsZero() {
			var inv, prod fp
			inv.Inverse(a)
			prod.Mul(a, &inv)
			var one fp
			one.SetOne()
			if !prod.Equal(&one) {
				t.Fatal("fp inverse failed")
			}
		}
	}
}

func TestFp2FieldAxioms(t *testing.T) {
	rnd := func() *fp2 {
		k0, _ := rand.Int(rand.Reader, P)
		k1, _ := rand.Int(rand.Reader, P)
		var x fp2
		x.c0.SetBig(k0)
		x.c1.SetBig(k1)
		return &x
	}
	for i := 0; i < 32; i++ {
		a, b := rnd(), rnd()
		var ab, ba fp2
		ab.Mul(a, b)
		ba.Mul(b, a)
		if !ab.Equal(&ba) {
			t.Fatal("fp2 mul not commutative")
		}
		var sq, mm fp2
		sq.Square(a)
		mm.Mul(a, a)
		if !sq.Equal(&mm) {
			t.Fatal("fp2 square != mul")
		}
		if !a.IsZero() {
			var inv, prod fp2
			inv.Inverse(a)
			prod.Mul(a, &inv)
			if !prod.IsOne() {
				t.Fatal("fp2 inverse failed")
			}
		}
		// Conjugation is the p-power Frobenius.
		var conj, frob fp2
		conj.Conjugate(a)
		frob.Exp(a, P)
		if !conj.Equal(&frob) {
			t.Fatal("fp2 conjugate != x^p")
		}
	}
}

func TestFp2Sqrt(t *testing.T) {
	for i := 0; i < 24; i++ {
		k0, _ := rand.Int(rand.Reader, P)
		k1, _ := rand.Int(rand.Reader, P)
		var x, sq fp2
		x.c0.SetBig(k0)
		x.c1.SetBig(k1)
		sq.Square(&x)
		var root fp2
		if !root.Sqrt(&sq) {
			t.Fatal("Sqrt failed on a known square")
		}
		var chk fp2
		chk.Square(&root)
		if !chk.Equal(&sq) {
			t.Fatal("Sqrt returned a non-root")
		}
	}
	// Non-squares are rejected: x is a square iff isSquare says so.
	squares, nonsquares := 0, 0
	for i := 0; i < 40; i++ {
		k0, _ := rand.Int(rand.Reader, P)
		k1, _ := rand.Int(rand.Reader, P)
		var x fp2
		x.c0.SetBig(k0)
		x.c1.SetBig(k1)
		var root fp2
		got := root.Sqrt(&x)
		want := x.isSquare()
		if got != want {
			t.Fatalf("Sqrt existence %v disagrees with isSquare %v", got, want)
		}
		if got {
			squares++
		} else {
			nonsquares++
		}
	}
	if squares == 0 || nonsquares == 0 {
		t.Errorf("degenerate sample: %d squares, %d nonsquares", squares, nonsquares)
	}
}

func TestFp6Fp12Inverse(t *testing.T) {
	rnd12 := func() *fp12 {
		var x fp12
		for k := 0; k < 6; k++ {
			k0, _ := rand.Int(rand.Reader, P)
			k1, _ := rand.Int(rand.Reader, P)
			x.flatGet(k).c0.SetBig(k0)
			x.flatGet(k).c1.SetBig(k1)
		}
		return &x
	}
	for i := 0; i < 16; i++ {
		a := rnd12()
		var inv, prod fp12
		inv.Inverse(a)
		prod.Mul(a, &inv)
		if !prod.IsOne() {
			t.Fatal("fp12 inverse failed")
		}
		var sq, mm fp12
		sq.Square(a)
		mm.Mul(a, a)
		if !sq.Equal(&mm) {
			t.Fatal("fp12 square != mul")
		}
	}
}

func TestFp12Frobenius(t *testing.T) {
	var x fp12
	for k := 0; k < 6; k++ {
		k0, _ := rand.Int(rand.Reader, P)
		k1, _ := rand.Int(rand.Reader, P)
		x.flatGet(k).c0.SetBig(k0)
		x.flatGet(k).c1.SetBig(k1)
	}
	var frob, pow fp12
	frob.Frobenius(&x)
	pow.Exp(&x, P)
	if !frob.Equal(&pow) {
		t.Fatal("Frobenius != x^p")
	}
	// Twelve applications are the identity.
	var it fp12
	it.Set(&x)
	for i := 0; i < 12; i++ {
		it.Frobenius(&it)
	}
	if !it.Equal(&x) {
		t.Fatal("Frobenius^12 != identity")
	}
	var f2, pp fp12
	f2.FrobeniusP2(&x)
	pp.Exp(&x, pSquared)
	if !f2.Equal(&pp) {
		t.Fatal("FrobeniusP2 != x^(p^2)")
	}
}

func TestG1GroupLaw(t *testing.T) {
	a := new(G1).ScalarBaseMult(randScalarT(t))
	b := new(G1).ScalarBaseMult(randScalarT(t))
	c := new(G1).ScalarBaseMult(randScalarT(t))

	var ab, ba G1
	ab.Add(a, b)
	ba.Add(b, a)
	if !ab.Equal(&ba) {
		t.Fatal("G1 addition not commutative")
	}
	var abc1, abc2, tmp G1
	tmp.Add(a, b)
	abc1.Add(&tmp, c)
	tmp.Add(b, c)
	abc2.Add(a, &tmp)
	if !abc1.Equal(&abc2) {
		t.Fatal("G1 addition not associative")
	}
	var na, zero G1
	na.Neg(a)
	zero.Add(a, &na)
	if !zero.IsInfinity() {
		t.Fatal("a + (-a) != infinity")
	}
	var dbl, sum G1
	dbl.Double(a)
	sum.Add(a, a)
	if !dbl.Equal(&sum) {
		t.Fatal("double != a+a")
	}
	var ord G1
	ord.ScalarMult(a, Order)
	if !ord.IsInfinity() {
		t.Fatal("r*a != infinity")
	}
	if !a.isOnCurve() || !ab.isOnCurve() {
		t.Fatal("points left the curve")
	}
}

func TestG1ScalarMultDistributes(t *testing.T) {
	k1 := randScalarT(t)
	k2 := randScalarT(t)
	var sum big.Int
	sum.Add(k1, k2)
	var lhs, r1, r2, rhs G1
	lhs.ScalarBaseMult(&sum)
	r1.ScalarBaseMult(k1)
	r2.ScalarBaseMult(k2)
	rhs.Add(&r1, &r2)
	if !lhs.Equal(&rhs) {
		t.Fatal("(k1+k2)G != k1 G + k2 G")
	}
}

func TestG2GroupLaw(t *testing.T) {
	a := new(G2).ScalarBaseMult(randScalarT(t))
	b := new(G2).ScalarBaseMult(randScalarT(t))
	var ab, ba G2
	ab.Add(a, b)
	ba.Add(b, a)
	if !ab.Equal(&ba) {
		t.Fatal("G2 addition not commutative")
	}
	var na, zero G2
	na.Neg(a)
	zero.Add(a, &na)
	if !zero.IsInfinity() {
		t.Fatal("a + (-a) != infinity in G2")
	}
	var ord G2
	ord.ScalarMult(a, Order)
	if !ord.IsInfinity() {
		t.Fatal("r*a != infinity in G2")
	}
	if !a.isOnTwist() || !ab.isOnTwist() {
		t.Fatal("points left the twist")
	}
}

func TestG2Frobenius(t *testing.T) {
	// pi must agree with multiplication by p on the order-r subgroup.
	q := new(G2).ScalarBaseMult(randScalarT(t))
	var fr, mul G2
	fr.frobenius(q)
	mul.ScalarMult(q, new(big.Int).Mod(P, Order))
	if !fr.Equal(&mul) {
		t.Fatal("frobenius(Q) != [p]Q on the subgroup")
	}
	if !fr.isOnTwist() {
		t.Fatal("frobenius left the twist")
	}
}

func TestPairingBilinearity(t *testing.T) {
	p := G1Generator()
	q := G2Generator()
	a := randScalarT(t)
	b := randScalarT(t)

	var pa G1
	pa.ScalarMult(p, a)
	var qb G2
	qb.ScalarMult(q, b)

	e1 := Pair(&pa, &qb) // e(aP, bQ)
	base := Pair(p, q)
	var ab big.Int
	ab.Mul(a, b)
	e2 := new(GT).Exp(base, &ab) // e(P,Q)^(ab)
	if !e1.Equal(e2) {
		t.Fatal("bilinearity failed: e(aP,bQ) != e(P,Q)^(ab)")
	}

	// Additivity in the first slot.
	p2 := new(G1).ScalarMult(p, randScalarT(t))
	var sum G1
	sum.Add(&pa, p2)
	lhs := Pair(&sum, q)
	rhs := new(GT).Mul(Pair(&pa, q), Pair(p2, q))
	if !lhs.Equal(rhs) {
		t.Fatal("pairing not additive in G1 slot")
	}
}

func TestPairingNonDegenerate(t *testing.T) {
	e := Pair(G1Generator(), G2Generator())
	if e.IsOne() {
		t.Fatal("pairing of generators is trivial")
	}
	if !e.IsInSubgroup() {
		t.Fatal("pairing output not of order r")
	}
	var id GT
	id.Exp(e, Order)
	if !id.IsOne() {
		t.Fatal("e^r != 1")
	}
	// Pairing with infinity is one.
	if !Pair(new(G1), G2Generator()).IsOne() {
		t.Fatal("e(O, Q) != 1")
	}
	if !Pair(G1Generator(), new(G2)).IsOne() {
		t.Fatal("e(P, O) != 1")
	}
}

func TestNaiveFinalExponentiation(t *testing.T) {
	// The naive pairing must independently satisfy bilinearity and
	// consistency of pairing-product equalities with the optimized one.
	p := G1Generator()
	q := G2Generator()
	a := randScalarT(t)

	var pa G1
	pa.ScalarMult(p, a)
	var qa G2
	qa.ScalarMult(q, a)

	// e(aP, Q) == e(P, aQ) under both implementations.
	n1 := pairNaive(&pa, q)
	n2 := pairNaive(p, &qa)
	if !n1.Equal(n2) {
		t.Fatal("naive pairing: e(aP,Q) != e(P,aQ)")
	}
	if n1.IsOne() {
		t.Fatal("naive pairing degenerate")
	}
	o1 := Pair(&pa, q)
	o2 := Pair(p, &qa)
	if !o1.Equal(o2) {
		t.Fatal("optimized pairing: e(aP,Q) != e(P,aQ)")
	}
}

func TestPairingCheck(t *testing.T) {
	// e(P, Q) * e(-P, Q) == 1.
	p := new(G1).ScalarBaseMult(randScalarT(t))
	q := new(G2).ScalarBaseMult(randScalarT(t))
	np := new(G1).Neg(p)
	if !PairingCheck([]*G1{p, np}, []*G2{q, q}) {
		t.Fatal("e(P,Q)e(-P,Q) != 1")
	}
	// And a perturbed product must fail.
	other := new(G2).ScalarBaseMult(randScalarT(t))
	if PairingCheck([]*G1{p, np}, []*G2{q, other}) {
		t.Fatal("pairing check accepted an unbalanced product")
	}
}

func TestMultiPairMatchesProduct(t *testing.T) {
	var ps []*G1
	var qs []*G2
	expect := NewGT()
	for i := 0; i < 4; i++ {
		p := new(G1).ScalarBaseMult(randScalarT(t))
		q := new(G2).ScalarBaseMult(randScalarT(t))
		ps = append(ps, p)
		qs = append(qs, q)
		expect.Mul(expect, Pair(p, q))
	}
	got, err := MultiPair(ps, qs)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(expect) {
		t.Fatal("MultiPair != product of Pair")
	}
	if _, err := MultiPair(ps, qs[:2]); err == nil {
		t.Fatal("MultiPair accepted mismatched lengths")
	}
}

func TestG1Serialization(t *testing.T) {
	for i := 0; i < 8; i++ {
		p := new(G1).ScalarBaseMult(randScalarT(t))
		raw := p.Marshal()
		var q G1
		if err := q.Unmarshal(raw); err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		if !p.Equal(&q) {
			t.Fatal("uncompressed round trip failed")
		}
		comp := p.MarshalCompressed()
		if len(comp) != G1SizeCompressed {
			t.Fatalf("compressed size %d", len(comp))
		}
		var r G1
		if err := r.UnmarshalCompressed(comp); err != nil {
			t.Fatalf("UnmarshalCompressed: %v", err)
		}
		if !p.Equal(&r) {
			t.Fatal("compressed round trip failed")
		}
	}
	// Infinity round trips.
	inf := new(G1)
	var q G1
	if err := q.Unmarshal(inf.Marshal()); err != nil || !q.IsInfinity() {
		t.Fatal("infinity uncompressed round trip failed")
	}
	if err := q.UnmarshalCompressed(inf.MarshalCompressed()); err != nil || !q.IsInfinity() {
		t.Fatal("infinity compressed round trip failed")
	}
	// Off-curve points are rejected.
	bad := make([]byte, G1SizeUncompressed)
	bad[31] = 7
	bad[63] = 11
	if err := q.Unmarshal(bad); err == nil {
		t.Fatal("accepted an off-curve point")
	}
}

func TestG2Serialization(t *testing.T) {
	for i := 0; i < 4; i++ {
		p := new(G2).ScalarBaseMult(randScalarT(t))
		var q G2
		if err := q.Unmarshal(p.Marshal()); err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		if !p.Equal(&q) {
			t.Fatal("uncompressed round trip failed")
		}
		comp := p.MarshalCompressed()
		if len(comp) != G2SizeCompressed {
			t.Fatalf("compressed size %d", len(comp))
		}
		var r G2
		if err := r.UnmarshalCompressed(comp); err != nil {
			t.Fatalf("UnmarshalCompressed: %v", err)
		}
		if !p.Equal(&r) {
			t.Fatal("compressed round trip failed")
		}
	}
	inf := new(G2)
	var q G2
	if err := q.Unmarshal(inf.Marshal()); err != nil || !q.IsInfinity() {
		t.Fatal("G2 infinity round trip failed")
	}
}

func TestGTSerialization(t *testing.T) {
	e := Pair(G1Generator(), new(G2).ScalarBaseMult(randScalarT(t)))
	raw := e.Marshal()
	if len(raw) != GTSize {
		t.Fatalf("GT size %d", len(raw))
	}
	var f GT
	if err := f.Unmarshal(raw); err != nil {
		t.Fatal(err)
	}
	if !e.Equal(&f) {
		t.Fatal("GT round trip failed")
	}
}

func TestHashToG1(t *testing.T) {
	h1 := HashToG1("test", []byte("message one"))
	h2 := HashToG1("test", []byte("message two"))
	if h1.Equal(h2) {
		t.Fatal("distinct messages hashed to the same point")
	}
	h1b := HashToG1("test", []byte("message one"))
	if !h1.Equal(h1b) {
		t.Fatal("hash not deterministic")
	}
	if !h1.isOnCurve() {
		t.Fatal("hash output off curve")
	}
	hd := HashToG1("other-domain", []byte("message one"))
	if h1.Equal(hd) {
		t.Fatal("domain separation failed")
	}
	var ord G1
	ord.ScalarMult(h1, Order)
	if !ord.IsInfinity() {
		t.Fatal("hash output not of order r")
	}
}

func TestHashToG1Vector(t *testing.T) {
	v := HashToG1Vector("vec", []byte("msg"), 3)
	if len(v) != 3 {
		t.Fatalf("got %d points", len(v))
	}
	for i := range v {
		for j := i + 1; j < len(v); j++ {
			if v[i].Equal(v[j]) {
				t.Fatal("vector coordinates collide")
			}
		}
	}
}

func TestHashToG2(t *testing.T) {
	q := HashToG2("gen-test", []byte("seed"))
	if q.IsInfinity() {
		t.Fatal("hash-to-G2 returned infinity")
	}
	if !q.isOnTwist() {
		t.Fatal("hash-to-G2 off twist")
	}
	if !q.inSubgroup() {
		t.Fatal("hash-to-G2 output not in subgroup")
	}
	q2 := HashToG2("gen-test", []byte("seed"))
	if !q.Equal(q2) {
		t.Fatal("hash-to-G2 not deterministic")
	}
}

func TestMultiScalarMult(t *testing.T) {
	n := 5
	points := make([]*G1, n)
	scalars := make([]*big.Int, n)
	expect := new(G1)
	for i := 0; i < n; i++ {
		points[i] = new(G1).ScalarBaseMult(randScalarT(t))
		scalars[i] = randScalarT(t)
		var term G1
		term.ScalarMult(points[i], scalars[i])
		expect.Add(expect, &term)
	}
	got, err := MultiScalarMultG1(points, scalars)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(expect) {
		t.Fatal("MultiScalarMultG1 mismatch")
	}
	if _, err := MultiScalarMultG1(points, scalars[:2]); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
}

func TestHashToScalar(t *testing.T) {
	a := HashToScalar("d", []byte("x"))
	b := HashToScalar("d", []byte("x"))
	if a.Cmp(b) != 0 {
		t.Fatal("HashToScalar not deterministic")
	}
	c := HashToScalar("d", []byte("y"))
	if a.Cmp(c) == 0 {
		t.Fatal("HashToScalar collision on distinct input")
	}
	if a.Sign() < 0 || a.Cmp(Order) >= 0 {
		t.Fatal("HashToScalar out of range")
	}
}

func TestCompressedEncodingIsPaperSize(t *testing.T) {
	// The paper: "each signature consists of 512 bits" for two G1
	// elements on BN curves. Two compressed G1 points = 64 bytes.
	if 2*G1SizeCompressed*8 != 512 {
		t.Fatalf("2 G1 elements = %d bits, want 512", 2*G1SizeCompressed*8)
	}
}

func TestGTExpAndInverse(t *testing.T) {
	e := GTGenerator()
	k := randScalarT(t)
	var ek, inv, prod GT
	ek.Exp(e, k)
	inv.Inverse(&ek)
	prod.Mul(&ek, &inv)
	if !prod.IsOne() {
		t.Fatal("GT inverse failed")
	}
	// Exp distributes: e^(k1) * e^(k2) = e^(k1+k2).
	k2 := randScalarT(t)
	var a, b, ab, sum GT
	a.Exp(e, k)
	b.Exp(e, k2)
	ab.Mul(&a, &b)
	var ks big.Int
	ks.Add(k, k2)
	sum.Exp(e, &ks)
	if !ab.Equal(&sum) {
		t.Fatal("GT exponent addition failed")
	}
}

func TestUnmarshalRejectsBadLengths(t *testing.T) {
	var g1 G1
	if err := g1.Unmarshal(make([]byte, 10)); err == nil {
		t.Fatal("G1 accepted short input")
	}
	var g2 G2
	if err := g2.Unmarshal(make([]byte, 10)); err == nil {
		t.Fatal("G2 accepted short input")
	}
	var gt GT
	if err := gt.Unmarshal(make([]byte, 10)); err == nil {
		t.Fatal("GT accepted short input")
	}
}

func TestMarshalDeterministic(t *testing.T) {
	p := new(G1).ScalarBaseMult(big.NewInt(42))
	if !bytes.Equal(p.Marshal(), p.Marshal()) {
		t.Fatal("marshal not deterministic")
	}
}

func TestJacobianMatchesAffineScalarMult(t *testing.T) {
	// The Jacobian windowed ladder must agree with the affine reference
	// for random scalars and for edge-case scalars.
	edge := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(3),
		big.NewInt(15), big.NewInt(16), big.NewInt(17),
		new(big.Int).Sub(Order, big.NewInt(1)),
	}
	for i := 0; i < 4; i++ {
		edge = append(edge, randScalarT(t))
	}
	p := new(G1).ScalarBaseMult(randScalarT(t))
	q := new(G2).ScalarBaseMult(randScalarT(t))
	for _, k := range edge {
		got1 := scalarMultJacG1(p, k)
		want1 := scalarMultAffineG1(p, k)
		if !got1.Equal(want1) {
			t.Fatalf("G1 jacobian/affine mismatch at k=%s", k)
		}
		got2 := scalarMultJacG2(q, k)
		want2 := scalarMultAffineG2(q, k)
		if !got2.Equal(want2) {
			t.Fatalf("G2 jacobian/affine mismatch at k=%s", k)
		}
	}
	// Infinity in, infinity out.
	if !scalarMultJacG1(new(G1), big.NewInt(7)).IsInfinity() {
		t.Fatal("k*O != O in G1")
	}
	if !scalarMultJacG2(new(G2), big.NewInt(7)).IsInfinity() {
		t.Fatal("k*O != O in G2")
	}
}

func TestJacobianRoundTrip(t *testing.T) {
	p := new(G1).ScalarBaseMult(randScalarT(t))
	var j jacG1
	j.fromAffine(p)
	var back G1
	j.toAffine(&back)
	if !back.Equal(p) {
		t.Fatal("G1 jacobian round trip failed")
	}
	// double/addMixed consistency: 3P = 2P + P.
	var two jacG1
	two.double(&j)
	var three jacG1
	three.addMixed(&two, p)
	var aff3, want G1
	three.toAffine(&aff3)
	want.ScalarMult(p, big.NewInt(3))
	if !aff3.Equal(&want) {
		t.Fatal("2P+P != 3P in jacobian G1")
	}
	// P + (-P) = O through the mixed-add branch.
	var neg G1
	neg.Neg(p)
	var zero jacG1
	zero.fromAffine(p)
	zero.addMixed(&zero, &neg)
	var affZero G1
	zero.toAffine(&affZero)
	if !affZero.IsInfinity() {
		t.Fatal("P + (-P) != O in jacobian G1")
	}
}

func TestSparseLineMulMatchesGeneric(t *testing.T) {
	// mulByLine must agree with expanding the line to a full fp12 and
	// using the generic multiplication, for both line shapes.
	rnd12 := func() *fp12 {
		var x fp12
		for k := 0; k < 6; k++ {
			k0, _ := rand.Int(rand.Reader, P)
			k1, _ := rand.Int(rand.Reader, P)
			x.flatGet(k).c0.SetBig(k0)
			x.flatGet(k).c1.SetBig(k1)
		}
		return &x
	}
	rnd2 := func() fp2 {
		k0, _ := rand.Int(rand.Reader, P)
		k1, _ := rand.Int(rand.Reader, P)
		var x fp2
		x.c0.SetBig(k0)
		x.c1.SetBig(k1)
		return x
	}
	for i := 0; i < 8; i++ {
		f := rnd12()
		var l lineEval
		k, _ := rand.Int(rand.Reader, P)
		l.a0.SetBig(k)
		l.a1 = rnd2()
		l.a3 = rnd2()

		var want, lf fp12
		l.asFp12(&lf)
		want.Mul(f, &lf)
		got := new(fp12).Set(f)
		mulByLine(got, &l)
		if !got.Equal(&want) {
			t.Fatal("sparse line mul mismatch (general line)")
		}

		// Vertical shape.
		var v lineEval
		v.vertical = true
		kv, _ := rand.Int(rand.Reader, P)
		v.v0.SetBig(kv)
		v.v2 = rnd2()
		v.asFp12(&lf)
		want.Mul(f, &lf)
		got = new(fp12).Set(f)
		mulByLine(got, &v)
		if !got.Equal(&want) {
			t.Fatal("sparse line mul mismatch (vertical line)")
		}
	}
}

func TestCyclotomicSquare(t *testing.T) {
	// On pairing outputs (cyclotomic subgroup) the compressed squaring
	// must equal the generic one; on random fp12 elements it need not.
	e := Pair(G1Generator(), new(G2).ScalarBaseMult(randScalarT(t)))
	x := &e.v
	var want, got fp12
	want.Square(x)
	got.cyclotomicSquare(x)
	if !got.Equal(&want) {
		t.Fatal("cyclotomic square disagrees with generic square on GT element")
	}
	// Iterated: x^(2^10) both ways.
	a := new(fp12).Set(x)
	b := new(fp12).Set(x)
	for i := 0; i < 10; i++ {
		a.Square(a)
		b.cyclotomicSquare(b)
	}
	if !a.Equal(b) {
		t.Fatal("iterated cyclotomic squaring diverged")
	}
	// cyclotomicExp equals Exp on subgroup elements.
	k := randScalarT(t)
	var e1, e2 fp12
	e1.Exp(x, k)
	e2.cyclotomicExp(x, k)
	if !e1.Equal(&e2) {
		t.Fatal("cyclotomicExp != Exp on GT element")
	}
}

func TestFixedBaseMatchesGeneric(t *testing.T) {
	baseG2 := new(G2).ScalarBaseMult(randScalarT(t))
	fb2 := NewFixedBaseG2(baseG2)
	scalars := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(15), big.NewInt(16),
		new(big.Int).Sub(Order, big.NewInt(1)),
		randScalarT(t), randScalarT(t),
	}
	for _, k := range scalars {
		var want2 G2
		want2.ScalarMult(baseG2, k)
		if !fb2.ScalarMult(k).Equal(&want2) {
			t.Fatalf("G2 fixed-base mismatch at k=%s", k)
		}
	}
	if !fb2.Base().Equal(baseG2) {
		t.Fatal("Base() did not round trip")
	}
}

func TestCommitG2MatchesMultiScalar(t *testing.T) {
	g := new(G2).ScalarBaseMult(randScalarT(t))
	h := new(G2).ScalarBaseMult(randScalarT(t))
	fg := NewFixedBaseG2(g)
	fh := NewFixedBaseG2(h)
	for i := 0; i < 4; i++ {
		a := randScalarT(t)
		b := randScalarT(t)
		want, err := MultiScalarMultG2([]*G2{g, h}, []*big.Int{a, b})
		if err != nil {
			t.Fatal(err)
		}
		if !CommitG2(fg, fh, a, b).Equal(want) {
			t.Fatal("CommitG2 mismatch")
		}
	}
	// Zero exponents.
	if !CommitG2(fg, fh, big.NewInt(0), big.NewInt(0)).IsInfinity() {
		t.Fatal("CommitG2(0,0) != infinity")
	}
}
