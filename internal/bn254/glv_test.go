package bn254

import (
	"math/big"
	"testing"
)

// The GLV endomorphism and the two ladders on it (glv.go): the constants
// against their defining relations, the split and both recodings against
// the integers they encode, and the regular and wNAF ladders against the
// affine double-and-add oracle.

func TestGLVConstants(t *testing.T) {
	var b3 fp
	b3.Square(&glvBeta)
	b3.Mul(&b3, &glvBeta)
	if !b3.Equal(&fpOne) {
		t.Error("β^3 != 1 in Fp")
	}
	if glvBeta.Equal(&fpOne) {
		t.Error("β = 1")
	}

	l := new(big.Int).Mul(glvLambda, glvLambda)
	l.Add(l, glvLambda)
	l.Add(l, big.NewInt(1))
	if l.Mod(l, Order).Sign() != 0 {
		t.Error("λ^2 + λ + 1 != 0 mod r")
	}

	g := G1Generator()
	phiG := make([]G1, 1)
	phiTable(phiG, []G1{*g})
	if !phiG[0].Equal(scalarMultAffineG1(g, glvLambda)) {
		t.Error("φ(G) != [λ]G")
	}

	for i, v := range [][2]*u256{{&glvA1, &glvB1}, {&glvA2, &glvB2}} {
		a, b := signedBig(v[0]), signedBig(v[1])
		s := new(big.Int).Mul(b, glvLambda)
		if s.Add(s, a).Mod(s, Order).Sign() != 0 {
			t.Errorf("basis vector %d: a + bλ != 0 mod r", i+1)
		}
	}
}

// signedBig reads a two's complement u256 as a signed integer.
func signedBig(x *u256) *big.Int {
	v := new(big.Int)
	for i := 3; i >= 0; i-- {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(x[i]))
	}
	if x[3]>>63 == 1 {
		v.Sub(v, new(big.Int).Lsh(big.NewInt(1), 256))
	}
	return v
}

// halfBig reads a half (magnitude and sign mask) as a signed integer.
func halfBig(m [2]uint64, neg uint64) *big.Int {
	v := new(big.Int).SetUint64(m[1])
	v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(m[0]))
	if neg != 0 {
		v.Neg(v)
	}
	return v
}

// glvEdgeScalars are the scalars the split and the recodings are pinned on:
// the small ones, λ and its neighbourhood, the top of the range, the half
// boundaries, and inputs that need reducing (negative, ≥ r, ≥ 2^256).
func glvEdgeScalars() []*big.Int {
	one := big.NewInt(1)
	rm := func(x *big.Int) *big.Int { return new(big.Int).Sub(Order, x) }
	pow := func(n uint) *big.Int { return new(big.Int).Lsh(one, n) }
	return []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Set(glvLambda), rm(one), rm(glvLambda),
		new(big.Int).Rsh(rm(one), 1),
		pow(127), new(big.Int).Sub(pow(128), one), pow(128), new(big.Int).Sub(pow(127), one),
		new(big.Int).Add(glvLambda, one), new(big.Int).Sub(glvLambda, one),
		big.NewInt(-1), big.NewInt(-2), new(big.Int).Neg(glvLambda), new(big.Int).Neg(rm(one)),
		new(big.Int).Set(Order), new(big.Int).Add(Order, big.NewInt(5)),
		new(big.Int).Sub(pow(256), one), new(big.Int).Neg(new(big.Int).Sub(pow(256), one)),
		new(big.Int).Add(pow(300), big.NewInt(7)), new(big.Int).Neg(pow(260)),
	}
}

func glvTestScalars(t testing.TB) []*big.Int {
	ks := glvEdgeScalars()
	for i := 0; i < 8; i++ {
		k := randScalarT(t)
		ks = append(ks, k, new(big.Int).Neg(k), new(big.Int).Add(k, Order))
	}
	return ks
}

// checkSplit fails unless glvSplit(k) reconstructs k mod r from halves
// below 2^127.
func checkSplit(t testing.TB, k *big.Int) {
	t.Helper()
	kl := scalarLimbs(k)
	want := new(big.Int).Mod(k, Order)
	if got := signedBig(&kl); got.Cmp(want) != 0 {
		t.Fatalf("scalarLimbs(%v) = %v, want %v", k, got, want)
	}
	m1, m2, neg1, neg2 := glvSplit(&kl)
	for _, m := range [][2]uint64{m1, m2} {
		if m[1]>>63 != 0 {
			t.Fatalf("split of %v: half %x:%x is not below 2^127", k, m[1], m[0])
		}
	}
	got := new(big.Int).Mul(halfBig(m2, neg2), glvLambda)
	got.Add(got, halfBig(m1, neg1)).Mod(got, Order)
	if got.Cmp(want) != 0 {
		t.Fatalf("split of %v: k1 + k2·λ = %v mod r", k, got)
	}
}

func TestGLVSplit(t *testing.T) {
	for _, k := range glvTestScalars(t) {
		checkSplit(t, k)
	}
}

// TestGLVRecodingIsRegular pins the "same operation sequence for every
// secret" property of the regular ladder's input: every half of every edge
// scalar becomes exactly glvDigits digits, every digit odd, nonzero and
// below 2^glvWindow in magnitude, and the digits (minus the even
// correction) encode the half.
func TestGLVRecodingIsRegular(t *testing.T) {
	for _, k := range glvTestScalars(t) {
		kl := scalarLimbs(k)
		m1, m2, neg1, neg2 := glvSplit(&kl)
		for h, half := range []struct {
			m   [2]uint64
			neg uint64
		}{{m1, neg1}, {m2, neg2}} {
			var term regularTerm
			term.set(0, half.m, half.neg)
			if len(term.digits) != glvDigits {
				t.Fatalf("%d digits, want %d", len(term.digits), glvDigits)
			}
			sum := new(big.Int)
			for i := glvDigits - 1; i >= 0; i-- {
				d := term.digits[i]
				if d%2 == 0 || d >= 1<<glvWindow || d <= -(1<<glvWindow) {
					t.Fatalf("k=%v half %d: digit %d is %d", k, h, i, d)
				}
				sum.Lsh(sum, glvWindow).Add(sum, big.NewInt(int64(d)))
			}
			if term.even != 0 {
				sum.Sub(sum, big.NewInt(1))
			}
			if term.neg != half.neg {
				t.Fatal("sign mask lost")
			}
			if sum.Cmp(halfBig(half.m, 0)) != 0 {
				t.Fatalf("k=%v half %d: digits encode %v, want %v", k, h, sum, halfBig(half.m, 0))
			}
		}
	}
}

func TestGLVWNAFRecoding(t *testing.T) {
	for _, k := range glvTestScalars(t) {
		kl := scalarLimbs(k)
		m1, _, _, _ := glvSplit(&kl)
		for _, m := range [][2]uint64{m1, {kl[0], kl[1]}, {^uint64(0), ^uint64(0)}} {
			var term wnafTerm
			term.recode(m)
			sum := new(big.Int)
			for i := term.n - 1; i >= 0; i-- {
				d := term.digits[i]
				if d != 0 && (d%2 == 0 || d >= 1<<(wnafWidth-1) || d <= -(1<<(wnafWidth-1))) {
					t.Fatalf("digit %d is %d", i, d)
				}
				sum.Lsh(sum, 1).Add(sum, big.NewInt(int64(d)))
			}
			if sum.Cmp(halfBig(m, 0)) != 0 {
				t.Fatalf("wNAF of %x:%x encodes %v", m[1], m[0], sum)
			}
		}
	}
}

// TestSharedMSMMatchesOracle runs the regular ladder on the edge scalars
// (one set per scalar, against two bases) and on mixed sets, each output
// against the affine oracle.
func TestSharedMSMMatchesOracle(t *testing.T) {
	h1 := HashToG1("glv-test", []byte{1})
	h2 := HashToG1("glv-test", []byte{2})
	oracle := func(points []*G1, set []*big.Int) *G1 {
		acc := new(G1)
		for i, p := range points {
			acc.Add(acc, scalarMultAffineG1(p, new(big.Int).Mod(set[i], Order)))
		}
		return acc
	}
	ks := glvTestScalars(t)
	points := []*G1{h1, h2}
	var sets [][]*big.Int
	for i, k := range ks {
		sets = append(sets, []*big.Int{k, ks[(i+7)%len(ks)]})
	}
	out, err := MultiScalarMultSharedG1(points, sets...)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(sets) {
		t.Fatalf("%d outputs for %d sets", len(out), len(sets))
	}
	for s, set := range sets {
		if !out[s].Equal(oracle(points, set)) {
			t.Fatalf("set %d (%v, %v) diverges from the oracle", s, set[0], set[1])
		}
	}

	// A point at infinity and a repeated base contribute as the oracle says.
	inf := new(G1)
	points = []*G1{h1, inf, h1}
	set := []*big.Int{ks[3], ks[4], new(big.Int).Neg(ks[3])}
	out, err = MultiScalarMultSharedG1(points, set)
	if err != nil || !out[0].IsInfinity() {
		t.Fatalf("k·H + (−k)·H = %v, %v; want infinity", out, err)
	}
	// No sets, no points.
	if out, err := MultiScalarMultSharedG1(points); err != nil || len(out) != 0 {
		t.Fatalf("no sets: %v, %v", out, err)
	}
	if out, err := MultiScalarMultSharedG1(nil, nil, nil); err != nil || len(out) != 2 || !out[0].IsInfinity() {
		t.Fatalf("no points: %v, %v", out, err)
	}
}

func TestSharedMSMErrors(t *testing.T) {
	g := G1Generator()
	one := big.NewInt(1)
	for name, call := range map[string]func() ([]*G1, error){
		"length":     func() ([]*G1, error) { return MultiScalarMultSharedG1([]*G1{g}, []*big.Int{one, one}) },
		"nil point":  func() ([]*G1, error) { return MultiScalarMultSharedG1([]*G1{nil}, []*big.Int{one}) },
		"nil scalar": func() ([]*G1, error) { return MultiScalarMultSharedG1([]*G1{g}, []*big.Int{one}, []*big.Int{nil}) },
	} {
		if _, err := call(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestGLVPublicPathsMatchOracle runs ScalarMult (the wNAF ladder, and the
// binary one below shortScalarBitsG1) and G1MSM's Strauss branch on the
// edge scalars against the affine oracle.
func TestGLVPublicPathsMatchOracle(t *testing.T) {
	p := HashToG1("glv-test", []byte{3})
	q := HashToG1("glv-test", []byte{4})
	ks := glvTestScalars(t)
	for i, k := range ks {
		kr := new(big.Int).Mod(k, Order)
		want := scalarMultAffineG1(p, kr)
		if got := new(G1).ScalarMult(p, k); !got.Equal(want) {
			t.Fatalf("ScalarMult(%v) diverges from the oracle", k)
		}
		if kr.Sign() > 0 {
			if got := scalarMultWindowG1(p, kr); !got.Equal(want) {
				t.Fatalf("scalarMultWindowG1(%v) diverges from the oracle", k)
			}
		}
		k2 := ks[(i+5)%len(ks)]
		want.Add(want, scalarMultAffineG1(q, new(big.Int).Mod(k2, Order)))
		got, err := G1MSM([]*G1{p, q}, []*big.Int{k, k2})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("G1MSM(%v, %v) diverges from the oracle", k, k2)
		}
	}
}

// FuzzGLVSplit: k ≡ k1 + k2·λ (mod r) with both halves below 2^127, for any
// byte string read as a scalar of either sign.
func FuzzGLVSplit(f *testing.F) {
	for _, k := range glvEdgeScalars() {
		f.Add(k.Bytes(), k.Sign() < 0)
	}
	f.Fuzz(func(t *testing.T, raw []byte, neg bool) {
		if len(raw) > 48 {
			return
		}
		k := new(big.Int).SetBytes(raw)
		if neg {
			k.Neg(k)
		}
		checkSplit(t, k)
	})
}

// FuzzSharedMSM: one shared call over two bases equals two G1MSM calls.
func FuzzSharedMSM(f *testing.F) {
	edges := glvEdgeScalars()
	for i, k := range edges {
		f.Add(k.Bytes(), edges[(i+1)%len(edges)].Bytes(), edges[(i+4)%len(edges)].Bytes(), k.Bytes(), uint8(i))
	}
	h1 := HashToG1("glv-fuzz", []byte{1})
	h2 := HashToG1("glv-fuzz", []byte{2})
	f.Fuzz(func(t *testing.T, a, b, c, d []byte, signs uint8) {
		if len(a) > 40 || len(b) > 40 || len(c) > 40 || len(d) > 40 {
			return
		}
		ks := make([]*big.Int, 4)
		for i, raw := range [][]byte{a, b, c, d} {
			ks[i] = new(big.Int).SetBytes(raw)
			if signs>>i&1 == 1 {
				ks[i].Neg(ks[i])
			}
		}
		points := []*G1{h1, h2}
		out, err := MultiScalarMultSharedG1(points, ks[:2], ks[2:])
		if err != nil {
			t.Fatal(err)
		}
		for s, set := range [][]*big.Int{ks[:2], ks[2:]} {
			want, err := G1MSM(points, set)
			if err != nil {
				t.Fatal(err)
			}
			if !out[s].Equal(want) {
				t.Fatalf("set %d (%v, %v): shared MSM diverges from G1MSM", s, set[0], set[1])
			}
		}
	})
}
