package bn254

import (
	"math/big"
	"testing"
	"testing/quick"
)

// Differential coverage for the pairing paths: the line tables (Jacobian
// steps, one shared inversion) must hold exactly the lines affine
// arithmetic yields, and the fresh, fixed, mixed and sharded Miller loops
// must be bit-identical to the affine reference loop (reference_test.go).

func TestMillerLoopFixedMatchesMiller(t *testing.T) {
	cases := []struct {
		a, b int64
	}{
		{1, 1}, {2, 3}, {7, 1}, {123456789, 987654321}, {-5, 11},
	}
	for _, tc := range cases {
		p := new(G1).ScalarBaseMult(scalarFromRaw(tc.a))
		q := new(G2).ScalarBaseMult(scalarFromRaw(tc.b))

		var want, got, fresh fp12
		want.SetOne()
		millerAffine(p, q, &want)

		pre := PrecomputeG2(q)
		got.SetOne()
		MillerLoopFixed(p, pre, &got)
		fresh.SetOne()
		miller(p, q, &fresh)

		if !got.Equal(&want) || !fresh.Equal(&want) {
			t.Fatalf("Miller value mismatch for a=%d b=%d", tc.a, tc.b)
		}
		ref := linesAffine(q)
		if len(ref) != len(pre.lines) || len(ref) != millerLineCount() {
			t.Fatalf("table has %d lines, reference %d, schedule %d", len(pre.lines), len(ref), millerLineCount())
		}
		for i := range ref {
			if ref[i].vertical != pre.lines[i].vertical || !ref[i].lambda.Equal(&pre.lines[i].lambda) || !ref[i].c.Equal(&pre.lines[i].c) {
				t.Fatalf("line %d of the table differs from affine arithmetic (a=%d b=%d)", i, tc.a, tc.b)
			}
		}
	}
}

func TestMillerLoopFixedRandom(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		p := new(G1).ScalarBaseMult(randScalarT(t))
		q := new(G2).ScalarBaseMult(randScalarT(t))
		var want, got, fresh fp12
		want.SetOne()
		millerAffine(p, q, &want)
		got.SetOne()
		MillerLoopFixed(p, PrecomputeG2(q), &got)
		fresh.SetOne()
		miller(p, q, &fresh)
		if !got.Equal(&want) || !fresh.Equal(&want) {
			t.Fatalf("trial %d: Miller loop diverges from reference", trial)
		}
	}
}

func TestPairFixedMatchesPair(t *testing.T) {
	p := new(G1).ScalarBaseMult(big.NewInt(5))
	q := new(G2).ScalarBaseMult(big.NewInt(9))
	if !PairFixed(p, PrecomputeG2(q)).Equal(Pair(p, q)) {
		t.Fatal("PairFixed != Pair")
	}
}

func TestPrecomputeInfinityAndEdgeInputs(t *testing.T) {
	inf2 := new(G2) // infinity
	pre := PrecomputeG2(inf2)
	if !pre.infinity {
		t.Fatal("precompute of infinity not marked infinite")
	}
	if got := PairFixed(G1Generator(), pre); !got.IsOne() {
		t.Fatal("e(P, O) != 1 on the fixed path")
	}
	if got := PairFixed(new(G1), PrecomputeG2(G2Generator())); !got.IsOne() {
		t.Fatal("e(O, Q) != 1 on the fixed path")
	}
	if pre := PrecomputeG2(nil); !pre.infinity {
		t.Fatal("PrecomputeG2(nil) must behave as infinity")
	}
}

func TestMultiPairMixedMatchesMultiPair(t *testing.T) {
	k := 5
	ps := make([]*G1, k)
	qs := make([]*G2, k)
	for i := 0; i < k; i++ {
		ps[i] = new(G1).ScalarBaseMult(scalarFromRaw(int64(3*i + 1)))
		qs[i] = new(G2).ScalarBaseMult(scalarFromRaw(int64(7*i + 2)))
	}
	want, err := MultiPair(ps, qs)
	if err != nil {
		t.Fatal(err)
	}
	// Alternate fixed and fresh slots.
	slots := make([]*PairingSlot, k)
	for i := 0; i < k; i++ {
		if i%2 == 0 {
			slots[i] = &PairingSlot{P: ps[i], Pre: PrecomputeG2(qs[i])}
		} else {
			slots[i] = &PairingSlot{P: ps[i], Q: qs[i]}
		}
	}
	got, err := MultiPairMixed(slots)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("mixed multi-pairing diverges from MultiPair")
	}
}

func TestPairingCheckMixedRelation(t *testing.T) {
	// e(aG, bH) * e(-abG, H) == 1, in every fixed/fresh combination.
	a := big.NewInt(1234577)
	b := big.NewInt(9876541)
	ab := new(big.Int).Mul(a, b)
	pa := new(G1).ScalarBaseMult(a)
	qb := new(G2).ScalarBaseMult(b)
	pab := new(G1).ScalarBaseMult(ab)
	pab.Neg(pab)
	h := G2Generator()
	preQb := PrecomputeG2(qb)
	preH := PrecomputeG2(h)
	combos := [][2]*PairingSlot{
		{{P: pa, Q: qb}, {P: pab, Q: h}},
		{{P: pa, Pre: preQb}, {P: pab, Q: h}},
		{{P: pa, Q: qb}, {P: pab, Pre: preH}},
		{{P: pa, Pre: preQb}, {P: pab, Pre: preH}},
	}
	for i, c := range combos {
		if !PairingCheckMixed([]*PairingSlot{c[0], c[1]}) {
			t.Fatalf("combo %d: valid relation rejected", i)
		}
	}
	// Perturb one side: must fail in every combination.
	bad := new(G1).ScalarBaseMult(big.NewInt(2))
	bad.Add(bad, pab)
	for i, c := range combos {
		if PairingCheckMixed([]*PairingSlot{c[0], {P: bad, Q: h, Pre: c[1].Pre}}) {
			t.Fatalf("combo %d: invalid relation accepted", i)
		}
	}
}

func TestMultiPairMixedRejectsIncompleteSlots(t *testing.T) {
	g := G1Generator()
	for _, slots := range [][]*PairingSlot{
		{nil},
		{{P: nil, Q: G2Generator()}},
		{{P: g}}, // neither Q nor Pre
	} {
		if _, err := MultiPairMixed(slots); err == nil {
			t.Fatalf("incomplete slot %v accepted", slots)
		}
		if PairingCheckMixed(slots) {
			t.Fatal("incomplete slot passed PairingCheckMixed")
		}
	}
	// The empty product is one.
	out, err := MultiPairMixed(nil)
	if err != nil || !out.IsOne() {
		t.Fatal("empty multi-pairing must be one")
	}
}

func TestQuickMillerLoopFixedEquivalence(t *testing.T) {
	prop := func(aRaw, bRaw int64) bool {
		p := new(G1).ScalarBaseMult(scalarFromRaw(aRaw))
		q := new(G2).ScalarBaseMult(scalarFromRaw(bRaw))
		var want, got fp12
		want.SetOne()
		millerAffine(p, q, &want)
		got.SetOne()
		MillerLoopFixed(p, PrecomputeG2(q), &got)
		return got.Equal(&want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

// FuzzPairingCheckMixed drives the mixed multi-pairing with fuzzer-chosen
// slot orderings and fixed/fresh assignments over a relation whose product
// is one by construction: e(aG, H) e(G, bH) e(-(a+b)G, H) == 1. Any
// ordering or precompute mix must accept, and a perturbed product must be
// rejected.
func FuzzPairingCheckMixed(f *testing.F) {
	f.Add(int64(3), int64(5), uint8(0b010), uint8(1))
	f.Add(int64(-7), int64(11), uint8(0b111), uint8(3))
	f.Add(int64(1), int64(0), uint8(0b101), uint8(5))
	f.Fuzz(func(t *testing.T, aRaw, bRaw int64, fixedMask, permSeed uint8) {
		a := scalarFromRaw(aRaw)
		b := scalarFromRaw(bRaw)
		nc := new(big.Int).Add(a, b)
		nc.Neg(nc)
		h := G2Generator()
		type in struct {
			p *G1
			q *G2
		}
		ins := []in{
			{new(G1).ScalarBaseMult(a), h},
			{new(G1).ScalarBaseMult(big.NewInt(1)), new(G2).ScalarBaseMult(b)},
			{new(G1).ScalarBaseMult(nc), h},
		}
		// Fuzzer-chosen rotation of the slot order.
		rot := int(permSeed) % len(ins)
		slots := make([]*PairingSlot, 0, len(ins))
		for i := 0; i < len(ins); i++ {
			e := ins[(i+rot)%len(ins)]
			s := &PairingSlot{P: e.p}
			if fixedMask&(1<<i) != 0 {
				s.Pre = PrecomputeG2(e.q)
			} else {
				s.Q = e.q
			}
			slots = append(slots, s)
		}
		if !PairingCheckMixed(slots) {
			t.Fatalf("valid product rejected (a=%d b=%d mask=%b rot=%d)", aRaw, bRaw, fixedMask, rot)
		}
		// Appending a non-trivial slot must flip the verdict.
		slots = append(slots, &PairingSlot{P: G1Generator(), Q: h})
		if PairingCheckMixed(slots) {
			t.Fatalf("perturbed product accepted (a=%d b=%d mask=%b rot=%d)", aRaw, bRaw, fixedMask, rot)
		}
	})
}
