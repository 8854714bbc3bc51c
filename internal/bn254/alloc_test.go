package bn254

import (
	"go/parser"
	"go/token"
	"math/big"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The field and everything built on it up to the Miller loop works on
// value types and must not touch the heap.
func TestZeroAllocations(t *testing.T) {
	var x, y fp
	x.SetInt64(1234567)
	y.SetInt64(7654321)
	a2 := fp2{x, y}
	b2 := fp2{y, x}
	e := Pair(G1Generator(), G2Generator())
	a12, b12 := e.v, e.v
	b12.Square(&b12)

	g := G1Generator()
	var jac jacG1
	jac.fromAffine(g)
	jac.double(&jac)

	p := new(G1).ScalarBaseMult(big.NewInt(99))
	pre := PrecomputeG2(G2Generator())
	var f fp12

	// The regular GLV ladder below MultiScalarMultSharedG1's table build.
	k := scalarLimbs(new(big.Int).Sub(Order, big.NewInt(12345)))
	var tables [2 * glvTableSize]G1
	var tjac [glvTableSize]jacG1
	var tscratch [2 * glvTableSize]fp
	fillGLVTables(tables[:], tjac[:], tscratch[:], []*G1{p})
	var terms [2]regularTerm
	var q G1

	// The comb below CommitG2's *big.Int boundary.
	fg := NewFixedBaseG2(G2Generator())
	fh := NewFixedBaseG2(HashToG2("alloc-test", nil))
	var combTerms [2]combTerm
	combTerms[0].set(fg, big.NewInt(12345))
	combTerms[1].set(fh, new(big.Int).Sub(Order, big.NewInt(6789)))
	var q2 G2
	var jac2 jacG2

	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"fp.Mul", func() { x.Mul(&x, &y) }},
		{"fp.Square", func() { x.Square(&x) }},
		{"fp.Add/Sub/Neg/Double", func() { x.Add(&x, &y); x.Sub(&x, &y); x.Neg(&x); x.Double(&x) }},
		{"fp.Inverse", func() { y.Inverse(&y) }},
		{"fp.Sqrt", func() { y.Sqrt(&x) }},
		{"fp.Bytes/SetBytes", func() { b := x.Bytes(); y.SetBytes(b[:]) }},
		{"fp2.Mul", func() { a2.Mul(&a2, &b2) }},
		{"fp2.Square", func() { a2.Square(&a2) }},
		{"fp2.Inverse", func() { b2.Inverse(&b2) }},
		{"fp12.Mul", func() { a12.Mul(&a12, &b12) }},
		{"fp12.Square", func() { a12.Square(&a12) }},
		{"fp12.cyclotomicSquare", func() { b12.cyclotomicSquare(&b12) }},
		{"jacG1.double", func() { jac.double(&jac) }},
		{"jacG1.addMixed", func() { jac.addMixed(&jac, g) }},
		{"MillerLoopFixed", func() { f.SetOne(); MillerLoopFixed(p, pre, &f) }},
		{"miller (fresh G2 argument)", func() { f.SetOne(); miller(p, g2Gen, &f) }},
		{"finalExponentiation", func() { finalExponentiation(&f, &a12) }},
		{"glvSplit+regularTerm.set", func() {
			k1, k2, neg1, neg2 := glvSplit(&k)
			terms[0].set(0, k1, neg1)
			terms[1].set(glvTableSize, k2, neg2)
		}},
		{"lookupMasked", func() { q.lookupMasked(tables[:glvTableSize], -7, 0) }},
		{"ladderRegular", func() { ladderRegular(&jac, tables[:], terms[:]) }},
		{"comb.recode", func() { defaultComb.recode(&combTerms[1].digits, &k) }},
		{"combLookup", func() { q2.combLookup(fg.table[:defaultComb.entries()], 17, ^uint64(0)) }},
		{"comb.ladder", func() { defaultComb.ladder(&jac2, combTerms[:]) }},
	} {
		if n := testing.AllocsPerRun(10, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
	// A pairing allocates its result and nothing else.
	if n := testing.AllocsPerRun(5, func() { Pair(p, g2Gen) }); n != 1 {
		t.Errorf("Pair: %v allocs/op, want 1 (the returned GT)", n)
	}

	// The MSMs keep their tables, scratch, terms and accumulators on the
	// stack up to StackPoints bases and allocate only their results.
	var pts [StackPoints]*G1
	var ks [StackPoints]*big.Int
	for i := range pts {
		pts[i] = HashToG1("alloc-test/msm", []byte{byte(i)})
		ks[i] = new(big.Int).Sub(Order, big.NewInt(int64(1000+i)))
	}
	for _, m := range []int{3, StackPoints} {
		if n := testing.AllocsPerRun(5, func() { G1MSM(pts[:m], ks[:m]) }); n != 1 {
			t.Errorf("G1MSM n=%d: %v allocs/op, want 1 (the returned point)", m, n)
		}
	}
	sets := [2][]*big.Int{ks[:2], ks[2:4]}
	if n := testing.AllocsPerRun(5, func() { MultiScalarMultSharedG1(pts[:2], sets[0], sets[1]) }); n != 2 {
		t.Errorf("MultiScalarMultSharedG1 2 bases x 2 sets: %v allocs/op, want 2 (the returned points and their slice)", n)
	}
	g2s := []*G2{g2Gen, G2Generator()}
	if n := testing.AllocsPerRun(5, func() { MultiScalarMultG2(g2s, ks[:2]) }); n != 1 {
		t.Errorf("MultiScalarMultG2: %v allocs/op, want 1 (the returned point)", n)
	}
	var h G1
	hd := NewHashDomain("alloc-test/hash")
	if n := testing.AllocsPerRun(5, func() { hd.Hash(&h, []byte("message")) }); n != 0 {
		t.Errorf("HashDomain.Hash: %v allocs/op, want 0", n)
	}
	slots := []*PairingSlot{{P: p, Pre: pre}, {P: g, Pre: pre}}
	for len(slots) <= 2+2*StackPoints {
		if n := testing.AllocsPerRun(5, func() { PairingCheckMixed(slots) }); n != 0 {
			t.Errorf("PairingCheckMixed on %d precomputed slots: %v allocs/op, want 0", len(slots), n)
		}
		slots = append(slots, &PairingSlot{P: p, Pre: pre}, &PairingSlot{P: g, Pre: pre})
	}
}

// math/big may appear in this package only where a scalar or exponent
// crosses the exported API, or a constant is derived at init — never in
// the field tower, the curve arithmetic or the pairing.
func TestMathBigStaysAtTheBoundary(t *testing.T) {
	allowed := map[string]string{
		"constants.go":  "p, r, the pairing exponents and the GLV constants are derived from u at init",
		"fp.go":         "SetBig, String; initField",
		"bigexp.go":     "Fp2/Fp12/cyclotomic exponentiation by *big.Int exponents, NAF digits",
		"scalarmult.go": "the scalar ladders; scalarLimbs, where a scalar leaves math/big",
		"scalar.go":     "RandScalar, HashToScalar",
		"g1.go":         "ScalarMult, MultiScalarMultG1",
		"g2.go":         "ScalarMult, MultiScalarMultG2",
		"gt.go":         "Exp",
		"msm.go":        "G1MSM, MultiScalarMultSharedG1",
		"fixedbase.go":  "FixedBaseG2.ScalarMult and CommitG2 take *big.Int scalars; combTerm.set hands them to scalarLimbs",
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			switch path {
			case "math/big":
				seen[name] = true
				if _, ok := allowed[name]; !ok {
					t.Errorf("%s imports math/big: field, tower, curve and pairing arithmetic must stay on limbs", name)
				}
			case "unsafe":
				t.Errorf("%s imports unsafe", name)
			}
		}
		if strings.Contains(string(src), "//go:build") || strings.Contains(string(src), "// +build") {
			t.Errorf("%s carries a build tag: there is one field implementation", name)
		}
	}
	for name := range allowed {
		if !seen[name] {
			t.Errorf("%s no longer imports math/big: drop it from the allow-list", name)
		}
	}
	if asm, _ := filepath.Glob("*.s"); len(asm) != 0 {
		t.Errorf("assembly files in the package: %v", asm)
	}
}
