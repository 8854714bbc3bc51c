package bn254

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"
	"time"
)

// Ablation benchmarks for the design choices documented in docs/PERF.md.
// Each benchmark times its variants round-robin — one call of every
// variant per iteration — and reports one metric per variant. The
// reference box changes speed by half from one ten-second stretch to the
// next, so variants timed one after the other cannot be compared;
// interleaved, they see the same weather.

func benchScalar(b *testing.B) *big.Int {
	b.Helper()
	k, err := RandScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	return k
}

type variant struct {
	name string
	fn   func()
}

// interleave runs every variant once per iteration and reports each one's
// mean as "<name>-us/op".
func interleave(b *testing.B, variants ...variant) {
	b.Helper()
	total := make([]time.Duration, len(variants))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range variants {
			start := time.Now()
			v.fn()
			total[j] += time.Since(start)
		}
	}
	b.ReportMetric(0, "ns/op") // the sum over variants means nothing
	for j, v := range variants {
		b.ReportMetric(float64(total[j].Nanoseconds())/1e3/float64(b.N), v.name+"-us/op")
	}
}

func BenchmarkAblationScalarMult(b *testing.B) {
	k := benchScalar(b)
	p := G1Generator()
	q := G2Generator()
	b.Run("G1", func(b *testing.B) {
		interleave(b,
			variant{"jacobian-window", func() { scalarMultJacG1(p, k) }},
			variant{"affine-binary", func() { scalarMultAffineG1(p, k) }})
	})
	b.Run("G2", func(b *testing.B) {
		interleave(b,
			variant{"jacobian-window", func() { scalarMultJacG2(q, k) }},
			variant{"affine-binary", func() { scalarMultAffineG2(q, k) }})
	})
}

func BenchmarkAblationLineMul(b *testing.B) {
	// A representative accumulated Miller value and line.
	var f fp12
	for k := 0; k < 6; k++ {
		k0, _ := rand.Int(rand.Reader, P)
		k1, _ := rand.Int(rand.Reader, P)
		f.flatGet(k).c0.SetBig(k0)
		f.flatGet(k).c1.SetBig(k1)
	}
	var l lineEval
	k0, _ := rand.Int(rand.Reader, P)
	l.a0.SetBig(k0)
	k1, _ := rand.Int(rand.Reader, P)
	l.a1.c0.SetBig(k1)
	l.a3.c1.SetBig(k1)

	g, h := f, f
	var lf fp12
	interleave(b,
		variant{"sparse", func() { mulByLine(&g, &l) }},
		variant{"generic", func() { l.asFp12(&lf); h.Mul(&h, &lf) }})
}

func BenchmarkAblationFinalExp(b *testing.B) {
	var f, out fp12
	f.SetOne()
	miller(G1Generator(), G2Generator(), &f)
	interleave(b,
		variant{"fuentes-castaneda", func() { finalExponentiation(&out, &f) }},
		variant{"naive-exponent", func() { finalExponentiationNaive(&f) }})
}

func BenchmarkAblationCyclotomicSquare(b *testing.B) {
	e := Pair(G1Generator(), G2Generator())
	x, y := e.v, e.v
	interleave(b,
		variant{"granger-scott", func() { x.cyclotomicSquare(&x) }},
		variant{"generic", func() { y.Square(&y) }})
}

func BenchmarkAblationFixedBase(b *testing.B) {
	g := G2Generator()
	h := HashToG2("bench/fixedbase", nil)
	fg := NewFixedBaseG2(g)
	fh := NewFixedBaseG2(h)
	a := benchScalar(b)
	c := benchScalar(b)
	interleave(b,
		variant{"fixed-base-tables", func() { CommitG2(fg, fh, a, c) }},
		variant{"strauss-multiscalar", func() {
			if _, err := MultiScalarMultG2([]*G2{g, h}, []*big.Int{a, c}); err != nil {
				b.Fatal(err)
			}
		}},
		variant{"table-build", func() { NewFixedBaseG2(h) }})
}

func BenchmarkAblationMillerLoop(b *testing.B) {
	p := G1Generator()
	q := G2Generator()
	pre := PrecomputeG2(q)
	var f fp12
	interleave(b,
		variant{"fresh-g2-arithmetic", func() { f.SetOne(); miller(p, q, &f) }},
		variant{"fixed-precomputed-lines", func() { f.SetOne(); MillerLoopFixed(p, pre, &f) }},
		variant{"affine-reference", func() { f.SetOne(); millerAffine(p, q, &f) }},
		variant{"table-build", func() { PrecomputeG2(q) }},
		variant{"table-build-affine", func() { linesAffine(q) }})
}

func BenchmarkAblationMultiPair(b *testing.B) {
	// The scheme's Verify relation is a 4-slot product; 8 and 16 slots
	// model share batches. "one-chain" is the product loop on fixed
	// tables; "serial-fresh" is one independent Miller loop per slot with
	// no table. Both end in one final exponentiation.
	for _, k := range []int{4, 8, 16} {
		ps := make([]*G1, k)
		qs := make([]*G2, k)
		slots := make([]*PairingSlot, k)
		for i := range ps {
			ps[i] = new(G1).ScalarMult(G1Generator(), big.NewInt(int64(i+2)))
			qs[i] = new(G2).ScalarMult(G2Generator(), big.NewInt(int64(2*i+3)))
			slots[i] = &PairingSlot{P: ps[i], Pre: PrecomputeG2(qs[i])}
		}
		var f fp12
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			interleave(b,
				variant{"one-chain", func() {
					f.SetOne()
					if err := millerProduct(slots, &f); err != nil {
						b.Fatal(err)
					}
					finalExponentiation(&f, &f)
				}},
				variant{"serial-fresh", func() {
					f.SetOne()
					for j := range ps {
						miller(ps[j], qs[j], &f)
					}
					finalExponentiation(&f, &f)
				}})
		})
	}
}

// BenchmarkAblationMSM is the table behind pippengerThreshold and
// pippengerWindow: the Strauss ladder, the bucket method at every window
// width around the ones pippengerWindow picks, and (for small n) the
// per-term ScalarMult+Add sum.
func BenchmarkAblationMSM(b *testing.B) {
	for _, n := range []int{3, 8, 16, 32, 48, 64, 96, 128, 192, 256, 512, 1024} {
		points := make([]*G1, n)
		scalars := make([]*big.Int, n)
		for i := range points {
			points[i] = HashToG1("bench/msm", []byte{byte(i), byte(i >> 8)})
			scalars[i] = benchScalar(b)
		}
		maxBits := Order.BitLen()
		variants := []variant{{"strauss", func() { msmStrauss(points, scalars) }}}
		for c := 3; c <= 9; c++ {
			variants = append(variants, variant{fmt.Sprintf("pippenger-c%d", c), func() { msmPippengerWindow(points, scalars, maxBits, c) }})
		}
		if n <= 32 {
			variants = append(variants, variant{"naive", func() {
				acc := new(G1)
				for j := range points {
					acc.Add(acc, new(G1).ScalarMult(points[j], scalars[j]))
				}
			}})
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { interleave(b, variants...) })
	}
}

// BenchmarkAblationGLV is the table behind the G1 ladders. "share-sign" is
// Share-Sign's pair of 2-base MSMs over the same two hashed points with
// negated secret scalars: the 4-bit Strauss ladder from before the GLV
// split (twice, each reducing its scalars as G1MSM does), the regular GLV
// ladder with one shared table, and the variable-time wNAF GLV ladder
// (G1MSM, twice). "combine" is Combine's 3-point MSM with full-width
// public coefficients.
func BenchmarkAblationGLV(b *testing.B) {
	h := []*G1{HashToG1("bench/glv", []byte{1}), HashToG1("bench/glv", []byte{2}), HashToG1("bench/glv", []byte{3})}
	neg := func() *big.Int { return new(big.Int).Neg(benchScalar(b)) }
	sets := [2][]*big.Int{{neg(), neg()}, {neg(), neg()}}
	window4 := func(points []*G1, set []*big.Int) {
		ks := make([]*big.Int, len(set))
		for i, s := range set {
			ks[i] = new(big.Int).Mod(s, Order)
		}
		msmStraussWindow4(points, ks, Order.BitLen())
	}
	wnaf := func(points []*G1, set []*big.Int) {
		if _, err := G1MSM(points, set); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("share-sign", func(b *testing.B) {
		interleave(b,
			variant{"strauss-4bit-x2", func() { window4(h[:2], sets[0]); window4(h[:2], sets[1]) }},
			variant{"regular-glv-shared", func() {
				if _, err := MultiScalarMultSharedG1(h[:2], sets[0], sets[1]); err != nil {
					b.Fatal(err)
				}
			}},
			variant{"wnaf-glv-x2", func() { wnaf(h[:2], sets[0]); wnaf(h[:2], sets[1]) }})
	})
	coeffs := []*big.Int{benchScalar(b), benchScalar(b), benchScalar(b)}
	b.Run("combine", func(b *testing.B) {
		interleave(b,
			variant{"strauss-4bit", func() { window4(h, coeffs) }},
			variant{"wnaf-glv", func() { wnaf(h, coeffs) }})
	})
}

func BenchmarkMillerLoop(b *testing.B) {
	p := G1Generator()
	q := G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var f fp12
		f.SetOne()
		miller(p, q, &f)
	}
}

func BenchmarkFinalExponentiation(b *testing.B) {
	var f fp12
	f.SetOne()
	miller(G1Generator(), G2Generator(), &f)
	var out fp12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		finalExponentiation(&out, &f)
	}
}

func BenchmarkFp12Mul(b *testing.B) {
	e := Pair(G1Generator(), G2Generator())
	x := new(fp12).Set(&e.v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(x, &e.v)
	}
}

func BenchmarkFpInverse(b *testing.B) {
	k, _ := rand.Int(rand.Reader, P)
	var x fp
	x.SetBig(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var inv fp
		inv.Inverse(&x)
	}
}

// BenchmarkFpOps times the field primitives, the limb field interleaved
// with the big.Int oracle it replaced.
func BenchmarkFpOps(b *testing.B) {
	k0, _ := rand.Int(rand.Reader, P)
	k1, _ := rand.Int(rand.Reader, P)
	var x, y fp
	x.SetBig(k0)
	y.SetBig(k1)
	var ox, oy fpOracle
	ox.SetBig(k0)
	oy.SetBig(k1)
	a2, b2 := fp2{x, y}, fp2{y, x}
	// Sixteen calls per timed slice: one call is shorter than reading the
	// clock.
	x16 := func(fn func()) func() {
		return func() {
			for i := 0; i < 16; i++ {
				fn()
			}
		}
	}
	b.Run("mul-x16", func(b *testing.B) {
		interleave(b,
			variant{"limbs", x16(func() { x.Mul(&x, &y) })},
			variant{"big.Int", x16(func() { ox.Mul(&ox, &oy) })})
	})
	b.Run("add-x16", func(b *testing.B) {
		interleave(b,
			variant{"limbs", x16(func() { x.Add(&x, &y) })},
			variant{"big.Int", x16(func() { ox.Add(&ox, &oy) })})
	})
	b.Run("inverse", func(b *testing.B) {
		interleave(b,
			variant{"limbs", func() { x.Inverse(&y) }},
			variant{"big.Int", func() { ox.Inverse(&oy) }})
	})
	b.Run("sqrt", func(b *testing.B) {
		interleave(b,
			variant{"limbs", func() { x.Sqrt(&y) }},
			variant{"big.Int", func() { ox.Sqrt(&oy) }})
	})
	b.Run("fp2-x16", func(b *testing.B) {
		interleave(b,
			variant{"mul", x16(func() { a2.Mul(&a2, &b2) })},
			variant{"square", x16(func() { a2.Square(&a2) })})
	})
}

// BenchmarkAblationLadder is the table behind shortScalarBitsG1/G2: the
// windowed ladder (a table made affine with one inversion) against plain
// double-and-add, by scalar length.
func BenchmarkAblationLadder(b *testing.B) {
	p := HashToG1("bench/ladder", nil)
	q := HashToG2("bench/ladder", nil)
	for _, bits := range []int{5, 32, 64, 96, 128, 160, 192, 254} {
		k := new(big.Int).Rsh(benchScalar(b), uint(254-bits))
		k.SetBit(k, bits-1, 1)
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			interleave(b,
				variant{"G1-window", func() { scalarMultWindowG1(p, k) }},
				variant{"G1-binary", func() { scalarMultBinaryG1(p, k) }},
				variant{"G2-window", func() { scalarMultWindowG2(q, k) }},
				variant{"G2-binary", func() { scalarMultBinaryG2(q, k) }})
		})
	}
}

// BenchmarkAblationG2Subgroup is the table behind G2.Unmarshal's
// membership test: the [r]Q ladder it replaced against the endomorphism
// test, on a G2 point (both accept) and on a twist point outside G2 (both
// reject); neither test's cost depends on the answer.
func BenchmarkAblationG2Subgroup(b *testing.B) {
	for _, c := range []struct {
		name string
		q    *G2
	}{
		{"in-G2", new(G2).ScalarBaseMult(benchScalar(b))},
		{"off-G2", hashToTwistPoint("bench/subgroup", []byte("outside"))},
	} {
		b.Run(c.name, func(b *testing.B) {
			interleave(b,
				variant{"order-ladder", func() { inSubgroupByOrder(c.q) }},
				variant{"endomorphism", func() { c.q.inSubgroup() }})
		})
	}
}
