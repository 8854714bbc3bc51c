package bn254

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"reflect"
	"runtime"
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

// repeat returns fn run n times: one timed slice for operations shorter
// than reading the clock.
func repeat(n int, fn func()) func() {
	return func() {
		for i := 0; i < n; i++ {
			fn()
		}
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

// BenchmarkAblationFixedBase times CommitG2 on the comb of every shape in
// combShapes, and the same shape with direct loads and sign branches
// (variable time, not to ship), against the old 4-bit window, the generic
// two-scalar ladder and the table builds, and reports each variant's two
// tables in bytes.
func BenchmarkAblationFixedBase(b *testing.B) {
	g := G2Generator()
	h := HashToG2("bench/fixedbase", nil)
	a := benchScalar(b)
	c := benchScalar(b)
	wg, wh := newFixedWindowG2(g), newFixedWindowG2(h)
	variants := []variant{{"window-4bit", func() { commitWindowG2(wg, wh, a, c) }}}
	tableBytes := map[string]int{"window-4bit": 2 * len(wg.table) * len(wg.table[0]) * int(reflect.TypeOf(G2{}).Size())}
	for _, s := range combShapes {
		fg, fh := newFixedBaseG2(g, s), newFixedBaseG2(h, s)
		name := fmt.Sprintf("comb-h%d-v%d", s.teeth, s.subTables)
		variants = append(variants, variant{name, func() { CommitG2(fg, fh, a, c) }})
		tableBytes[name] = 2 * len(fg.table) * int(reflect.TypeOf(combEntry{}).Size())
		variants = append(variants, variant{name + "-vartime", func() { commitVarTime(fg, fh, a, c) }})
	}
	variants = append(variants,
		variant{"strauss-multiscalar", func() {
			if _, err := MultiScalarMultG2([]*G2{g, h}, []*big.Int{a, c}); err != nil {
				b.Fatal(err)
			}
		}},
		variant{"table-build-window", func() { newFixedWindowG2(h) }},
		variant{"table-build-comb", func() { NewFixedBaseG2(h) }})
	interleave(b, variants...)
	for name, n := range tableBytes {
		b.ReportMetric(float64(n), name+"-table-B")
	}
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

// BenchmarkAblationMSMScratch is the choice behind msmScratch: the
// production Strauss MSM (working space in stack arrays up to StackPoints
// points) against the same ladder on fresh slices, at Combine's shape (3)
// and the stack capacity (8). Above it production takes fresh slices too.
// Besides the time it reports each variant's heap bytes per call.
func BenchmarkAblationMSMScratch(b *testing.B) {
	for _, n := range []int{3, StackPoints} {
		points := make([]*G1, n)
		scalars := make([]*big.Int, n)
		for i := range points {
			points[i] = HashToG1("bench/msm-scratch", []byte{byte(i)})
			scalars[i] = benchScalar(b)
		}
		variants := []variant{
			{"stack", func() { msmStrauss(points, scalars) }},
			{"make", func() { msmStraussMake(points, scalars) }},
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			interleave(b, variants...)
			for _, v := range variants {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				const calls = 20
				for range calls {
					v.fn()
				}
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/calls, v.name+"-B/call")
			}
		})
	}
}

// msmStraussMake is msmStrauss with fresh slices for its working space
// at every size: the alternative BenchmarkAblationMSMScratch measures.
func msmStraussMake(points []*G1, scalars []*big.Int) *G1 {
	const t = glvTableSize
	n := len(points)
	tables := make([]G1, 2*t*n)
	fillGLVTables(tables, make([]jacG1, t*n), make([]fp, 2*t*n), points)
	terms := make([]wnafTerm, 0, 2*n)
	for i, s := range scalars {
		k := scalarLimbs(s)
		terms = appendWNAFTerms(terms, t*i, t*(n+i), &k)
	}
	var acc jacG1
	ladderWNAF(&acc, tables, terms)
	return acc.toAffine(new(G1))
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
	b.Run("mul-x16", func(b *testing.B) {
		interleave(b,
			variant{"limbs", repeat(16, func() { x.Mul(&x, &y) })},
			variant{"big.Int", repeat(16, func() { ox.Mul(&ox, &oy) })})
	})
	b.Run("add-x16", func(b *testing.B) {
		interleave(b,
			variant{"limbs", repeat(16, func() { x.Add(&x, &y) })},
			variant{"big.Int", repeat(16, func() { ox.Add(&ox, &oy) })})
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
			variant{"mul", repeat(16, func() { a2.Mul(&a2, &b2) })},
			variant{"square", repeat(16, func() { a2.Square(&a2) })})
	})
	e := Pair(G1Generator(), G2Generator())
	f, g := e.v, e.v
	b.Run("fp12", func(b *testing.B) {
		interleave(b,
			variant{"mul", func() { f.Mul(&f, &g) }},
			variant{"cyclotomic-square", func() { g.cyclotomicSquare(&g) }})
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

// BenchmarkAblationFpMul is the table behind fp.Mul's no-carry schedule
// and fp2.Mul's lazy reduction: the product they replaced (mulReference,
// Karatsuba on three reduced products) against them, alone as a 64-long
// dependent chain and under the Fp2 and G2 formulas that call them most.
// "karatsuba" is the old fp2.Mul on the new fp.Mul.
func BenchmarkAblationFpMul(b *testing.B) {
	k0, _ := rand.Int(rand.Reader, P)
	k1, _ := rand.Int(rand.Reader, P)
	var x, y fp
	x.SetBig(k0)
	y.SetBig(k1)
	b.Run("fp.Mul-x64", func(b *testing.B) {
		xo, xn := x, x
		interleave(b,
			variant{"reference", repeat(64, func() { mulReference(&xo, &xo, &y) })},
			variant{"new", repeat(64, func() { xn.Mul(&xn, &y) })})
	})
	b.Run("fp2.Mul-x16", func(b *testing.B) {
		ao, an, c := fp2{x, y}, fp2{x, y}, fp2{y, x}
		ak := ao
		interleave(b,
			variant{"reference", repeat(16, func() { fp2MulReference(&ao, &ao, &c) })},
			variant{"karatsuba", repeat(16, func() { fp2MulKaratsuba(&ak, &ak, &c) })},
			variant{"new", repeat(16, func() { an.Mul(&an, &c) })})
	})
	b.Run("fp2.Square-x16", func(b *testing.B) {
		ao, an := fp2{x, y}, fp2{x, y}
		interleave(b,
			variant{"reference", repeat(16, func() { fp2SquareReference(&ao, &ao) })},
			variant{"new", repeat(16, func() { an.Square(&an) })})
	})
	b.Run("g2.addMixed-x4", func(b *testing.B) {
		q := HashToG2("bench/fpmul", nil)
		var jo, jn jacG2
		jo.fromAffine(G2Generator())
		jn.fromAffine(G2Generator())
		interleave(b,
			variant{"reference", repeat(4, func() { addMixedReference(&jo, &jo, q) })},
			variant{"new", repeat(4, func() { jn.addMixed(&jn, q) })})
	})
}
