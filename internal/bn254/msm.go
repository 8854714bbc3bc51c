package bn254

import (
	"errors"
	"math/big"
)

// Multi-scalar multiplication sum_i k_i * P_i.
//
// G1MSM is for public scalars (Lagrange coefficients, batch weights) and
// runs in variable time. Two algorithms sit behind it: a shared-doubling
// Strauss ladder for small batches (per-point signed odd tables for P and
// φ(P), width-5 NAF digits, scalars longer than 128 bits split in two by
// GLV, ~127 doublings for all points) and a Pippenger bucket method for
// large ones (one bucket pass per window, cost ~ windows*(n + 2^c)
// additions instead of windows*n table lookups).
//
// MultiScalarMultSharedG1 is for secret scalars (Share-Sign, the Appendix
// G dealer's proof): several scalar sets over the same bases share one
// table build, and each set runs the regular GLV ladder of glv.go, whose
// operation sequence does not depend on the scalars.
//
// All of them are cross-checked against the naive per-term oracle in
// msm_test.go and glv_test.go.

// set copies b into j.
func (j *jacG1) set(b *jacG1) *jacG1 {
	j.x.Set(&b.x)
	j.y.Set(&b.y)
	j.z.Set(&b.z)
	return j
}

// add sets j = a + b in full Jacobian coordinates (add-2007-bl); any of
// the arguments may alias j. Needed by the Pippenger bucket accumulation,
// where neither operand is affine.
func (j *jacG1) add(a, b *jacG1) *jacG1 {
	if a.z.IsZero() {
		return j.set(b)
	}
	if b.z.IsZero() {
		return j.set(a)
	}
	// Z1Z1 = Z1^2, Z2Z2 = Z2^2
	var z1z1, z2z2 fp
	z1z1.Square(&a.z)
	z2z2.Square(&b.z)
	// U1 = X1*Z2Z2, U2 = X2*Z1Z1
	var u1, u2 fp
	u1.Mul(&a.x, &z2z2)
	u2.Mul(&b.x, &z1z1)
	// S1 = Y1*Z2*Z2Z2, S2 = Y2*Z1*Z1Z1
	var s1, s2 fp
	s1.Mul(&a.y, &b.z)
	s1.Mul(&s1, &z2z2)
	s2.Mul(&b.y, &a.z)
	s2.Mul(&s2, &z1z1)
	// H = U2 - U1, r = 2*(S2 - S1)
	var h, r fp
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
	// I = (2*H)^2, J = H*I, V = U1*I
	var i, jj, v, t fp
	t.Double(&h)
	i.Square(&t)
	jj.Mul(&h, &i)
	v.Mul(&u1, &i)
	// X3 = r^2 - J - 2*V
	var x3 fp
	x3.Square(&r)
	x3.Sub(&x3, &jj)
	x3.Sub(&x3, &v)
	x3.Sub(&x3, &v)
	// Y3 = r*(V - X3) - 2*S1*J
	var y3 fp
	y3.Sub(&v, &x3)
	y3.Mul(&y3, &r)
	t.Mul(&s1, &jj)
	t.Double(&t)
	y3.Sub(&y3, &t)
	// Z3 = ((Z1 + Z2)^2 - Z1Z1 - Z2Z2) * H
	var z3 fp
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

// pippengerThreshold is the batch size from which the bucket method is
// used instead of the Strauss ladder (the bucket accumulation's fixed
// 2*(2^c-1) additions per window amortize away). Re-measured with the GLV
// Strauss ladder, which halves the doublings the buckets do not
// (BenchmarkAblationMSM, docs/PERF.md): Strauss wins by 10% at 128
// points, buckets by 5% at 192.
const pippengerThreshold = 160

// pippengerWindow picks the bucket window size for n points, balancing the
// per-window bucket-accumulation cost 2^c against the n digit insertions.
// The steps sit where neighbouring widths tie in BenchmarkAblationMSM.
func pippengerWindow(n int) int {
	switch {
	case n < 256:
		return 5
	case n < 512:
		return 6
	default:
		return 7
	}
}

// StackPoints is the largest number of bases (pairing slots) whose working
// space the MSM (pairing) kernels keep in fixed arrays on the caller's
// stack; above it they fall back to fresh slices. It covers the scheme's
// shapes: Share-Sign is 2 bases under 2 scalar sets (the DLIN variant 3
// under 3), Combine t+1 points, BatchVerify and BatchShareVerify one point
// per signature of a batch of up to 8, a verification 4 to 8 pairing
// slots. Callers that gather the inputs of these kernels size their own
// stack buffers with it, so that one bound governs the whole sign path
// (docs/PERF.md, "Allocations on the sign path").
const StackPoints = 8

// msmStackSets is the number of scalar sets MultiScalarMultSharedG1 keeps
// its accumulators for on the stack.
const msmStackSets = 4

// msmScratch is the table, Jacobian and field working space of one MSM
// over up to StackPoints bases (~19 KiB).
type msmScratch struct {
	tables [2 * glvTableSize * StackPoints]G1
	jac    [glvTableSize * StackPoints]jacG1
	fp     [2 * glvTableSize * StackPoints]fp
	wnaf   [2 * StackPoints]wnafTerm
}

// buffers returns fillGLVTables' buffers for n bases and room for the
// variable-time ladder's 2n terms: s's arrays when they fit, fresh slices
// otherwise.
func (s *msmScratch) buffers(n int) (tables []G1, jac []jacG1, scratch []fp, wnaf []wnafTerm) {
	const t = glvTableSize
	if n <= StackPoints {
		return s.tables[:2*t*n], s.jac[:t*n], s.fp[:2*t*n], s.wnaf[:0]
	}
	return make([]G1, 2*t*n), make([]jacG1, t*n), make([]fp, 2*t*n), make([]wnafTerm, 0, 2*n)
}

// G1MSM computes sum_i scalars[i] * points[i]. Scalars are reduced mod the
// group order; zero scalars and points at infinity are skipped. The
// algorithm is chosen by batch size: single scalar multiplication, shared-
// doubling Strauss, or Pippenger buckets. Variable time: for public
// scalars only; secret scalars go through MultiScalarMultSharedG1. Up to
// StackPoints points it allocates only the returned point.
func G1MSM(points []*G1, scalars []*big.Int) (*G1, error) {
	if len(points) != len(scalars) {
		return nil, errors.New("bn254: mismatched multiscalar lengths")
	}
	var pbuf [StackPoints]*G1
	var kbuf [StackPoints]*big.Int
	pts, ks := pbuf[:0], kbuf[:0]
	if len(points) > StackPoints {
		pts = make([]*G1, 0, len(points))
		ks = make([]*big.Int, 0, len(scalars))
	}
	maxBits := 0
	for i, s := range scalars {
		if points[i] == nil || s == nil {
			return nil, errors.New("bn254: nil multiscalar input")
		}
		if points[i].IsInfinity() {
			continue
		}
		r := s
		if s.Sign() < 0 || s.Cmp(Order) >= 0 {
			r = new(big.Int).Mod(s, Order)
		}
		if r.Sign() == 0 {
			continue
		}
		pts = append(pts, points[i])
		ks = append(ks, r)
		if r.BitLen() > maxBits {
			maxBits = r.BitLen()
		}
	}
	switch {
	case len(pts) == 0:
		return new(G1), nil
	case len(pts) == 1:
		return scalarMultJacG1(pts[0], ks[0]), nil
	case len(pts) < pippengerThreshold:
		return msmStrauss(pts, ks), nil
	default:
		return msmPippenger(pts, ks, maxBits), nil
	}
}

// MultiScalarMultSharedG1 returns, for every scalar set s, the sum
// sum_i s[i] * points[i]: several multi-scalar multiplications over the
// same bases, for secret scalars. Scalars of any sign and size are reduced
// mod the group order; points at infinity contribute nothing.
//
// The odd multiples 1P..15P of every base, and their images under φ (one
// multiplication by β each), are built once for all sets and made affine
// with one inversion. Each set then runs the regular GLV ladder (glv.go):
// every scalar splits into two halves below 2^127, every half is 32 odd
// nonzero digits, every table entry is read by a masked scan of its whole
// table, and an even half is corrected by a masked select, so the
// sequence of point operations is the same for every scalar. The outputs
// share one inversion. What remains outside constant time is named in
// glv.go.
//
// Up to StackPoints bases and msmStackSets sets every working buffer
// lives on the stack, and the only allocations are the returned points;
// the recoded digits and the accumulators are wiped before returning.
func MultiScalarMultSharedG1(points []*G1, scalarSets ...[]*big.Int) ([]*G1, error) {
	var bbuf [StackPoints]*G1
	var ibuf [StackPoints]int
	bases, idx := bbuf[:0], ibuf[:0] // the finite points and their indices in points
	if len(points) > StackPoints {
		bases = make([]*G1, 0, len(points))
		idx = make([]int, 0, len(points))
	}
	for i, p := range points {
		if p == nil {
			return nil, errors.New("bn254: nil multiscalar input")
		}
		if !p.IsInfinity() {
			bases = append(bases, p)
			idx = append(idx, i)
		}
	}
	for _, set := range scalarSets {
		if len(set) != len(points) {
			return nil, errors.New("bn254: mismatched multiscalar lengths")
		}
		for _, s := range set {
			if s == nil {
				return nil, errors.New("bn254: nil multiscalar input")
			}
		}
	}

	const t = glvTableSize
	n := len(bases)
	var ms msmScratch
	tables, jac, scratch, _ := ms.buffers(n)
	fillGLVTables(tables, jac, scratch, bases)

	var tbuf [2 * StackPoints]regularTerm
	terms := tbuf[:]
	if 2*n > len(tbuf) {
		terms = make([]regularTerm, 2*n)
	}
	terms = terms[:2*n]
	var abuf [msmStackSets]jacG1
	var afp [2 * msmStackSets]fp
	accs, accScratch := abuf[:], afp[:]
	if len(scalarSets) > msmStackSets {
		accs, accScratch = make([]jacG1, len(scalarSets)), make([]fp, 2*len(scalarSets))
	}
	accs = accs[:len(scalarSets)]
	for s, set := range scalarSets {
		for j, i := range idx {
			k := scalarLimbs(set[i])
			k1, k2, neg1, neg2 := glvSplit(&k)
			terms[2*j].set(t*j, k1, neg1)
			terms[2*j+1].set(t*(n+j), k2, neg2)
		}
		ladderRegular(&accs[s], tables, terms)
	}
	clear(terms)

	out := make([]G1, len(accs))
	batchToAffineG1(out, accs, accScratch)
	clear(accs)
	res := make([]*G1, len(out))
	for s := range out {
		res[s] = &out[s]
	}
	return res, nil
}

// msmStrauss is the interleaved ladder over signed odd tables: each
// point's odd multiples and those of its image under φ, made affine with
// one inversion for the whole batch, and one shared run of doublings. A
// scalar longer than 128 bits runs as its two GLV halves, so the run is
// ~127 doublings. Variable time: for public scalars (reduced, positive).
func msmStrauss(points []*G1, scalars []*big.Int) *G1 {
	const t = glvTableSize
	n := len(points)
	var ms msmScratch
	tables, jac, scratch, terms := ms.buffers(n)
	fillGLVTables(tables, jac, scratch, points)

	for i, s := range scalars {
		k := scalarLimbs(s)
		terms = appendWNAFTerms(terms, t*i, t*(n+i), &k)
	}
	var acc jacG1
	ladderWNAF(&acc, tables, terms)
	return acc.toAffine(new(G1))
}

// msmPippenger is the bucket method: per window of c bits, every point is
// dropped into the bucket of its digit, and the running-sum trick turns
// the 2^c-1 buckets into sum_b b*bucket[b] with 2*(2^c-1) additions.
func msmPippenger(points []*G1, scalars []*big.Int, maxBits int) *G1 {
	return msmPippengerWindow(points, scalars, maxBits, pippengerWindow(len(points)))
}

// msmPippengerWindow is msmPippenger with the window width c given (the
// ablation benchmark sweeps it).
func msmPippengerWindow(points []*G1, scalars []*big.Int, maxBits, c int) *G1 {
	numBuckets := (1 << c) - 1
	buckets := make([]jacG1, numBuckets)
	var total jacG1
	total.z.SetZero()
	windows := (maxBits + c - 1) / c
	for w := windows - 1; w >= 0; w-- {
		if w != windows-1 {
			for d := 0; d < c; d++ {
				total.double(&total)
			}
		}
		for b := range buckets {
			buckets[b].z.SetZero()
		}
		for i, s := range scalars {
			if digit := scalarDigit(s, w*c, c); digit != 0 {
				buckets[digit-1].addMixed(&buckets[digit-1], points[i])
			}
		}
		// running = sum of buckets b..max, windowSum = sum_b (b+1)*bucket[b].
		var running, windowSum jacG1
		running.z.SetZero()
		windowSum.z.SetZero()
		for b := numBuckets - 1; b >= 0; b-- {
			if !buckets[b].z.IsZero() {
				running.add(&running, &buckets[b])
			}
			if !running.z.IsZero() {
				windowSum.add(&windowSum, &running)
			}
		}
		total.add(&total, &windowSum)
	}
	return total.toAffine(new(G1))
}
