package bn254

import (
	"errors"
	"math/big"
)

// Multi-scalar multiplication sum_i k_i * P_i. Two algorithms sit behind
// G1MSM: a shared-doubling windowed Strauss ladder for small batches
// (per-point affine tables, one doubling run for all points) and a
// Pippenger bucket method for large ones (one bucket pass per window,
// cost ~ windows*(n + 2^c) additions instead of windows*n table lookups).
// Both are cross-checked against the naive per-term ScalarMult+Add oracle
// in TestG1MSMMatchesNaive and quick-check equivalence tests.

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
// used instead of the windowed Strauss ladder (the bucket accumulation's
// fixed 2*(2^c-1) additions per window amortize away). Re-measured on the
// limb field (BenchmarkAblationMSM, docs/PERF.md): Strauss wins by 7% at
// 48 points, the two tie at 64, buckets win by 10% at 96.
const pippengerThreshold = 64

// pippengerWindow picks the bucket window size for n points, balancing the
// per-window bucket-accumulation cost 2^c against the n digit insertions.
// The steps sit where neighbouring widths tie in BenchmarkAblationMSM.
func pippengerWindow(n int) int {
	switch {
	case n < 96:
		return 4
	case n < 256:
		return 5
	case n < 512:
		return 6
	default:
		return 7
	}
}

// G1MSM computes sum_i scalars[i] * points[i]. Scalars are reduced mod the
// group order; zero scalars and points at infinity are skipped. The
// algorithm is chosen by batch size: single scalar multiplication, shared-
// doubling Strauss, or Pippenger buckets.
func G1MSM(points []*G1, scalars []*big.Int) (*G1, error) {
	if len(points) != len(scalars) {
		return nil, errors.New("bn254: mismatched multiscalar lengths")
	}
	pts := make([]*G1, 0, len(points))
	ks := make([]*big.Int, 0, len(scalars))
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
		return msmStrauss(pts, ks, maxBits), nil
	default:
		return msmPippenger(pts, ks, maxBits), nil
	}
}

// msmStrauss is the interleaved windowed ladder: per-point 4-bit affine
// tables share a single run of doublings across all points. The tables
// are built in Jacobian form and made affine with one inversion for the
// whole batch.
func msmStrauss(points []*G1, scalars []*big.Int, maxBits int) *G1 {
	const n = 1<<windowBits - 1
	jac := make([]jacG1, n*len(points))
	for i, p := range points {
		multiplesG1(jac[n*i:n*(i+1)], p)
	}
	tables := make([]G1, len(jac))
	batchToAffineG1(tables, jac, make([]fp, 2*len(jac)))

	var acc jacG1
	acc.z.SetZero()
	top := (maxBits + windowBits - 1) / windowBits * windowBits
	for w := top - windowBits; w >= 0; w -= windowBits {
		if w != top-windowBits {
			for d := 0; d < windowBits; d++ {
				acc.double(&acc)
			}
		}
		for i, s := range scalars {
			if idx := scalarDigit(s, w, windowBits); idx != 0 {
				acc.addMixed(&acc, &tables[n*i+idx-1])
			}
		}
	}
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
