package bn254

import "math/bits"

// The GLV endomorphism of G1 (Gallant, Lambert, Vanstone, CRYPTO 2001).
// BN254 has j = 0, so E(Fp) carries φ(x, y) = (βx, y) for a cube root of
// unity β in Fp, and φ(P) = [λ]P for a cube root of unity λ mod r. A
// scalar k splits into k ≡ k1 + k2·λ (mod r) with |k1|, |k2| < 2^127, and
// k·P = k1·P + k2·φ(P): two half-length scalars on two bases whose tables
// differ by one multiplication by β per entry. initGLV (constants.go)
// derives β, λ, the short lattice basis and the rounding constants from u.
//
// Everything here works on fixed-width limbs; math/big stays at the
// boundary (scalarLimbs, scalarmult.go). Two ladders sit on the split:
//
//   - ladderRegular, for secret scalars: every half is recoded into the same
//     number of odd, nonzero digits, table entries are read by a masked scan
//     of the whole table and negated by mask, and an even half is made odd
//     by adding one, corrected at the end by a masked select. The sequence of
//     point operations is the same for every scalar. What is not constant
//     time: reading the *big.Int (scalarLimbs), and the exceptional-case
//     branches of addMixed and double (an intermediate sum equal to ±the
//     added point, or infinity), which a random scalar reaches with
//     negligible probability and the first addition of a ladder always
//     takes.
//   - ladderWNAF, for public scalars: width-5 NAF digits, zero digits
//     skipped. Variable time.

// u256 is a 256-bit unsigned integer as little-endian limbs: a plain
// integer, not a Montgomery residue.
type u256 [4]uint64

// Set by initGLV.
var (
	// glvBeta is β, the Fp cube root of unity with φ(x, y) = (βx, y).
	glvBeta fp

	// orderLimbs holds r; orderLimbs2 and orderLimbs4 hold 2r and 4r.
	orderLimbs, orderLimbs2, orderLimbs4 u256

	// glvA1, glvB1, glvA2, glvB2 are the short basis (a1, b1), (a2, b2) of
	// the lattice {(a, b) : a + b·λ ≡ 0 mod r}, as two's complement
	// integers mod 2^256.
	glvA1, glvB1, glvA2, glvB2 u256

	// glvRound1 and glvRound2 are round(2^256·b2/det) and
	// round(−2^256·b1/det), det = a1·b2 − a2·b1 = ±r: the Babai rounding
	// constants. initGLV checks that both are non-negative and below
	// 2^130, so a product with a scalar below 2^254 fits in 384 bits.
	glvRound1, glvRound2 u256
)

// bit returns bit i of z.
func (z *u256) bit(i int) uint64 { return z[i/64] >> (i % 64) & 1 }

// bitLen returns the length of z in bits.
func (z *u256) bitLen() int {
	for i := 3; i >= 0; i-- {
		if z[i] != 0 {
			return 64*i + bits.Len64(z[i])
		}
	}
	return 0
}

// sub sets z = x − y mod 2^256 and returns the borrow.
func (z *u256) sub(x, y *u256) uint64 {
	var b uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], b = bits.Sub64(x[3], y[3], b)
	return b
}

// cmov sets z = x when mask is all ones and leaves z unchanged when it is
// zero.
func (z *u256) cmov(x *u256, mask uint64) { (*fp)(z).cmov((*fp)(x), mask) }

// condNeg negates z mod 2^256 (two's complement) when mask is all ones.
func (z *u256) condNeg(mask uint64) {
	var c uint64
	z[0], c = bits.Add64(z[0]^mask, mask&1, 0)
	z[1], c = bits.Add64(z[1]^mask, 0, c)
	z[2], c = bits.Add64(z[2]^mask, 0, c)
	z[3], _ = bits.Add64(z[3]^mask, 0, c)
}

// condSub sets z = z − m when z >= m.
func (z *u256) condSub(m *u256) {
	var t u256
	borrow := t.sub(z, m)
	z.cmov(&t, borrow-1) // all ones when there was no borrow
}

// reduceOrder sets z = z mod r for any 256-bit z: 2^256 < 8r, so
// subtracting 4r, 2r and r where they fit leaves z below r.
func (z *u256) reduceOrder() {
	z.condSub(&orderLimbs4)
	z.condSub(&orderLimbs2)
	z.condSub(&orderLimbs)
}

// negOrder sets z = −z mod r, for z < r, when mask is all ones.
func (z *u256) negOrder(mask uint64) {
	var t u256
	t.sub(&orderLimbs, z)
	t.condSub(&orderLimbs) // r − 0 = r is 0
	z.cmov(&t, mask)
}

// mulHigh returns bits 256..383 of x·y rounded to the nearest integer:
// (x·y + 2^255) >> 256, when that fits in 128 bits.
func mulHigh(x, y *u256) [2]uint64 {
	var w [8]uint64
	for i := 0; i < 4; i++ {
		var carry uint64
		for j := 0; j < 4; j++ {
			hi, lo := bits.Mul64(x[i], y[j])
			var c uint64
			lo, c = bits.Add64(lo, w[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			w[i+j] = lo
			carry = hi
		}
		w[i+4] = carry
	}
	_, c := bits.Add64(w[3], 1<<63, 0)
	w[4], c = bits.Add64(w[4], 0, c)
	w[5], _ = bits.Add64(w[5], 0, c)
	return [2]uint64{w[4], w[5]}
}

// mulLow returns the low 256 bits of c·y.
func mulLow(c [2]uint64, y *u256) u256 {
	var z u256
	for i := 0; i < 2; i++ {
		var carry uint64
		for j := 0; i+j < 4; j++ {
			hi, lo := bits.Mul64(c[i], y[j])
			var cc uint64
			lo, cc = bits.Add64(lo, z[i+j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, carry, 0)
			hi += cc
			z[i+j] = lo
			carry = hi
		}
	}
	return z
}

// glvSplit returns k1, k2 with k ≡ k1 + k2·λ (mod r) and |k1|, |k2| <
// 2^127, as magnitudes and sign masks (all ones for a negative half), for
// any k < 2^254. Babai rounding: c_i = round(k·g_i / 2^256) approximates
// the rational coordinates of (k, 0) in the basis to within 5/8, and
// (k1, k2) = (k, 0) − c1·(a1, b1) − c2·(a2, b2). No branch and no
// division.
func glvSplit(k *u256) (k1, k2 [2]uint64, neg1, neg2 uint64) {
	c1 := mulHigh(k, &glvRound1)
	c2 := mulHigh(k, &glvRound2)

	var t1, t2 u256
	p := mulLow(c1, &glvA1)
	t1.sub(k, &p)
	p = mulLow(c2, &glvA2)
	t1.sub(&t1, &p)

	p = mulLow(c1, &glvB1)
	t2.sub(&t2, &p)
	p = mulLow(c2, &glvB2)
	t2.sub(&t2, &p)

	neg1 = -(t1[3] >> 63)
	neg2 = -(t2[3] >> 63)
	t1.condNeg(neg1)
	t2.condNeg(neg2)
	return [2]uint64{t1[0], t1[1]}, [2]uint64{t2[0], t2[1]}, neg1, neg2
}

// Both ladders read the same tables: the glvTableSize odd multiples
// 1P..15P of every base, then those of every φ(base).
const glvTableSize = 8

// fillGLVTables sets tables to the odd multiples of every point, then
// those of every φ(point), made affine with one inversion: point i's at
// offset glvTableSize·i, φ(point i)'s at glvTableSize·(len(points)+i).
// The points must be finite; jac and scratch are working space of
// glvTableSize·len(points) and twice that many elements.
func fillGLVTables(tables []G1, jac []jacG1, scratch []fp, points []*G1) {
	const t = glvTableSize
	n := len(points)
	for i, p := range points {
		oddMultiplesG1(jac[t*i:t*(i+1)], p)
	}
	batchToAffineG1(tables[:t*n], jac[:t*n], scratch)
	phiTable(tables[t*n:2*t*n], tables[:t*n])
}

// phiTable sets dst[j] = φ(src[j]) for finite affine points.
func phiTable(dst, src []G1) {
	for j := range src {
		dst[j].x.Mul(&src[j].x, &glvBeta)
		dst[j].y = src[j].y
		dst[j].notInf = true
	}
}

// oddMultiplesG1 fills out[i] = (2i+1)·p in Jacobian form: one doubling,
// then one addition of 2p per entry. p must be finite.
func oddMultiplesG1(out []jacG1, p *G1) {
	var twice jacG1
	out[0].fromAffine(p)
	twice.double(&out[0])
	for i := 1; i < len(out); i++ {
		out[i].add(&out[i-1], &twice)
	}
}

// The regular ladder's window: digits are odd in (−16, 16), one per
// table entry and sign, and a half below 2^127 takes 32 digits — 124
// doublings. Width 5 (16-entry tables, 26 digits) measured the same: the
// additions it saves go into the table build and the longer masked scans.
const (
	glvWindow = 4
	glvDigits = (128 + glvWindow - 1) / glvWindow
)

// recodeRegular writes the odd m < 2^127 as glvDigits signed odd digits,
// least significant first: m = Σ d[i]·2^(glvWindow·i), |d[i]| < 2^glvWindow.
// Step i takes d = (m mod 2^(w+1)) − 2^w, which is odd, and moves on to
// (m − d)/2^w = (m >> w) | 1, which is odd again. No digit is zero, and
// the number of digits does not depend on m.
func recodeRegular(d *[glvDigits]int8, m [2]uint64) {
	const mask = 1<<(glvWindow+1) - 1
	lo, hi := m[0], m[1]
	for i := 0; i < glvDigits-1; i++ {
		d[i] = int8(int(lo&mask) - 1<<glvWindow)
		lo = lo>>glvWindow | hi<<(64-glvWindow) | 1
		hi >>= glvWindow
	}
	d[glvDigits-1] = int8(lo)
}

// lookupMasked sets p = ±table[|d| >> 1], negated when d < 0 differs from
// the sign mask neg, by reading every entry of the table under a mask.
func (p *G1) lookupMasked(table []G1, d int8, neg uint64) {
	s := uint64(int64(d) >> 63) // all ones when d < 0
	idx := ((uint64(int64(d)) ^ s) - s) >> 1
	p.x, p.y = fp{}, fp{}
	for j := range table {
		x := uint64(j) ^ idx
		eq := (x|-x)>>63 - 1 // all ones when j == idx
		p.x.cmov(&table[j].x, eq)
		p.y.cmov(&table[j].y, eq)
	}
	var ny fp
	ny.Neg(&p.y)
	p.y.cmov(&ny, s^neg)
	p.notInf = true
}

// regularTerm is one half-scalar of the regular ladder.
type regularTerm struct {
	table  int    // offset of the base's glvTableSize odd multiples
	neg    uint64 // all ones when the half is negative
	even   uint64 // all ones when the half was even and is recoded plus one
	digits [glvDigits]int8
}

// set recodes the half m with sign mask neg against the table at offset.
func (t *regularTerm) set(table int, m [2]uint64, neg uint64) {
	t.table = table
	t.neg = neg
	t.even = m[0]&1 - 1
	m[0] |= 1
	recodeRegular(&t.digits, m)
}

// ladderRegular sets acc = Σ ±m_t·base_t over the terms on the regular
// schedule: glvDigits windows of glvWindow doublings, one masked lookup
// and one mixed addition per term per window, then one addition and one
// masked select per term to undo the plus one of even halves.
func ladderRegular(acc *jacG1, tables []G1, terms []regularTerm) {
	acc.z.SetZero()
	var q G1
	for i := glvDigits - 1; i >= 0; i-- {
		if i != glvDigits-1 {
			for w := 0; w < glvWindow; w++ {
				acc.double(acc)
			}
		}
		for t := range terms {
			q.lookupMasked(tables[terms[t].table:terms[t].table+glvTableSize], terms[t].digits[i], terms[t].neg)
			acc.addMixed(acc, &q)
		}
	}
	var fixed jacG1
	for t := range terms {
		// Digit −1 selects −(±base).
		q.lookupMasked(tables[terms[t].table:terms[t].table+glvTableSize], -1, terms[t].neg)
		fixed.addMixed(acc, &q)
		acc.cmov(&fixed, terms[t].even)
	}
}

// The public ladder's window: width-5 NAF digits are odd in (−16, 16) or
// zero, the range the tables cover, and a magnitude below 2^128 has at
// most 129 digits.
const (
	wnafWidth     = glvWindow + 1
	wnafMaxDigits = 129
)

// wnafTerm is one (public) scalar of the variable-time ladder.
type wnafTerm struct {
	table  int // offset of the base's glvTableSize odd multiples
	neg    bool
	n      int // number of digits
	digits [wnafMaxDigits]int8
}

// recode writes the width-5 NAF of m < 2^128 into t's zeroed digits, least
// significant first.
func (t *wnafTerm) recode(m [2]uint64) {
	lo, hi, top := m[0], m[1], uint64(0)
	i := 0
	for lo|hi|top != 0 {
		if lo&1 == 1 {
			d := int(lo & (1<<wnafWidth - 1))
			if d >= 1<<(wnafWidth-1) {
				d -= 1 << wnafWidth
			}
			// m −= d: the low bits of lo are d, so a positive d never
			// borrows; a negative one may carry upwards.
			if d > 0 {
				lo -= uint64(d)
			} else {
				var c uint64
				lo, c = bits.Add64(lo, uint64(-d), 0)
				hi, c = bits.Add64(hi, 0, c)
				top += c
			}
			t.digits[i] = int8(d)
		}
		i++
		lo = lo>>1 | hi<<63
		hi = hi>>1 | top<<63
		top >>= 1
	}
	t.n = i
}

// appendWNAFTerms appends the terms of k·P for a public k < r: one when k
// has at most 128 bits, otherwise its two GLV halves (zero halves
// dropped). P's odd multiples are at offset p of the ladder's tables and
// φ(P)'s at offset phi.
func appendWNAFTerms(terms []wnafTerm, p, phi int, k *u256) []wnafTerm {
	if k[2]|k[3] == 0 {
		terms = append(terms, wnafTerm{table: p})
		terms[len(terms)-1].recode([2]uint64{k[0], k[1]})
		return terms
	}
	k1, k2, neg1, neg2 := glvSplit(k)
	if k1[0]|k1[1] != 0 {
		terms = append(terms, wnafTerm{table: p, neg: neg1 != 0})
		terms[len(terms)-1].recode(k1)
	}
	if k2[0]|k2[1] != 0 {
		terms = append(terms, wnafTerm{table: phi, neg: neg2 != 0})
		terms[len(terms)-1].recode(k2)
	}
	return terms
}

// ladderWNAF sets acc = Σ ±m_t·base_t over the terms: one shared run of
// doublings, one mixed addition per nonzero digit. Variable time: for
// public scalars only.
func ladderWNAF(acc *jacG1, tables []G1, terms []wnafTerm) {
	acc.z.SetZero()
	top := 0
	for t := range terms {
		top = max(top, terms[t].n)
	}
	var q G1
	for i := top - 1; i >= 0; i-- {
		acc.double(acc)
		for t := range terms {
			d := terms[t].digits[i]
			if d == 0 {
				continue
			}
			neg := d < 0
			if neg {
				d = -d
			}
			e := &tables[terms[t].table+int(d>>1)]
			if neg != terms[t].neg {
				acc.addMixed(acc, q.Neg(e))
			} else {
				acc.addMixed(acc, e)
			}
		}
	}
}
