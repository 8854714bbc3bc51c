package bn254

import (
	"math/big"
	"math/bits"
)

// Fixed-base scalar multiplication on a regular comb. The Pedersen
// commitment g^_z^a * g^_r^b is the hot operation of the DKG — every
// coefficient of every dealer's polynomials and every player's check of its
// own shares, in Dist-Keygen and in proactive refresh — and both of its
// scalars are secret. Its bases are fixed public generators, so the work
// goes into tables built once per base.
//
// The comb is Lim and Lee's (CRYPTO '94) with h teeth and v sub-tables: a
// scalar of h·a bits is read as an h × a bit matrix, one row per tooth, and
// column j, read down the teeth, picks an entry of a table of sums of the
// bases 2^(i·a)·B. The a columns are split into v blocks of e = a/v, and
// sub-table b is the table of block 0 times 2^(b·e), so a multiplication is
// e steps of one doubling and v lookups. Two scalars share the doublings
// and the accumulator.
//
// The digits are the regular all-nonzero signed recoding of Faz-Hernández,
// Longa and Sánchez (CT-RSA 2014): an odd scalar below 2^(h·a−1) becomes
// per column a sign ±1 and h−1 bits u_i with column value
// ±(1 + Σ u_i·2^(i·a)), so each sub-table holds the 2^(h−1) positive
// values and the sign is applied by a masked negation. An even scalar k is
// recoded as r − k and every one of its lookups negated. No column is
// zero, so every column of every scalar costs the same: one masked scan
// of all 2^(h−1) entries of a sub-table, one masked negation and one mixed
// addition, in an order fixed by the comb's shape alone. The accumulator
// starts from the first lookup, not from infinity.
//
// What is not constant time. Reading the *big.Int (scalarLimbs; item 5(i)
// of ROADMAP.md). And the exceptional branches of addMixed and double
// (item 5(ii)): the running sum equal to ± the entry being added, or
// infinity. Before a scalar's m-th lookup of L = a, the running sum is M·B
// and the entry ±C·B, M the value of the columns read so far and C that of
// the m-th, so the branches need M ∓ C ≡ 0 or M ≡ 0 (mod r). Both are the
// value of some digits on the first m columns of the ladder's order: a
// nonzero integer (its lowest column digit is ±1) below 2^(h·a), so a
// multiple t·r with 0 < |t| < 2^(h·a)/r. TestCombEarlyAdditionsAreGeneric
// finds no such multiple among those values at any lookup but the last
// two. There, k is fixed up to sign by the digits of the last L − m + 1
// ≤ 2 columns, so at most 2^(2h+1) + 2^(h+1) of the r scalars take a
// branch, the scalar 0 among them (recoded as r, its last addition is
// −C·B + C·B). Two scalars on two bases whose discrete logarithm to each
// other nobody knows, such as hashed generators, meet the same branches
// only where one scalar's partial sum is ≡ 0 — the condition above. An
// identity base is public and is handled by a branch on the base.
//
// Cross-checked against the generic ladder in TestFixedBaseMatchesGeneric,
// TestCommitG2MatchesMultiScalar and FuzzCommitG2; measured against the
// old 4-bit window (reference_test.go) in BenchmarkAblationFixedBase.

// The comb's shape: 6 teeth, 4 sub-tables of 32 entries, so a = 44
// columns, 11 steps and 10 doublings, 16 KiB of table per base.
// BenchmarkAblationFixedBase and docs/PERF.md compare the other shapes of
// at most 128 entries per base.
const (
	combTeeth     = 6
	combSubTables = 4
)

// combMaxColumns bounds a over every shape the ablation builds.
const combMaxColumns = 64

// comb is one shape of the comb.
type comb struct {
	teeth     int // h
	subTables int // v
	columns   int // a: ⌈255/h⌉ rounded up to a multiple of v
	steps     int // e = a/v
}

// newComb returns the shape with h teeth and v sub-tables. h·a ≥ 255
// covers every odd scalar below r < 2^254 with the recoding's carry.
func newComb(h, v int) comb {
	a := (255 + h - 1) / h
	a = (a + v - 1) / v * v
	if h < 2 || h > 8 || a > combMaxColumns {
		panic("bn254: unsupported comb shape")
	}
	return comb{teeth: h, subTables: v, columns: a, steps: a / v}
}

var defaultComb = newComb(combTeeth, combSubTables)

// entries is the size of one sub-table, 2^(h−1).
func (c *comb) entries() int { return 1 << (c.teeth - 1) }

// combEntry is a finite affine point as 16 words, x then y: a table entry
// without the G2 infinity flag and its padding.
type combEntry [16]uint64

// FixedBaseG2 holds the comb tables for one G2 base point.
type FixedBaseG2 struct {
	base G2
	comb comb
	// table holds sub-table b at [b·2^(h−1), (b+1)·2^(h−1)): entry u of
	// sub-table b is 2^(b·e)·(1 + Σ_i u_i·2^(i·a))·base, u_i bit i−1 of u.
	// Empty for the identity.
	table []combEntry
}

// NewFixedBaseG2 builds the tables for base: h·a − 1 doublings for the
// powers 2^n·base, v·(2^(h−1) − 1) additions for the entries, and one
// batch inversion to make them affine.
func NewFixedBaseG2(base *G2) *FixedBaseG2 {
	return newFixedBaseG2(base, defaultComb)
}

func newFixedBaseG2(base *G2, c comb) *FixedBaseG2 {
	f := &FixedBaseG2{comb: c}
	f.base.Set(base)
	if base.IsInfinity() {
		return f
	}
	pow := make([]jacG2, c.teeth*c.columns)
	pow[0].fromAffine(base)
	for i := 1; i < len(pow); i++ {
		pow[i].double(&pow[i-1])
	}
	// Entry u adds the tooth of u's top bit to entry u without it. The
	// entries are distinct nonzero multiples below 2^(h·a) of one point,
	// (1 + Σ u_i·2^(i·a)) < 2^((h−1)a+1) < r, so no addition is exceptional
	// and no entry is infinity.
	n := c.entries()
	jac := make([]jacG2, c.subTables*n)
	for b := 0; b < c.subTables; b++ {
		sub := jac[b*n : (b+1)*n]
		sub[0] = pow[b*c.steps]
		for u := 1; u < n; u++ {
			top := bits.Len(uint(u)) - 1
			sub[u].add(&sub[u&^(1<<top)], &pow[b*c.steps+(top+1)*c.columns])
		}
	}
	affine := make([]G2, len(jac))
	batchToAffineG2(affine, jac, make([]fp2, 2*len(jac)))
	f.table = make([]combEntry, len(affine))
	for i := range affine {
		e, p := &f.table[i], &affine[i]
		copy(e[0:4], p.x.c0[:])
		copy(e[4:8], p.x.c1[:])
		copy(e[8:12], p.y.c0[:])
		copy(e[12:16], p.y.c1[:])
	}
	return f
}

// Base returns a copy of the table's base point.
func (f *FixedBaseG2) Base() *G2 { return new(G2).Set(&f.base) }

// combDigits is a scalar recoded for the comb: for column j, idx[j] < 2^(h−1)
// indexes a sub-table and neg[j] is all ones when the entry is negated.
type combDigits struct {
	idx [combMaxColumns]uint8
	neg [combMaxColumns]uint64
}

// recode writes k < r as c.columns signed columns. The even correction is
// folded into the signs: for an even k the columns encode r − k, each one
// negated. Branch-free, with loop bounds that depend on c alone.
func (c *comb) recode(d *combDigits, k *u256) {
	even := k[0]&1 - 1 // all ones when k is even
	var m u256
	m.sub(&orderLimbs, k)
	m.cmov(k, ^even) // odd, below r
	a := c.columns
	// Row 0: column j < a−1 takes the sign 2·m_(j+1) − 1, column a−1 the
	// sign +1. Together they encode m mod 2^a exactly (m_0 = 1).
	for j := 0; j < a-1; j++ {
		d.neg[j] = (m[(j+1)>>6]>>((j+1)&63))&1 - 1
		d.idx[j] = 0
	}
	d.neg[a-1], d.idx[a-1] = 0, 0
	// The rest, m >> a, goes into rows 1..h−1 one bit position at a time:
	// digit u·sign, and the remainder becomes (rest − u·sign)/2, which
	// carries one when a set bit meets a negative column. The carry is
	// absorbed by column a−1's positive sign within h·a ≥ 255 positions.
	var rest u256
	w, s := a>>6, uint(a&63)
	for i := 0; i+w < 4; i++ {
		rest[i] = m[i+w] >> s
		if s != 0 && i+w+1 < 4 {
			rest[i] |= m[i+w+1] << (64 - s)
		}
	}
	for i := 1; i < c.teeth; i++ {
		for j := 0; j < a; j++ {
			u := rest[0] & 1
			d.idx[j] |= uint8(u << (i - 1))
			var carry uint64
			rest[0], carry = bits.Add64(rest[0]>>1|rest[1]<<63, u&d.neg[j], 0)
			rest[1], carry = bits.Add64(rest[1]>>1|rest[2]<<63, 0, carry)
			rest[2], carry = bits.Add64(rest[2]>>1|rest[3]<<63, 0, carry)
			rest[3], _ = bits.Add64(rest[3]>>1, 0, carry)
		}
	}
	for j := 0; j < a; j++ {
		d.neg[j] ^= even
	}
}

// combLookup sets p = table[idx], negated when neg is all ones, reading
// every entry of the sub-table under a mask.
func (p *G2) combLookup(table []combEntry, idx uint8, neg uint64) {
	var w combEntry
	want := uint64(idx)
	for j := range table {
		x := uint64(j) ^ want
		m := (x|-x)>>63 - 1 // all ones when j == idx
		e := &table[j]
		w[0] |= e[0] & m
		w[1] |= e[1] & m
		w[2] |= e[2] & m
		w[3] |= e[3] & m
		w[4] |= e[4] & m
		w[5] |= e[5] & m
		w[6] |= e[6] & m
		w[7] |= e[7] & m
		w[8] |= e[8] & m
		w[9] |= e[9] & m
		w[10] |= e[10] & m
		w[11] |= e[11] & m
		w[12] |= e[12] & m
		w[13] |= e[13] & m
		w[14] |= e[14] & m
		w[15] |= e[15] & m
	}
	p.x.c0 = fp{w[0], w[1], w[2], w[3]}
	p.x.c1 = fp{w[4], w[5], w[6], w[7]}
	p.y.c0 = fp{w[8], w[9], w[10], w[11]}
	p.y.c1 = fp{w[12], w[13], w[14], w[15]}
	var ny fp2
	ny.Neg(&p.y)
	p.y.c0.cmov(&ny.c0, neg)
	p.y.c1.cmov(&ny.c1, neg)
	p.notInf = true
}

// combTerm is one scalar of a comb ladder, recoded against its base's
// tables.
type combTerm struct {
	table  []combEntry
	digits combDigits
}

// set recodes k for the tables of f, whose base must be finite.
func (t *combTerm) set(f *FixedBaseG2, k *big.Int) {
	kl := scalarLimbs(k)
	t.table = f.table
	f.comb.recode(&t.digits, &kl)
}

// ladder sets acc = Σ k_t·base_t over at least one term: e − 1 doublings
// shared by all terms, and per step, per term and per sub-table one masked
// lookup and one mixed addition, the first lookup taking the place of the
// first addition. The sequence depends on c and len(terms) only.
func (c *comb) ladder(acc *jacG2, terms []combTerm) {
	n := c.entries()
	var q G2
	for s := c.steps - 1; s >= 0; s-- {
		if s != c.steps-1 {
			acc.double(acc)
		}
		for t := range terms {
			for b := 0; b < c.subTables; b++ {
				col := b*c.steps + s
				q.combLookup(terms[t].table[b*n:(b+1)*n], terms[t].digits.idx[col], terms[t].digits.neg[col])
				if s == c.steps-1 && t == 0 && b == 0 {
					acc.fromAffine(&q)
				} else {
					acc.addMixed(acc, &q)
				}
			}
		}
	}
}

// ScalarMult computes k*base for any k (taken modulo the group order).
func (f *FixedBaseG2) ScalarMult(k *big.Int) *G2 {
	if f.base.IsInfinity() {
		return new(G2)
	}
	var terms [1]combTerm
	terms[0].set(f, k)
	var acc jacG2
	f.comb.ladder(&acc, terms[:])
	return acc.toAffine(new(G2))
}

// CommitG2 computes a*f + b*g for two prepared bases — the two-generator
// Pedersen commitment — on one comb ladder: both scalars share its
// doublings and its accumulator, and one inversion makes the sum affine.
// An identity base is public and drops out of the ladder.
func CommitG2(f, g *FixedBaseG2, a, b *big.Int) *G2 {
	if f.comb != g.comb {
		panic("bn254: CommitG2 on tables of two comb shapes")
	}
	var terms [2]combTerm
	n := 0
	if !f.base.IsInfinity() {
		terms[n].set(f, a)
		n++
	}
	if !g.base.IsInfinity() {
		terms[n].set(g, b)
		n++
	}
	if n == 0 {
		return new(G2)
	}
	var acc jacG2
	f.comb.ladder(&acc, terms[:n])
	return acc.toAffine(new(G2))
}
