package bn254

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
)

// fp is an element of the prime field Fp, held as four little-endian
// 64-bit limbs in Montgomery form: the limbs are the integer a*R mod p for
// the element a, with R = 2^256, and are always fully reduced (< p),
// except the transient sums of addUnreduced, which go only to a product's
// first argument. The zero value is the field's zero element. Methods
// follow the math/big convention — the receiver is the destination and is
// returned — and every argument may alias the receiver.
//
// Montgomery form is entered in SetBytes, SetBytesReduce, SetBig and
// SetInt64 and left in Bytes, cmp and String; everything between works on
// residues. Reductions select with masks, not branches, so the running
// time of the arithmetic does not depend on the values.
type fp [4]uint64

// The modulus p = 36u^4 + 36u^3 + 24u^2 + 6u + 1 as limbs, and
// -p^-1 mod 2^64. initField checks both against the P that constants.go
// derives from u, so a mistyped digit fails at start-up.
const (
	q0      = 0x3c208c16d87cfd47
	q1      = 0x97816a916871ca8d
	q2      = 0xb85045b68181585d
	q3      = 0x30644e72e131a029
	qInvNeg = 0x87d20782e4866389
)

var (
	fpOne fp // R mod p, the Montgomery form of 1
	fpR2  fp // R^2 mod p: multiplying by it enters Montgomery form

	// fpRootExp holds (p-3)/4 as 4-bit windows, most significant first:
	// the one fixed exponent behind Inverse and Sqrt.
	fpRootExp [63]uint8
)

// initField derives the Montgomery constants from P. It runs from the
// package init in constants.go, before any field element is built.
func initField() {
	var buf [32]byte
	P.FillBytes(buf[:])
	if loadLimbs(&buf) != (fp{q0, q1, q2, q3}) {
		panic("bn254: modulus limbs do not match the derived p")
	}
	if low := uint64(q0); low*qInvNeg != ^uint64(0) {
		panic("bn254: qInvNeg is not -1/p mod 2^64")
	}
	// Mul's no-carry schedule needs the top limb of p below
	// (2^64-1)/2 - 1, which also keeps 2p within four limbs.
	if uint64(q3) >= (^uint64(0))/2-1 {
		panic("bn254: p is too wide for the no-carry Montgomery product")
	}
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	new(big.Int).Mod(r, P).FillBytes(buf[:])
	fpOne = loadLimbs(&buf)
	r.Mul(r, r)
	r.Mod(r, P).FillBytes(buf[:])
	fpR2 = loadLimbs(&buf)

	e := new(big.Int).Sub(P, big.NewInt(3))
	e.Rsh(e, 2)
	if e.BitLen() != 4*len(fpRootExp) {
		panic("bn254: (p-3)/4 does not fill its window table")
	}
	for i := range fpRootExp {
		shift := uint(4 * (len(fpRootExp) - 1 - i))
		fpRootExp[i] = uint8(new(big.Int).Rsh(e, shift).Uint64() & 0xf)
	}
}

// loadLimbs reads a 256-bit big-endian integer into limbs (no reduction,
// no Montgomery conversion).
func loadLimbs(in *[32]byte) fp {
	return fp{
		binary.BigEndian.Uint64(in[24:32]),
		binary.BigEndian.Uint64(in[16:24]),
		binary.BigEndian.Uint64(in[8:16]),
		binary.BigEndian.Uint64(in[0:8]),
	}
}

func (z *fp) Set(x *fp) *fp {
	*z = *x
	return z
}

func (z *fp) SetZero() *fp {
	*z = fp{}
	return z
}

func (z *fp) SetOne() *fp {
	*z = fpOne
	return z
}

func (z *fp) SetInt64(x int64) *fp {
	if x < 0 {
		z.SetInt64(-x)
		return z.Neg(z)
	}
	*z = fp{uint64(x)}
	return z.Mul(z, &fpR2)
}

// SetBig reduces x modulo p.
func (z *fp) SetBig(x *big.Int) *fp {
	if x.Sign() < 0 || x.Cmp(P) >= 0 {
		x = new(big.Int).Mod(x, P)
	}
	var buf [32]byte
	x.FillBytes(buf[:])
	*z = loadLimbs(&buf)
	return z.Mul(z, &fpR2)
}

// SetBytes decodes a canonical field element: exactly 32 big-endian bytes
// holding an integer below p. Anything else is rejected and leaves z
// unchanged.
func (z *fp) SetBytes(in []byte) bool {
	if len(in) != 32 {
		return false
	}
	v := loadLimbs((*[32]byte)(in))
	_, b := bits.Sub64(v[0], q0, 0)
	_, b = bits.Sub64(v[1], q1, b)
	_, b = bits.Sub64(v[2], q2, b)
	_, b = bits.Sub64(v[3], q3, b)
	if b == 0 {
		return false
	}
	z.Mul(&v, &fpR2)
	return true
}

// SetBytesReduce sets z to the 256-bit big-endian integer in modulo p —
// how a hash digest becomes a field element. The Montgomery product
// in*R^2/R is below 2p for any 256-bit in (see Mul), so its one masked
// subtraction is the whole reduction.
func (z *fp) SetBytesReduce(in *[32]byte) *fp {
	v := loadLimbs(in)
	return z.Mul(&v, &fpR2)
}

// Bytes returns the 32-byte big-endian encoding of z.
func (z *fp) Bytes() [32]byte {
	t := z.canonical()
	var out [32]byte
	binary.BigEndian.PutUint64(out[0:8], t[3])
	binary.BigEndian.PutUint64(out[8:16], t[2])
	binary.BigEndian.PutUint64(out[16:24], t[1])
	binary.BigEndian.PutUint64(out[24:32], t[0])
	return out
}

// canonical returns the integer in [0, p) that z stands for, as limbs: a
// Montgomery multiplication by 1 divides the residue by R.
func (z *fp) canonical() fp {
	var t fp
	t.Mul(z, &fp{1})
	return t
}

func (z *fp) String() string {
	b := z.Bytes()
	return fmt.Sprintf("0x%x", new(big.Int).SetBytes(b[:]))
}

// cmp compares z and x as integers in [0, p) — not as residues, whose
// order is unrelated. It decides the sign bit of compressed points and
// the root HashToG1 picks, both computed from public values.
func (z *fp) cmp(x *fp) int {
	a, b := z.canonical(), x.canonical()
	for i := 3; i >= 0; i-- {
		if a[i] != b[i] {
			if a[i] > b[i] {
				return 1
			}
			return -1
		}
	}
	return 0
}

// cmov sets z = x when mask is all ones and leaves z unchanged when it is
// zero, without a branch.
func (z *fp) cmov(x *fp, mask uint64) {
	z[0] ^= (z[0] ^ x[0]) & mask
	z[1] ^= (z[1] ^ x[1]) & mask
	z[2] ^= (z[2] ^ x[2]) & mask
	z[3] ^= (z[3] ^ x[3]) & mask
}

func (z *fp) IsZero() bool { return z[0]|z[1]|z[2]|z[3] == 0 }

func (z *fp) Equal(x *fp) bool {
	return (z[0]^x[0])|(z[1]^x[1])|(z[2]^x[2])|(z[3]^x[3]) == 0
}

// reduceOnce sets z = t - p when t >= p and z = t otherwise, for t < 2p.
func (z *fp) reduceOnce(t0, t1, t2, t3 uint64) {
	s0, b := bits.Sub64(t0, q0, 0)
	s1, b := bits.Sub64(t1, q1, b)
	s2, b := bits.Sub64(t2, q2, b)
	s3, b := bits.Sub64(t3, q3, b)
	keep := -b // all ones when the subtraction borrowed, i.e. t < p
	z[0] = s0 ^ ((s0 ^ t0) & keep)
	z[1] = s1 ^ ((s1 ^ t1) & keep)
	z[2] = s2 ^ ((s2 ^ t2) & keep)
	z[3] = s3 ^ ((s3 ^ t3) & keep)
}

func (z *fp) Add(x, y *fp) *fp {
	// p < 2^254, so the sum of two reduced elements fits the four limbs.
	t0, c := bits.Add64(x[0], y[0], 0)
	t1, c := bits.Add64(x[1], y[1], c)
	t2, c := bits.Add64(x[2], y[2], c)
	t3, _ := bits.Add64(x[3], y[3], c)
	z.reduceOnce(t0, t1, t2, t3)
	return z
}

func (z *fp) Double(x *fp) *fp {
	t0 := x[0] << 1
	t1 := x[1]<<1 | x[0]>>63
	t2 := x[2]<<1 | x[1]>>63
	t3 := x[3]<<1 | x[2]>>63
	z.reduceOnce(t0, t1, t2, t3)
	return z
}

func (z *fp) Sub(x, y *fp) *fp {
	t0, b := bits.Sub64(x[0], y[0], 0)
	t1, b := bits.Sub64(x[1], y[1], b)
	t2, b := bits.Sub64(x[2], y[2], b)
	t3, b := bits.Sub64(x[3], y[3], b)
	wrap := -b // all ones when x < y: add p back
	var c uint64
	z[0], c = bits.Add64(t0, q0&wrap, 0)
	z[1], c = bits.Add64(t1, q1&wrap, c)
	z[2], c = bits.Add64(t2, q2&wrap, c)
	z[3], _ = bits.Add64(t3, q3&wrap, c)
	return z
}

// Neg sets z = -x; 0 - 0 does not borrow, so zero stays zero.
func (z *fp) Neg(x *fp) *fp { return z.Sub(&fp{}, x) }

// Mul sets z = x*y: word-serial Montgomery multiplication (CIOS) in the
// "no-carry" schedule of Botrel and El Housni (ePrint 2022/1400), one
// round per limb of x. A round adds x[i]*y to the accumulator t, then the
// multiple m*p that clears t's low word, and drops that word. Each sum
// forms its four 128-bit products first and adds them as two carry
// chains, the low words into their columns and the high words one column
// up, so no addition carries twice and the products do not wait on the
// additions.
//
// The bound. After round i, t = (x[0..i]*y + M*p) / 2^(64(i+1)) with
// x[0..i], M < 2^(64(i+1)), hence t < y + p. Inside round i the sum
// t + x[i]*y + m*p is below 2^64 * (y + p), which for y < p is below
// 2^64 * 2p < 2^320 (initField checks that 2p fits four limbs): the fifth
// word t4 holds its top word exactly and every chain ends in it without a
// carry out. After the last round t < y + p < 2p, so one masked subtraction
// finishes. The bound asks nothing of x beyond four limbs, which is what
// SetBytesReduce relies on.
func (z *fp) Mul(x, y *fp) *fp {
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	var t0, t1, t2, t3, t4, c, m uint64
	var h0, h1, h2, h3, l0, l1, l2, l3 uint64

	// Round 0 starts from t = 0: the low words of x[0]*y are t itself.
	v := x[0]
	h0, t0 = bits.Mul64(v, y0)
	h1, t1 = bits.Mul64(v, y1)
	h2, t2 = bits.Mul64(v, y2)
	t4, t3 = bits.Mul64(v, y3)
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4 += c
	// t += m*p clears the low word, whose carry is all that is kept; the
	// high-word chain writes one column down, which drops that word.
	m = t0 * qInvNeg
	h0, l0 = bits.Mul64(m, q0)
	h1, l1 = bits.Mul64(m, q1)
	h2, l2 = bits.Mul64(m, q2)
	h3, l3 = bits.Mul64(m, q3)
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 += h3 + c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3 = t4 + c

	// Rounds 1 to 3 add x[i]*y to t first, then reduce as above.
	v = x[1]
	h0, l0 = bits.Mul64(v, y0)
	h1, l1 = bits.Mul64(v, y1)
	h2, l2 = bits.Mul64(v, y2)
	h3, l3 = bits.Mul64(v, y3)
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 = h3 + c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4 += c
	m = t0 * qInvNeg
	h0, l0 = bits.Mul64(m, q0)
	h1, l1 = bits.Mul64(m, q1)
	h2, l2 = bits.Mul64(m, q2)
	h3, l3 = bits.Mul64(m, q3)
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 += h3 + c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3 = t4 + c

	v = x[2]
	h0, l0 = bits.Mul64(v, y0)
	h1, l1 = bits.Mul64(v, y1)
	h2, l2 = bits.Mul64(v, y2)
	h3, l3 = bits.Mul64(v, y3)
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 = h3 + c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4 += c
	m = t0 * qInvNeg
	h0, l0 = bits.Mul64(m, q0)
	h1, l1 = bits.Mul64(m, q1)
	h2, l2 = bits.Mul64(m, q2)
	h3, l3 = bits.Mul64(m, q3)
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 += h3 + c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3 = t4 + c

	v = x[3]
	h0, l0 = bits.Mul64(v, y0)
	h1, l1 = bits.Mul64(v, y1)
	h2, l2 = bits.Mul64(v, y2)
	h3, l3 = bits.Mul64(v, y3)
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 = h3 + c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4 += c
	m = t0 * qInvNeg
	h0, l0 = bits.Mul64(m, q0)
	h1, l1 = bits.Mul64(m, q1)
	h2, l2 = bits.Mul64(m, q2)
	h3, l3 = bits.Mul64(m, q3)
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 += h3 + c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3 = t4 + c

	z.reduceOnce(t0, t1, t2, t3)
	return z
}

func (z *fp) Square(x *fp) *fp { return z.Mul(x, x) }

// fpWide is a double-width integer, eight little-endian limbs: a product
// of two limb vectors before Montgomery reduction. fp2.Mul combines three
// of them and reduces twice, where three Mul calls would reduce three
// times.
type fpWide [8]uint64

// mul sets w = x*y for any four-limb x and y, row by row with the carry
// chains of Mul: each row's four products first, then their low words and
// their high words, one column up, as two chains.
func (w *fpWide) mul(x, y *fp) *fpWide {
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	var t0, t1, t2, t3, t4, c uint64
	var h0, h1, h2, h3, l0, l1, l2, l3 uint64

	v := x[0]
	h0, w[0] = bits.Mul64(v, y0)
	h1, t1 = bits.Mul64(v, y1)
	h2, t2 = bits.Mul64(v, y2)
	t4, t3 = bits.Mul64(v, y3)
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4 += c

	// Row i adds x[i]*y from column i up; the five accumulator words
	// rotate, and the column that row i completes is written out.
	v = x[1]
	h0, l0 = bits.Mul64(v, y0)
	h1, l1 = bits.Mul64(v, y1)
	h2, l2 = bits.Mul64(v, y2)
	h3, l3 = bits.Mul64(v, y3)
	w[1], c = bits.Add64(t1, l0, 0)
	t2, c = bits.Add64(t2, l1, c)
	t3, c = bits.Add64(t3, l2, c)
	t4, c = bits.Add64(t4, l3, c)
	t0 = h3 + c
	t2, c = bits.Add64(t2, h0, 0)
	t3, c = bits.Add64(t3, h1, c)
	t4, c = bits.Add64(t4, h2, c)
	t0 += c

	v = x[2]
	h0, l0 = bits.Mul64(v, y0)
	h1, l1 = bits.Mul64(v, y1)
	h2, l2 = bits.Mul64(v, y2)
	h3, l3 = bits.Mul64(v, y3)
	w[2], c = bits.Add64(t2, l0, 0)
	t3, c = bits.Add64(t3, l1, c)
	t4, c = bits.Add64(t4, l2, c)
	t0, c = bits.Add64(t0, l3, c)
	t1 = h3 + c
	t3, c = bits.Add64(t3, h0, 0)
	t4, c = bits.Add64(t4, h1, c)
	t0, c = bits.Add64(t0, h2, c)
	t1 += c

	v = x[3]
	h0, l0 = bits.Mul64(v, y0)
	h1, l1 = bits.Mul64(v, y1)
	h2, l2 = bits.Mul64(v, y2)
	h3, l3 = bits.Mul64(v, y3)
	w[3], c = bits.Add64(t3, l0, 0)
	t4, c = bits.Add64(t4, l1, c)
	t0, c = bits.Add64(t0, l2, c)
	t1, c = bits.Add64(t1, l3, c)
	t2 = h3 + c
	t4, c = bits.Add64(t4, h0, 0)
	t0, c = bits.Add64(t0, h1, c)
	t1, c = bits.Add64(t1, h2, c)
	t2 += c

	w[4], w[5], w[6], w[7] = t4, t0, t1, t2
	return w
}

// sub sets w = w - x, plus p*R when that borrows. For w and x in [0, p*R)
// the result stays in [0, p*R), which is what montReduce takes.
func (w *fpWide) sub(x *fpWide) *fpWide {
	var b uint64
	w[0], b = bits.Sub64(w[0], x[0], 0)
	w[1], b = bits.Sub64(w[1], x[1], b)
	w[2], b = bits.Sub64(w[2], x[2], b)
	w[3], b = bits.Sub64(w[3], x[3], b)
	w[4], b = bits.Sub64(w[4], x[4], b)
	w[5], b = bits.Sub64(w[5], x[5], b)
	w[6], b = bits.Sub64(w[6], x[6], b)
	w[7], b = bits.Sub64(w[7], x[7], b)
	wrap := -b // all ones when w < x: add p*R back
	var c uint64
	w[4], c = bits.Add64(w[4], q0&wrap, 0)
	w[5], c = bits.Add64(w[5], q1&wrap, c)
	w[6], c = bits.Add64(w[6], q2&wrap, c)
	w[7], _ = bits.Add64(w[7], q3&wrap, c)
	return w
}

// montReduce sets z = w/R mod p for w < p*R: Mul's reduction rounds on
// the low half, then the high half added. The rounds leave
// (w_low + M*p)/R <= p with M < R, and the high half is below p, so the sum
// is below 2p and one masked subtraction finishes.
func (z *fp) montReduce(w *fpWide) *fp {
	t0, t1, t2, t3 := w[0], w[1], w[2], w[3]
	var t4, c, m uint64
	var h0, h1, h2, h3, l0, l1, l2, l3 uint64

	m = t0 * qInvNeg
	h0, l0 = bits.Mul64(m, q0)
	h1, l1 = bits.Mul64(m, q1)
	h2, l2 = bits.Mul64(m, q2)
	h3, l3 = bits.Mul64(m, q3)
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 = h3 + c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3 = t4 + c

	m = t0 * qInvNeg
	h0, l0 = bits.Mul64(m, q0)
	h1, l1 = bits.Mul64(m, q1)
	h2, l2 = bits.Mul64(m, q2)
	h3, l3 = bits.Mul64(m, q3)
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 = h3 + c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3 = t4 + c

	m = t0 * qInvNeg
	h0, l0 = bits.Mul64(m, q0)
	h1, l1 = bits.Mul64(m, q1)
	h2, l2 = bits.Mul64(m, q2)
	h3, l3 = bits.Mul64(m, q3)
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 = h3 + c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3 = t4 + c

	m = t0 * qInvNeg
	h0, l0 = bits.Mul64(m, q0)
	h1, l1 = bits.Mul64(m, q1)
	h2, l2 = bits.Mul64(m, q2)
	h3, l3 = bits.Mul64(m, q3)
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 = h3 + c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3 = t4 + c

	t0, c = bits.Add64(t0, w[4], 0)
	t1, c = bits.Add64(t1, w[5], c)
	t2, c = bits.Add64(t2, w[6], c)
	t3, _ = bits.Add64(t3, w[7], c)
	z.reduceOnce(t0, t1, t2, t3)
	return z
}

// addUnreduced sets z = x + y without reducing: below 2p < 2^255 for
// reduced x and y, a valid first argument of Mul and fpWide.mul, which take
// any four limbs there.
func (z *fp) addUnreduced(x, y *fp) *fp {
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], _ = bits.Add64(x[3], y[3], c)
	return z
}

// rootPower sets z = x^((p-3)/4) with a fixed 4-bit window. The schedule
// depends only on the exponent, a public constant. Three results hang off
// this one chain, for w = x^((p-3)/4):
//
//	w^4 * x = x^(p-2)      the inverse (Fermat)
//	w * x   = x^((p+1)/4)  a square root of x when one exists (p = 3 mod 4)
//	w^2 * x = x^((p-1)/2)  the Legendre symbol
func (z *fp) rootPower(x *fp) *fp {
	var table [16]fp
	table[1] = *x
	for i := 2; i < len(table); i++ {
		table[i].Mul(&table[i-1], x)
	}
	acc := table[fpRootExp[0]]
	for _, w := range fpRootExp[1:] {
		acc.Square(&acc)
		acc.Square(&acc)
		acc.Square(&acc)
		acc.Square(&acc)
		if w != 0 {
			acc.Mul(&acc, &table[w])
		}
	}
	*z = acc
	return z
}

// Inverse sets z = x^-1 = x^(p-2). Inverting zero yields zero. It costs
// about 330 multiplications, so loops invert once for a whole batch
// (batchInverse) rather than once per step.
func (z *fp) Inverse(x *fp) *fp {
	var w fp
	w.rootPower(x)
	w.Square(&w)
	w.Square(&w)
	return z.Mul(&w, x)
}

// batchInverse inverts every element of xs in place with one field
// inversion (Montgomery's trick: invert the running product, then peel the
// factors off from the back). scratch needs len(xs) elements. Zeros stay
// zero and do not disturb the others.
func batchInverse(xs, scratch []fp) {
	acc := fpOne
	for i := range xs {
		scratch[i] = acc
		if !xs[i].IsZero() {
			acc.Mul(&acc, &xs[i])
		}
	}
	acc.Inverse(&acc)
	for i := len(xs) - 1; i >= 0; i-- {
		if xs[i].IsZero() {
			continue
		}
		var inv fp
		inv.Mul(&acc, &scratch[i])
		acc.Mul(&acc, &xs[i])
		xs[i] = inv
	}
}

// Sqrt sets z to the square root x^((p+1)/4) of x and reports whether x
// has one; if not, z is unchanged.
func (z *fp) Sqrt(x *fp) bool {
	var r, chk fp
	r.rootPower(x)
	r.Mul(&r, x)
	if !chk.Square(&r).Equal(x) {
		return false
	}
	*z = r
	return true
}
