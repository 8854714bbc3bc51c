package bn254

import (
	"errors"
	"fmt"
	"math/big"
)

// G2SizeUncompressed and G2SizeCompressed are the byte lengths of the two
// G2 encodings. Compressed G2 elements are 512 bits.
const (
	G2SizeUncompressed = 128
	G2SizeCompressed   = 64
)

// G2 is a point on the sextic twist E'(Fp2): y^2 = x^3 + 3/xi, in affine
// coordinates. Points produced by this package always lie in the order-r
// subgroup; Unmarshal verifies subgroup membership. The zero value is the
// point at infinity.
type G2 struct {
	x, y   fp2
	notInf bool
}

// Set sets e = a and returns e.
func (e *G2) Set(a *G2) *G2 {
	e.x.Set(&a.x)
	e.y.Set(&a.y)
	e.notInf = a.notInf
	return e
}

// SetInfinity sets e to the identity element.
func (e *G2) SetInfinity() *G2 {
	e.notInf = false
	return e
}

// IsInfinity reports whether e is the identity element.
func (e *G2) IsInfinity() bool { return !e.notInf }

// Equal reports whether e and a are the same point.
func (e *G2) Equal(a *G2) bool {
	if e.IsInfinity() || a.IsInfinity() {
		return e.IsInfinity() && a.IsInfinity()
	}
	return e.x.Equal(&a.x) && e.y.Equal(&a.y)
}

func (e *G2) isOnTwist() bool {
	if e.IsInfinity() {
		return true
	}
	var lhs, rhs fp2
	lhs.Square(&e.y)
	rhs.Square(&e.x)
	rhs.Mul(&rhs, &e.x)
	rhs.Add(&rhs, &bTwist)
	return lhs.Equal(&rhs)
}

// Neg sets e = -a and returns e.
func (e *G2) Neg(a *G2) *G2 {
	if a.IsInfinity() {
		return e.SetInfinity()
	}
	e.x.Set(&a.x)
	e.y.Neg(&a.y)
	e.notInf = true
	return e
}

// Double sets e = 2a and returns e.
func (e *G2) Double(a *G2) *G2 {
	if a.IsInfinity() || a.y.IsZero() {
		return e.SetInfinity()
	}
	var num, den, lambda fp2
	num.Square(&a.x)
	num.triple(&num)
	den.Double(&a.y)
	den.Inverse(&den)
	lambda.Mul(&num, &den)

	var x3, y3 fp2
	x3.Square(&lambda)
	x3.Sub(&x3, &a.x)
	x3.Sub(&x3, &a.x)
	y3.Sub(&a.x, &x3)
	y3.Mul(&y3, &lambda)
	y3.Sub(&y3, &a.y)

	e.x.Set(&x3)
	e.y.Set(&y3)
	e.notInf = true
	return e
}

// Add sets e = a + b and returns e.
func (e *G2) Add(a, b *G2) *G2 {
	if a.IsInfinity() {
		return e.Set(b)
	}
	if b.IsInfinity() {
		return e.Set(a)
	}
	if a.x.Equal(&b.x) {
		if a.y.Equal(&b.y) {
			return e.Double(a)
		}
		return e.SetInfinity()
	}
	var num, den, lambda fp2
	num.Sub(&b.y, &a.y)
	den.Sub(&b.x, &a.x)
	den.Inverse(&den)
	lambda.Mul(&num, &den)

	var x3, y3 fp2
	x3.Square(&lambda)
	x3.Sub(&x3, &a.x)
	x3.Sub(&x3, &b.x)
	y3.Sub(&a.x, &x3)
	y3.Mul(&y3, &lambda)
	y3.Sub(&y3, &a.y)

	e.x.Set(&x3)
	e.y.Set(&y3)
	e.notInf = true
	return e
}

// Sub sets e = a - b and returns e.
func (e *G2) Sub(a, b *G2) *G2 {
	var nb G2
	nb.Neg(b)
	return e.Add(a, &nb)
}

// ScalarMult sets e = k*a and returns e. The scalar is reduced modulo the
// group order. Internally it uses an inversion-free Jacobian fixed-window
// ladder (see jacobian.go).
func (e *G2) ScalarMult(a *G2, k *big.Int) *G2 {
	var kr big.Int
	kr.Mod(k, Order)
	return e.Set(scalarMultJacG2(a, &kr))
}

// scalarMultRaw multiplies by an arbitrary non-negative integer without
// reducing modulo r; needed for cofactor clearing where k > r.
func (e *G2) scalarMultRaw(a *G2, k *big.Int) *G2 {
	return e.Set(scalarMultJacG2(a, k))
}

// ScalarBaseMult sets e = k*H for the fixed generator H and returns e.
func (e *G2) ScalarBaseMult(k *big.Int) *G2 { return e.ScalarMult(g2Gen, k) }

// frobenius applies the untwist-Frobenius-twist endomorphism pi:
// (x, y) -> (conj(x)*xi^((p-1)/3), conj(y)*xi^((p-1)/2)).
func (e *G2) frobenius(a *G2) *G2 {
	if a.IsInfinity() {
		return e.SetInfinity()
	}
	var x, y fp2
	x.Conjugate(&a.x)
	x.Mul(&x, &xiToPMinus1Over3)
	y.Conjugate(&a.y)
	y.Mul(&y, &xiToPMinus1Over2)
	e.x.Set(&x)
	e.y.Set(&y)
	e.notInf = true
	return e
}

// inSubgroup reports whether the twist point has order dividing r, by the
// endomorphism test of El Housni, Guillevic and Piellard ("Co-factor
// clearing and subgroup membership testing on pairing-friendly curves",
// AFRICACRYPT 2022): on a BN twist, Q lies in G2 if and only if
//
//	[u+1]Q + ψ([u]Q) + ψ²([u]Q) = ψ³([2u]Q)
//
// with ψ the untwist-Frobenius-twist map. It costs one 63-bit NAF ladder
// for [u]Q, three ψ, three additions and a doubling, all in Jacobian
// coordinates with a projective comparison at the end: no inversion. It accepts exactly the
// points the [r]Q ladder accepts (TestG2SubgroupMatchesOrderCheck,
// FuzzG2SubgroupCheck keep that ladder as the oracle) at a quarter of its
// length.
func (e *G2) inSubgroup() bool {
	if e.IsInfinity() {
		return true
	}
	var q, uq, lhs, rhs, t jacG2
	q.fromAffine(e)
	var neg G2
	neg.Neg(e)
	uq.z.SetZero()
	for i := len(uNAF) - 1; i >= 0; i-- {
		uq.double(&uq)
		switch uNAF[i] {
		case 1:
			uq.addMixed(&uq, e)
		case -1:
			uq.addMixed(&uq, &neg)
		}
	}
	lhs.add(&uq, &q) // [u+1]Q
	t.psi(&uq)       // ψ([u]Q)
	lhs.add(&lhs, &t)
	t.psi(&t) // ψ²([u]Q)
	lhs.add(&lhs, &t)
	rhs.psi(&t) // ψ³([u]Q), doubled below
	rhs.double(&rhs)
	return lhs.equal(&rhs)
}

// UnmarshalUnchecked decodes a 128-byte uncompressed encoding, validating
// only that the point lies on the twist curve and skipping the (costly)
// order-r subgroup check. It is intended for protocol contexts where
// subgroup membership is enforced by a higher-level verification equation
// — e.g. DKG commitments, which the Pedersen-VSS share checks constrain to
// the subgroup for any dealer that survives disqualification.
func (e *G2) UnmarshalUnchecked(data []byte) error {
	if len(data) != G2SizeUncompressed {
		return fmt.Errorf("bn254: invalid G2 encoding length %d", len(data))
	}
	if data[0]&flagInfinity != 0 {
		for i, b := range data {
			if i == 0 && b == flagInfinity {
				continue
			}
			if b != 0 {
				return errors.New("bn254: malformed G2 infinity encoding")
			}
		}
		e.SetInfinity()
		return nil
	}
	// Decode into a local: a failed decode leaves e as it was.
	q := G2{notInf: true}
	if !q.x.c1.SetBytes(data[0:32]) || !q.x.c0.SetBytes(data[32:64]) ||
		!q.y.c1.SetBytes(data[64:96]) || !q.y.c0.SetBytes(data[96:128]) {
		return errors.New("bn254: G2 coordinate out of range")
	}
	if !q.isOnTwist() {
		return errors.New("bn254: G2 point not on twist")
	}
	*e = q
	return nil
}

// Marshal returns the 128-byte uncompressed encoding x.c1||x.c0||y.c1||y.c0.
func (e *G2) Marshal() []byte {
	out := make([]byte, G2SizeUncompressed)
	if e.IsInfinity() {
		out[0] = flagInfinity
		return out
	}
	xc1 := e.x.c1.Bytes()
	xc0 := e.x.c0.Bytes()
	yc1 := e.y.c1.Bytes()
	yc0 := e.y.c0.Bytes()
	copy(out[0:32], xc1[:])
	copy(out[32:64], xc0[:])
	copy(out[64:96], yc1[:])
	copy(out[96:128], yc0[:])
	return out
}

// Unmarshal decodes a 128-byte uncompressed encoding, validating curve and
// subgroup membership.
func (e *G2) Unmarshal(data []byte) error {
	var q G2
	if err := q.UnmarshalUnchecked(data); err != nil {
		return err
	}
	if !q.inSubgroup() {
		return errors.New("bn254: G2 point not in order-r subgroup")
	}
	*e = q
	return nil
}

// MarshalCompressed returns the 64-byte compressed encoding: x.c1||x.c0
// with the high bit of the first byte selecting the square root of y.
func (e *G2) MarshalCompressed() []byte {
	out := make([]byte, G2SizeCompressed)
	if e.IsInfinity() {
		out[0] = flagInfinity
		return out
	}
	xc1 := e.x.c1.Bytes()
	xc0 := e.x.c0.Bytes()
	copy(out[0:32], xc1[:])
	copy(out[32:64], xc0[:])
	var ny fp2
	ny.Neg(&e.y)
	if e.y.cmp(&ny) > 0 {
		out[0] |= flagCompressedY
	}
	return out
}

// UnmarshalCompressed decodes a 64-byte compressed encoding.
func (e *G2) UnmarshalCompressed(data []byte) error {
	if len(data) != G2SizeCompressed {
		return fmt.Errorf("bn254: invalid compressed G2 length %d", len(data))
	}
	if data[0]&flagInfinity != 0 {
		for i, b := range data {
			if i == 0 && b == flagInfinity {
				continue
			}
			if b != 0 {
				return errors.New("bn254: malformed compressed G2 infinity")
			}
		}
		e.SetInfinity()
		return nil
	}
	greater := data[0]&flagCompressedY != 0
	var buf [32]byte
	copy(buf[:], data[0:32])
	buf[0] &^= flagCompressedY
	q := G2{notInf: true}
	if !q.x.c1.SetBytes(buf[:]) || !q.x.c0.SetBytes(data[32:64]) {
		return errors.New("bn254: compressed G2 x out of range")
	}
	var rhs, ny fp2
	rhs.Square(&q.x)
	rhs.Mul(&rhs, &q.x)
	rhs.Add(&rhs, &bTwist)
	if !q.y.Sqrt(&rhs) {
		return errors.New("bn254: compressed G2 x not on twist")
	}
	ny.Neg(&q.y)
	if (q.y.cmp(&ny) > 0) != greater {
		q.y.Set(&ny)
	}
	if !q.inSubgroup() {
		return errors.New("bn254: compressed G2 point not in subgroup")
	}
	*e = q
	return nil
}

// String implements fmt.Stringer for debugging.
func (e *G2) String() string {
	if e.IsInfinity() {
		return "G2(inf)"
	}
	return fmt.Sprintf("G2(%s, %s)", &e.x, &e.y)
}

// MultiScalarMultG2 computes sum_i scalars[i]*points[i] with a shared
// doubling chain.
func MultiScalarMultG2(points []*G2, scalars []*big.Int) (*G2, error) {
	if len(points) != len(scalars) {
		return nil, errors.New("bn254: mismatched multiscalar lengths")
	}
	reduced := make([]*big.Int, len(scalars))
	maxBits := 0
	for i, s := range scalars {
		r := new(big.Int).Mod(s, Order)
		reduced[i] = r
		if r.BitLen() > maxBits {
			maxBits = r.BitLen()
		}
	}
	var acc jacG2
	acc.z.SetZero()
	for i := maxBits - 1; i >= 0; i-- {
		acc.double(&acc)
		for j, r := range reduced {
			if r.Bit(i) == 1 && !points[j].IsInfinity() {
				acc.addMixed(&acc, points[j])
			}
		}
	}
	return acc.toAffine(new(G2)), nil
}
