package bn254

import (
	"errors"
	"fmt"
	"math/big"
)

// G1SizeUncompressed and G1SizeCompressed are the byte lengths of the two
// G1 encodings. The compressed encoding is 256 bits, the figure the paper
// uses when reporting 512-bit signatures.
const (
	G1SizeUncompressed = 64
	G1SizeCompressed   = 32
)

// Encoding flag bits, stored in the two spare high bits of the leading
// byte (p has 254 bits).
const (
	flagCompressedY = 0x80 // compressed: y is the lexicographically greater root
	flagInfinity    = 0x40 // point at infinity
)

// G1 is a point on E(Fp): y^2 = x^3 + 3, in affine coordinates. The zero
// value is the point at infinity.
type G1 struct {
	x, y fp
	// notInf is true for finite points. The zero value being infinity
	// makes new(G1) a ready-to-use identity element.
	notInf bool
}

// Set sets e = a and returns e.
func (e *G1) Set(a *G1) *G1 {
	e.x.Set(&a.x)
	e.y.Set(&a.y)
	e.notInf = a.notInf
	return e
}

// SetInfinity sets e to the identity element.
func (e *G1) SetInfinity() *G1 {
	e.notInf = false
	return e
}

// IsInfinity reports whether e is the identity element.
func (e *G1) IsInfinity() bool { return !e.notInf }

// Equal reports whether e and a are the same point.
func (e *G1) Equal(a *G1) bool {
	if e.IsInfinity() || a.IsInfinity() {
		return e.IsInfinity() && a.IsInfinity()
	}
	return e.x.Equal(&a.x) && e.y.Equal(&a.y)
}

func (e *G1) isOnCurve() bool {
	if e.IsInfinity() {
		return true
	}
	var lhs, rhs fp
	lhs.Square(&e.y)
	rhs.Square(&e.x)
	rhs.Mul(&rhs, &e.x)
	rhs.Add(&rhs, &bG1)
	return lhs.Equal(&rhs)
}

// Neg sets e = -a and returns e.
func (e *G1) Neg(a *G1) *G1 {
	if a.IsInfinity() {
		return e.SetInfinity()
	}
	e.x.Set(&a.x)
	e.y.Neg(&a.y)
	e.notInf = true
	return e
}

// Double sets e = 2a and returns e.
func (e *G1) Double(a *G1) *G1 {
	if a.IsInfinity() || a.y.IsZero() {
		return e.SetInfinity()
	}
	// lambda = 3x^2 / 2y
	var num, den, lambda fp
	num.Square(&a.x)
	lambda.Double(&num)
	num.Add(&num, &lambda)
	den.Double(&a.y)
	den.Inverse(&den)
	lambda.Mul(&num, &den)

	var x3, y3 fp
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
func (e *G1) Add(a, b *G1) *G1 {
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
	// lambda = (y2 - y1)/(x2 - x1)
	var num, den, lambda fp
	num.Sub(&b.y, &a.y)
	den.Sub(&b.x, &a.x)
	den.Inverse(&den)
	lambda.Mul(&num, &den)

	var x3, y3 fp
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
func (e *G1) Sub(a, b *G1) *G1 {
	var nb G1
	nb.Neg(b)
	return e.Add(a, &nb)
}

// ScalarMult sets e = k*a and returns e. The scalar is reduced modulo the
// group order, so negative values select the inverse point. Internally it
// runs the width-5 NAF ladder on the GLV split in Jacobian coordinates
// (scalarmult.go), in variable time: for public scalars. Secret scalars
// go through MultiScalarMultSharedG1.
func (e *G1) ScalarMult(a *G1, k *big.Int) *G1 {
	var kr big.Int
	kr.Mod(k, Order)
	return e.Set(scalarMultJacG1(a, &kr))
}

// ScalarBaseMult sets e = k*G for the fixed generator G and returns e.
func (e *G1) ScalarBaseMult(k *big.Int) *G1 { return e.ScalarMult(g1Gen, k) }

// Marshal returns the 64-byte uncompressed encoding x||y. The point at
// infinity encodes as 64 bytes with only the infinity flag set.
func (e *G1) Marshal() []byte {
	out := make([]byte, G1SizeUncompressed)
	if e.IsInfinity() {
		out[0] = flagInfinity
		return out
	}
	xb := e.x.Bytes()
	yb := e.y.Bytes()
	copy(out[:32], xb[:])
	copy(out[32:], yb[:])
	return out
}

// Unmarshal decodes a 64-byte uncompressed encoding, validating that the
// point is on the curve.
func (e *G1) Unmarshal(data []byte) error {
	if len(data) != G1SizeUncompressed {
		return fmt.Errorf("bn254: invalid G1 encoding length %d", len(data))
	}
	if data[0]&flagInfinity != 0 {
		for _, b := range data[1:] {
			if b != 0 {
				return errors.New("bn254: malformed G1 infinity encoding")
			}
		}
		if data[0] != flagInfinity {
			return errors.New("bn254: malformed G1 infinity encoding")
		}
		e.SetInfinity()
		return nil
	}
	// Decode into a local: a failed decode leaves e as it was.
	p := G1{notInf: true}
	if !p.x.SetBytes(data[:32]) || !p.y.SetBytes(data[32:]) {
		return errors.New("bn254: G1 coordinate out of range")
	}
	if !p.isOnCurve() {
		return errors.New("bn254: G1 point not on curve")
	}
	*e = p
	return nil
}

// MarshalCompressed returns the 32-byte compressed encoding: big-endian x
// with the high bit indicating which square root y is.
func (e *G1) MarshalCompressed() []byte {
	out := make([]byte, G1SizeCompressed)
	if e.IsInfinity() {
		out[0] = flagInfinity
		return out
	}
	xb := e.x.Bytes()
	copy(out, xb[:])
	var ny fp
	ny.Neg(&e.y)
	if e.y.cmp(&ny) > 0 {
		out[0] |= flagCompressedY
	}
	return out
}

// UnmarshalCompressed decodes a 32-byte compressed encoding.
func (e *G1) UnmarshalCompressed(data []byte) error {
	if len(data) != G1SizeCompressed {
		return fmt.Errorf("bn254: invalid compressed G1 length %d", len(data))
	}
	if data[0]&flagInfinity != 0 {
		for i, b := range data {
			if i == 0 && b == flagInfinity {
				continue
			}
			if b != 0 {
				return errors.New("bn254: malformed compressed G1 infinity")
			}
		}
		e.SetInfinity()
		return nil
	}
	greater := data[0]&flagCompressedY != 0
	var buf [32]byte
	copy(buf[:], data)
	buf[0] &^= flagCompressedY
	p := G1{notInf: true}
	if !p.x.SetBytes(buf[:]) {
		return errors.New("bn254: compressed G1 x out of range")
	}
	var rhs, ny fp
	rhs.Square(&p.x)
	rhs.Mul(&rhs, &p.x)
	rhs.Add(&rhs, &bG1)
	if !p.y.Sqrt(&rhs) {
		return errors.New("bn254: compressed G1 x not on curve")
	}
	ny.Neg(&p.y)
	if (p.y.cmp(&ny) > 0) != greater {
		p.y.Set(&ny)
	}
	*e = p
	return nil
}

// String implements fmt.Stringer for debugging.
func (e *G1) String() string {
	if e.IsInfinity() {
		return "G1(inf)"
	}
	return fmt.Sprintf("G1(%s, %s)", &e.x, &e.y)
}

// MultiScalarMultG1 computes sum_i scalars[i]*points[i]. This is the
// "multi-exponentiation with two base elements" primitive the paper counts
// in its cost analysis; the implementation (msm.go) picks Strauss or
// Pippenger buckets by batch size. Variable time, like G1MSM.
func MultiScalarMultG1(points []*G1, scalars []*big.Int) (*G1, error) {
	return G1MSM(points, scalars)
}
