package bn254

import (
	"errors"
	"fmt"
	"math/big"
)

// GTSize is the byte length of the GT encoding (12 Fp coefficients).
const GTSize = 384

// GT is an element of the order-r multiplicative subgroup of Fp12, the
// target group of the pairing. The group law is written multiplicatively.
// The zero value is NOT valid; use NewGT or a pairing output.
type GT struct {
	v fp12
}

// NewGT returns the identity element of GT.
func NewGT() *GT {
	g := &GT{}
	g.v.SetOne()
	return g
}

// Set sets e = a and returns e.
func (e *GT) Set(a *GT) *GT {
	e.v.Set(&a.v)
	return e
}

// SetOne sets e to the identity and returns e.
func (e *GT) SetOne() *GT {
	e.v.SetOne()
	return e
}

// IsOne reports whether e is the identity.
func (e *GT) IsOne() bool { return e.v.IsOne() }

// Equal reports whether e == a.
func (e *GT) Equal(a *GT) bool { return e.v.Equal(&a.v) }

// Mul sets e = a*b and returns e.
func (e *GT) Mul(a, b *GT) *GT {
	e.v.Mul(&a.v, &b.v)
	return e
}

// Inverse sets e = a^-1 and returns e. Since GT elements have order
// dividing r inside the cyclotomic subgroup, inversion is conjugation.
func (e *GT) Inverse(a *GT) *GT {
	e.v.Conjugate(&a.v)
	return e
}

// Exp sets e = a^k and returns e. The exponent is reduced modulo r.
// Pairing outputs live in the cyclotomic subgroup, so compressed
// (Granger-Scott) squarings are used.
func (e *GT) Exp(a *GT, k *big.Int) *GT {
	var kr big.Int
	kr.Mod(k, Order)
	e.v.cyclotomicExp(&a.v, &kr)
	return e
}

// Marshal returns the 384-byte encoding of e: the 12 Fp coefficients in
// the tower order c0.b0.c0, c0.b0.c1, c0.b1.c0, ..., c1.b2.c1.
func (e *GT) Marshal() []byte {
	out := make([]byte, 0, GTSize)
	for _, f6 := range []*fp6{&e.v.c0, &e.v.c1} {
		for _, f2 := range []*fp2{&f6.b0, &f6.b1, &f6.b2} {
			c0 := f2.c0.Bytes()
			c1 := f2.c1.Bytes()
			out = append(out, c0[:]...)
			out = append(out, c1[:]...)
		}
	}
	return out
}

// Unmarshal decodes a 384-byte GT encoding. It validates coefficient
// ranges but not subgroup membership (which costs an exponentiation,
// e^r = 1). Note that Exp and Inverse assume the element lies in the
// cyclotomic subgroup — true for every pairing output — so a caller
// accepting untrusted GT encodings must check membership first.
func (e *GT) Unmarshal(data []byte) error {
	if len(data) != GTSize {
		return fmt.Errorf("bn254: invalid GT encoding length %d", len(data))
	}
	// Decode into a local: a failed decode leaves e as it was.
	var v fp12
	i := 0
	for _, f6 := range []*fp6{&v.c0, &v.c1} {
		for _, f2 := range []*fp2{&f6.b0, &f6.b1, &f6.b2} {
			if !f2.c0.SetBytes(data[i:i+32]) || !f2.c1.SetBytes(data[i+32:i+64]) {
				return errors.New("bn254: GT coefficient out of range")
			}
			i += 64
		}
	}
	e.v = v
	return nil
}

// String implements fmt.Stringer for debugging (prefix of the encoding).
func (e *GT) String() string {
	b := e.Marshal()
	return fmt.Sprintf("GT(%x...)", b[:8])
}
