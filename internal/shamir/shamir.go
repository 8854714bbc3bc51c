// Package shamir implements polynomial secret sharing over a prime field
// [Shamir 1979], the substrate of the paper's verifiable secret sharing and
// distributed key generation. It provides degree-t polynomial sampling,
// share evaluation, Lagrange interpolation at arbitrary points, and the
// Lagrange coefficients Delta_{i,S}(0) used by the threshold Combine
// algorithms ("Lagrange interpolation in the exponent").
//
// Player indices are 1-based: player i holds the evaluation f(i); f(0) is
// the secret.
package shamir

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Field is a prime field Z_q used for secret sharing. A Field value is
// immutable after creation and safe for concurrent use.
type Field struct {
	q *big.Int
}

// NewField returns the field Z_q. q must be a prime; the primality of the
// caller's modulus is trusted (the package is always instantiated with the
// order of a pairing group).
func NewField(q *big.Int) (*Field, error) {
	if q == nil || q.Sign() <= 0 || q.BitLen() < 2 {
		return nil, errors.New("shamir: invalid field modulus")
	}
	return &Field{q: new(big.Int).Set(q)}, nil
}

// Reduce returns x mod q as a fresh integer.
func (f *Field) Reduce(x *big.Int) *big.Int { return new(big.Int).Mod(x, f.q) }

// Rand returns a uniformly random field element, reading entropy from rng
// (crypto/rand.Reader if nil).
func (f *Field) Rand(rng io.Reader) (*big.Int, error) {
	if rng == nil {
		rng = rand.Reader
	}
	v, err := rand.Int(rng, f.q)
	if err != nil {
		return nil, fmt.Errorf("shamir: sampling field element: %w", err)
	}
	return v, nil
}

// Add returns a+b mod q.
func (f *Field) Add(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Add(a, b), f.q)
}

// Sub returns a-b mod q.
func (f *Field) Sub(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Sub(a, b), f.q)
}

// Mul returns a*b mod q.
func (f *Field) Mul(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Mul(a, b), f.q)
}

// Neg returns -a mod q.
func (f *Field) Neg(a *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Neg(a), f.q)
}

// Inv returns a^-1 mod q, or an error for a = 0 mod q.
func (f *Field) Inv(a *big.Int) (*big.Int, error) {
	r := f.Reduce(a)
	if r.Sign() == 0 {
		return nil, errors.New("shamir: inverse of zero")
	}
	return new(big.Int).ModInverse(r, f.q), nil
}

// Polynomial is a polynomial over the field with coefficients
// coeffs[0] + coeffs[1] X + ... + coeffs[t] X^t. coeffs[0] is the shared
// secret.
type Polynomial struct {
	field  *Field
	coeffs []*big.Int
}

// NewPolynomial samples a uniformly random polynomial of the given degree
// with the prescribed constant term (the secret). If secret is nil, the
// constant term is random too.
func (f *Field) NewPolynomial(degree int, secret *big.Int, rng io.Reader) (*Polynomial, error) {
	if degree < 0 {
		return nil, errors.New("shamir: negative degree")
	}
	coeffs := make([]*big.Int, degree+1)
	for i := range coeffs {
		c, err := f.Rand(rng)
		if err != nil {
			return nil, err
		}
		coeffs[i] = c
	}
	if secret != nil {
		coeffs[0] = f.Reduce(secret)
	}
	return &Polynomial{field: f, coeffs: coeffs}, nil
}

// PolynomialFromCoeffs builds a polynomial from explicit coefficients
// (reduced mod q; the slice is copied).
func (f *Field) PolynomialFromCoeffs(coeffs []*big.Int) (*Polynomial, error) {
	if len(coeffs) == 0 {
		return nil, errors.New("shamir: empty coefficient list")
	}
	cp := make([]*big.Int, len(coeffs))
	for i, c := range coeffs {
		cp[i] = f.Reduce(c)
	}
	return &Polynomial{field: f, coeffs: cp}, nil
}

// Secret returns a copy of the constant term f(0).
func (p *Polynomial) Secret() *big.Int { return new(big.Int).Set(p.coeffs[0]) }

// Coeff returns a copy of the coefficient of X^i.
func (p *Polynomial) Coeff(i int) *big.Int { return new(big.Int).Set(p.coeffs[i]) }

// Eval evaluates the polynomial at x by Horner's rule.
func (p *Polynomial) Eval(x *big.Int) *big.Int {
	acc := new(big.Int)
	for i := len(p.coeffs) - 1; i >= 0; i-- {
		acc.Mul(acc, x)
		acc.Add(acc, p.coeffs[i])
		acc.Mod(acc, p.field.q)
	}
	return acc
}

// EvalAt evaluates at the 1-based player index i.
func (p *Polynomial) EvalAt(i int) *big.Int { return p.Eval(big.NewInt(int64(i))) }

// Add returns p + q (same field, degrees may differ).
func (p *Polynomial) Add(q *Polynomial) *Polynomial {
	n := len(p.coeffs)
	if len(q.coeffs) > n {
		n = len(q.coeffs)
	}
	out := make([]*big.Int, n)
	for i := range out {
		c := new(big.Int)
		if i < len(p.coeffs) {
			c.Add(c, p.coeffs[i])
		}
		if i < len(q.coeffs) {
			c.Add(c, q.coeffs[i])
		}
		out[i] = c.Mod(c, p.field.q)
	}
	return &Polynomial{field: p.field, coeffs: out}
}

// Share is one point (X, Y) of a sharing: player X holds Y = f(X).
type Share struct {
	X int
	Y *big.Int
}

// Shares evaluates the polynomial at 1..n.
func (p *Polynomial) Shares(n int) []Share {
	out := make([]Share, n)
	for i := 1; i <= n; i++ {
		out[i-1] = Share{X: i, Y: p.EvalAt(i)}
	}
	return out
}

// LagrangeCoefficients returns the coefficients Delta_{i,S}(at) for the
// index set S = {share indices}, such that
//
//	f(at) = sum_{i in S} Delta_{i,S}(at) * f(i).
//
// The index set must contain distinct non-zero indices.
func (f *Field) LagrangeCoefficients(indices []int, at *big.Int) (map[int]*big.Int, error) {
	if len(indices) == 0 {
		return nil, errors.New("shamir: empty index set")
	}
	seen := make(map[int]bool, len(indices))
	for _, i := range indices {
		if i == 0 {
			return nil, errors.New("shamir: index 0 is the secret position")
		}
		if seen[i] {
			return nil, fmt.Errorf("shamir: duplicate index %d", i)
		}
		seen[i] = true
	}
	out := make(map[int]*big.Int, len(indices))
	for _, i := range indices {
		num := big.NewInt(1)
		den := big.NewInt(1)
		xi := big.NewInt(int64(i))
		for _, j := range indices {
			if j == i {
				continue
			}
			xj := big.NewInt(int64(j))
			// num *= (at - xj); den *= (xi - xj)
			num.Mul(num, new(big.Int).Sub(at, xj))
			num.Mod(num, f.q)
			den.Mul(den, new(big.Int).Sub(xi, xj))
			den.Mod(den, f.q)
		}
		dinv, err := f.Inv(den)
		if err != nil {
			return nil, err
		}
		out[i] = f.Mul(num, dinv)
	}
	return out, nil
}

// LagrangeAtZero returns Delta_{i,S}(0), the coefficients used by Combine.
func (f *Field) LagrangeAtZero(indices []int) (map[int]*big.Int, error) {
	return f.LagrangeCoefficients(indices, new(big.Int))
}

// Interpolate reconstructs f(at) from the given shares. At least degree+1
// shares determine a degree-t polynomial; the function interpolates
// whatever it is given, so callers choose the subset.
func (f *Field) Interpolate(shares []Share, at *big.Int) (*big.Int, error) {
	indices := make([]int, len(shares))
	byIndex := make(map[int]*big.Int, len(shares))
	for k, s := range shares {
		indices[k] = s.X
		byIndex[s.X] = s.Y
	}
	lambda, err := f.LagrangeCoefficients(indices, at)
	if err != nil {
		return nil, err
	}
	acc := new(big.Int)
	for i, l := range lambda {
		acc.Add(acc, new(big.Int).Mul(l, byIndex[i]))
		acc.Mod(acc, f.q)
	}
	return acc, nil
}
