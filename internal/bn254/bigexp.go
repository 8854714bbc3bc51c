package bn254

import "math/big"

// Exponentiations whose exponent arrives as a *big.Int: the constants
// derived at init, GT.Exp, and the reference paths the tests compare the
// optimized ones against. The tower files themselves stay free of
// math/big.

// Exp sets z = x^e for a non-negative exponent e by square-and-multiply.
func (z *fp2) Exp(x *fp2, e *big.Int) *fp2 {
	var acc fp2
	acc.SetOne()
	var base fp2
	base.Set(x)
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc.Square(&acc)
		if e.Bit(i) == 1 {
			acc.Mul(&acc, &base)
		}
	}
	return z.Set(&acc)
}

// Exp sets z = x^e for a non-negative exponent e.
func (z *fp12) Exp(x *fp12, e *big.Int) *fp12 {
	var acc fp12
	acc.SetOne()
	var base fp12
	base.Set(x)
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc.Square(&acc)
		if e.Bit(i) == 1 {
			acc.Mul(&acc, &base)
		}
	}
	return z.Set(&acc)
}

// nafDigits returns the non-adjacent form of a non-negative exponent,
// least significant digit first: e = sum d_i 2^i with d_i in {-1, 0, 1}
// and no two adjacent digits nonzero. NAF has the minimum weight of any
// signed-digit form (~1/3 of the length versus ~1/2 of the bits set), so
// exponentiations whose inversion is cheap — conjugation in the
// cyclotomic subgroup, negation on the twist — save a third of their
// multiplications.
func nafDigits(e *big.Int) []int8 {
	n := new(big.Int).Set(e)
	one := big.NewInt(1)
	digits := make([]int8, 0, e.BitLen()+1)
	for n.Sign() > 0 {
		if n.Bit(0) == 0 {
			digits = append(digits, 0)
		} else if n.Bit(1) == 0 {
			// n = 1 mod 4: take +1.
			digits = append(digits, 1)
			n.Sub(n, one)
		} else {
			// n = 3 mod 4: take -1 and carry.
			digits = append(digits, -1)
			n.Add(n, one)
		}
		n.Rsh(n, 1)
	}
	return digits
}

// cyclotomicExp sets z = x^e for x in the cyclotomic subgroup and a
// non-negative exponent e.
func (z *fp12) cyclotomicExp(x *fp12, e *big.Int) *fp12 {
	return z.cyclotomicExpNAF(x, nafDigits(e))
}
