// Package boldyreva implements Boldyreva's threshold BLS signature
// (PKC 2003), the scheme the paper's Section 3 construction is an
// adaptively-secure variant of. It serves as the static-security baseline:
//
//   - key generation requires a TRUSTED DEALER (or a DKG analysed only
//     against static adversaries),
//   - security holds only for statically chosen corruption sets,
//
// but signatures are a single G1 element (256 bits compressed) and the
// signing flow is non-interactive, which is what the paper's scheme
// matches while adding full distribution and adaptive security.
//
//	sk = x in Z_r shared as x_i = f(i);  pk = g^^x;  vk_i = g^^{x_i}
//	Share-Sign:  sigma_i = H(M)^{x_i}
//	Share-Verify: e(sigma_i, g^) == e(H(M), vk_i)
//	Combine:     sigma = prod sigma_i^{Delta_i}
//	Verify:      e(sigma, g^) == e(H(M), pk)
package boldyreva

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"

	"repro/internal/bn254"
	"repro/internal/shamir"
)

// Params fixes the hash domain and the G2 generator.
type Params struct {
	hashDomain string
	Gen        *bn254.G2
}

// NewParams derives parameters from a domain label.
func NewParams(domain string) *Params {
	return &Params{hashDomain: domain + "/H", Gen: bn254.G2Generator()}
}

// HashMessage is the BLS full-domain hash H: {0,1}* -> G.
func (p *Params) HashMessage(msg []byte) *bn254.G1 {
	return bn254.HashToG1(p.hashDomain, msg)
}

// PublicKey is pk = g^^x.
type PublicKey struct {
	Params *Params
	PK     *bn254.G2
}

// KeyShare is one server's share x_i plus its verification key.
type KeyShare struct {
	Index int
	X     *big.Int
	VK    *bn254.G2
}

// SizeBytes is the private share storage: one 32-byte scalar.
func (s *KeyShare) SizeBytes() int { return 32 }

// Deal generates a key with a trusted dealer: the secret x is sampled
// centrally and Shamir-shared. (This is exactly what the paper's scheme
// removes.)
func Deal(params *Params, n, t int, rng io.Reader) (*PublicKey, []*KeyShare, error) {
	if n < t+1 {
		return nil, nil, errors.New("boldyreva: need n >= t+1")
	}
	fld, err := shamir.NewField(bn254.Order)
	if err != nil {
		return nil, nil, err
	}
	poly, err := fld.NewPolynomial(t, nil, rng)
	if err != nil {
		return nil, nil, fmt.Errorf("boldyreva: dealing: %w", err)
	}
	// The secret and every share are raised on the constant-time comb:
	// one table for the whole deal.
	gen := bn254.NewFixedBaseG2(params.Gen)
	pk := &PublicKey{Params: params, PK: gen.ScalarMult(poly.Secret())}
	shares := make([]*KeyShare, n+1)
	for i := 1; i <= n; i++ {
		xi := poly.EvalAt(i)
		shares[i] = &KeyShare{
			Index: i,
			X:     xi,
			VK:    gen.ScalarMult(xi),
		}
	}
	return pk, shares, nil
}

// PartialSignature is sigma_i = H(M)^{x_i}.
type PartialSignature struct {
	Index int
	S     *bn254.G1
}

// Signature is a single G1 element (256 bits compressed).
type Signature struct {
	S *bn254.G1
}

// Marshal returns the 32-byte compressed encoding.
func (s *Signature) Marshal() []byte { return s.S.MarshalCompressed() }

// Unmarshal decodes a compressed signature.
func (s *Signature) Unmarshal(data []byte) error {
	s.S = new(bn254.G1)
	if err := s.S.UnmarshalCompressed(data); err != nil {
		return fmt.Errorf("boldyreva: %w", err)
	}
	return nil
}

// ShareSign computes sigma_i = H(M)^{x_i}: one hash-on-curve and one
// exponentiation, on the regular ladder because x_i is secret.
func ShareSign(params *Params, share *KeyShare, msg []byte) *PartialSignature {
	h := params.HashMessage(msg)
	s, err := bn254.MultiScalarMultSharedG1([]*bn254.G1{h}, []*big.Int{share.X})
	if err != nil {
		panic(err) // x_i is nil: a malformed share
	}
	return &PartialSignature{Index: share.Index, S: s[0]}
}

// ShareVerify checks e(sigma_i, g^) == e(H(M), vk_i), i.e.
// e(sigma_i, g^) * e(-H(M), vk_i) == 1.
func ShareVerify(params *Params, vk *bn254.G2, msg []byte, ps *PartialSignature) bool {
	if ps == nil || ps.S == nil || vk == nil {
		return false
	}
	h := params.HashMessage(msg)
	return bn254.PairingCheck(
		[]*bn254.G1{ps.S, new(bn254.G1).Neg(h)},
		[]*bn254.G2{params.Gen, vk},
	)
}

// Combine interpolates t+1 valid shares.
func Combine(pk *PublicKey, vks []*bn254.G2, msg []byte, parts []*PartialSignature, t int) (*Signature, error) {
	valid := make(map[int]*PartialSignature)
	for _, ps := range parts {
		if ps == nil || ps.Index < 1 || ps.Index >= len(vks) {
			continue
		}
		if _, dup := valid[ps.Index]; dup {
			continue
		}
		if ShareVerify(pk.Params, vks[ps.Index], msg, ps) {
			valid[ps.Index] = ps
		}
	}
	if len(valid) < t+1 {
		return nil, fmt.Errorf("boldyreva: only %d valid shares, need %d", len(valid), t+1)
	}
	indices := make([]int, 0, len(valid))
	for i := range valid {
		indices = append(indices, i)
	}
	sort.Ints(indices)
	indices = indices[:t+1]
	fld, err := shamir.NewField(bn254.Order)
	if err != nil {
		return nil, err
	}
	lambda, err := fld.LagrangeAtZero(indices)
	if err != nil {
		return nil, err
	}
	acc := new(bn254.G1)
	var term bn254.G1
	for _, i := range indices {
		term.ScalarMult(valid[i].S, lambda[i])
		acc.Add(acc, &term)
	}
	return &Signature{S: acc}, nil
}

// Verify checks e(sigma, g^) == e(H(M), pk).
func Verify(pk *PublicKey, msg []byte, sig *Signature) bool {
	if sig == nil || sig.S == nil {
		return false
	}
	h := pk.Params.HashMessage(msg)
	return bn254.PairingCheck(
		[]*bn254.G1{sig.S, new(bn254.G1).Neg(h)},
		[]*bn254.G2{pk.Params.Gen, pk.PK},
	)
}
