// Package dlin implements the Appendix F variant of the paper's threshold
// signature, whose adaptive security rests on the Decision Linear (DLIN)
// assumption — believed strictly weaker than SXDH — and which stays secure
// even in groups with efficiently computable isomorphisms between G and G^.
//
// The construction parallels Section 3 with triples instead of pairs:
// public parameters carry four generators g^_z, g^_r, h^_z, h^_u in G^
// (hash-derived), each player shares three random triples
// {(a_ik0, b_ik0, c_ik0)}^3_{k=1} with the dual commitment
//
//	V^_ikl = g^_z^{a} g^_r^{b},   W^_ikl = h^_z^{a} h^_u^{c},
//
// messages are hashed to (H_1, H_2, H_3) in G^3, and a partial signature
// is the triple
//
//	(z_i, r_i, u_i) = (prod_k H_k^{-A_k(i)}, prod_k H_k^{-B_k(i)}, prod_k H_k^{-C_k(i)}),
//
// verified by TWO pairing-product equations (one per commitment row).
// Signatures are three G1 elements: 768 bits compressed.
package dlin

import (
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"

	"repro/internal/bn254"
	"repro/internal/dkg"
	"repro/internal/shamir"
)

// Dim is the hash-vector dimension (and the number of parallel sharings).
const Dim = 3

// Params are the common parameters: the four G^ generators and the domain
// of H: {0,1}* -> G^3.
type Params struct {
	Gz, Gr, Hz, Hu *bn254.G2
	// hash holds the framed per-coordinate domains of H, so hashing a
	// message frames no domain string.
	hash [Dim]bn254.HashDomain

	schemeOnce   sync.Once
	cachedScheme dkg.DLINScheme
}

// NewParams derives all four generators from a random-oracle-style hash,
// as the paper prescribes ("g^_r, h^_z, h^_u can be derived from a random
// oracle ... while still making sure that no party knows their discrete
// logarithms").
func NewParams(domain string) *Params {
	p := &Params{
		Gz: bn254.HashToG2(domain+"/gz", nil),
		Gr: bn254.HashToG2(domain+"/gr", nil),
		Hz: bn254.HashToG2(domain+"/hz", nil),
		Hu: bn254.HashToG2(domain+"/hu", nil),
	}
	copy(p.hash[:], bn254.HashVectorDomains(domain+"/H", Dim))
	return p
}

// scheme returns the dual-commitment VSS for these parameters, sharing
// one fixed-base precomputation across the Params lifetime.
func (p *Params) scheme() dkg.DLINScheme {
	p.schemeOnce.Do(func() {
		p.cachedScheme = dkg.NewDLINScheme(p.Gz, p.Gr, p.Hz, p.Hu)
	})
	return p.cachedScheme
}

// HashMessage computes (H_1, H_2, H_3) = H(M). It allocates only its
// result: the three points and the slice that points at them.
func (p *Params) HashMessage(msg []byte) []*bn254.G1 {
	pts := make([]bn254.G1, Dim)
	out := make([]*bn254.G1, Dim)
	for k := range out {
		p.hash[k].Hash(&pts[k], msg)
		out[k] = &pts[k]
	}
	return out
}

// PublicKey is PK = {g^_k, h^_k}^3_{k=1}.
type PublicKey struct {
	Params *Params
	Gk     [Dim]*bn254.G2 // g^_k = g^_z^{a_k0} g^_r^{b_k0}
	Hk     [Dim]*bn254.G2 // h^_k = h^_z^{a_k0} h^_u^{c_k0}
}

// Equal reports component-wise equality.
func (pk *PublicKey) Equal(o *PublicKey) bool {
	for k := 0; k < Dim; k++ {
		if !pk.Gk[k].Equal(o.Gk[k]) || !pk.Hk[k].Equal(o.Hk[k]) {
			return false
		}
	}
	return true
}

// PrivateKeyShare is SK_i = {(A_k(i), B_k(i), C_k(i))}^3_{k=1}: nine
// scalars, still O(1) in n.
type PrivateKeyShare struct {
	Index   int
	A, B, C [Dim]*big.Int
}

// SizeBytes is the storage footprint: nine 32-byte scalars.
func (sk *PrivateKeyShare) SizeBytes() int { return 9 * 32 }

// VerificationKey is VK_i = ({U^_k,i}, {Z^_k,i}).
type VerificationKey struct {
	U [Dim]*bn254.G2
	Z [Dim]*bn254.G2
}

// KeyShares bundles one player's view after Dist-Keygen.
type KeyShares struct {
	PK    *PublicKey
	Share *PrivateKeyShare
	VKs   []*VerificationKey // 1-based
}

// FromDKGResult converts a three-sharing dual-commitment DKG result.
func FromDKGResult(params *Params, res *dkg.Result) (*KeyShares, error) {
	if res.Config.NumSharings != Dim {
		return nil, fmt.Errorf("dlin: DKG ran %d sharings, need %d", res.Config.NumSharings, Dim)
	}
	if res.Config.Scheme.CommitDim() != 2 || res.Config.Scheme.SecretDim() != 3 {
		return nil, errors.New("dlin: DKG did not use the dual-commitment triple scheme")
	}
	pk := &PublicKey{Params: params}
	share := &PrivateKeyShare{Index: res.Self}
	for k := 0; k < Dim; k++ {
		pk.Gk[k] = res.PK[k][0]
		pk.Hk[k] = res.PK[k][1]
		share.A[k] = res.Share[k][0]
		share.B[k] = res.Share[k][1]
		share.C[k] = res.Share[k][2]
	}
	vks := make([]*VerificationKey, res.Config.N+1)
	for i := 1; i <= res.Config.N; i++ {
		rows := res.VerificationKey(i)
		vk := &VerificationKey{}
		for k := 0; k < Dim; k++ {
			vk.U[k] = rows[k][0]
			vk.Z[k] = rows[k][1]
		}
		vks[i] = vk
	}
	return &KeyShares{PK: pk, Share: share, VKs: vks}, nil
}

// DistKeygen runs the Appendix F Dist-Keygen among n honest players.
func DistKeygen(params *Params, n, t int) ([]*KeyShares, error) {
	cfg := dkg.Config{N: n, T: t, NumSharings: Dim, Scheme: params.scheme()}
	out, err := dkg.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("dlin: Dist-Keygen: %w", err)
	}
	views := make([]*KeyShares, n+1)
	for i := 1; i <= n; i++ {
		views[i], err = FromDKGResult(params, out.Results[i])
		if err != nil {
			return nil, err
		}
	}
	return views, nil
}

// Signature is (z, r, u) in G^3 — 768 bits compressed.
type Signature struct {
	Z, R, U *bn254.G1
}

// Marshal returns the 96-byte compressed encoding.
func (s *Signature) Marshal() []byte {
	out := make([]byte, 0, 3*bn254.G1SizeCompressed)
	out = append(out, s.Z.MarshalCompressed()...)
	out = append(out, s.R.MarshalCompressed()...)
	out = append(out, s.U.MarshalCompressed()...)
	return out
}

// Unmarshal decodes the Marshal encoding.
func (s *Signature) Unmarshal(data []byte) error {
	if len(data) != 3*bn254.G1SizeCompressed {
		return fmt.Errorf("dlin: signature length %d", len(data))
	}
	s.Z, s.R, s.U = new(bn254.G1), new(bn254.G1), new(bn254.G1)
	if err := s.Z.UnmarshalCompressed(data[:32]); err != nil {
		return fmt.Errorf("dlin: z: %w", err)
	}
	if err := s.R.UnmarshalCompressed(data[32:64]); err != nil {
		return fmt.Errorf("dlin: r: %w", err)
	}
	if err := s.U.UnmarshalCompressed(data[64:]); err != nil {
		return fmt.Errorf("dlin: u: %w", err)
	}
	return nil
}

// PartialSignature is one server's contribution.
type PartialSignature struct {
	Index   int
	Z, R, U *bn254.G1
}

// ShareSign produces player i's partial signature: three 3-base
// multi-exponentiations plus three hash-on-curve operations.
func ShareSign(params *Params, sk *PrivateKeyShare, msg []byte) (*PartialSignature, error) {
	h := params.HashMessage(msg)
	// (z, r, u) = -(Σ a_k·H_k, Σ b_k·H_k, Σ c_k·H_k): the outputs are
	// negated rather than the key, so no secret scalar is copied.
	zru, err := bn254.MultiScalarMultSharedG1(h, sk.A[:], sk.B[:], sk.C[:])
	if err != nil {
		return nil, err
	}
	for _, p := range zru {
		p.Neg(p)
	}
	return &PartialSignature{Index: sk.Index, Z: zru[0], R: zru[1], U: zru[2]}, nil
}

// verifyTriple checks the two verification equations for a (z, r, u)
// triple against the G^ elements (gk = U row, hk = Z row).
func verifyTriple(params *Params, h []*bn254.G1, z, r, u *bn254.G1, gk, hk [Dim]*bn254.G2) bool {
	g1s := []*bn254.G1{z, r, h[0], h[1], h[2]}
	g2s := []*bn254.G2{params.Gz, params.Gr, gk[0], gk[1], gk[2]}
	if !bn254.PairingCheck(g1s, g2s) {
		return false
	}
	g1s = []*bn254.G1{z, u, h[0], h[1], h[2]}
	g2s = []*bn254.G2{params.Hz, params.Hu, hk[0], hk[1], hk[2]}
	return bn254.PairingCheck(g1s, g2s)
}

// ShareVerify checks a partial signature against VK_i.
func ShareVerify(pk *PublicKey, vk *VerificationKey, msg []byte, ps *PartialSignature) bool {
	if ps == nil || ps.Z == nil || ps.R == nil || ps.U == nil || vk == nil {
		return false
	}
	h := pk.Params.HashMessage(msg)
	return verifyTriple(pk.Params, h, ps.Z, ps.R, ps.U, vk.U, vk.Z)
}

// Combine interpolates t+1 valid shares in the exponent.
func Combine(pk *PublicKey, vks []*VerificationKey, msg []byte, parts []*PartialSignature, t int) (*Signature, error) {
	valid := make(map[int]*PartialSignature)
	for _, ps := range parts {
		if ps == nil || ps.Index < 1 || ps.Index >= len(vks) {
			continue
		}
		if _, dup := valid[ps.Index]; dup {
			continue
		}
		if ShareVerify(pk, vks[ps.Index], msg, ps) {
			valid[ps.Index] = ps
		}
	}
	if len(valid) < t+1 {
		return nil, fmt.Errorf("dlin: only %d valid partial signatures, need %d", len(valid), t+1)
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
	z, r, u := new(bn254.G1), new(bn254.G1), new(bn254.G1)
	var term bn254.G1
	for _, i := range indices {
		term.ScalarMult(valid[i].Z, lambda[i])
		z.Add(z, &term)
		term.ScalarMult(valid[i].R, lambda[i])
		r.Add(r, &term)
		term.ScalarMult(valid[i].U, lambda[i])
		u.Add(u, &term)
	}
	return &Signature{Z: z, R: r, U: u}, nil
}

// Verify checks a full signature: two products of five pairings.
func Verify(pk *PublicKey, msg []byte, sig *Signature) bool {
	if sig == nil || sig.Z == nil || sig.R == nil || sig.U == nil {
		return false
	}
	h := pk.Params.HashMessage(msg)
	return verifyTriple(pk.Params, h, sig.Z, sig.R, sig.U, pk.Gk, pk.Hk)
}
