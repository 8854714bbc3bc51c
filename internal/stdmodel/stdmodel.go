// Package stdmodel implements the paper's Section 4 construction: a
// round-optimal, non-interactive, adaptively secure threshold signature in
// the STANDARD MODEL (no random oracles). A signature is a Groth-Sahai
// NIWI proof of knowledge of a one-time linearly homomorphic signature
// (z, r) = (g^{-A(0)}, g^{-B(0)}) on the fixed one-dimensional vector g,
// generated under a message-indexed CRS (f, f_M) with
//
//	f_M = f_0 * prod_{i=1}^{L} f_i^{M[i]}
//
// (the Malkin et al. bit-selection technique). Player i's partial
// signature commits to (z_i, r_i) = (g^{-A(i)}, g^{-B(i)}) and proves
//
//	1 = e(z_i, g^_z) e(r_i, g^_r) e(g, V^_i).
//
// Combine performs Lagrange interpolation in the exponent over the
// commitments and proofs — linear pairing-product equations and their
// proofs combine linearly — and re-randomizes the result, which is then a
// fresh-looking proof for the public-key statement
//
//	1 = e(z, g^_z) e(r, g^_r) e(g, g^_1).
//
// A signature is (Cz, Cr, pi^_1, pi^_2) in G^4 x G^^2: 2048 bits on BN254
// with compressed encodings, matching the paper's Section 4 figure.
//
// Dist-Keygen is Pedersen's DKG with a single (a, b) sharing (package
// dkg); the common parameters (f, {f_i}) are hash-derived and can be
// shared by many public keys, as the paper notes.
package stdmodel

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"

	"repro/internal/bn254"
	"repro/internal/dkg"
	"repro/internal/gs"
	"repro/internal/lhsps"
	"repro/internal/shamir"
)

// L is the bit length of signable messages. Arbitrary-length messages are
// first compressed with SHA-256 (a collision-resistant hash keeps the
// standard-model guarantee; no random oracle is invoked).
const L = 256

// Params are the common public parameters: generators g^_z, g^_r in G^,
// g in G, and the CRS vectors f, f_0..f_L in G^2. All are derived by
// hashing so that nobody knows their discrete logarithms; a fresh uniform
// params set can be shared by many public keys.
type Params struct {
	LH *lhsps.Params // g^_z, g^_r
	G  *bn254.G1     // the fixed vector g being signed
	F  *gs.Vec2      // f
	FI []*gs.Vec2    // f_0 .. f_L
}

// NewParams derives parameters from a domain label.
func NewParams(domain string) *Params {
	fi := make([]*gs.Vec2, L+1)
	for i := range fi {
		fi[i] = &gs.Vec2{
			A: bn254.HashToG1(fmt.Sprintf("%s/f%d/a", domain, i), nil),
			B: bn254.HashToG1(fmt.Sprintf("%s/f%d/b", domain, i), nil),
		}
	}
	return &Params{
		LH: lhsps.NewParams(domain + "/gen"),
		G:  bn254.HashToG1(domain+"/g", nil),
		F: &gs.Vec2{
			A: bn254.HashToG1(domain+"/f/a", nil),
			B: bn254.HashToG1(domain+"/f/b", nil),
		},
		FI: fi,
	}
}

// digest compresses an arbitrary message to its L-bit representative.
func digest(msg []byte) [32]byte { return sha256.Sum256(msg) }

// bit returns bit i (0-based, MSB-first) of the digest.
func bit(d [32]byte, i int) bool { return d[i/8]&(0x80>>uint(i%8)) != 0 }

// CRSFor assembles the message-indexed Groth-Sahai CRS (f, f_M).
func (p *Params) CRSFor(msg []byte) *gs.CRS {
	d := digest(msg)
	fm := new(gs.Vec2).Set(p.FI[0])
	for i := 1; i <= L; i++ {
		if bit(d, i-1) {
			fm.Mul(fm, p.FI[i])
		}
	}
	return &gs.CRS{U1: p.F, U2: fm}
}

// PublicKey is PK = g^_1.
type PublicKey struct {
	Params *Params
	G1     *bn254.G2
}

// Equal reports whether the keys match.
func (pk *PublicKey) Equal(o *PublicKey) bool { return pk.G1.Equal(o.G1) }

// PrivateKeyShare is SK_i = (A(i), B(i)) — two scalars. (The paper notes
// a player may precompute (g^{-A(i)}, g^{-B(i)}), but stores the exponents
// to emphasize that no erasures are needed.)
type PrivateKeyShare struct {
	Index int
	A, B  *big.Int
}

// SizeBytes is the storage footprint: two 32-byte scalars.
func (sk *PrivateKeyShare) SizeBytes() int { return 2 * 32 }

// VerificationKey is VK_i = g^_z^{A(i)} g^_r^{B(i)}.
type VerificationKey struct {
	V *bn254.G2
}

// KeyShares bundles one player's view after Dist-Keygen.
type KeyShares struct {
	PK    *PublicKey
	Share *PrivateKeyShare
	VKs   []*VerificationKey // 1-based
}

// FromDKGResult converts a single-sharing DKG result.
func FromDKGResult(params *Params, res *dkg.Result) (*KeyShares, error) {
	if res.Config.NumSharings != 1 {
		return nil, fmt.Errorf("stdmodel: DKG ran %d sharings, need 1", res.Config.NumSharings)
	}
	pk := &PublicKey{Params: params, G1: res.PK[0][0]}
	share := &PrivateKeyShare{Index: res.Self, A: res.Share[0][0], B: res.Share[0][1]}
	vks := make([]*VerificationKey, res.Config.N+1)
	for i := 1; i <= res.Config.N; i++ {
		vks[i] = &VerificationKey{V: res.VerificationKey(i)[0][0]}
	}
	return &KeyShares{PK: pk, Share: share, VKs: vks}, nil
}

// DistKeygen runs Dist-Keygen among n honest players.
func DistKeygen(params *Params, n, t int) ([]*KeyShares, error) {
	cfg := dkg.Config{N: n, T: t, NumSharings: 1, Scheme: dkg.PedersenScheme{Params: params.LH}}
	out, err := dkg.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("stdmodel: Dist-Keygen: %w", err)
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

// Signature is sigma = (Cz, Cr, pi^) in G^4 x G^^2 (2048 bits compressed).
// Partial signatures have the same shape.
type Signature struct {
	Cz, Cr *gs.Commitment
	Proof  *gs.Proof
}

// SizeBytes returns the compressed encoding size: 4 G1 + 2 G2 points.
func (s *Signature) SizeBytes() int {
	return 4*bn254.G1SizeCompressed + 2*bn254.G2SizeCompressed
}

// Marshal returns the 256-byte compressed encoding.
func (s *Signature) Marshal() []byte {
	out := make([]byte, 0, s.SizeBytes())
	out = append(out, s.Cz.Marshal()...)
	out = append(out, s.Cr.Marshal()...)
	out = append(out, s.Proof.Marshal()...)
	return out
}

// Unmarshal decodes the Marshal encoding.
func (s *Signature) Unmarshal(data []byte) error {
	if len(data) != 4*bn254.G1SizeCompressed+2*bn254.G2SizeCompressed {
		return fmt.Errorf("stdmodel: signature length %d", len(data))
	}
	s.Cz = new(gs.Vec2)
	s.Cr = new(gs.Vec2)
	s.Proof = new(gs.Proof)
	off := 2 * bn254.G1SizeCompressed
	if err := s.Cz.Unmarshal(data[:off]); err != nil {
		return fmt.Errorf("stdmodel: Cz: %w", err)
	}
	if err := s.Cr.Unmarshal(data[off : 2*off]); err != nil {
		return fmt.Errorf("stdmodel: Cr: %w", err)
	}
	if err := s.Proof.Unmarshal(data[2*off:]); err != nil {
		return fmt.Errorf("stdmodel: proof: %w", err)
	}
	return nil
}

// PartialSignature is player i's contribution.
type PartialSignature struct {
	Index int
	Sig   *Signature
}

// equationFor builds the pairing-product equation proved by a (partial or
// full) signature: 1 = e(z, g^_z) e(r, g^_r) e(g, vhat).
func equationFor(params *Params, vhat *bn254.G2) *gs.Equation {
	return &gs.Equation{
		A:    []*bn254.G2{params.LH.Gz, params.LH.Gr},
		T:    params.G,
		THat: vhat,
	}
}

// ShareSign produces player i's partial signature on msg: two Groth-Sahai
// commitments and a two-element NIWI proof under the message-indexed CRS.
func ShareSign(params *Params, sk *PrivateKeyShare, msg []byte, rng io.Reader) (*PartialSignature, error) {
	crs := params.CRSFor(msg)
	// (z_i, r_i) = (-A g, -B g): both secret scalars on one table over g,
	// on the regular ladder.
	zr, err := bn254.MultiScalarMultSharedG1([]*bn254.G1{params.G}, []*big.Int{sk.A}, []*big.Int{sk.B})
	if err != nil {
		return nil, fmt.Errorf("stdmodel: Share-Sign: %w", err)
	}
	zi, ri := zr[0].Neg(zr[0]), zr[1].Neg(zr[1])

	nuZ, err := gs.SampleRandomness(rng)
	if err != nil {
		return nil, fmt.Errorf("stdmodel: Share-Sign: %w", err)
	}
	nuR, err := gs.SampleRandomness(rng)
	if err != nil {
		return nil, fmt.Errorf("stdmodel: Share-Sign: %w", err)
	}
	cz := crs.Commit(zi, nuZ)
	cr := crs.Commit(ri, nuR)
	// The equation's constant term references VK_i, but the proof only
	// needs the commitment randomness (linear equation).
	vki := lhsps.CommitPair(params.LH, sk.A, sk.B)
	proof, err := gs.Prove(equationFor(params, vki), []*gs.Randomness{nuZ, nuR})
	if err != nil {
		return nil, fmt.Errorf("stdmodel: Share-Sign: %w", err)
	}
	return &PartialSignature{
		Index: sk.Index,
		Sig:   &Signature{Cz: cz, Cr: cr, Proof: proof},
	}, nil
}

// ShareVerify checks a partial signature against VK_i.
func ShareVerify(pk *PublicKey, vk *VerificationKey, msg []byte, ps *PartialSignature) bool {
	if ps == nil || ps.Sig == nil || ps.Sig.Cz == nil || ps.Sig.Cr == nil || vk == nil {
		return false
	}
	crs := pk.Params.CRSFor(msg)
	eq := equationFor(pk.Params, vk.V)
	return crs.Verify(eq, []*gs.Commitment{ps.Sig.Cz, ps.Sig.Cr}, ps.Sig.Proof)
}

// Combine interpolates t+1 valid partial signatures in the exponent and
// re-randomizes the result, yielding a full signature distributed like a
// freshly generated one.
func Combine(pk *PublicKey, vks []*VerificationKey, msg []byte, parts []*PartialSignature, t int, rng io.Reader) (*Signature, error) {
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
		return nil, fmt.Errorf("stdmodel: only %d valid partial signatures, need %d", len(valid), t+1)
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
	weights := make([]*big.Int, 0, t+1)
	commSets := make([][]*gs.Commitment, 0, t+1)
	proofs := make([]*gs.Proof, 0, t+1)
	for _, i := range indices {
		weights = append(weights, lambda[i])
		commSets = append(commSets, []*gs.Commitment{valid[i].Sig.Cz, valid[i].Sig.Cr})
		proofs = append(proofs, valid[i].Sig.Proof)
	}
	comms, proof, err := gs.LinearCombine(weights, commSets, proofs)
	if err != nil {
		return nil, fmt.Errorf("stdmodel: Combine: %w", err)
	}
	// Re-randomize so the output is distributed as a fresh signature.
	crs := pk.Params.CRSFor(msg)
	eq := equationFor(pk.Params, pk.G1)
	comms, proof, err = crs.Randomize(eq, comms, proof, rng)
	if err != nil {
		return nil, fmt.Errorf("stdmodel: re-randomization: %w", err)
	}
	return &Signature{Cz: comms[0], Cr: comms[1], Proof: proof}, nil
}

// Verify checks a full signature against PK = g^_1.
func Verify(pk *PublicKey, msg []byte, sig *Signature) bool {
	if sig == nil || sig.Cz == nil || sig.Cr == nil || sig.Proof == nil {
		return false
	}
	crs := pk.Params.CRSFor(msg)
	eq := equationFor(pk.Params, pk.G1)
	return crs.Verify(eq, []*gs.Commitment{sig.Cz, sig.Cr}, sig.Proof)
}

// ErrNotEnoughShares mirrors the core package sentinel.
var ErrNotEnoughShares = errors.New("stdmodel: not enough signature shares")
