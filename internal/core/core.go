// Package core implements the paper's primary contribution (Section 3): a
// fully distributed, non-interactive, robust, adaptively secure (t, n)
// threshold signature scheme with O(1)-size private key shares, built from
// the one-time linearly homomorphic structure-preserving signature of
// Libert et al. and Pedersen's distributed key generation.
//
// The scheme Sigma = (Dist-Keygen, Share-Sign, Share-Verify, Verify,
// Combine):
//
//   - Dist-Keygen runs Pedersen's DKG (package dkg) with two parallel
//     sharings; the public key is PK = (g^_1, g^_2) with
//     g^_k = g^_z^{a_k0} g^_r^{b_k0}, player i's share is
//     SK_i = {(A_k(i), B_k(i))}, and everybody can compute the
//     verification keys VK_i = (g^_z^{A_k(i)} g^_r^{B_k(i)})_k.
//   - Share-Sign hashes M to (H_1, H_2) in G^2 and outputs the LHSPS
//     partial signature (z_i, r_i) = (prod_k H_k^{-A_k(i)},
//     prod_k H_k^{-B_k(i)}). No interaction with other servers is needed
//     because the LHSPS signing algorithm is deterministic.
//   - Share-Verify checks e(z_i, g^_z) e(r_i, g^_r) prod_k e(H_k, V^_k,i) = 1.
//   - Combine performs Lagrange interpolation in the exponent over any
//     t+1 valid shares.
//   - Verify checks e(z, g^_z) e(r, g^_r) e(H_1, g^_1) e(H_2, g^_2) = 1 —
//     a product of four pairings, evaluated as one multi-pairing.
//
// Signatures are two G1 elements: 512 bits on BN254 with compressed
// encodings, matching the paper's Section 3.1 figure. Private key shares
// are four Z_p scalars — constant size, independent of n.
//
// Each algorithm has one entry point, on the type that owns the data it
// reads (group.go): DistKeygen, Member.SignShare, Group.ShareVerify,
// Group.Combine and PublicKey.Verify. The cross-signer checks
// BatchShareVerify, FindInvalidShares, CheckShares and CheckSignatures
// take the public key and a list of (message, key, share) entries.
//
// The package also implements the proactive refresh of Section 3.3
// (refresh.go), share recovery (recovery.go) and the aggregation
// extension of Appendix G (aggregate.go).
package core

import (
	"fmt"
	"math/big"
	"sort"
	"sync"

	"repro/internal/bn254"
	"repro/internal/dkg"
	"repro/internal/lhsps"
)

// Dim is the hash-vector dimension of the Section 3 scheme: messages are
// hashed to (H_1, H_2) in G^2.
const Dim = 2

// Params are the common public parameters: asymmetric bilinear groups
// (fixed by package bn254), the generators g^_z, g^_r derived from a
// random oracle, and the domain of H: {0,1}* -> G^2.
type Params struct {
	LH *lhsps.Params
	// hash holds the framed per-coordinate domains of H, so hashing a
	// message builds no string.
	hash [Dim]bn254.HashDomain
}

// paramsCache memoizes NewParams per domain: deriving the generators runs
// two hash-to-G2 operations, and sharing the *Params object also shares
// its lazily built fixed-base tables and pairing precomputations across
// every Group (and every tenant) using the same domain. The cap bounds
// memory against unbounded hostile domain labels.
var paramsCache = struct {
	sync.Mutex
	m map[string]*Params
}{m: make(map[string]*Params)}

const paramsCacheCap = 256

// NewParams derives parameters from a domain-separation label. As in the
// paper, g^_r is obtained from a random-oracle-style hash so that no party
// knows log_{g^_z}(g^_r) and no extra distributed-generation round is
// needed. Results are memoized per domain, so request-path code never
// re-hashes fixed generators.
func NewParams(domain string) *Params {
	paramsCache.Lock()
	if p, ok := paramsCache.m[domain]; ok {
		paramsCache.Unlock()
		return p
	}
	paramsCache.Unlock()

	p := &Params{LH: lhsps.NewParams(domain + "/gen")}
	copy(p.hash[:], bn254.HashVectorDomains(domain+"/H", Dim))

	paramsCache.Lock()
	defer paramsCache.Unlock()
	if prev, ok := paramsCache.m[domain]; ok {
		return prev // lost the race: keep the first object canonical
	}
	if len(paramsCache.m) >= paramsCacheCap {
		for k := range paramsCache.m {
			delete(paramsCache.m, k)
			break
		}
	}
	paramsCache.m[domain] = p
	return p
}

// HashMessage computes (H_1, H_2) = H(M).
func (p *Params) HashMessage(msg []byte) []*bn254.G1 {
	h := new([Dim]bn254.G1)
	p.hashInto(h, msg)
	return []*bn254.G1{&h[0], &h[1]}
}

// hashInto sets h to H(M), allocating nothing.
func (p *Params) hashInto(h *[Dim]bn254.G1, msg []byte) {
	for k := range h {
		p.hash[k].Hash(&h[k], msg)
	}
}

// PublicKey is PK = (g^_1, g^_2).
type PublicKey struct {
	Params *Params
	G1, G2 *bn254.G2 // g^_1, g^_2

	// Cached LHSPS view. The lhsps.PublicKey carries the Miller-loop line
	// precomputations for (g^_1, g^_2), so reusing one object across
	// verifications is what makes Verify run on precomputed lines.
	lhspsOnce sync.Once
	lhspsPK   *lhsps.PublicKey
}

// lhspsKey views the threshold public key as the LHSPS key it is.
func (pk *PublicKey) lhspsKey() *lhsps.PublicKey {
	pk.lhspsOnce.Do(func() {
		pk.lhspsPK = &lhsps.PublicKey{Params: pk.Params.LH, Gk: []*bn254.G2{pk.G1, pk.G2}}
	})
	return pk.lhspsPK
}

// Equal reports whether two public keys have the same group elements.
func (pk *PublicKey) Equal(other *PublicKey) bool {
	return pk.G1.Equal(other.G1) && pk.G2.Equal(other.G2)
}

// Marshal returns the canonical encoding g^_1 || g^_2 (256 bytes).
func (pk *PublicKey) Marshal() []byte {
	out := make([]byte, 0, 2*bn254.G2SizeUncompressed)
	out = append(out, pk.G1.Marshal()...)
	out = append(out, pk.G2.Marshal()...)
	return out
}

// PrivateKeyShare is SK_i = {(A_k(i), B_k(i))}^2_{k=1}: four scalars,
// constant size regardless of n (the paper's "short shares").
type PrivateKeyShare struct {
	Index          int
	A1, B1, A2, B2 *big.Int
}

// sign computes the LHSPS signature of the share's key — the four
// scalars alone, which is all signing reads — on the hashed message h. The
// key is viewed in place: no scalar is copied.
func (sk *PrivateKeyShare) sign(h []*bn254.G1) (*lhsps.Signature, error) {
	chi := [Dim]*big.Int{sk.A1, sk.A2}
	gamma := [Dim]*big.Int{sk.B1, sk.B2}
	key := lhsps.PrivateKey{Chi: chi[:], Gamma: gamma[:]}
	return key.Sign(h)
}

// SizeBytes returns the storage footprint of the share: 4 scalars of 32
// bytes. This is what experiment E4 measures against the O(n) baselines.
func (sk *PrivateKeyShare) SizeBytes() int { return 4 * 32 }

// VerificationKey is VK_i = (V^_1,i, V^_2,i).
type VerificationKey struct {
	V1, V2 *bn254.G2

	// Cached LHSPS view (which in turn caches the Miller-loop lines for
	// V^_1 and V^_2). Keys are rebuilt by refresh/rotation as NEW
	// VerificationKey objects, so an epoch change structurally invalidates
	// the cache — see Group.Precompute.
	lhspsOnce sync.Once
	lhspsPK   *lhsps.PublicKey
}

// lhspsKey views the verification key as the LHSPS key it is, caching the
// object (and its pairing precompute) on first use. The cache is keyed by
// the params of the first call; the cold path for a different *Params
// returns an uncached key, which cannot happen for group-resident keys
// because NewParams memoizes per domain.
func (vk *VerificationKey) lhspsKey(params *Params) *lhsps.PublicKey {
	vk.lhspsOnce.Do(func() {
		vk.lhspsPK = &lhsps.PublicKey{Params: params.LH, Gk: []*bn254.G2{vk.V1, vk.V2}}
	})
	if vk.lhspsPK.Params != params.LH {
		return &lhsps.PublicKey{Params: params.LH, Gk: []*bn254.G2{vk.V1, vk.V2}}
	}
	return vk.lhspsPK
}

// VerificationKeyOf computes the verification key a private share
// implies: VK_i = (g^_z^{A_1} g^_r^{B_1}, g^_z^{A_2} g^_r^{B_2}). A share
// genuinely belongs to a group exactly when this equals the group's
// VK_i — the binding check the keystore loader uses to reject torn or
// mixed-up share/group file pairs.
func VerificationKeyOf(params *Params, sk *PrivateKeyShare) *VerificationKey {
	return &VerificationKey{
		V1: lhsps.CommitPair(params.LH, sk.A1, sk.B1),
		V2: lhsps.CommitPair(params.LH, sk.A2, sk.B2),
	}
}

// Equal reports component-wise equality.
func (vk *VerificationKey) Equal(other *VerificationKey) bool {
	return vk.V1.Equal(other.V1) && vk.V2.Equal(other.V2)
}

// KeyShares bundles one player's view after Dist-Keygen.
type KeyShares struct {
	PK    *PublicKey
	Share *PrivateKeyShare
	// VKs[i] is player i's verification key, 1-based (index 0 nil).
	VKs []*VerificationKey
}

// FromDKGResult converts a two-pair DKG result into the scheme's key
// material.
func FromDKGResult(params *Params, res *dkg.Result) (*KeyShares, error) {
	if res.Config.NumSharings != Dim {
		return nil, fmt.Errorf("core: DKG ran %d parallel sharings, need %d", res.Config.NumSharings, Dim)
	}
	pk := &PublicKey{Params: params, G1: res.PK[0][0], G2: res.PK[1][0]}
	share := &PrivateKeyShare{
		Index: res.Self,
		A1:    res.Share[0][0], B1: res.Share[0][1],
		A2: res.Share[1][0], B2: res.Share[1][1],
	}
	vks := make([]*VerificationKey, res.Config.N+1)
	for i := 1; i <= res.Config.N; i++ {
		v := res.VerificationKey(i)
		vks[i] = &VerificationKey{V1: v[0][0], V2: v[1][0]}
	}
	return &KeyShares{PK: pk, Share: share, VKs: vks}, nil
}

// DistKeygen runs the full Dist-Keygen protocol among n honest players
// in process, over the protocol engine, and returns each player's view
// plus the traffic statistics. t+1 shares will be needed to sign; the
// protocol requires n >= 2t+1.
func DistKeygen(params *Params, n, t int) ([]*KeyShares, *dkg.Outcome, error) {
	cfg := dkg.Config{N: n, T: t, NumSharings: Dim, Scheme: dkg.PedersenScheme{Params: params.LH}}
	out, err := dkg.Run(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("core: Dist-Keygen: %w", err)
	}
	views := make([]*KeyShares, n+1)
	for i := 1; i <= n; i++ {
		views[i], err = FromDKGResult(params, out.Results[i])
		if err != nil {
			return nil, nil, err
		}
	}
	return views, out, nil
}

// Signature is the full threshold signature (z, r) in G^2 — 512 bits in
// the compressed encoding. It is the same object as an LHSPS signature.
type Signature = lhsps.Signature

// PartialSignature is one server's non-interactive contribution.
type PartialSignature struct {
	Index int
	Z, R  *bn254.G1
}

// Marshal encodes index (2 bytes) plus two compressed G1 points.
func (ps *PartialSignature) Marshal() []byte {
	out := make([]byte, 2, 2+2*bn254.G1SizeCompressed)
	out[0] = byte(ps.Index >> 8)
	out[1] = byte(ps.Index)
	out = append(out, ps.Z.MarshalCompressed()...)
	out = append(out, ps.R.MarshalCompressed()...)
	return out
}

// UnmarshalPartialSignature decodes the Marshal encoding.
func UnmarshalPartialSignature(data []byte) (*PartialSignature, error) {
	if len(data) != 2+2*bn254.G1SizeCompressed {
		return nil, fmt.Errorf("core: partial signature length %d: %w", len(data), ErrInvalidEncoding)
	}
	ps := &PartialSignature{
		Index: int(data[0])<<8 | int(data[1]),
		Z:     new(bn254.G1),
		R:     new(bn254.G1),
	}
	if err := ps.Z.UnmarshalCompressed(data[2 : 2+bn254.G1SizeCompressed]); err != nil {
		return nil, fmt.Errorf("core: partial z: %w (%w)", err, ErrInvalidEncoding)
	}
	if err := ps.R.UnmarshalCompressed(data[2+bn254.G1SizeCompressed:]); err != nil {
		return nil, fmt.Errorf("core: partial r: %w (%w)", err, ErrInvalidEncoding)
	}
	return ps, nil
}

// shareVerify checks a partial signature against VK_i:
// e(z_i, g^_z) e(r_i, g^_r) e(H_1, V^_1,i) e(H_2, V^_2,i) == 1.
// All four G2 slots are fixed per (params, VK_i), so the multi-pairing
// runs on cached Miller-loop line precomputations.
func shareVerify(pk *PublicKey, vk *VerificationKey, msg []byte, ps *PartialSignature) bool {
	if !(ShareBatchEntry{VK: vk, PS: ps}).wellFormed() {
		return false
	}
	var h [Dim]bn254.G1
	pk.Params.hashInto(&h, msg)
	return vk.lhspsKey(pk.Params).VerifyRelation([]*bn254.G1{&h[0], &h[1]}, &lhsps.Signature{Z: ps.Z, R: ps.R})
}

// combine assembles a full signature from partial signatures by Lagrange
// interpolation in the exponent. It is robust: invalid shares are
// discarded (Share-Verify), and any t+1 valid ones suffice. vks is the
// 1-based verification key vector.
//
// Validity is established by CheckShares: one batched multi-pairing for
// all in-range parts, bisection only when that batch fails.
func combine(pk *PublicKey, vks []*VerificationKey, msg []byte, parts []*PartialSignature, t int) (*Signature, error) {
	rejected := false
	entries := make([]ShareBatchEntry, 0, len(parts))
	for _, ps := range parts {
		if ps == nil || ps.Index < 1 || ps.Index >= len(vks) {
			rejected = true
			continue
		}
		entries = append(entries, ShareBatchEntry{Msg: msg, VK: vks[ps.Index], PS: ps})
	}
	okAt := CheckShares(pk, entries)
	valid := make(map[int]*PartialSignature)
	for j, e := range entries {
		if _, dup := valid[e.PS.Index]; dup {
			continue
		}
		if okAt[j] {
			valid[e.PS.Index] = e.PS
		} else {
			rejected = true
		}
	}
	if len(valid) < t+1 {
		err := fmt.Errorf("core: only %d valid partial signatures, need %d: %w", len(valid), t+1, ErrInsufficientShares)
		if rejected {
			err = fmt.Errorf("%w (%w)", err, ErrInvalidShare)
		}
		return nil, err
	}
	indices := make([]int, 0, len(valid))
	for i := range valid {
		indices = append(indices, i)
	}
	sort.Ints(indices)
	chosen := make([]*PartialSignature, t+1)
	for k, i := range indices[:t+1] {
		chosen[k] = valid[i]
	}
	out, err := interpolate(chosen)
	if err != nil {
		return nil, fmt.Errorf("core: Combine: %w", err)
	}
	return out, nil
}

// Verify checks a full signature under this key: one product of four
// pairings, on the key's precomputed lines.
func (pk *PublicKey) Verify(msg []byte, sig *Signature) bool {
	if sig == nil || sig.Z == nil || sig.R == nil {
		return false
	}
	var h [Dim]bn254.G1
	pk.Params.hashInto(&h, msg)
	return pk.lhspsKey().VerifyRelation([]*bn254.G1{&h[0], &h[1]}, sig)
}
