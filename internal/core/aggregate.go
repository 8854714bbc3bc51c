package core

import (
	"errors"
	"fmt"
	"math/big"
	"sync"

	"repro/internal/bn254"
	"repro/internal/dkg"
	"repro/internal/engine"
	"repro/internal/lhsps"
)

// This file implements the aggregation extension of Appendix G. The
// distributed key generation is augmented so that every dealer i also
// broadcasts
//
//	(Z_i0, R_i0) = (g^{-a_i10} h^{-a_i20}, g^{-b_i10} h^{-b_i20}),
//
// a one-time homomorphic signature on the public vector (g, h) under the
// dealer's own contribution (W^_i10, W^_i20). The values are PUBLICLY
// verifiable via
//
//	e(Z_i0, g^_z) e(R_i0, g^_r) e(g, W^_i10) e(h, W^_i20) == 1,
//
// and a dealer publishing incorrect ones is immediately disqualified. The
// aggregate public key carries (Z, R) = (prod Z_i0, prod R_i0), a built-in
// proof of key validity that lets the security reduction strip
// adversarially-generated keys out of a fake aggregate. Signatures on
// distinct (public key, message) pairs then aggregate by component-wise
// multiplication, and one 512-bit aggregate convinces the verifier of all
// of them — the de-centralized certification-authority use case.

// AggParams extends the scheme parameters with the extra generators
// g, h in G (random-oracle derived).
type AggParams struct {
	*Params
	G, H *bn254.G1
}

// aggParamsCache memoizes NewAggParams per domain, mirroring the
// paramsCache of NewParams (core.go): the two extra hash-to-G1 runs and
// the shared precompute both ride on object identity.
var aggParamsCache = struct {
	sync.Mutex
	m map[string]*AggParams
}{m: make(map[string]*AggParams)}

// NewAggParams derives aggregation parameters from a domain label,
// memoized per domain.
func NewAggParams(domain string) *AggParams {
	aggParamsCache.Lock()
	if p, ok := aggParamsCache.m[domain]; ok {
		aggParamsCache.Unlock()
		return p
	}
	aggParamsCache.Unlock()

	p := &AggParams{
		Params: NewParams(domain),
		G:      bn254.HashToG1(domain+"/agg-g", nil),
		H:      bn254.HashToG1(domain+"/agg-h", nil),
	}

	aggParamsCache.Lock()
	defer aggParamsCache.Unlock()
	if prev, ok := aggParamsCache.m[domain]; ok {
		return prev
	}
	if len(aggParamsCache.m) >= paramsCacheCap {
		for k := range aggParamsCache.m {
			delete(aggParamsCache.m, k)
			break
		}
	}
	aggParamsCache.m[domain] = p
	return p
}

// AggPublicKey is PK = (g^_1, g^_2, Z, R).
type AggPublicKey struct {
	Params *AggParams
	G1, G2 *bn254.G2
	Z, R   *bn254.G1

	// Cached core-scheme view of (g^_1, g^_2): shares the pairing
	// precompute across SanityCheck, AggCombine and AggVerifySingle.
	innerOnce sync.Once
	innerPK   *PublicKey
}

// inner returns the cached plain-scheme PublicKey view.
func (pk *AggPublicKey) inner() *PublicKey {
	pk.innerOnce.Do(func() {
		pk.innerPK = &PublicKey{Params: pk.Params.Params, G1: pk.G1, G2: pk.G2}
	})
	return pk.innerPK
}

// Marshal returns the canonical encoding used inside H(PK || M).
func (pk *AggPublicKey) Marshal() []byte {
	out := make([]byte, 0, 2*bn254.G2SizeUncompressed+2*bn254.G1SizeUncompressed)
	out = append(out, pk.G1.Marshal()...)
	out = append(out, pk.G2.Marshal()...)
	out = append(out, pk.Z.Marshal()...)
	out = append(out, pk.R.Marshal()...)
	return out
}

// Equal reports whether the two keys match.
func (pk *AggPublicKey) Equal(o *AggPublicKey) bool {
	return pk.G1.Equal(o.G1) && pk.G2.Equal(o.G2) && pk.Z.Equal(o.Z) && pk.R.Equal(o.R)
}

// SanityCheck verifies the built-in key-validity proof:
// e(Z, g^_z) e(R, g^_r) e(g, g^_1) e(h, g^_2) == 1. This is exactly the
// LHSPS relation on the vector (g, h), so it runs on the cached pairing
// precompute of the inner key.
func (pk *AggPublicKey) SanityCheck() bool {
	return pk.inner().lhspsKey().VerifyRelation(
		[]*bn254.G1{pk.Params.G, pk.Params.H},
		&lhsps.Signature{Z: pk.Z, R: pk.R},
	)
}

// hashInput builds the PK || M input of the aggregation scheme's random
// oracle.
func (pk *AggPublicKey) hashInput(msg []byte) []byte {
	enc := pk.Marshal()
	out := make([]byte, 0, len(enc)+len(msg))
	out = append(out, enc...)
	out = append(out, msg...)
	return out
}

// KindAggProof is the wire kind of the extra DKG broadcast.
const KindAggProof = "dkg/agg-proof"

// aggDealProof computes (Z_i0, R_i0) = (-(a_10 g + a_20 h),
// -(b_10 g + b_20 h)) from the dealer's secret constant terms: one table
// over (g, h) serves both secret scalar sets on the regular ladder.
func aggDealProof(params *AggParams, hp *dkg.HonestPlayer) (*bn254.G1, *bn254.G1, error) {
	zr, err := bn254.MultiScalarMultSharedG1([]*bn254.G1{params.G, params.H},
		[]*big.Int{hp.Polys[0][0].Secret(), hp.Polys[1][0].Secret()},
		[]*big.Int{hp.Polys[0][1].Secret(), hp.Polys[1][1].Secret()})
	if err != nil {
		return nil, nil, err
	}
	return zr[0].Neg(zr[0]), zr[1].Neg(zr[1]), nil
}

// verifyAggProof checks the public validity equation for one dealer. The
// dealer's commitments are fresh per protocol run, so only the generator
// slots use precomputed lines.
func verifyAggProof(params *AggParams, comms [][][]*bn254.G2, z, r *bn254.G1) bool {
	if len(comms) != Dim {
		return false
	}
	gzPrep, grPrep := params.LH.PreparedGenerators()
	return bn254.PairingCheckMixed([]*bn254.PairingSlot{
		{P: z, Pre: gzPrep},
		{P: r, Pre: grPrep},
		{P: params.G, Q: comms[0][0][0]},
		{P: params.H, Q: comms[1][0][0]},
	})
}

// aggPlayer wraps the honest DKG machine with the Appendix G extension.
type aggPlayer struct {
	*dkg.HonestPlayer
	params *AggParams
	cfg    dkg.Config
	// proofs[j] holds dealer j's broadcast (Z_j0, R_j0).
	proofs map[int][2]*bn254.G1
	selfZ  *bn254.G1
	selfR  *bn254.G1
}

func newAggPlayer(params *AggParams, cfg dkg.Config, id int) (*aggPlayer, error) {
	hp, err := dkg.NewHonestPlayer(cfg, id)
	if err != nil {
		return nil, err
	}
	return &aggPlayer{HonestPlayer: hp, params: params, cfg: cfg, proofs: make(map[int][2]*bn254.G1)}, nil
}

// Step interleaves the extension with the inner protocol.
func (p *aggPlayer) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	switch round {
	case 0:
		msgs, err := p.HonestPlayer.Step(round, delivered)
		if err != nil {
			return nil, err
		}
		if p.selfZ, p.selfR, err = aggDealProof(p.params, p.HonestPlayer); err != nil {
			return nil, err
		}
		payload := append(p.selfZ.Marshal(), p.selfR.Marshal()...)
		return append(msgs, engine.Message{
			To:      engine.Broadcast,
			Kind:    KindAggProof,
			Payload: payload,
		}), nil
	case 1:
		// Record proofs, then disqualify dealers whose proof is missing
		// or invalid — BEFORE the inner machine can take its optimistic
		// finalize path in round 2.
		for _, m := range delivered {
			if m.Kind != KindAggProof || !m.IsBroadcast() {
				continue
			}
			if _, dup := p.proofs[m.From]; dup {
				continue
			}
			if len(m.Payload) != 2*bn254.G1SizeUncompressed {
				continue
			}
			z := new(bn254.G1)
			r := new(bn254.G1)
			if z.Unmarshal(m.Payload[:bn254.G1SizeUncompressed]) != nil {
				continue
			}
			if r.Unmarshal(m.Payload[bn254.G1SizeUncompressed:]) != nil {
				continue
			}
			p.proofs[m.From] = [2]*bn254.G1{z, r}
		}
		msgs, err := p.HonestPlayer.Step(round, delivered)
		if err != nil {
			return nil, err
		}
		for j := 1; j <= p.cfg.N; j++ {
			comms := p.DealtCommitments(j)
			proof, ok := p.proofs[j]
			if comms == nil || !ok || !verifyAggProof(p.params, comms, proof[0], proof[1]) {
				p.ForceDisqualify(j)
			}
		}
		return msgs, nil
	default:
		return p.HonestPlayer.Step(round, delivered)
	}
}

// AggKeyShares is a player's view of the aggregation-enabled key.
type AggKeyShares struct {
	PK    *AggPublicKey
	Share *PrivateKeyShare
	VKs   []*VerificationKey
}

// aggResult assembles the view from the inner result plus the proofs.
func (p *aggPlayer) aggResult() (*AggKeyShares, error) {
	res, err := p.Result()
	if err != nil {
		return nil, err
	}
	base, err := FromDKGResult(p.params.Params, res)
	if err != nil {
		return nil, err
	}
	z := new(bn254.G1)
	r := new(bn254.G1)
	for _, j := range res.Qual {
		proof, ok := p.proofs[j]
		if !ok {
			return nil, fmt.Errorf("core: qualified dealer %d without aggregation proof", j)
		}
		z.Add(z, proof[0])
		r.Add(r, proof[1])
	}
	pk := &AggPublicKey{Params: p.params, G1: base.PK.G1, G2: base.PK.G2, Z: z, R: r}
	return &AggKeyShares{PK: pk, Share: base.Share, VKs: base.VKs}, nil
}

// AggDistKeygen runs the Appendix G distributed key generation among n
// honest players.
func AggDistKeygen(params *AggParams, n, t int) ([]*AggKeyShares, *engine.Stats, error) {
	cfg := dkg.Config{N: n, T: t, NumSharings: Dim, Scheme: dkg.PedersenScheme{Params: params.LH}}
	players := make([]engine.Player, n)
	aggs := make([]*aggPlayer, n+1)
	for i := 1; i <= n; i++ {
		ap, err := newAggPlayer(params, cfg, i)
		if err != nil {
			return nil, nil, err
		}
		players[i-1] = ap
		aggs[i] = ap
	}
	report, err := engine.RunLocal(players, dkg.MaxRounds)
	if err != nil {
		return nil, nil, err
	}
	views := make([]*AggKeyShares, n+1)
	for i := 1; i <= n; i++ {
		views[i], err = aggs[i].aggResult()
		if err != nil {
			return nil, nil, err
		}
	}
	return views, &report.Stats, nil
}

// AggShareSign produces a partial signature in the aggregation scheme:
// identical to Share-Sign except that the public key is prepended to the
// hashed message.
func AggShareSign(pk *AggPublicKey, sk *PrivateKeyShare, msg []byte) (*PartialSignature, error) {
	h := pk.Params.HashMessage(pk.hashInput(msg))
	sig, err := sk.sign(h)
	if err != nil {
		return nil, fmt.Errorf("core: Agg-Share-Sign: %w", err)
	}
	return &PartialSignature{Index: sk.Index, Z: sig.Z, R: sig.R}, nil
}

// AggShareVerify checks a partial signature in the aggregation scheme.
func AggShareVerify(pk *AggPublicKey, vk *VerificationKey, msg []byte, ps *PartialSignature) bool {
	if ps == nil || ps.Z == nil || ps.R == nil || vk == nil {
		return false
	}
	h := pk.Params.HashMessage(pk.hashInput(msg))
	return vk.lhspsKey(pk.Params.Params).VerifyRelation(h, &lhsps.Signature{Z: ps.Z, R: ps.R})
}

// AggCombine interpolates t+1 valid partial signatures.
func AggCombine(pk *AggPublicKey, vks []*VerificationKey, msg []byte, parts []*PartialSignature, t int) (*Signature, error) {
	// Combine verifies against VKs with the PK||M hash input, so reuse the
	// core combine on the prefixed message.
	return combine(pk.inner(), vks, pk.hashInput(msg), parts, t)
}

// AggVerifySingle verifies one full signature under one aggregation key.
func AggVerifySingle(pk *AggPublicKey, msg []byte, sig *Signature) bool {
	return pk.inner().Verify(pk.hashInput(msg), sig)
}

// AggEntry pairs a public key with a message (and, for Aggregate, the
// signature to fold in).
type AggEntry struct {
	PK  *AggPublicKey
	Msg []byte
	Sig *Signature
}

// Aggregate compresses signatures on distinct (PK, M) pairs into a single
// (z, r): it validates every input (returning an error otherwise, per the
// Appendix G specification) and multiplies component-wise.
func Aggregate(entries []AggEntry) (*Signature, error) {
	if len(entries) == 0 {
		return nil, errors.New("core: nothing to aggregate")
	}
	z := new(bn254.G1)
	r := new(bn254.G1)
	for i, e := range entries {
		if e.PK == nil || e.Sig == nil {
			return nil, fmt.Errorf("core: aggregate entry %d incomplete", i)
		}
		if !AggVerifySingle(e.PK, e.Msg, e.Sig) {
			return nil, fmt.Errorf("core: aggregate entry %d does not verify", i)
		}
		z.Add(z, e.Sig.Z)
		r.Add(r, e.Sig.R)
	}
	return &Signature{Z: z, R: r}, nil
}

// AggregateVerify checks an aggregate signature against its (PK, M) list:
// every key must pass the sanity check, and
//
//	e(z, g^_z) e(r, g^_r) prod_j prod_k e(H_k^(j), g^_k^(j)) == 1.
func AggregateVerify(entries []AggEntry, sig *Signature) bool {
	if sig == nil || sig.Z == nil || sig.R == nil || len(entries) == 0 {
		return false
	}
	params := entries[0].PK.Params
	gzPrep, grPrep := params.LH.PreparedGenerators()
	slots := make([]*bn254.PairingSlot, 0, 2*len(entries)+2)
	slots = append(slots,
		&bn254.PairingSlot{P: sig.Z, Pre: gzPrep},
		&bn254.PairingSlot{P: sig.R, Pre: grPrep},
	)
	for _, e := range entries {
		if e.PK == nil || !e.PK.SanityCheck() {
			return false
		}
		h := e.PK.Params.HashMessage(e.PK.hashInput(e.Msg))
		pkPrep := e.PK.inner().lhspsKey().Prepared()
		slots = append(slots,
			&bn254.PairingSlot{P: h[0], Pre: pkPrep[0]},
			&bn254.PairingSlot{P: h[1], Pre: pkPrep[1]},
		)
	}
	return bn254.PairingCheckMixed(slots)
}
