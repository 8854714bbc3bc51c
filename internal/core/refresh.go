package core

import (
	"fmt"
	"math/big"

	"repro/internal/bn254"
	"repro/internal/dkg"
)

// This file implements the proactive security extension of Section 3.3:
// at discrete time intervals all players run a new instance of Pedersen's
// DKG where the shared secret is {(0, 0)}, and locally add the resulting
// shares to their current ones. The public key is unchanged (the zero
// sharing contributes the identity to every g^_k) while every share and
// verification key is re-randomized, so a mobile adversary must corrupt
// t+1 players WITHIN one period to learn anything.

// RunRefresh executes one zero-sharing refresh epoch among n honest
// players and returns the per-player DKG results (to be merged into the
// existing key material via Member.ApplyRefreshResult). The run is driven
// by the same session engine (internal/engine) that steps the networked
// refresh sessions of repro/service, so the local and over-the-wire
// epochs execute identical protocol code and cannot drift.
func RunRefresh(params *Params, n, t int) (*dkg.Outcome, error) {
	cfg := dkg.Config{N: n, T: t, NumSharings: Dim, Scheme: dkg.PedersenScheme{Params: params.LH}, Refresh: true}
	out, err := dkg.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: refresh epoch: %w", err)
	}
	return out, nil
}

// RefreshEpoch is one run of the Section 3.3 proactive refresh: a
// zero-sharing DKG whose per-player results every member applies locally.
// The public key is unchanged; every share and verification key is
// re-randomized, so shares stolen in different epochs do not combine.
type RefreshEpoch struct {
	outcome *dkg.Outcome
}

// NewRefreshEpoch runs one zero-sharing refresh among n honest players
// with threshold t (these must match the group the epoch will be applied
// to).
func NewRefreshEpoch(params *Params, n, t int) (*RefreshEpoch, error) {
	out, err := RunRefresh(params, n, t)
	if err != nil {
		return nil, err
	}
	return &RefreshEpoch{outcome: out}, nil
}

// Outcome exposes the underlying DKG outcome (traffic statistics, per-
// player results) for callers that need the protocol-level detail.
func (e *RefreshEpoch) Outcome() *dkg.Outcome { return e.outcome }

// ApplyRefresh merges the epoch into the member's state: it picks the
// member's own result out of the epoch and applies it with
// ApplyRefreshResult.
func (m *Member) ApplyRefresh(e *RefreshEpoch) (*Member, error) {
	if e == nil || e.outcome == nil {
		return nil, fmt.Errorf("core: nil refresh epoch")
	}
	if m.Index() >= len(e.outcome.Results) || e.outcome.Results[m.Index()] == nil {
		return nil, fmt.Errorf("core: refresh epoch has no result for player %d", m.Index())
	}
	return m.ApplyRefreshResult(e.outcome.Results[m.Index()])
}

// ApplyRefreshResult merges the member's own refresh result into its
// state: the private share is shifted by the zero-sharing, every
// verification key is multiplied by the refresh commitment evaluation,
// and the public key is checked to be preserved. It returns a NEW member
// holding a new group view (same domain, sizes, parameters and public
// key); all members of a group converge to identical verification keys
// after applying the same epoch.
func (m *Member) ApplyRefreshResult(res *dkg.Result) (*Member, error) {
	if res.Config.NumSharings != Dim {
		return nil, fmt.Errorf("core: refresh ran %d sharings, need %d", res.Config.NumSharings, Dim)
	}
	if res.Self != m.share.Index {
		return nil, fmt.Errorf("core: refresh result for player %d applied to share of player %d", res.Self, m.share.Index)
	}
	for k := 0; k < Dim; k++ {
		if !res.PK[k][0].IsInfinity() {
			return nil, fmt.Errorf("core: refresh epoch changed the public key component %d", k)
		}
	}
	share := &PrivateKeyShare{
		Index: m.share.Index,
		A1:    addMod(m.share.A1, res.Share[0][0]),
		B1:    addMod(m.share.B1, res.Share[0][1]),
		A2:    addMod(m.share.A2, res.Share[1][0]),
		B2:    addMod(m.share.B2, res.Share[1][1]),
	}
	g := m.group
	vks := make([]*VerificationKey, len(g.VKs))
	for i := 1; i < len(g.VKs); i++ {
		if g.VKs[i] == nil {
			continue
		}
		delta := res.VerificationKey(i)
		vks[i] = &VerificationKey{
			V1: new(bn254.G2).Add(g.VKs[i].V1, delta[0][0]),
			V2: new(bn254.G2).Add(g.VKs[i].V2, delta[1][0]),
		}
	}
	next := &Group{Domain: g.Domain, N: g.N, T: g.T, Params: g.Params, PK: g.PK, VKs: vks}
	return &Member{group: next, share: share}, nil
}

// addMod returns a+b mod r as a fresh integer.
func addMod(a, b *big.Int) *big.Int {
	s := new(big.Int).Add(a, b)
	return s.Mod(s, bn254.Order)
}
