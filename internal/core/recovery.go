package core

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"slices"

	"repro/internal/bn254"
	"repro/internal/engine"
	"repro/internal/shamir"
)

// Share recovery (Section 3.3, after Herzberg et al. [46, Section 4]):
// a player that crashed during a refresh or whose share was corrupted can
// be restored WITHOUT reconstructing the secret and without revealing the
// helpers' shares. Each helper a in a set S of t+1 players samples a
// random degree-t masking polynomial delta_a with delta_a(r) = 0 (r = the
// recovering player's index), distributes its evaluations to the other
// helpers, and then sends the blinded evaluation
//
//	u_i = SK_i + sum_a delta_a(i)
//
// to the recovering player, who interpolates U = SK-polynomial + masks at
// X = r: the masks vanish there, yielding exactly SK_r. The recovered
// share is then checked against the PUBLIC verification key VK_r, so a
// malicious helper cannot plant a bad share undetected (it can only force
// a retry with a different helper set). One run handles all four scalar
// components of SK_i in parallel.
//
// Message flow, one engine run: (round 0) helpers exchange mask
// evaluations; (round 1) helpers send blinded shares to the recoverer;
// (round 2) the recoverer interpolates and verifies. Only messages from
// the declared helper set are accepted at either step, and the recoverer
// interpolates over the helpers in sorted order, so a run's outcome does
// not depend on who else speaks or on map iteration order.

// Wire kinds of the recovery protocol.
const (
	KindRecoveryMask  = "recover/mask"
	KindRecoveryBlind = "recover/blind"
)

const recoveryComponents = 4 // A1, B1, A2, B2

// recoveryHelper is the state machine of one helping player.
type recoveryHelper struct {
	id      int
	t       int
	target  int
	helpers []int // the full helper set, sorted
	share   *PrivateKeyShare
	rng     io.Reader
	fld     *shamir.Field

	masks     []*shamir.Polynomial // own masking polynomials, delta(target) = 0
	maskSums  [recoveryComponents]*big.Int
	done      bool
	errSticky error
}

func (p *recoveryHelper) ID() int    { return p.id }
func (p *recoveryHelper) Done() bool { return p.done }

func (p *recoveryHelper) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	switch round {
	case 0:
		// Sample masks vanishing at the target: delta(X) = (X - r)*q(X)
		// with q random of degree t-1 — equivalently sample degree-t and
		// shift so delta(r) = 0. We sample coefficients then subtract the
		// evaluation at r scaled by the Lagrange-free trick: simplest is
		// rejection-free: pick random poly p, set delta = p - p(r) on the
		// constant term only if t >= 1... To keep delta degree-t AND
		// delta(r) = 0 with uniform conditional distribution, sample
		// coefficients c_1..c_t uniformly and set c_0 = -sum c_l r^l.
		p.masks = make([]*shamir.Polynomial, recoveryComponents)
		r := big.NewInt(int64(p.target))
		for k := 0; k < recoveryComponents; k++ {
			coeffs := make([]*big.Int, p.t+1)
			c0 := new(big.Int)
			rPow := new(big.Int).Set(r)
			for l := 1; l <= p.t; l++ {
				c, err := p.fld.Rand(p.rng)
				if err != nil {
					return nil, err
				}
				coeffs[l] = c
				c0.Sub(c0, new(big.Int).Mul(c, rPow))
				rPow = new(big.Int).Mul(rPow, r)
			}
			coeffs[0] = p.fld.Reduce(c0)
			poly, err := p.fld.PolynomialFromCoeffs(coeffs)
			if err != nil {
				return nil, err
			}
			p.masks[k] = poly
		}
		for k := range p.maskSums {
			p.maskSums[k] = new(big.Int)
		}
		// Send evaluations to the other helpers (and count our own).
		var out []engine.Message
		for _, h := range p.helpers {
			vals := make([]*big.Int, recoveryComponents)
			for k := 0; k < recoveryComponents; k++ {
				vals[k] = p.masks[k].EvalAt(h)
			}
			if h == p.id {
				for k := 0; k < recoveryComponents; k++ {
					p.maskSums[k] = p.fld.Add(p.maskSums[k], vals[k])
				}
				continue
			}
			out = append(out, engine.Message{
				To:      h,
				Kind:    KindRecoveryMask,
				Payload: encodeScalars(vals),
			})
		}
		return out, nil
	case 1:
		// Accumulate the other helpers' masks, then send the blinded share.
		seen := map[int]bool{p.id: true}
		for _, m := range delivered {
			if m.Kind != KindRecoveryMask || seen[m.From] || !isHelper(p.helpers, m.From) {
				continue
			}
			vals, err := decodeScalars(m.Payload, recoveryComponents)
			if err != nil {
				continue
			}
			seen[m.From] = true
			for k := 0; k < recoveryComponents; k++ {
				p.maskSums[k] = p.fld.Add(p.maskSums[k], vals[k])
			}
		}
		for _, h := range p.helpers {
			if !seen[h] {
				p.errSticky = fmt.Errorf("core: recovery helper %d missing masks from %d", p.id, h)
				p.done = true
				return nil, p.errSticky
			}
		}
		own := [recoveryComponents]*big.Int{p.share.A1, p.share.B1, p.share.A2, p.share.B2}
		blinded := make([]*big.Int, recoveryComponents)
		for k := 0; k < recoveryComponents; k++ {
			blinded[k] = p.fld.Add(own[k], p.maskSums[k])
		}
		p.done = true
		return []engine.Message{{
			To:      p.target,
			Kind:    KindRecoveryBlind,
			Payload: encodeScalars(blinded),
		}}, nil
	default:
		p.done = true
		return nil, nil
	}
}

// recoveryTarget is the recovering player's state machine.
type recoveryTarget struct {
	id      int
	t       int
	helpers []int // sorted
	pk      *PublicKey
	vk      *VerificationKey
	fld     *shamir.Field

	blinded map[int][]*big.Int
	share   *PrivateKeyShare
	done    bool
}

func (p *recoveryTarget) ID() int    { return p.id }
func (p *recoveryTarget) Done() bool { return p.done }

func (p *recoveryTarget) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	for _, m := range delivered {
		if m.Kind != KindRecoveryBlind || !isHelper(p.helpers, m.From) {
			continue
		}
		if _, dup := p.blinded[m.From]; dup {
			continue
		}
		vals, err := decodeScalars(m.Payload, recoveryComponents)
		if err != nil {
			continue
		}
		p.blinded[m.From] = vals
	}
	if len(p.blinded) >= p.t+1 && p.share == nil {
		if err := p.reconstruct(); err != nil {
			return nil, err
		}
		p.done = true
	}
	if round > 3 && !p.done {
		return nil, errors.New("core: share recovery received too few blinded shares")
	}
	return nil, nil
}

// reconstruct interpolates the blinded polynomial at the target index
// over the first t+1 helpers (in sorted order) that delivered; the masks
// vanish there, and the result must match VK_r.
func (p *recoveryTarget) reconstruct() error {
	recovered := [recoveryComponents]*big.Int{}
	for k := 0; k < recoveryComponents; k++ {
		var pts []shamir.Share
		for _, h := range p.helpers {
			vals, ok := p.blinded[h]
			if !ok {
				continue
			}
			pts = append(pts, shamir.Share{X: h, Y: vals[k]})
			if len(pts) == p.t+1 {
				break
			}
		}
		v, err := p.fld.Interpolate(pts, big.NewInt(int64(p.id)))
		if err != nil {
			return fmt.Errorf("core: recovery interpolation: %w", err)
		}
		recovered[k] = v
	}
	share := &PrivateKeyShare{
		Index: p.id,
		A1:    recovered[0], B1: recovered[1],
		A2: recovered[2], B2: recovered[3],
	}
	// Public check against VK_r: a wrong reconstruction (malicious helper)
	// is detected here.
	if !VerificationKeyOf(p.pk.Params, share).Equal(p.vk) {
		return errors.New("core: recovered share fails the VK_r check (faulty helper?)")
	}
	p.share = share
	return nil
}

// encodeScalars/decodeScalars serialize fixed-length scalar vectors.
func encodeScalars(vals []*big.Int) []byte {
	out := make([]byte, 0, len(vals)*32)
	for _, v := range vals {
		var buf [32]byte
		new(big.Int).Mod(v, bn254.Order).FillBytes(buf[:])
		out = append(out, buf[:]...)
	}
	return out
}

func decodeScalars(data []byte, n int) ([]*big.Int, error) {
	if len(data) != n*32 {
		return nil, fmt.Errorf("core: scalar vector length %d, want %d", len(data), n*32)
	}
	out := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		v := new(big.Int).SetBytes(data[i*32 : (i+1)*32])
		if v.Cmp(bn254.Order) >= 0 {
			return nil, errors.New("core: scalar out of range")
		}
		out[i] = v
	}
	return out, nil
}

// isHelper reports whether id is in the sorted helper set.
func isHelper(helpers []int, id int) bool {
	_, ok := slices.BinarySearch(helpers, id)
	return ok
}

// recoverShare restores player lost's private share from the helpers
// (at least t+1 distinct ones) without reconstructing or revealing the
// secret. views is the full 1-based key view (the lost player's own Share
// entry is ignored); the recovered share is returned after passing the
// public VK check.
func recoverShare(views []*KeyShares, t int, lost int, helpers []int, rng io.Reader) (*PrivateKeyShare, error) {
	players, target, err := recoveryPlayers(views, t, lost, helpers, rng)
	if err != nil {
		return nil, err
	}
	if _, err := engine.RunLocal(players, 6); err != nil {
		return nil, err
	}
	if target.share == nil {
		return nil, errors.New("core: share recovery failed")
	}
	return target.share, nil
}

// recoveryPlayers validates a recovery request and builds one state
// machine per player: the target, the helpers, and idle fillers.
func recoveryPlayers(views []*KeyShares, t int, lost int, helpers []int, rng io.Reader) ([]engine.Player, *recoveryTarget, error) {
	n := len(views) - 1
	if lost < 1 || lost > n {
		return nil, nil, fmt.Errorf("core: lost index %d out of range", lost)
	}
	sorted := slices.Clone(helpers)
	slices.Sort(sorted)
	for i, h := range sorted {
		if h < 1 || h > n || h == lost {
			return nil, nil, fmt.Errorf("core: invalid helper %d", h)
		}
		if i > 0 && sorted[i-1] == h {
			return nil, nil, fmt.Errorf("core: duplicate helper %d", h)
		}
	}
	if len(sorted) < t+1 {
		return nil, nil, fmt.Errorf("core: %d helpers, need at least %d", len(sorted), t+1)
	}
	fld, err := shamir.NewField(bn254.Order)
	if err != nil {
		return nil, nil, err
	}

	players := make([]engine.Player, 0, n)
	var target *recoveryTarget
	for i := 1; i <= n; i++ {
		switch {
		case i == lost:
			target = &recoveryTarget{
				id: i, t: t, helpers: sorted,
				pk: views[1].PK, vk: views[1].VKs[lost],
				fld: fld, blinded: make(map[int][]*big.Int),
			}
			players = append(players, target)
		case isHelper(sorted, i):
			players = append(players, &recoveryHelper{
				id: i, t: t, target: lost, helpers: sorted,
				share: views[i].Share, rng: rng, fld: fld,
			})
		default:
			players = append(players, &idlePlayer{id: i})
		}
	}
	return players, target, nil
}

// idlePlayer fills non-participating slots.
type idlePlayer struct{ id int }

func (p *idlePlayer) ID() int    { return p.id }
func (p *idlePlayer) Done() bool { return true }
func (p *idlePlayer) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	return nil, nil
}
