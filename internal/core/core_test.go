package core

import (
	"math/big"
	"slices"
	"sync"
	"testing"

	"repro/internal/bn254"
	"repro/internal/dkg"
	"repro/internal/engine"
	"repro/internal/lhsps"
	"repro/internal/shamir"
)

// Shared fixture: one 2-of-5 DistKeygen reused by every test (the DKG
// itself is tested separately in package dkg).
var (
	fixtureOnce  sync.Once
	fixtureViews []*KeyShares
	fixtureErr   error
)

const (
	fixtureN = 5
	fixtureT = 2
)

var fixtureParams = NewParams("core-test")

func keyFixture(t *testing.T) []*KeyShares {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureViews, _, fixtureErr = DistKeygen(fixtureParams, fixtureN, fixtureT)
	})
	if fixtureErr != nil {
		t.Fatalf("DistKeygen fixture: %v", fixtureErr)
	}
	return fixtureViews
}

func partials(t *testing.T, views []*KeyShares, msg []byte, signers []int) []*PartialSignature {
	t.Helper()
	var out []*PartialSignature
	for _, i := range signers {
		ps, err := shareSign(fixtureParams, views[i].Share, msg)
		if err != nil {
			t.Fatalf("shareSign(%d): %v", i, err)
		}
		out = append(out, ps)
	}
	return out
}

// shareSign is Share-Sign by a bare share under params: a Member over a
// group that holds only the parameters, which is all signing reads.
func shareSign(params *Params, sk *PrivateKeyShare, msg []byte) (*PartialSignature, error) {
	return (&Member{group: &Group{Params: params}, share: sk}).SignShare(msg)
}

// combinePreverified interpolates the first t+1 distinct parts.
func combinePreverified(parts []*PartialSignature, t int) (*Signature, error) {
	return (&Group{T: t}).CombinePreverified(parts)
}

// applyRefresh applies one refresh result to a player's key view.
func applyRefresh(view *KeyShares, res *dkg.Result) (*KeyShares, error) {
	m := &Member{group: &Group{Params: view.PK.Params, PK: view.PK, VKs: view.VKs}, share: view.Share}
	next, err := m.ApplyRefreshResult(res)
	if err != nil {
		return nil, err
	}
	return &KeyShares{PK: next.group.PK, Share: next.share, VKs: next.group.VKs}, nil
}

func TestEndToEnd(t *testing.T) {
	views := keyFixture(t)
	msg := []byte("fully distributed, non-interactive, adaptively secure")

	parts := partials(t, views, msg, []int{1, 3, 5})
	sig, err := combine(views[1].PK, views[1].VKs, msg, parts, fixtureT)
	if err != nil {
		t.Fatal(err)
	}
	if !views[1].PK.Verify(msg, sig) {
		t.Fatal("combined signature rejected")
	}
	if views[1].PK.Verify([]byte("other message"), sig) {
		t.Fatal("signature verified on wrong message")
	}
}

func TestAllPlayersAgreeOnKeys(t *testing.T) {
	views := keyFixture(t)
	for i := 2; i <= fixtureN; i++ {
		if !views[i].PK.Equal(views[1].PK) {
			t.Fatalf("player %d has a different public key", i)
		}
		for j := 1; j <= fixtureN; j++ {
			if !views[i].VKs[j].Equal(views[1].VKs[j]) {
				t.Fatalf("players 1 and %d disagree on VK_%d", i, j)
			}
		}
	}
}

func TestShareVerify(t *testing.T) {
	views := keyFixture(t)
	msg := []byte("share verification")
	ps, err := shareSign(fixtureParams, views[2].Share, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !shareVerify(views[1].PK, views[1].VKs[2], msg, ps) {
		t.Fatal("valid partial signature rejected")
	}
	// Against the wrong verification key it must fail.
	if shareVerify(views[1].PK, views[1].VKs[3], msg, ps) {
		t.Fatal("partial signature accepted under wrong VK")
	}
	// Wrong message.
	if shareVerify(views[1].PK, views[1].VKs[2], []byte("x"), ps) {
		t.Fatal("partial signature accepted on wrong message")
	}
	// Tampered component.
	bad := &PartialSignature{Index: 2, Z: ps.R, R: ps.Z}
	if shareVerify(views[1].PK, views[1].VKs[2], msg, bad) {
		t.Fatal("tampered partial accepted")
	}
	if shareVerify(views[1].PK, nil, msg, ps) {
		t.Fatal("nil VK accepted")
	}
	if shareVerify(views[1].PK, views[1].VKs[2], msg, nil) {
		t.Fatal("nil partial accepted")
	}
}

func TestAnySubsetCombinesToSameSignature(t *testing.T) {
	// The combined signature is the unique LHSPS signature of the shared
	// key, so every qualified subset must produce the identical (z, r).
	views := keyFixture(t)
	msg := []byte("subset independence")
	subsets := [][]int{{1, 2, 3}, {2, 4, 5}, {1, 3, 5}, {3, 4, 5}}
	var ref *Signature
	for _, s := range subsets {
		parts := partials(t, views, msg, s)
		sig, err := combine(views[1].PK, views[1].VKs, msg, parts, fixtureT)
		if err != nil {
			t.Fatalf("subset %v: %v", s, err)
		}
		if ref == nil {
			ref = sig
			continue
		}
		if !sig.Z.Equal(ref.Z) || !sig.R.Equal(ref.R) {
			t.Fatalf("subset %v produced a different signature", s)
		}
	}
}

func TestCombineMatchesCentralizedSigner(t *testing.T) {
	// Reconstruct the "virtual" secret key by interpolating t+1 shares and
	// sign centrally with the generic RO scheme: Combine must produce the
	// very same signature (determinism + correctness of interpolation).
	views := keyFixture(t)
	msg := []byte("centralized cross-check")

	fld, err := shamir.NewField(bn254.Order)
	if err != nil {
		t.Fatal(err)
	}
	collect := func(get func(*PrivateKeyShare) *big.Int) *big.Int {
		var shares []shamir.Share
		for _, i := range []int{1, 2, 3} {
			shares = append(shares, shamir.Share{X: i, Y: get(views[i].Share)})
		}
		s, err := fld.Interpolate(shares, new(big.Int))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a1 := collect(func(s *PrivateKeyShare) *big.Int { return s.A1 })
	b1 := collect(func(s *PrivateKeyShare) *big.Int { return s.B1 })
	a2 := collect(func(s *PrivateKeyShare) *big.Int { return s.A2 })
	b2 := collect(func(s *PrivateKeyShare) *big.Int { return s.B2 })

	central := &PrivateKeyShare{Index: 0, A1: a1, B1: b1, A2: a2, B2: b2}
	// The reconstructed key's public part must be the threshold PK.
	if pub := VerificationKeyOf(fixtureParams, central); !pub.V1.Equal(views[1].PK.G1) || !pub.V2.Equal(views[1].PK.G2) {
		t.Fatal("interpolated secret does not match the public key")
	}
	want, err := central.sign(fixtureParams.HashMessage(msg))
	if err != nil {
		t.Fatal(err)
	}
	parts := partials(t, views, msg, []int{2, 3, 4})
	got, err := combine(views[1].PK, views[1].VKs, msg, parts, fixtureT)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Z.Equal(want.Z) || !got.R.Equal(want.R) {
		t.Fatal("Combine differs from the centralized signature")
	}
}

func TestCombineRobustAgainstBadShares(t *testing.T) {
	views := keyFixture(t)
	msg := []byte("robustness")
	parts := partials(t, views, msg, []int{1, 2, 3})
	// Up to t corrupted shares: garbage from players 4 and 5.
	junk := &PartialSignature{
		Index: 4,
		Z:     bn254.HashToG1("junk", []byte("z")),
		R:     bn254.HashToG1("junk", []byte("r")),
	}
	junk2 := &PartialSignature{Index: 5, Z: junk.R, R: junk.Z}
	all := append([]*PartialSignature{junk, junk2}, parts...)
	sig, err := combine(views[1].PK, views[1].VKs, msg, all, fixtureT)
	if err != nil {
		t.Fatal(err)
	}
	if !views[1].PK.Verify(msg, sig) {
		t.Fatal("combine with injected bad shares failed")
	}
}

func TestCombineFailsBelowThreshold(t *testing.T) {
	views := keyFixture(t)
	msg := []byte("threshold")
	parts := partials(t, views, msg, []int{1, 2}) // only t = 2 shares
	if _, err := combine(views[1].PK, views[1].VKs, msg, parts, fixtureT); err == nil {
		t.Fatal("combined from t shares")
	}
	// Duplicates do not count twice.
	dup := partials(t, views, msg, []int{1, 1, 1, 2})
	if _, err := combine(views[1].PK, views[1].VKs, msg, dup, fixtureT); err == nil {
		t.Fatal("combined from duplicated shares")
	}
	// Out-of-range index is discarded.
	bogus := append(partials(t, views, msg, []int{1, 2}), &PartialSignature{Index: 99, Z: new(bn254.G1), R: new(bn254.G1)})
	if _, err := combine(views[1].PK, views[1].VKs, msg, bogus, fixtureT); err == nil {
		t.Fatal("combined with out-of-range share index")
	}
}

func TestPartialSignatureSerialization(t *testing.T) {
	views := keyFixture(t)
	ps, err := shareSign(fixtureParams, views[4].Share, []byte("serialize me"))
	if err != nil {
		t.Fatal(err)
	}
	raw := ps.Marshal()
	if len(raw) != 66 {
		t.Fatalf("partial signature is %d bytes", len(raw))
	}
	back, err := UnmarshalPartialSignature(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Index != 4 || !back.Z.Equal(ps.Z) || !back.R.Equal(ps.R) {
		t.Fatal("partial signature round trip failed")
	}
	if _, err := UnmarshalPartialSignature(raw[:5]); err == nil {
		t.Fatal("accepted truncated partial")
	}
}

func TestSignatureIs512Bits(t *testing.T) {
	views := keyFixture(t)
	msg := []byte("size check")
	parts := partials(t, views, msg, []int{1, 2, 3})
	sig, err := combine(views[1].PK, views[1].VKs, msg, parts, fixtureT)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sig.Marshal()) * 8; got != 512 {
		t.Fatalf("signature is %d bits, paper says 512", got)
	}
}

func TestShareSizeIsConstant(t *testing.T) {
	views := keyFixture(t)
	if got := views[1].Share.SizeBytes(); got != 128 {
		t.Fatalf("share size %d bytes, want 128 (four 32-byte scalars)", got)
	}
}

func TestVerifyRejectsNil(t *testing.T) {
	views := keyFixture(t)
	if views[1].PK.Verify([]byte("m"), nil) {
		t.Fatal("nil signature accepted")
	}
	if views[1].PK.Verify([]byte("m"), &Signature{}) {
		t.Fatal("empty signature accepted")
	}
}

// sessionPlayer is an engine.Player whose behaviour is one closure,
// returning the round's messages and whether the player is done.
type sessionPlayer struct {
	id   int
	step func(round int, in []engine.Message) ([]engine.Message, bool)
	done bool
}

func (p *sessionPlayer) ID() int    { return p.id }
func (p *sessionPlayer) Done() bool { return p.done }
func (p *sessionPlayer) Step(round int, in []engine.Message) ([]engine.Message, error) {
	out, done := p.step(round, in)
	p.done = done
	return out, nil
}

// signSession runs one signing request through engine.RunLocal: in round
// 0 each listed signer unicasts its partial signature (one bit flipped if
// corrupted) to a combiner, player n+1, which combines what arrived.
func signSession(t *testing.T, views []*KeyShares, signers []int, corrupted map[int]bool, msg []byte) (*Signature, error) {
	t.Helper()
	n := len(views) - 1
	players := make([]engine.Player, n+1)
	for i := 1; i <= n; i++ {
		players[i-1] = &sessionPlayer{id: i, step: func(round int, _ []engine.Message) ([]engine.Message, bool) {
			if round > 0 || !slices.Contains(signers, i) {
				return nil, true
			}
			ps, err := shareSign(fixtureParams, views[i].Share, msg)
			if err != nil {
				t.Errorf("shareSign(%d): %v", i, err)
				return nil, true
			}
			payload := ps.Marshal()
			if corrupted[i] {
				payload[len(payload)-1] ^= 0x01
			}
			return []engine.Message{{To: n + 1, Kind: "sign/partial", Payload: payload}}, true
		}}
	}
	var sig *Signature
	var combineErr error
	players[n] = &sessionPlayer{id: n + 1, step: func(round int, in []engine.Message) ([]engine.Message, bool) {
		if round == 0 {
			return nil, false
		}
		var parts []*PartialSignature
		for _, m := range in {
			if ps, err := UnmarshalPartialSignature(m.Payload); err == nil && ps.Index == m.From {
				parts = append(parts, ps)
			}
		}
		sig, combineErr = combine(views[1].PK, views[1].VKs, msg, parts, fixtureT)
		return nil, true
	}}
	if _, err := engine.RunLocal(players, 5); err != nil {
		t.Fatal(err)
	}
	return sig, combineErr
}

func TestDistributedSignToleratesCorruptSigners(t *testing.T) {
	views := keyFixture(t)
	msg := []byte("byzantine signing")
	// 5 signers, 2 of them (up to t) emit garbage: still succeeds.
	sig, err := signSession(t, views, []int{1, 2, 3, 4, 5}, map[int]bool{2: true, 5: true}, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !views[1].PK.Verify(msg, sig) {
		t.Fatal("session signature invalid under corruption")
	}
	// With only t+1 signers of which one corrupt, combining must fail.
	if _, err := signSession(t, views, []int{1, 2, 3}, map[int]bool{2: true}, msg); err == nil {
		t.Fatal("session succeeded without t+1 valid shares")
	}
}

func TestProactiveRefresh(t *testing.T) {
	views := keyFixture(t)
	msg := []byte("proactive security")

	refresh, err := RunRefresh(fixtureParams, fixtureN, fixtureT)
	if err != nil {
		t.Fatal(err)
	}
	newViews := make([]*KeyShares, fixtureN+1)
	for i := 1; i <= fixtureN; i++ {
		newViews[i], err = applyRefresh(views[i], refresh.Results[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	// Public key unchanged.
	if !newViews[1].PK.Equal(views[1].PK) {
		t.Fatal("refresh changed the public key")
	}
	// Shares changed.
	if newViews[1].Share.A1.Cmp(views[1].Share.A1) == 0 {
		t.Fatal("refresh did not re-randomize shares")
	}
	// Old and new shares must NOT be mixable: a combine using old VKs with
	// new partials fails share verification.
	psNew, err := shareSign(fixtureParams, newViews[2].Share, msg)
	if err != nil {
		t.Fatal(err)
	}
	if shareVerify(views[1].PK, views[1].VKs[2], msg, psNew) {
		t.Fatal("new share verified against pre-refresh VK")
	}
	if !shareVerify(newViews[1].PK, newViews[1].VKs[2], msg, psNew) {
		t.Fatal("new share rejected against refreshed VK")
	}
	// Signing still works after two more epochs.
	cur := newViews
	for epoch := 0; epoch < 2; epoch++ {
		r, err := RunRefresh(fixtureParams, fixtureN, fixtureT)
		if err != nil {
			t.Fatal(err)
		}
		next := make([]*KeyShares, fixtureN+1)
		for i := 1; i <= fixtureN; i++ {
			next[i], err = applyRefresh(cur[i], r.Results[i])
			if err != nil {
				t.Fatal(err)
			}
		}
		cur = next
	}
	var parts []*PartialSignature
	for _, i := range []int{2, 3, 5} {
		ps, err := shareSign(fixtureParams, cur[i].Share, msg)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, ps)
	}
	sig, err := combine(cur[1].PK, cur[1].VKs, msg, parts, fixtureT)
	if err != nil {
		t.Fatal(err)
	}
	if !views[1].PK.Verify(msg, sig) {
		t.Fatal("signature after 3 refresh epochs rejected under the ORIGINAL key")
	}
}

func TestApplyRefreshValidation(t *testing.T) {
	views := keyFixture(t)
	refresh, err := RunRefresh(fixtureParams, fixtureN, fixtureT)
	if err != nil {
		t.Fatal(err)
	}
	// Result of player 2 applied to player 1's share must be rejected.
	if _, err := applyRefresh(views[1], refresh.Results[2]); err == nil {
		t.Fatal("accepted mismatched refresh result")
	}
	// A non-refresh DKG result (non-identity PK) must be rejected.
	normal, _, err := DistKeygen(fixtureParams, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = normal
	other, err := RunRefresh(fixtureParams, fixtureN, fixtureT)
	if err != nil {
		t.Fatal(err)
	}
	_ = other
}

func TestLHSPSVerifyAgreesWithSchemeVerify(t *testing.T) {
	// The threshold signature is literally an LHSPS signature on H(M):
	// check the equivalence explicitly.
	views := keyFixture(t)
	msg := []byte("lhsps view")
	parts := partials(t, views, msg, []int{1, 2, 3})
	sig, err := combine(views[1].PK, views[1].VKs, msg, parts, fixtureT)
	if err != nil {
		t.Fatal(err)
	}
	h := fixtureParams.HashMessage(msg)
	lhKey := &lhsps.PublicKey{Params: fixtureParams.LH, Gk: []*bn254.G2{views[1].PK.G1, views[1].PK.G2}}
	if !lhKey.Verify(h, sig) {
		t.Fatal("LHSPS view of the signature does not verify")
	}
}
