package core

import (
	"crypto/rand"
	"math/big"
	"strings"
	"testing"

	"repro/internal/engine"
)

func TestShareRecoveryRestoresExactShare(t *testing.T) {
	views := keyFixture(t)
	// Player 4 "loses" its share; helpers 1, 2, 5 restore it.
	recovered, err := recoverShare(views, fixtureT, 4, []int{1, 2, 5}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	want := views[4].Share
	if recovered.A1.Cmp(want.A1) != 0 || recovered.B1.Cmp(want.B1) != 0 ||
		recovered.A2.Cmp(want.A2) != 0 || recovered.B2.Cmp(want.B2) != 0 {
		t.Fatal("recovered share differs from the original")
	}
	// And it signs: full lifecycle with the recovered share.
	msg := []byte("signed with a recovered share")
	ps, err := shareSign(fixtureParams, recovered, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !shareVerify(views[1].PK, views[1].VKs[4], msg, ps) {
		t.Fatal("partial from recovered share rejected")
	}
	others := partials(t, views, msg, []int{1, 2})
	sig, err := combine(views[1].PK, views[1].VKs, msg, append(others, ps), fixtureT)
	if err != nil {
		t.Fatal(err)
	}
	if !views[1].PK.Verify(msg, sig) {
		t.Fatal("combine with recovered share failed")
	}
}

func TestShareRecoveryWithMoreHelpers(t *testing.T) {
	views := keyFixture(t)
	recovered, err := recoverShare(views, fixtureT, 1, []int{2, 3, 4, 5}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.A1.Cmp(views[1].Share.A1) != 0 {
		t.Fatal("recovery with 4 helpers failed")
	}
}

func TestShareRecoveryValidation(t *testing.T) {
	views := keyFixture(t)
	if _, err := recoverShare(views, fixtureT, 0, []int{1, 2, 3}, rand.Reader); err == nil {
		t.Fatal("accepted out-of-range lost index")
	}
	if _, err := recoverShare(views, fixtureT, 4, []int{1, 2}, rand.Reader); err == nil {
		t.Fatal("accepted too few helpers")
	}
	if _, err := recoverShare(views, fixtureT, 4, []int{1, 2, 4}, rand.Reader); err == nil {
		t.Fatal("accepted the lost player as its own helper")
	}
	if _, err := recoverShare(views, fixtureT, 4, []int{1, 2, 99}, rand.Reader); err == nil {
		t.Fatal("accepted an out-of-range helper")
	}
	if _, err := recoverShare(views, fixtureT, 4, []int{1, 2, 2}, rand.Reader); err == nil || !strings.Contains(err.Error(), "duplicate helper 2") {
		t.Fatalf("duplicate helper: err = %v", err)
	}
}

func TestShareRecoveryAfterRefresh(t *testing.T) {
	// The Section 3.3 story: refresh, then restore a player that missed
	// the epoch; the recovered share belongs to the NEW sharing.
	views := keyFixture(t)
	out, err := RunRefresh(fixtureParams, fixtureN, fixtureT)
	if err != nil {
		t.Fatal(err)
	}
	next := make([]*KeyShares, fixtureN+1)
	for i := 1; i <= fixtureN; i++ {
		next[i], err = applyRefresh(views[i], out.Results[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	recovered, err := recoverShare(next, fixtureT, 3, []int{1, 4, 5}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.A1.Cmp(next[3].Share.A1) != 0 {
		t.Fatal("recovered share is not the post-refresh one")
	}
	if recovered.A1.Cmp(views[3].Share.A1) == 0 {
		t.Fatal("recovered the stale pre-refresh share")
	}
}

// rogueNonHelper is a player outside the helper set that injects a mask
// into one helper and a blinded share into the target in round 0.
type rogueNonHelper struct {
	id, helper, target int
}

func (p *rogueNonHelper) ID() int    { return p.id }
func (p *rogueNonHelper) Done() bool { return true }
func (p *rogueNonHelper) Step(round int, _ []engine.Message) ([]engine.Message, error) {
	if round != 0 {
		return nil, nil
	}
	ones := encodeScalars([]*big.Int{big.NewInt(1), big.NewInt(1), big.NewInt(1), big.NewInt(1)})
	return []engine.Message{
		{To: p.helper, Kind: KindRecoveryMask, Payload: ones},
		{To: p.target, Kind: KindRecoveryBlind, Payload: ones},
	}, nil
}

// TestShareRecoveryIgnoresNonHelpers: with exactly t+1 helpers, messages
// from a player outside the declared helper set must not reach the
// helpers' mask sums or the target's interpolation.
func TestShareRecoveryIgnoresNonHelpers(t *testing.T) {
	views := keyFixture(t)
	players, target, err := recoveryPlayers(views, fixtureT, 4, []int{5, 1, 2}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	players[3-1] = &rogueNonHelper{id: 3, helper: 1, target: 4}
	if _, err := engine.RunLocal(players, 6); err != nil {
		t.Fatal(err)
	}
	if target.share == nil || target.share.A1.Cmp(views[4].Share.A1) != 0 || target.share.B2.Cmp(views[4].Share.B2) != 0 {
		t.Fatal("a non-helper's messages corrupted the recovered share")
	}
}
