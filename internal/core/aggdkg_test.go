package core

import (
	"testing"

	"repro/internal/bn254"
	"repro/internal/dkg"
	"repro/internal/engine"
)

// badAggProofPlayer runs the Appendix G DKG but broadcasts a corrupted
// (Z_i0, R_i0) proof: "any player who sent incorrect verification values
// is immediately disqualified" — every honest player must exclude it from
// QUAL via the publicly checkable pairing equation.
type badAggProofPlayer struct {
	*aggPlayer
}

func (p *badAggProofPlayer) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	msgs, err := p.aggPlayer.Step(round, delivered)
	if err != nil {
		return nil, err
	}
	if round == 0 {
		for i := range msgs {
			if msgs[i].Kind == KindAggProof {
				// Replace Z with a random point: the proof no longer
				// satisfies the validity equation.
				bad := bn254.HashToG1("bad-proof", []byte("z")).Marshal()
				payload := append([]byte(nil), msgs[i].Payload...)
				copy(payload[:bn254.G1SizeUncompressed], bad)
				msgs[i].Payload = payload
			}
		}
	}
	return msgs, nil
}

func TestAggDKGDisqualifiesBadProof(t *testing.T) {
	params := NewAggParams("aggdkg-cheater")
	cfg := dkg.Config{N: 5, T: 2, NumSharings: Dim, Scheme: dkg.PedersenScheme{Params: params.LH}}
	players := make([]engine.Player, cfg.N)
	aggs := make([]*aggPlayer, cfg.N+1)
	for i := 1; i <= cfg.N; i++ {
		ap, err := newAggPlayer(params, cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		aggs[i] = ap
		if i == 3 {
			players[i-1] = &badAggProofPlayer{aggPlayer: ap}
			continue
		}
		players[i-1] = ap
	}
	if _, err := engine.RunLocal(players, dkg.MaxRounds); err != nil {
		t.Fatal(err)
	}
	// All honest players exclude dealer 3 and still agree on a valid key.
	var ref *AggKeyShares
	for _, i := range []int{1, 2, 4, 5} {
		view, err := aggs[i].aggResult()
		if err != nil {
			t.Fatalf("player %d: %v", i, err)
		}
		res, err := aggs[i].Result()
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range res.Qual {
			if q == 3 {
				t.Fatal("dealer with a bad aggregation proof stayed in QUAL")
			}
		}
		if ref == nil {
			ref = view
			continue
		}
		if !view.PK.Equal(ref.PK) {
			t.Fatal("honest players disagree after disqualification")
		}
	}
	if !ref.PK.SanityCheck() {
		t.Fatal("surviving key fails its own sanity proof")
	}
	// And the resulting group can still sign (threshold intact with 4 of 5).
	msg := []byte("post-disqualification signing")
	var parts []*PartialSignature
	for _, i := range []int{1, 2, 4} {
		view, err := aggs[i].aggResult()
		if err != nil {
			t.Fatal(err)
		}
		ps, err := AggShareSign(ref.PK, view.Share, msg)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, ps)
	}
	sig, err := AggCombine(ref.PK, ref.VKs, msg, parts, cfg.T)
	if err != nil {
		t.Fatal(err)
	}
	if !AggVerifySingle(ref.PK, msg, sig) {
		t.Fatal("post-disqualification signature invalid")
	}
}

func TestAggDKGMissingProofDisqualifies(t *testing.T) {
	// A dealer that deals correctly but never broadcasts its proof is
	// excluded too.
	params := NewAggParams("aggdkg-silent")
	cfg := dkg.Config{N: 3, T: 1, NumSharings: Dim, Scheme: dkg.PedersenScheme{Params: params.LH}}
	players := make([]engine.Player, cfg.N)
	aggs := make([]*aggPlayer, cfg.N+1)
	for i := 1; i <= cfg.N; i++ {
		ap, err := newAggPlayer(params, cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		aggs[i] = ap
		if i == 2 {
			players[i-1] = &proofSuppressor{aggPlayer: ap}
			continue
		}
		players[i-1] = ap
	}
	if _, err := engine.RunLocal(players, dkg.MaxRounds); err != nil {
		t.Fatal(err)
	}
	res, err := aggs[1].Result()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range res.Qual {
		if q == 2 {
			t.Fatal("dealer without an aggregation proof stayed in QUAL")
		}
	}
}

type proofSuppressor struct {
	*aggPlayer
}

func (p *proofSuppressor) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	msgs, err := p.aggPlayer.Step(round, delivered)
	if err != nil {
		return nil, err
	}
	if round == 0 {
		kept := msgs[:0]
		for _, m := range msgs {
			if m.Kind != KindAggProof {
				kept = append(kept, m)
			}
		}
		msgs = kept
	}
	return msgs, nil
}
