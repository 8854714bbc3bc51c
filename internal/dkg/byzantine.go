package dkg

import (
	"repro/internal/bn254"
	"repro/internal/engine"
)

// This file provides Byzantine player implementations used by the failure-
// injection tests, the byzantine-dkg example and the Pedersen-bias
// experiment (E11). Each wraps or replaces the honest state machine with a
// specific deviation.

// CrashPlayer never sends anything (a crashed or silent party). Its dealing
// is absent, so honest players exclude it from QUAL.
type CrashPlayer struct {
	Id int
}

// ID implements engine.Player.
func (p *CrashPlayer) ID() int { return p.Id }

// Done implements engine.Player: a crashed player never reports.
func (p *CrashPlayer) Done() bool { return true }

// Step implements engine.Player.
func (p *CrashPlayer) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	return nil, nil
}

// WrongShareDealer behaves honestly except that it corrupts the private
// shares it sends to the players listed in Victims. The victims complain;
// the dealer then justifies the complaints with the correct shares (so a
// single corrupted share does not disqualify it — the protocol heals).
// If RefuseResponse is set the dealer stays silent in the response round
// and is disqualified.
type WrongShareDealer struct {
	*HonestPlayer
	Victims        []int
	RefuseResponse bool
}

// Step overrides the honest behaviour in the dealing and response rounds.
func (p *WrongShareDealer) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	msgs, err := p.HonestPlayer.Step(round, delivered)
	if err != nil {
		return nil, err
	}
	switch round {
	case 0:
		victim := make(map[int]bool, len(p.Victims))
		for _, v := range p.Victims {
			victim[v] = true
		}
		for i := range msgs {
			if msgs[i].Kind == KindShare && victim[msgs[i].To] {
				// Flip a byte of the first scalar: the share no longer
				// satisfies equation (1).
				corrupted := append([]byte(nil), msgs[i].Payload...)
				corrupted[scalarLen-1] ^= 0xff
				msgs[i].Payload = corrupted
			}
		}
	case 2:
		if p.RefuseResponse {
			filtered := msgs[:0]
			for _, m := range msgs {
				if m.Kind != KindResponse {
					filtered = append(filtered, m)
				}
			}
			msgs = filtered
		}
	}
	return msgs, nil
}

// Done reports completion. A dealer that refuses to respond disqualifies
// itself; its own honest machine then has no valid output, so it simply
// reports done once the protocol is past the response round.
func (p *WrongShareDealer) Done() bool {
	if p.RefuseResponse {
		return true
	}
	return p.HonestPlayer.Done()
}

// FalseComplainer behaves honestly but additionally broadcasts an
// unjustified complaint against Target in round 1. The target answers with
// the correct share and stays qualified.
type FalseComplainer struct {
	*HonestPlayer
	Target int
}

// Step adds the spurious complaint to the honest output.
func (p *FalseComplainer) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	msgs, err := p.HonestPlayer.Step(round, delivered)
	if err != nil {
		return nil, err
	}
	if round == 1 {
		msgs = append(msgs, engine.Message{
			To:      engine.Broadcast,
			Kind:    KindComplaint,
			Payload: encodeComplaint(p.Target),
		})
	}
	return msgs, nil
}

// ExclusionRule decides, from the full (broadcast, hence common) view of
// round-0 commitments, whether the adversary should remove its own
// contribution from the final key. deals maps dealer index to its
// commitment matrix [k][l]. The rule must be deterministic: attacker and
// helper evaluate it independently on the identical broadcast view.
type ExclusionRule func(deals map[int][][][]*bn254.G2) bool

// decodeDeliveredDeals reconstructs the common broadcast view.
func decodeDeliveredDeals(cfg Config, delivered []engine.Message) map[int][][][]*bn254.G2 {
	deals := make(map[int][][][]*bn254.G2)
	for _, m := range delivered {
		if m.Kind != KindDeal || !m.IsBroadcast() {
			continue
		}
		if _, dup := deals[m.From]; dup {
			continue
		}
		comms, err := decodeDeal(m.Payload, cfg.NumSharings, cfg.T, cfg.Scheme.CommitDim())
		if err != nil {
			continue
		}
		deals[m.From] = comms
	}
	return deals
}

// BiasAttacker implements the Gennaro et al. [41] attack demonstrating
// that Pedersen's DKG does not output uniformly distributed public keys:
// an adversary controlling two players decides, AFTER seeing every
// dealer's round-0 commitments, whether its own contribution stays in
// QUAL. If the exclusion rule fires, the colluding helper raises a false
// complaint and the attacker deliberately refuses to justify it, which
// disqualifies the attacker and removes its contribution W^_a,k,0 from the
// product defining the public key.
//
// The adversary thereby gets two draws at any predicate of the key
// (Pr ~ 3/4 instead of 1/2), which is exactly why the paper's security
// proof cannot assume a uniform key and argues directly from the key
// homomorphism instead.
type BiasAttacker struct {
	*HonestPlayer
	Rule ExclusionRule

	exclude bool
}

// Step runs the honest machine, injecting self-sabotage when Rule fires.
func (p *BiasAttacker) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	if round == 1 {
		p.exclude = p.Rule(decodeDeliveredDeals(p.HonestPlayer.cfg, delivered))
	}
	msgs, err := p.HonestPlayer.Step(round, delivered)
	if err != nil {
		if p.exclude {
			return nil, nil // the sabotaged machine has no output; expected
		}
		return nil, err
	}
	if round == 2 && p.exclude {
		filtered := msgs[:0]
		for _, m := range msgs {
			if m.Kind != KindResponse {
				filtered = append(filtered, m)
			}
		}
		msgs = filtered
	}
	return msgs, nil
}

// Done reports completion (a self-excluded attacker has no honest output).
func (p *BiasAttacker) Done() bool {
	if p.exclude {
		return true
	}
	return p.HonestPlayer.Done()
}

// BiasHelper is the attacker's accomplice: honest except that it evaluates
// the same exclusion rule and, when it fires, broadcasts the collusive
// false complaint against the attacker.
type BiasHelper struct {
	*HonestPlayer
	AttackerID int
	Rule       ExclusionRule

	exclude bool
}

// Step adds the collusive complaint when the rule fires.
func (p *BiasHelper) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	if round == 1 {
		p.exclude = p.Rule(decodeDeliveredDeals(p.HonestPlayer.cfg, delivered))
	}
	msgs, err := p.HonestPlayer.Step(round, delivered)
	if err != nil {
		return nil, err
	}
	if round == 1 && p.exclude {
		msgs = append(msgs, engine.Message{
			To:      engine.Broadcast,
			Kind:    KindComplaint,
			Payload: encodeComplaint(p.AttackerID),
		})
	}
	return msgs, nil
}
