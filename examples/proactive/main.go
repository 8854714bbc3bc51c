// Command proactive demonstrates the Section 3.3 proactive security
// extension against a MOBILE adversary: one that may eventually visit
// every server, as long as it never controls more than t at once.
//
// The members periodically apply a zero-sharing refresh epoch: every
// share and verification key is re-randomized while the public key — and
// hence every verifier — is untouched. Shares stolen in different epochs
// do not combine, so the adversary must breach t+1 servers WITHIN one
// epoch. A crashed member is restored with the share-recovery protocol,
// without any share ever being reconstructed in one place.
package main

import (
	"fmt"
	"log"

	tsig "repro"
)

func main() {
	const (
		n      = 5
		t      = 2
		epochs = 3
	)
	scheme := tsig.NewScheme(tsig.WithDomain("proactive/v1"))

	fmt.Println("== Epoch 0: distributed key generation ==")
	group, members, err := scheme.Keygen(n, t)
	if err != nil {
		log.Fatalf("Dist-Keygen: %v", err)
	}
	originalGroup := group
	msg := []byte("long-lived service key, signed across epochs")

	// The mobile adversary steals shares: member 1 in epoch 0, member 2
	// in epoch 1, member 3 in epoch 2 — t+1 shares in total, but never
	// more than one per epoch.
	type stolen struct {
		epoch  int
		member *tsig.Member
	}
	loot := []stolen{{0, members[0]}}

	for epoch := 1; epoch <= epochs; epoch++ {
		fmt.Printf("\n== Epoch %d: refresh (zero-sharing DKG) ==\n", epoch)
		refresh, err := scheme.RunRefresh(n, t)
		if err != nil {
			log.Fatalf("refresh: %v", err)
		}
		next := make([]*tsig.Member, n)
		for i, m := range members {
			if next[i], err = m.ApplyRefresh(refresh); err != nil {
				log.Fatalf("apply refresh: %v", err)
			}
		}
		members = next
		group = members[0].Group()
		fmt.Printf("public key unchanged: %v\n", group.PK.Equal(originalGroup.PK))
		if epoch <= 2 {
			victim := epoch // members[1] in epoch 1, members[2] in epoch 2
			loot = append(loot, stolen{epoch, members[victim]})
			fmt.Printf("adversary breaches server %d this epoch\n", members[victim].Index())
		}

		// The service keeps signing normally with current shares.
		var parts []*tsig.PartialSignature
		for _, i := range []int{1, 3, 4} {
			ps, err := members[i].SignShare(msg)
			if err != nil {
				log.Fatalf("SignShare: %v", err)
			}
			parts = append(parts, ps)
		}
		sig, err := group.Combine(msg, parts)
		if err != nil {
			log.Fatalf("Combine: %v", err)
		}
		fmt.Printf("epoch-%d signature verifies under the ORIGINAL public key: %v\n",
			epoch, originalGroup.Verify(msg, sig))
	}

	fmt.Printf("\n== The adversary now holds %d shares (one per epoch) ==\n", len(loot))
	// Cross-epoch shares are inconsistent sharings: partial signatures made
	// from them do not pass share verification against ANY single epoch's
	// verification keys, so they cannot be combined.
	target := []byte("adversarial target message")
	var crossParts []*tsig.PartialSignature
	for _, s := range loot {
		ps, err := s.member.SignShare(target)
		if err != nil {
			log.Fatalf("adversary signing: %v", err)
		}
		crossParts = append(crossParts, ps)
	}
	if _, err := group.Combine(target, crossParts); err != nil {
		fmt.Printf("combining cross-epoch loot fails as expected: %v\n", err)
	} else {
		log.Fatal("cross-epoch shares combined — proactive security broken!")
	}

	fmt.Println("\n== Share recovery: server 2 crashed and lost its current share ==")
	recovered, err := group.RecoverShare([]*tsig.Member{members[0], members[2], members[3]}, 2, nil)
	if err != nil {
		log.Fatalf("recovery: %v", err)
	}
	ps, err := recovered.SignShare(msg)
	if err != nil {
		log.Fatalf("recovered member signing: %v", err)
	}
	fmt.Printf("recovered member %d signs validly again: %v\n",
		recovered.Index(), group.ShareVerify(msg, ps))
}
