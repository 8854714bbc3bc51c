package client_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	tsig "repro"
	"repro/client"
	"repro/service"
)

// startGroup brings a whole signing service up on loopback: n signer
// daemons plus the coordinator gateway. Real deployments run each piece
// with cmd/tsigd; the topology and the client code are identical.
func startGroup(n, t int) (*tsig.Group, string, func()) {
	scheme := tsig.NewScheme(tsig.WithDomain("client-example/v1"))
	group, members, err := scheme.Keygen(n, t)
	if err != nil {
		log.Fatal(err)
	}
	var closers []func()
	urls := make([]string, n)
	for i, m := range members {
		signer, err := service.NewSigner(m, service.SignerConfig{})
		if err != nil {
			log.Fatal(err)
		}
		srv := httptest.NewServer(signer)
		closers = append(closers, srv.Close)
		urls[i] = srv.URL
	}
	coord, err := service.NewCoordinator(group, urls, service.CoordinatorConfig{})
	if err != nil {
		log.Fatal(err)
	}
	gw := httptest.NewServer(coord)
	closers = append(closers, gw.Close)
	stop := func() {
		for _, c := range closers {
			c()
		}
	}
	return group, gw.URL, stop
}

// Remote signing: one request to the coordinator yields a full threshold
// signature, verified against the locally trusted group.
func ExampleClient_Sign() {
	group, gatewayURL, stop := startGroup(5, 2)
	defer stop()

	c := &client.Client{BaseURL: gatewayURL} // Transport defaults to http.DefaultClient
	msg := []byte("remote signing example")
	sig, receipt, err := c.Sign(context.Background(), msg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("signers used:", len(receipt.Signers))
	fmt.Println("verifies locally:", group.Verify(msg, sig))
	// Output:
	// signers used: 3
	// verifies locally: true
}

// Batch signing: many messages, one round-trip, per-message results.
func ExampleClient_SignBatch() {
	group, gatewayURL, stop := startGroup(3, 1)
	defer stop()

	c := &client.Client{BaseURL: gatewayURL}
	msgs := [][]byte{
		[]byte("invoice 0001"),
		[]byte("invoice 0002"),
		[]byte("invoice 0003"),
	}
	sigs, _, err := c.SignBatch(context.Background(), msgs)
	if err != nil {
		log.Fatal(err)
	}
	ok := 0
	for j, sig := range sigs {
		if sig != nil && group.Verify(msgs[j], sig) {
			ok++
		}
	}
	fmt.Printf("%d/%d messages signed and verified\n", ok, len(msgs))
	// Output:
	// 3/3 messages signed and verified
}
