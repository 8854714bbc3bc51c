package main

import (
	"testing"

	tsig "repro"
)

// TestSignRoundIsOneRoundOfUnicasts pins the E7 rows: signing is one
// communication round of one unicast per signer and no broadcasts, also
// when up to t signers send garbage.
func TestSignRoundIsOneRoundOfUnicasts(t *testing.T) {
	group, members, err := tsig.NewScheme(tsig.WithDomain("benchtables-test")).Keygen(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("round probe")
	for _, tc := range []struct {
		signers []int
		faulty  map[int]bool
	}{
		{[]int{1, 3, 5}, nil},
		{[]int{1, 2, 3, 4, 5}, map[int]bool{2: true, 5: true}},
	} {
		st := signRound(group, members, tc.signers, tc.faulty, msg)
		if st.CommunicationRounds() != 1 || st.UnicastMessages != len(tc.signers) || st.BroadcastMessages != 0 {
			t.Fatalf("signers %v, faulty %v: stats %+v", tc.signers, tc.faulty, st)
		}
	}
}
