package dkg

import (
	"crypto/sha256"
	"reflect"
	"slices"
	"testing"
)

// streamRand is a deterministic entropy source: an expanding SHA-256
// counter stream. Two readers built from the same seed produce identical
// byte streams, which makes whole protocol runs reproducible as long as
// every player reads from the shared source in a deterministic order.
type streamRand struct {
	seed  [32]byte
	buf   []byte
	block uint64
}

func newStreamRand(seed string) *streamRand {
	return &streamRand{seed: sha256.Sum256([]byte(seed))}
}

func (r *streamRand) Read(p []byte) (int, error) {
	for len(r.buf) < len(p) {
		h := sha256.New()
		h.Write(r.seed[:])
		var ctr [8]byte
		for i := 0; i < 8; i++ {
			ctr[i] = byte(r.block >> (8 * i))
		}
		h.Write(ctr[:])
		r.block++
		r.buf = h.Sum(r.buf)
	}
	n := copy(p, r.buf[:len(p)])
	r.buf = r.buf[n:]
	return n, nil
}

// seededRun runs a 5-of-2 DKG (or refresh) whose players all read from
// one entropy stream seeded with seed.
func seededRun(t *testing.T, seed string, refresh bool) *Outcome {
	t.Helper()
	cfg := testConfig(5, 2, 2)
	cfg.Refresh = refresh
	cfg.Rng = newStreamRand(seed)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireIdenticalOutcomes fails unless a and b agree bit for bit on
// every player's shares, public key and QUAL, and on the traffic
// statistics.
func requireIdenticalOutcomes(t *testing.T, a, b *Outcome) {
	t.Helper()
	for i := 1; i < len(a.Results); i++ {
		ra, rb := a.Results[i], b.Results[i]
		if !slices.Equal(ra.Qual, rb.Qual) {
			t.Fatalf("player %d: QUAL diverged: %v vs %v", i, ra.Qual, rb.Qual)
		}
		for k := range ra.PK {
			for d := range ra.PK[k] {
				if !ra.PK[k][d].Equal(rb.PK[k][d]) {
					t.Fatalf("player %d: PK[%d][%d] diverged", i, k, d)
				}
			}
			for d := range ra.Share[k] {
				if ra.Share[k][d].Cmp(rb.Share[k][d]) != 0 {
					t.Fatalf("player %d: share (%d,%d) diverged", i, k, d)
				}
			}
		}
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("traffic stats diverged: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestKeygenDeterministicAcrossRuns pins the property crash-recovery
// harnesses rely on: dkg.Run steps its players sequentially in ID order
// through engine.RunLocal, so two runs with the same seeded entropy
// source produce bit-identical shares, public keys, QUAL and traffic
// statistics. Any nondeterminism in stepping order, routing or delivery
// timing shows up here. A different seed must change the shares, or the
// comparison would be vacuous.
func TestKeygenDeterministicAcrossRuns(t *testing.T) {
	a := seededRun(t, "keygen-seed", false)
	requireIdenticalOutcomes(t, a, seededRun(t, "keygen-seed", false))
	other := seededRun(t, "another-seed", false)
	if a.Results[1].Share[0][0].Cmp(other.Results[1].Share[0][0]) == 0 {
		t.Fatal("the seeded entropy source does not reach the players")
	}
}

// TestRefreshDeterministicAcrossPaths pins the refresh mode the same way:
// two seeded zero-sharing runs agree bit for bit, and neither changes the
// public key.
func TestRefreshDeterministicAcrossPaths(t *testing.T) {
	a := seededRun(t, "refresh-seed", true)
	requireIdenticalOutcomes(t, a, seededRun(t, "refresh-seed", true))
	for i := 1; i < len(a.Results); i++ {
		for k, row := range a.Results[i].PK {
			if !row[0].IsInfinity() {
				t.Fatalf("player %d: refresh changed the public key component %d", i, k)
			}
		}
	}
}
