package dkg

import (
	"fmt"
	"math/big"
	"testing"
	"time"

	"repro/internal/bn254"
)

// affineVerificationKey is the per-dealer evaluation VerificationKey used
// before the commitment rows were summed over Qual: every term W^_jkl^{i^l}
// of every dealer normalized to affine and added in affine coordinates.
// It is the oracle the summed, Jacobian evaluation must reproduce.
func affineVerificationKey(r *Result, i int) [][]*bn254.G2 {
	dim := r.Config.Scheme.CommitDim()
	x := big.NewInt(int64(i))
	out := make([][]*bn254.G2, r.Config.NumSharings)
	for k := range out {
		acc := make([]*bn254.G2, dim)
		for d := range acc {
			acc[d] = new(bn254.G2)
		}
		for _, j := range r.Qual {
			pow := big.NewInt(1)
			var term bn254.G2
			for _, w := range r.Commitments[j][k] {
				for d := range acc {
					term.ScalarMult(w[d], pow)
					acc[d].Add(acc[d], &term)
				}
				pow = new(big.Int).Mul(pow, x)
			}
		}
		out[k] = acc
	}
	return out
}

func testDLINScheme() DLINScheme {
	gen := func(tag byte) *bn254.G2 { return bn254.HashToG2("dkg-test/dlin", []byte{tag}) }
	return NewDLINScheme(gen(0), gen(1), gen(2), gen(3))
}

// vkSchemes are the two commitment schemes a DKG runs under.
var vkSchemes = []struct {
	name   string
	scheme func() CommitScheme
}{
	{"pedersen", func() CommitScheme { return PedersenScheme{Params: testParams} }},
	{"dlin", func() CommitScheme { return testDLINScheme() }},
}

func sameRows(a, b [][]*bn254.G2) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if len(a[k]) != len(b[k]) {
			return false
		}
		for d := range a[k] {
			if !a[k][d].Equal(b[k][d]) {
				return false
			}
		}
	}
	return true
}

// TestVerificationKeysMatchAffineEvaluation: the VKs derived from the
// summed commitment rows equal the per-dealer affine evaluation, through
// VerificationKey, AllVerificationKeys and a Result built by hand (which
// sums on demand), for both commitment schemes and n = 5, 9, 16; and the
// public key is the sum of the dealers' constant rows.
func TestVerificationKeysMatchAffineEvaluation(t *testing.T) {
	for _, sc := range vkSchemes {
		for _, n := range []int{5, 9, 16} {
			t.Run(fmt.Sprintf("%s/n=%d", sc.name, n), func(t *testing.T) {
				if testing.Short() && n > 5 {
					t.Skip("large DKG in -short mode")
				}
				cfg := Config{N: n, T: (n - 1) / 2, NumSharings: 2, Scheme: sc.scheme()}
				out, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := out.Results[1]
				byHand := &Result{Config: ref.Config, Qual: ref.Qual, Commitments: ref.Commitments}
				all := ref.AllVerificationKeys()
				for i := 1; i <= n; i++ {
					want := affineVerificationKey(ref, i)
					if !sameRows(all[i], want) {
						t.Fatalf("AllVerificationKeys()[%d] differs from the affine evaluation", i)
					}
					if !sameRows(ref.VerificationKey(i), want) {
						t.Fatalf("VerificationKey(%d) differs from the affine evaluation", i)
					}
					if !sameRows(byHand.VerificationKey(i), want) {
						t.Fatalf("hand-built Result: VerificationKey(%d) differs from the affine evaluation", i)
					}
				}
				if !sameRows(ref.PK, affineVerificationKey(ref, 0)) {
					t.Fatal("PK differs from the sum of the dealers' constant rows")
				}
			})
		}
	}
}

// BenchmarkAllVerificationKeys times deriving all n VKs from one DKG's
// transcript — the per-dealer affine evaluation against the summed
// Jacobian one — round-robin, so both see the same machine weather.
// Rows are summed once per Result, so the "summed" variant includes the
// summation the protocol itself does at finalize.
func BenchmarkAllVerificationKeys(b *testing.B) {
	for _, n := range []int{5, 9, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			out, err := Run(testConfig(n, (n-1)/2, 2))
			if err != nil {
				b.Fatal(err)
			}
			ref := out.Results[1]
			byHand := &Result{Config: ref.Config, Qual: ref.Qual, Commitments: ref.Commitments}
			var affine, summed time.Duration
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				start := time.Now()
				for i := 1; i <= n; i++ {
					affineVerificationKey(ref, i)
				}
				affine += time.Since(start)
				start = time.Now()
				byHand.AllVerificationKeys()
				summed += time.Since(start)
			}
			b.ReportMetric(0, "ns/op")
			b.ReportMetric(float64(affine.Microseconds())/float64(b.N), "affine-per-dealer-us/op")
			b.ReportMetric(float64(summed.Microseconds())/float64(b.N), "summed-jacobian-us/op")
		})
	}
}
