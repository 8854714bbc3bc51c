package bn254

import (
	"math/big"
	"testing"
)

// combEdgeScalars are the scalars the comb is pinned on: 0 and r − 1, whose
// recodings are those of r and 1, both parities at both ends of the
// range, and a random scalar of each parity.
func combEdgeScalars(t testing.TB) []*big.Int {
	rm := func(x int64) *big.Int { return new(big.Int).Sub(Order, big.NewInt(x)) }
	ks := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), rm(1), rm(2)}
	for _, parity := range []uint{0, 1} {
		k := randScalarT(t)
		for k.Bit(0) != parity {
			k = randScalarT(t)
		}
		ks = append(ks, k)
	}
	return ks
}

// combShapes are the shapes BenchmarkAblationFixedBase compares: every
// (h, v) with at most 128 entries per base.
var combShapes = []comb{newComb(4, 16), newComb(5, 8), newComb(6, 4), newComb(7, 2), newComb(8, 1)}

// combValue returns the integer the recoded columns encode:
// Σ_j ±2^j·(1 + Σ_i u_i·2^(i·a)).
func combValue(c comb, d *combDigits) *big.Int {
	sum := new(big.Int)
	for j := 0; j < c.columns; j++ {
		col := big.NewInt(1)
		for i := 1; i < c.teeth; i++ {
			if d.idx[j]>>(i-1)&1 == 1 {
				col.Add(col, new(big.Int).Lsh(big.NewInt(1), uint(i*c.columns)))
			}
		}
		col.Lsh(col, uint(j))
		if d.neg[j] != 0 {
			col.Neg(col)
		}
		sum.Add(sum, col)
	}
	return sum
}

// TestCommitG2RecodingIsRegular pins the "same operation sequence for
// every secret" property of the comb's input: every scalar becomes exactly
// a columns, each an index below 2^(h−1) with a sign mask, so every column
// is a nonzero odd digit and costs one lookup and one addition; and the
// columns encode k itself when k is odd and −(r − k) when it is even.
func TestCommitG2RecodingIsRegular(t *testing.T) {
	for _, c := range combShapes {
		if c.teeth*c.columns < 255 || c.columns%c.subTables != 0 || c.columns > combMaxColumns {
			t.Fatalf("shape h=%d v=%d: a=%d", c.teeth, c.subTables, c.columns)
		}
		for _, k := range combEdgeScalars(t) {
			kl := scalarLimbs(k)
			var d combDigits
			c.recode(&d, &kl)
			for j := 0; j < combMaxColumns; j++ {
				if j >= c.columns {
					if d.idx[j] != 0 || d.neg[j] != 0 {
						t.Fatalf("h=%d k=%v: column %d beyond a=%d was written", c.teeth, k, j, c.columns)
					}
					continue
				}
				if int(d.idx[j]) >= c.entries() {
					t.Fatalf("h=%d k=%v: column %d indexes entry %d of %d", c.teeth, k, j, d.idx[j], c.entries())
				}
				if d.neg[j] != 0 && d.neg[j] != ^uint64(0) {
					t.Fatalf("h=%d k=%v: column %d sign mask %#x", c.teeth, k, j, d.neg[j])
				}
			}
			want := new(big.Int).Set(k)
			if k.Bit(0) == 0 {
				want.Sub(want, Order)
			}
			if got := combValue(c, &d); got.Cmp(want) != 0 {
				t.Fatalf("h=%d v=%d k=%v: columns encode %v, want %v", c.teeth, c.subTables, k, got, want)
			}
		}
	}
}

// TestCombShapesAgree: every shape the ablation measures computes the same
// commitments as the generic ladder, for ScalarMult and CommitG2.
func TestCombShapesAgree(t *testing.T) {
	g := HashToG2("comb-test", []byte{1})
	h := HashToG2("comb-test", []byte{2})
	ks := combEdgeScalars(t)
	for _, c := range combShapes {
		fg, fh := newFixedBaseG2(g, c), newFixedBaseG2(h, c)
		for i, a := range ks {
			b := ks[(i+3)%len(ks)]
			want, err := MultiScalarMultG2([]*G2{g, h}, []*big.Int{a, b})
			if err != nil {
				t.Fatal(err)
			}
			if !CommitG2(fg, fh, a, b).Equal(want) {
				t.Fatalf("h=%d v=%d: CommitG2(%v, %v) diverges", c.teeth, c.subTables, a, b)
			}
			if !commitVarTime(fg, fh, a, b).Equal(want) {
				t.Fatalf("h=%d v=%d: variable-time comb diverges", c.teeth, c.subTables)
			}
			var one G2
			one.ScalarMult(g, a)
			if !fg.ScalarMult(a).Equal(&one) {
				t.Fatalf("h=%d v=%d: ScalarMult(%v) diverges", c.teeth, c.subTables, a)
			}
		}
	}
}

func TestCommitG2IdentityBase(t *testing.T) {
	g := HashToG2("comb-test", []byte{3})
	fg := NewFixedBaseG2(g)
	fo := NewFixedBaseG2(new(G2))
	if !fo.Base().IsInfinity() {
		t.Fatal("identity base did not round trip")
	}
	for _, k := range combEdgeScalars(t) {
		var want G2
		want.ScalarMult(g, k)
		if !CommitG2(fg, fo, k, big.NewInt(5)).Equal(&want) {
			t.Fatalf("CommitG2(g, O, %v, 5) != %v·g", k, k)
		}
		if !CommitG2(fo, fg, big.NewInt(7), k).Equal(&want) {
			t.Fatalf("CommitG2(O, g, 7, %v) != %v·g", k, k)
		}
		if !CommitG2(fo, fo, k, k).IsInfinity() || !fo.ScalarMult(k).IsInfinity() {
			t.Fatal("a multiple of the identity is not the identity")
		}
	}
}

func TestCommitG2NegativeAndWideScalars(t *testing.T) {
	g := HashToG2("comb-test", []byte{4})
	h := HashToG2("comb-test", []byte{5})
	fg, fh := NewFixedBaseG2(g), NewFixedBaseG2(h)
	for _, k := range glvEdgeScalars() {
		want, err := MultiScalarMultG2([]*G2{g, h}, []*big.Int{k, new(big.Int).Neg(k)})
		if err != nil {
			t.Fatal(err)
		}
		if !CommitG2(fg, fh, k, new(big.Int).Neg(k)).Equal(want) {
			t.Fatalf("CommitG2(%v, −%v) diverges", k, k)
		}
	}
}

// combRepresents reports whether x = Σ_{j∈cols} σ_j·2^j·(1 + Σ_i u_{j,i}·2^(i·a))
// for some signs σ_j = ±1 and bits u: whether x is the value of some
// digits on those columns, whatever the scalar. Row by row from the
// bottom: row i is the a-bit signed number R_i = Σ_j σ_j·u_{j,i}·2^j, which
// is x mod 2^a or that minus 2^a; row 0 (every u = 1) fixes the signs,
// and a later row's digits are then forced bit by bit.
func combRepresents(c comb, cols []int, x *big.Int) bool {
	in := make([]bool, c.columns)
	for _, j := range cols {
		in[j] = true
	}
	return combRows(c, in, nil, 0, x)
}

func combRows(c comb, in []bool, sigma []int64, row int, v *big.Int) bool {
	if row == c.teeth {
		return v.Sign() == 0
	}
	mod := new(big.Int).Lsh(big.NewInt(1), uint(c.columns))
	low := new(big.Int).Mod(v, mod)
	for _, r := range []*big.Int{low, new(big.Int).Sub(low, mod)} {
		rv := r.Int64()
		sig := sigma
		if row == 0 {
			// Σ σ_j 2^j = 2·Σ_{σ_j=+1} 2^j − Σ_j 2^j.
			var all int64
			for j, ok := range in {
				if ok {
					all |= 1 << j
				}
			}
			pos := rv + all
			if pos < 0 || pos&1 != 0 || (pos>>1)&^all != 0 {
				continue
			}
			sig = make([]int64, c.columns)
			for j, ok := range in {
				if ok {
					sig[j] = 2*((pos>>1)>>j&1) - 1
				}
			}
		} else {
			rem, fits := rv, true
			for j := 0; j < c.columns && fits; j++ {
				if rem&1 != 0 {
					if !in[j] {
						fits = false
						break
					}
					rem -= sig[j]
				}
				rem >>= 1
			}
			if !fits || rem != 0 {
				continue
			}
		}
		next := new(big.Int).Sub(v, r)
		if combRows(c, in, sig, row+1, next.Rsh(next, uint(c.columns))) {
			return true
		}
	}
	return false
}

func TestCombRepresents(t *testing.T) {
	c := defaultComb
	for _, k := range combEdgeScalars(t) {
		kl := scalarLimbs(k)
		var d combDigits
		c.recode(&d, &kl)
		all := make([]int, c.columns)
		for j := range all {
			all[j] = j
		}
		v := combValue(c, &d)
		if !combRepresents(c, all, v) {
			t.Fatalf("k=%v: the recoding's own value is not represented", k)
		}
		if combRepresents(c, all[1:], v) {
			t.Fatalf("k=%v: represented without column 0, which every odd value needs", k)
		}
	}
}

// TestCombEarlyAdditionsAreGeneric backs the argument in fixedbase.go.
// Before a scalar's m-th lookup the running sum is M·B and the entry ±C·B;
// addMixed and double branch only if M ∓ C or M is ≡ 0 (mod r), and
// either is the value of digits on the first m columns of the ladder's
// order: a nonzero integer below 2^(h·a), so t·r with 0 < |t| < 2^(h·a)/r.
// At every lookup, either no such t·r is the value of any digits on those
// columns — no scalar at all takes a branch there — or the branch fixes k
// up to sign by the digits of the columns from the m-th on, and those
// leave at most 2^(h(L−m+1)+1) ≤ 2^-120·r scalars. For the default shape
// the first case holds for all but the last two lookups.
func TestCombEarlyAdditionsAreGeneric(t *testing.T) {
	c := defaultComb
	if c.columns >= 62 {
		t.Fatal("rows must fit an int64")
	}
	var order []int
	for s := c.steps - 1; s >= 0; s-- {
		for b := 0; b < c.subTables; b++ {
			order = append(order, b*c.steps+s)
		}
	}
	L := len(order)
	top := new(big.Int).Lsh(big.NewInt(1), uint(c.teeth*c.columns))
	maxT := new(big.Int).Quo(top, Order).Int64()
	cleared := 0
	for m := 1; m <= L; m++ {
		counted := c.teeth*(L-m+1)+1 <= Order.BitLen()-1-120
		for tt := -maxT; tt <= maxT; tt++ {
			if tt == 0 {
				continue
			}
			x := new(big.Int).Mul(big.NewInt(tt), Order)
			if combRepresents(c, order[:m], x) {
				if !counted {
					t.Fatalf("lookup %d of %d: %d·r is the value of digits on columns %v", m, L, tt, order[:m])
				}
				break
			}
			if tt == maxT {
				cleared++
			}
		}
	}
	if cleared != L-2 {
		t.Errorf("%d of %d lookups cleared by the digit check, want %d: update fixedbase.go's argument", cleared, L, L-2)
	}
}

// FuzzCommitG2: the comb's Pedersen commitment equals the generic
// multi-scalar ladder for any pair of scalars of either sign.
func FuzzCommitG2(f *testing.F) {
	edges := combEdgeScalars(f)
	for i, k := range edges {
		f.Add(k.Bytes(), edges[(i+1)%len(edges)].Bytes(), uint8(i))
	}
	g := HashToG2("comb-fuzz", []byte{1})
	h := HashToG2("comb-fuzz", []byte{2})
	fg, fh := NewFixedBaseG2(g), NewFixedBaseG2(h)
	f.Fuzz(func(t *testing.T, a, b []byte, signs uint8) {
		if len(a) > 40 || len(b) > 40 {
			return
		}
		ka, kb := new(big.Int).SetBytes(a), new(big.Int).SetBytes(b)
		if signs&1 == 1 {
			ka.Neg(ka)
		}
		if signs&2 == 2 {
			kb.Neg(kb)
		}
		want, err := MultiScalarMultG2([]*G2{g, h}, []*big.Int{ka, kb})
		if err != nil {
			t.Fatal(err)
		}
		if !CommitG2(fg, fh, ka, kb).Equal(want) {
			t.Fatalf("CommitG2(%v, %v) diverges from MultiScalarMultG2", ka, kb)
		}
	})
}
