package bn254

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Golden vectors: testdata/golden.json was written by this file at commit
// 4c95cba, when fp was a big.Int, and is asserted ever since — a change of
// field representation, formulas or schedules must not move one output
// byte. -update rewrites the file from whatever implementation is checked
// out; use it only to add cases, and diff the result.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current implementation")

type goldenHash struct {
	Domain string `json:"domain"`
	Msg    string `json:"msg_hex"`
	G1     string `json:"g1_hex,omitempty"`
	G2     string `json:"g2_hex,omitempty"`
	Scalar string `json:"scalar_hex,omitempty"`
}

type goldenMul struct {
	K            string `json:"k"`
	Uncompressed string `json:"uncompressed_hex"`
	Compressed   string `json:"compressed_hex"`
}

type goldenFile struct {
	Comment      string       `json:"comment"`
	HashToG1     []goldenHash `json:"hash_to_g1"`
	HashToG2     []goldenHash `json:"hash_to_g2"`
	HashToScalar []goldenHash `json:"hash_to_scalar"`
	G1Mul        []goldenMul  `json:"g1_mul"`
	G2Mul        []goldenMul  `json:"g2_mul"`
	PairGens     string       `json:"gt_pair_generators_hex"`
	MultiPair4   string       `json:"gt_multipair4_mixed_hex"`
	GTExp        string       `json:"gt_exp_hex"`
}

var goldenHashInputs = []struct {
	domain string
	msg    []byte
}{
	{"", nil},
	{"golden/v1", nil},
	{"golden/v1", []byte{0}},
	{"golden/v1", []byte("abc")},
	{"golden/v1", []byte("The quick brown fox jumps over the lazy dog")},
	{"golden/v2", []byte("abc")},
	{"tsig/bench/v1", []byte("bench micro message, seed 1")},
	{"LJY13", []byte{0xff, 0xfe, 0xfd}},
	{"a", []byte("b")},
	{"ab", nil},
	{"golden/long", make([]byte, 300)},
	{"golden/ütf8", []byte("héllo")},
}

func goldenScalars() []*big.Int {
	ks := []*big.Int{
		big.NewInt(1), big.NewInt(2), big.NewInt(3), big.NewInt(15), big.NewInt(16), big.NewInt(17),
		new(big.Int).Lsh(big.NewInt(1), 128),
		new(big.Int).Sub(Order, big.NewInt(2)),
		new(big.Int).Sub(Order, big.NewInt(1)),
	}
	return append(ks, HashToScalar("golden/scalar", []byte("k0")), HashToScalar("golden/scalar", []byte("k1")))
}

// goldenSlots is the 4-slot product: two table slots, two fresh ones.
func goldenSlots() []*PairingSlot {
	slots := make([]*PairingSlot, 4)
	for i := range slots {
		p := HashToG1("golden/slot", []byte{byte(i)})
		q := new(G2).ScalarBaseMult(HashToScalar("golden/slot", []byte{byte(i)}))
		slots[i] = &PairingSlot{P: p, Q: q}
		if i%2 == 0 {
			slots[i] = &PairingSlot{P: p, Pre: PrecomputeG2(q)}
		}
	}
	return slots
}

func computeGolden(t *testing.T) *goldenFile {
	t.Helper()
	g := &goldenFile{Comment: "captured at 4c95cba on the math/big field; see golden_test.go"}
	for _, in := range goldenHashInputs {
		h := goldenHash{Domain: in.domain, Msg: hex.EncodeToString(in.msg)}
		h1, h2, hs := h, h, h
		h1.G1 = hex.EncodeToString(HashToG1(in.domain, in.msg).Marshal())
		h2.G2 = hex.EncodeToString(HashToG2(in.domain, in.msg).Marshal())
		hs.Scalar = fmt.Sprintf("%064x", HashToScalar(in.domain, in.msg))
		g.HashToG1 = append(g.HashToG1, h1)
		g.HashToG2 = append(g.HashToG2, h2)
		g.HashToScalar = append(g.HashToScalar, hs)
	}
	for _, k := range goldenScalars() {
		p := new(G1).ScalarBaseMult(k)
		q := new(G2).ScalarBaseMult(k)
		g.G1Mul = append(g.G1Mul, goldenMul{k.String(), hex.EncodeToString(p.Marshal()), hex.EncodeToString(p.MarshalCompressed())})
		g.G2Mul = append(g.G2Mul, goldenMul{k.String(), hex.EncodeToString(q.Marshal()), hex.EncodeToString(q.MarshalCompressed())})
	}
	e := Pair(G1Generator(), G2Generator())
	g.PairGens = hex.EncodeToString(e.Marshal())
	mp, err := MultiPairMixed(goldenSlots())
	if err != nil {
		t.Fatal(err)
	}
	g.MultiPair4 = hex.EncodeToString(mp.Marshal())
	g.GTExp = hex.EncodeToString(new(GT).Exp(e, HashToScalar("golden/scalar", []byte("gt"))).Marshal())
	return g
}

func TestGoldenVectors(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	got := computeGolden(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	gv, wv := reflect.ValueOf(*got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("%s differs from the vectors captured on the math/big field", gv.Type().Field(i).Name)
		}
	}

	// The committed encodings also decode, to the points that produced them.
	for i, k := range goldenScalars() {
		want1, want2 := new(G1).ScalarBaseMult(k), new(G2).ScalarBaseMult(k)
		for _, enc := range []string{want.G1Mul[i].Uncompressed, want.G1Mul[i].Compressed} {
			raw, _ := hex.DecodeString(enc)
			var p G1
			if len(raw) == G1SizeCompressed {
				err = p.UnmarshalCompressed(raw)
			} else {
				err = p.Unmarshal(raw)
			}
			if err != nil || !p.Equal(want1) {
				t.Errorf("G1 k=%s: decode of committed encoding: err=%v", k, err)
			}
		}
		for _, enc := range []string{want.G2Mul[i].Uncompressed, want.G2Mul[i].Compressed} {
			raw, _ := hex.DecodeString(enc)
			var q G2
			if len(raw) == G2SizeCompressed {
				err = q.UnmarshalCompressed(raw)
			} else {
				err = q.Unmarshal(raw)
			}
			if err != nil || !q.Equal(want2) {
				t.Errorf("G2 k=%s: decode of committed encoding: err=%v", k, err)
			}
		}
	}
	raw, _ := hex.DecodeString(want.PairGens)
	var e GT
	if err := e.Unmarshal(raw); err != nil || !e.Equal(Pair(G1Generator(), G2Generator())) {
		t.Errorf("GT decode of committed e(G1,G2): err=%v", err)
	}
}
