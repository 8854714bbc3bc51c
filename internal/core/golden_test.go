package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dkg"
	"repro/internal/keyfile"
)

// The scheme vector: a Dist-Keygen(5,2) run on a seeded entropy stream,
// every server's share of one message, and the combined signature —
// written at commit 4c95cba on the math/big field (testdata/golden.json,
// testdata/keystore/) and asserted since. -update rewrites both from the
// implementation checked out; diff the result.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json and testdata/keystore from the current implementation")

const (
	goldenDomain = "golden/core/v1"
	goldenN      = 5
	goldenT      = 2
)

var goldenMsg = []byte("born and raised distributively")

// seedStream is SHA-256 in counter mode: a reproducible io.Reader.
type seedStream struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

func (s *seedStream) Read(p []byte) (int, error) {
	for len(s.buf) < len(p) {
		var block [40]byte
		copy(block[:], s.seed[:])
		binary.BigEndian.PutUint64(block[32:], s.ctr)
		s.ctr++
		sum := sha256.Sum256(block[:])
		s.buf = append(s.buf, sum[:]...)
	}
	n := copy(p, s.buf)
	s.buf = s.buf[n:]
	return n, nil
}

type goldenScheme struct {
	Comment   string   `json:"comment"`
	Group     string   `json:"group_hex"`
	Shares    []string `json:"shares_hex"`
	Partials  []string `json:"partials_hex"`
	Signature string   `json:"signature_hex"`
	Rounds    int      `json:"keygen_rounds"`
	Messages  int      `json:"keygen_messages"`
	Bytes     int      `json:"keygen_bytes"`
}

func computeGoldenScheme(t *testing.T) (*goldenScheme, []*core.KeyShares) {
	t.Helper()
	params := core.NewParams(goldenDomain)
	cfg := dkg.Config{
		N: goldenN, T: goldenT, NumSharings: core.Dim,
		Scheme: dkg.PedersenScheme{Params: params.LH},
		Rng:    &seedStream{seed: sha256.Sum256([]byte("golden/core/seed/1"))},
	}
	out, err := dkg.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	views := make([]*core.KeyShares, goldenN+1)
	for i := 1; i <= goldenN; i++ {
		if views[i], err = core.FromDKGResult(params, out.Results[i]); err != nil {
			t.Fatal(err)
		}
	}
	group, err := core.NewGroup(goldenDomain, goldenN, goldenT, views[1])
	if err != nil {
		t.Fatal(err)
	}
	g := &goldenScheme{
		Comment:  "captured at 4c95cba on the math/big field; see golden_test.go",
		Group:    hex.EncodeToString(group.Marshal()),
		Rounds:   out.Stats.CommunicationRounds(),
		Messages: out.Stats.TotalMessages(),
		Bytes:    out.Stats.BroadcastBytes + out.Stats.UnicastBytes,
	}
	parts := make([]*core.PartialSignature, goldenN)
	for i := 1; i <= goldenN; i++ {
		m, err := group.Member(views[i].Share)
		if err != nil {
			t.Fatal(err)
		}
		if parts[i-1], err = m.SignShare(goldenMsg); err != nil {
			t.Fatal(err)
		}
		g.Shares = append(g.Shares, hex.EncodeToString(views[i].Share.Marshal()))
		g.Partials = append(g.Partials, hex.EncodeToString(parts[i-1].Marshal()))
	}
	sig, err := group.Combine(goldenMsg, parts[:goldenT+1])
	if err != nil {
		t.Fatal(err)
	}
	// Any t+1 shares interpolate the same signature.
	other, err := group.Combine(goldenMsg, parts[goldenT:])
	if err != nil || !reflect.DeepEqual(other.Marshal(), sig.Marshal()) {
		t.Fatalf("quorums disagree on the signature: %v", err)
	}
	g.Signature = hex.EncodeToString(sig.Marshal())
	return g, views
}

func TestGoldenScheme(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	keystore := filepath.Join("testdata", "keystore")
	got, views := computeGoldenScheme(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(keystore, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := core.NewGroup(goldenDomain, goldenN, goldenT, views[1])
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= goldenN; i++ {
			sharePath := filepath.Join(keystore, fmt.Sprintf("share-%d.json", i))
			if err := keyfile.WriteMember(filepath.Join(keystore, "group.json"), sharePath, g, views[i].Share); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenScheme
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Errorf("seeded keygen/sign/combine differs from the vector captured on the math/big field:\n got %+v\nwant %+v", *got, want)
	}

	// What the parent wrote, this implementation loads and accepts: the
	// Group.Marshal blob, the committed partials and signature, and the
	// keystore directory.
	raw, _ := hex.DecodeString(want.Group)
	group, err := core.UnmarshalGroup(raw)
	if err != nil {
		t.Fatalf("UnmarshalGroup of the parent's blob: %v", err)
	}
	raw, _ = hex.DecodeString(want.Signature)
	sig, err := core.UnmarshalSignature(raw)
	if err != nil || !group.Verify(goldenMsg, sig) {
		t.Errorf("parent's signature does not verify under the parent's group: %v", err)
	}
	for i, enc := range want.Partials {
		raw, _ := hex.DecodeString(enc)
		ps, err := core.UnmarshalPartialSignature(raw)
		if err != nil || !group.ShareVerify(goldenMsg, ps) {
			t.Errorf("parent's partial %d does not verify: %v", i+1, err)
		}
	}
	for i := 1; i <= goldenN; i++ {
		m, err := keyfile.LoadMember(filepath.Join(keystore, "group.json"), filepath.Join(keystore, "share-"+string(rune('0'+i))+".json"))
		if err != nil {
			t.Fatalf("loading the parent's keystore, member %d: %v", i, err)
		}
		ps, err := m.SignShare(goldenMsg)
		if err != nil || hex.EncodeToString(ps.Marshal()) != want.Partials[i-1] {
			t.Errorf("member %d loaded from the parent's keystore signs differently: %v", i, err)
		}
	}
}
