package keyfile

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func writeFixtureKeystore(t *testing.T) (string, []*core.KeyShares) {
	t.Helper()
	dir := t.TempDir()
	params := core.NewParams("keyfile-test/v1")
	views, _, err := core.DistKeygen(params, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.NewGroup("keyfile-test/v1", 3, 1, views[1])
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := WriteMember(filepath.Join(dir, "group.json"), filepath.Join(dir, fmt.Sprintf("share-%d.json", i)), g, views[i].Share); err != nil {
			t.Fatal(err)
		}
	}
	return dir, views
}

func TestKeystoreRoundTrip(t *testing.T) {
	dir, views := writeFixtureKeystore(t)
	group, err := LoadGroup(filepath.Join(dir, "group.json"))
	if err != nil {
		t.Fatal(err)
	}
	if group.N != 3 || group.T != 1 || group.Domain != "keyfile-test/v1" {
		t.Fatalf("group metadata %+v", group)
	}
	if !group.PK.Equal(views[1].PK) {
		t.Fatal("public key changed in round-trip")
	}
	for i := 1; i <= 3; i++ {
		if !group.VKs[i].Equal(views[1].VKs[i]) {
			t.Fatalf("VK %d changed in round-trip", i)
		}
		share, err := LoadShare(filepath.Join(dir, "share-"+string(rune('0'+i))+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if share.Index != i || share.A1.Cmp(views[i].Share.A1) != 0 || share.B2.Cmp(views[i].Share.B2) != 0 {
			t.Fatalf("share %d changed in round-trip", i)
		}
	}
	// The loaded material must actually sign.
	share, err := LoadShare(filepath.Join(dir, "share-2.json"))
	if err != nil {
		t.Fatal(err)
	}
	member, err := group.Member(share)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("keystore sign check")
	ps, err := member.SignShare(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !group.ShareVerify(msg, ps) {
		t.Fatal("share loaded from disk produced an invalid partial signature")
	}
}

func TestLoadGroupRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"not json":        `nope`,
		"bad point":       `{"domain":"x","n":1,"t":0,"pk_g1":"00","pk_g2":"00","vk_v1":["",""],"vk_v2":["",""]}`,
		"bad sizes":       `{"domain":"x","n":2,"t":1,"pk_g1":"","pk_g2":"","vk_v1":["","",""],"vk_v2":["","",""]}`,
		"vk count":        `{"domain":"x","n":3,"t":1,"pk_g1":"","pk_g2":"","vk_v1":[""],"vk_v2":[""]}`,
		"negative params": `{"domain":"x","n":-1,"t":-1,"pk_g1":"","pk_g2":"","vk_v1":[],"vk_v2":[]}`,
	}
	for name, body := range cases {
		path := filepath.Join(dir, "group.json")
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadGroup(path); err == nil {
			t.Fatalf("%s: accepted malformed group file", name)
		}
	}
	if _, err := LoadGroup(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("accepted missing file")
	}
}

func TestLoadShareRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"bad hex":     `{"index":1,"share":"zz"}`,
		"short blob":  `{"index":1,"share":"0001ff"}`,
		"bad index":   `{"index":0,"share":"` + shareBlob(0, "01", "01", "01", "01") + `"}`,
		"index clash": `{"index":2,"share":"` + shareBlob(1, "ff", "0a", "01", "02") + `"}`,
	}
	for name, body := range cases {
		path := filepath.Join(dir, "share.json")
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadShare(path); err == nil {
			t.Fatalf("%s: accepted malformed share file", name)
		}
	}
	// Good share parses.
	path := filepath.Join(dir, "share.json")
	if err := os.WriteFile(path, []byte(`{"index":1,"share":"`+shareBlob(1, "ff", "0a", "01", "02")+`"}`), 0o600); err != nil {
		t.Fatal(err)
	}
	share, err := LoadShare(path)
	if err != nil {
		t.Fatal(err)
	}
	if share.Index != 1 || share.A1.Int64() != 255 || share.B2.Int64() != 2 {
		t.Fatal("share blob decoded wrong")
	}
}

// shareBlob hand-assembles the hex of a PrivateKeyShare encoding — a
// 2-byte index and four 32-byte big-endian scalars given as hex — so the
// rejection tests can build blobs Marshal itself would never emit.
func shareBlob(index int, scalars ...string) string {
	out := fmt.Sprintf("%04x", index)
	for _, s := range scalars {
		out += strings.Repeat("0", 64-len(s)) + s
	}
	return out
}

// TestLoadShareLegacySchema: the pre-codec schema (four hex scalars, no
// share blob) is no longer read; the rejection names the file and says so.
func TestLoadShareLegacySchema(t *testing.T) {
	dir, views := writeFixtureKeystore(t)
	legacy := `{"index":2,` +
		`"a1":"` + views[2].Share.A1.Text(16) + `",` +
		`"b1":"` + views[2].Share.B1.Text(16) + `",` +
		`"a2":"` + views[2].Share.A2.Text(16) + `",` +
		`"b2":"` + views[2].Share.B2.Text(16) + `"}`
	path := filepath.Join(dir, "legacy-share.json")
	if err := os.WriteFile(path, []byte(legacy), 0o600); err != nil {
		t.Fatal(err)
	}
	_, err := LoadShare(path)
	if err == nil {
		t.Fatal("pre-codec four-scalar share file was accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, "pre-codec") {
		t.Fatalf("rejection %q does not name the file and the retired schema", msg)
	}
}

// TestLoadShareRejectsOutOfRangeScalar: a scalar >= r must fail at load
// time, not corrupt signing later.
func TestLoadShareRejectsOutOfRangeScalar(t *testing.T) {
	dir := t.TempDir()
	// 2^256 - 1 > r for BN254.
	big := strings.Repeat("f", 64)
	path := filepath.Join(dir, "share.json")
	body := `{"index":1,"share":"` + shareBlob(1, big, "01", "01", "01") + `"}`
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShare(path); err == nil {
		t.Fatal("accepted share with scalar >= group order")
	}
}

// TestLoadGroupRejectsBadThreshold: n < 2t+1 must fail fast at load time.
func TestLoadGroupRejectsBadThreshold(t *testing.T) {
	dir, _ := writeFixtureKeystore(t)
	path := filepath.Join(dir, "group.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture group has n=3, t=1; claim t=2 so n < 2t+1.
	bad := []byte(strings.Replace(string(raw), `"t": 1`, `"t": 2`, 1))
	if string(bad) == string(raw) {
		t.Fatal("fixture schema changed; update the test")
	}
	if err := os.WriteFile(path, bad, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGroup(path); err == nil {
		t.Fatal("accepted group file with n < 2t+1")
	}
}

// TestLoadMemberBoundsIndex: a share whose index exceeds the group size
// must be rejected when the two files are bound together.
func TestLoadMemberBoundsIndex(t *testing.T) {
	dir, views := writeFixtureKeystore(t)
	groupPath := filepath.Join(dir, "group.json")

	m, err := LoadMember(groupPath, filepath.Join(dir, "share-1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Index() != 1 {
		t.Fatalf("member index %d", m.Index())
	}

	rogue := *views[1].Share
	rogue.Index = 9 // outside 1..3
	roguePath := filepath.Join(dir, "share-9.json")
	if err := WriteShare(roguePath, &rogue); err != nil {
		t.Fatal(err)
	}
	_, err = LoadMember(groupPath, roguePath)
	if err == nil {
		t.Fatal("accepted share index outside the group")
	}
	if !errors.Is(err, core.ErrIndexOutOfRange) {
		t.Fatalf("want ErrIndexOutOfRange, got %v", err)
	}
}

// TestShareIndexFieldMismatch: the human-readable index field must agree
// with the codec blob.
func TestShareIndexFieldMismatch(t *testing.T) {
	dir, views := writeFixtureKeystore(t)
	raw, err := os.ReadFile(filepath.Join(dir, "share-1.json"))
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(raw), `"index": 1`, `"index": 2`, 1)
	if tampered == string(raw) {
		t.Fatal("fixture schema changed; update the test")
	}
	path := filepath.Join(dir, "tampered.json")
	if err := os.WriteFile(path, []byte(tampered), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShare(path); err == nil {
		t.Fatal("accepted share file whose index field contradicts the blob")
	}
	_ = views
}

// TestLoadMemberRejectsTornKeystore pins the cryptographic share<->group
// binding: a share file that belongs to a DIFFERENT key (the state a
// crash between the share and group writes of a refresh leaves behind)
// must be rejected at load time, not at signing time. WriteMember
// enforces the same binding before writing anything.
func TestLoadMemberRejectsTornKeystore(t *testing.T) {
	dir, views := writeFixtureKeystore(t)
	groupPath := filepath.Join(dir, "group.json")
	sharePath := filepath.Join(dir, "share-1.json")

	// The intact keystore loads.
	if _, err := LoadMember(groupPath, sharePath); err != nil {
		t.Fatal(err)
	}

	// Overwrite share 1 with the SAME index from another key run —
	// index bounds alone cannot catch this.
	params := core.NewParams("keyfile-test/v1")
	otherViews, _, err := core.DistKeygen(params, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteShare(sharePath, otherViews[1].Share); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMember(groupPath, sharePath); err == nil {
		t.Fatal("LoadMember accepted a share from a different key")
	}

	// WriteMember refuses to create such a keystore in the first place.
	g, err := core.NewGroup("keyfile-test/v1", 3, 1, views[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMember(groupPath, sharePath, g, otherViews[1].Share); err == nil {
		t.Fatal("WriteMember accepted a mismatched share")
	}
	if err := WriteMember(groupPath, sharePath, g, views[1].Share); err != nil {
		t.Fatalf("WriteMember rejected a matching share: %v", err)
	}
	if _, err := LoadMember(groupPath, sharePath); err != nil {
		t.Fatalf("keystore written by WriteMember does not load: %v", err)
	}
}
