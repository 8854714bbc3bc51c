package registry

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

func TestValidateID(t *testing.T) {
	good := []string{"default", "a", "tenant-1", "Acme.prod_eu", "x9", "A"}
	for _, id := range good {
		if err := ValidateID(id); err != nil {
			t.Errorf("ValidateID(%q) = %v, want nil", id, err)
		}
	}
	bad := []string{"", ".hidden", "-flag", "_x", "a/b", "a b", "a\x00b", "..",
		string(make([]byte, MaxIDLen+1)), "tenant:1", "é"}
	for _, id := range bad {
		if err := ValidateID(id); !errors.Is(err, ErrInvalidID) {
			t.Errorf("ValidateID(%q) = %v, want ErrInvalidID", id, err)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	recs := []Record{
		{ID: "zeta", Domain: "z/v1", N: 5, T: 2, Epoch: 3},
		{ID: "default", Domain: "svc/v1", N: 7, T: 3, Epoch: 1},
		{ID: "gone", Domain: "", N: 0, T: 0, Epoch: 9, Deleted: true},
	}
	raw, err := EncodeManifest(recs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d records, want 3", len(got))
	}
	// Decoder returns ID-sorted order regardless of input order.
	want := []Record{recs[1], recs[2], recs[0]}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Empty manifest round-trips too.
	raw, err = EncodeManifest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeManifest(raw); err != nil || len(got) != 0 {
		t.Fatalf("empty manifest: %v records, err %v", got, err)
	}
}

func TestManifestDecodeRejects(t *testing.T) {
	valid, err := EncodeManifest([]Record{
		{ID: "a", Domain: "d", N: 5, T: 2, Epoch: 1},
		{ID: "b", Domain: "d", N: 5, T: 2, Epoch: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		raw  []byte
	}{
		{"empty", nil},
		{"short", valid[:5]},
		{"bad magic", append([]byte("XXXX"), valid[4:]...)},
		{"bad version", func() []byte { b := bytes.Clone(valid); b[4] = 9; return b }()},
		{"truncated record", valid[:len(valid)-3]},
		{"trailing bytes", append(bytes.Clone(valid), 0)},
		{"huge count", func() []byte {
			b := bytes.Clone(valid)
			b[5], b[6], b[7], b[8] = 0xff, 0xff, 0xff, 0xff
			return b
		}()},
		{"unknown flags", func() []byte {
			b := bytes.Clone(valid)
			// First record: header(9) + idLen(1) + id(1) → flags at 11.
			b[11] = 0x80
			return b
		}()},
	}
	for _, tc := range cases {
		if _, err := DecodeManifest(tc.raw); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}

	// Duplicate and out-of-order IDs are rejected at encode and decode.
	if _, err := EncodeManifest([]Record{{ID: "a"}, {ID: "a"}}); err == nil {
		t.Error("EncodeManifest accepted duplicate IDs")
	}
}

func TestRegistryPersistence(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put(Record{ID: "acme", Domain: "acme/v1", N: 5, T: 2, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(Record{ID: "beta", Domain: "beta/v1", N: 5, T: 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.Tombstone("beta"); err != nil {
		t.Fatal(err)
	}
	// Tombstone is idempotent.
	if err := r.Tombstone("beta"); err != nil {
		t.Fatal(err)
	}
	// Tombstoning an unknown ID registers the tombstone, so the ID can
	// never be minted later.
	if err := r.Tombstone("never-was"); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything survives the restart.
	r2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := r2.Get("acme"); !ok || rec.Epoch != 1 || rec.Deleted {
		t.Fatalf("acme after reopen = %+v, %v", rec, ok)
	}
	if rec, ok := r2.Get("beta"); !ok || !rec.Deleted {
		t.Fatalf("beta after reopen = %+v, %v (want tombstone)", rec, ok)
	}
	if rec, ok := r2.Get("never-was"); !ok || !rec.Deleted {
		t.Fatalf("never-was after reopen = %+v, %v (want tombstone)", rec, ok)
	}
	if got := r2.List(); len(got) != 3 || got[0].ID != "acme" || got[1].ID != "beta" {
		t.Fatalf("List() = %+v", got)
	}

	if err := r.Put(Record{ID: "bad/id"}); !errors.Is(err, ErrInvalidID) {
		t.Fatalf("Put(bad id) = %v, want ErrInvalidID", err)
	}
}

func TestRegistryMemoryOnly(t *testing.T) {
	r, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put(Record{ID: "x", N: 3, T: 1, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadGroup("x"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("LoadGroup on memory-only registry: %v, want os.ErrNotExist", err)
	}
	if err := r.SaveGroup("x", nil); err != nil {
		t.Fatalf("SaveGroup on memory-only registry: %v, want no-op nil", err)
	}
	// Memory-only hot cache never evicts.
	for i := 0; i < 3*DefaultHotCap; i++ {
		r.HotPut(string(rune('a'+i%26))+string(rune('a'+i/26)), i)
	}
	if r.HotLen() == 0 || r.HotLen() > 3*DefaultHotCap {
		t.Fatalf("HotLen = %d", r.HotLen())
	}
}

func TestHotLRUEviction(t *testing.T) {
	r, err := Open(Config{Dir: t.TempDir(), HotCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	r.HotPut("a", 1)
	r.HotPut("b", 2)
	if _, ok := r.HotGet("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	r.HotPut("c", 3)
	if _, ok := r.HotGet("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if v, ok := r.HotGet("a"); !ok || v.(int) != 1 {
		t.Fatalf("a = %v, %v", v, ok)
	}
	if v, ok := r.HotGet("c"); !ok || v.(int) != 3 {
		t.Fatalf("c = %v, %v", v, ok)
	}
	r.HotPut("a", 10) // update-in-place, no growth
	if v, _ := r.HotGet("a"); v.(int) != 10 {
		t.Fatalf("a after update = %v", v)
	}
	if r.HotLen() != 2 {
		t.Fatalf("HotLen = %d, want 2", r.HotLen())
	}
	if err := r.Tombstone("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.HotGet("a"); ok {
		t.Fatal("a survived its tombstone")
	}
}

func TestKeystoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	params := core.NewParams("registry-test/v1")
	views, _, err := core.DistKeygen(params, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.NewGroup("registry-test/v1", 3, 1, views[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SaveMember("acme", g, views[2].Share); err != nil {
		t.Fatal(err)
	}
	m, err := r.LoadMember("acme", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Group().PK.Equal(g.PK) {
		t.Fatal("loaded member group PK differs")
	}
	if _, err := r.LoadMember("acme", 3); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("LoadMember(acme, 3) = %v, want os.ErrNotExist", err)
	}
	if _, err := r.LoadMember("ghost", 1); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("LoadMember(ghost, 1) = %v, want os.ErrNotExist", err)
	}

	if err := r.SaveGroup("pub-only", g); err != nil {
		t.Fatal(err)
	}
	g2, err := r.LoadGroup("pub-only")
	if err != nil {
		t.Fatal(err)
	}
	if !g2.PK.Equal(g.PK) {
		t.Fatal("loaded group PK differs")
	}
	if _, err := os.Stat(filepath.Join(dir, "g", "pub-only", "group.json")); err != nil {
		t.Fatalf("expected keystore layout <dir>/g/<id>/group.json: %v", err)
	}
}
