package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	tsig "repro"
	"repro/service"
)

func TestKeygenSignCombineVerifyWorkflow(t *testing.T) {
	dir := t.TempDir()
	if err := cmdKeygen([]string{"-n", "3", "-t", "1", "-domain", "cli-test", "-dir", dir}); err != nil {
		t.Fatalf("keygen: %v", err)
	}
	group := filepath.Join(dir, "group.json")
	msg := "cli end-to-end"
	p1 := filepath.Join(dir, "1.psig")
	p3 := filepath.Join(dir, "3.psig")
	if err := cmdSign([]string{"-group", group, "-share", filepath.Join(dir, "share-1.json"), "-msg", msg, "-out", p1}); err != nil {
		t.Fatalf("sign 1: %v", err)
	}
	if err := cmdSign([]string{"-group", group, "-share", filepath.Join(dir, "share-3.json"), "-msg", msg, "-out", p3}); err != nil {
		t.Fatalf("sign 3: %v", err)
	}
	sig := filepath.Join(dir, "sig.hex")
	if err := cmdCombine([]string{"-group", group, "-msg", msg, "-out", sig, p1, p3}); err != nil {
		t.Fatalf("combine: %v", err)
	}
	if err := cmdVerify([]string{"-group", group, "-msg", msg, "-sig", sig}); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Wrong message fails.
	if err := cmdVerify([]string{"-group", group, "-msg", "tampered", "-sig", sig}); err == nil {
		t.Fatal("verify accepted wrong message")
	}
	// Too few shares fail.
	if err := cmdCombine([]string{"-group", group, "-msg", msg, "-out", sig, p1}); err == nil {
		t.Fatal("combine succeeded below threshold")
	}
}

// TestRemoteSignWorkflow spins up real signer daemons and a coordinator
// on loopback and drives `tsigcli sign -remote`.
func TestRemoteSignWorkflow(t *testing.T) {
	dir := t.TempDir()
	if err := cmdKeygen([]string{"-n", "3", "-t", "1", "-domain", "cli-remote-test", "-dir", dir}); err != nil {
		t.Fatalf("keygen: %v", err)
	}
	group, err := tsig.LoadGroup(filepath.Join(dir, "group.json"))
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, group.N)
	for i := 1; i <= group.N; i++ {
		member, err := tsig.LoadMember(filepath.Join(dir, "group.json"), filepath.Join(dir, "share-"+string(rune('0'+i))+".json"))
		if err != nil {
			t.Fatal(err)
		}
		signer, err := service.NewSigner(member, service.SignerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(signer)
		defer srv.Close()
		urls[i-1] = srv.URL
	}
	coord, err := service.NewCoordinator(group, urls, service.CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	coordSrv := httptest.NewServer(coord)
	defer coordSrv.Close()

	sigPath := filepath.Join(dir, "remote.sig")
	// Verified against the local group file when -group is given...
	if err := cmdSign([]string{"-remote", coordSrv.URL, "-group", filepath.Join(dir, "group.json"), "-msg", "remote hello", "-out", sigPath}); err != nil {
		t.Fatalf("remote sign: %v", err)
	}
	// ...and against the coordinator's advertised key without one.
	if err := cmdSign([]string{"-remote", coordSrv.URL, "-msg", "remote hello", "-out", sigPath}); err != nil {
		t.Fatalf("remote sign without group: %v", err)
	}
	// An explicitly named but unreadable group file is an error.
	if err := cmdSign([]string{"-remote", coordSrv.URL, "-group", filepath.Join(dir, "nope.json"), "-msg", "x", "-out", sigPath}); err == nil {
		t.Fatal("remote sign accepted a missing explicit group file")
	}
	if err := cmdVerify([]string{"-group", filepath.Join(dir, "group.json"), "-msg", "remote hello", "-sig", sigPath}); err != nil {
		t.Fatalf("verify remote signature: %v", err)
	}
	if _, err := os.Stat(sigPath); err != nil {
		t.Fatal(err)
	}

	// Batch mode: every positional argument signed in one request, one
	// hex signature per output line, each independently verifiable.
	batchPath := filepath.Join(dir, "batch.sigs")
	if err := cmdSign([]string{"-remote", coordSrv.URL, "-group", filepath.Join(dir, "group.json"),
		"-batch", "-out", batchPath, "batch alpha", "batch beta", "batch gamma"}); err != nil {
		t.Fatalf("remote batch sign: %v", err)
	}
	raw, err := os.ReadFile(batchPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("batch output has %d lines, want 3", len(lines))
	}
	for j, msg := range []string{"batch alpha", "batch beta", "batch gamma"} {
		one := filepath.Join(dir, "one.sig")
		if err := os.WriteFile(one, []byte(lines[j]+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := cmdVerify([]string{"-group", filepath.Join(dir, "group.json"), "-msg", msg, "-sig", one}); err != nil {
			t.Fatalf("verify batch signature %d: %v", j, err)
		}
	}
	// -batch without -remote is a usage error.
	if err := cmdSign([]string{"-batch", "local nope"}); err == nil {
		t.Fatal("batch mode accepted without -remote")
	}
}

func TestTrimWS(t *testing.T) {
	if trimWS("abc\r\n") != "abc" || trimWS("abc  ") != "abc" || trimWS("") != "" {
		t.Fatal("trimWS misbehaves")
	}
}

// TestRemoteKeygenRefreshWorkflow drives the fully distributed lifecycle
// through the CLI: keyless daemons generate the key over the wire
// (keygen -remote), the quorum signs, and a refresh epoch re-randomizes
// the shares while the local group file is rewritten in place.
func TestRemoteKeygenRefreshWorkflow(t *testing.T) {
	dir := t.TempDir()
	const n = 5
	urls := make([]string, n)
	for i := 1; i <= n; i++ {
		signer, err := service.NewDaemonSigner(service.DaemonConfig{Index: i})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(signer)
		defer srv.Close()
		urls[i-1] = srv.URL
	}
	coord, err := service.NewKeylessCoordinator(urls, service.CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	coordSrv := httptest.NewServer(coord)
	defer coordSrv.Close()

	// Remote keygen writes the public group file; no share files appear
	// locally (they live on the daemons).
	if err := cmdKeygen([]string{"-remote", coordSrv.URL, "-t", "2", "-domain", "cli-proto-test", "-dir", dir}); err != nil {
		t.Fatalf("remote keygen: %v", err)
	}
	groupPath := filepath.Join(dir, "group.json")
	group, err := tsig.LoadGroup(groupPath)
	if err != nil {
		t.Fatal(err)
	}
	if group.N != n || group.T != 2 || group.Domain != "cli-proto-test" {
		t.Fatalf("group n=%d t=%d domain %q", group.N, group.T, group.Domain)
	}
	if _, err := os.Stat(filepath.Join(dir, "share-1.json")); err == nil {
		t.Fatal("remote keygen leaked a share file locally")
	}

	// The fresh quorum signs, verified against the local group file.
	sigPath := filepath.Join(dir, "proto.sig")
	if err := cmdSign([]string{"-remote", coordSrv.URL, "-group", groupPath, "-msg", "born distributively", "-out", sigPath}); err != nil {
		t.Fatalf("sign after remote keygen: %v", err)
	}
	if err := cmdVerify([]string{"-group", groupPath, "-msg", "born distributively", "-sig", sigPath}); err != nil {
		t.Fatalf("verify: %v", err)
	}

	// Refresh rewrites the group file: same public key, new VKs.
	if err := cmdRefresh([]string{"-remote", coordSrv.URL, "-group", groupPath}); err != nil {
		t.Fatalf("remote refresh: %v", err)
	}
	refreshed, err := tsig.LoadGroup(groupPath)
	if err != nil {
		t.Fatal(err)
	}
	if !refreshed.PK.Equal(group.PK) {
		t.Fatal("refresh changed the public key")
	}
	if refreshed.VKs[1].Equal(group.VKs[1]) {
		t.Fatal("refresh did not re-randomize the verification keys")
	}
	// Old signatures still verify; the quorum still signs.
	if err := cmdVerify([]string{"-group", groupPath, "-msg", "born distributively", "-sig", sigPath}); err != nil {
		t.Fatalf("verify after refresh: %v", err)
	}
	if err := cmdSign([]string{"-remote", coordSrv.URL, "-group", groupPath, "-msg", "raised distributively", "-out", sigPath}); err != nil {
		t.Fatalf("sign after refresh: %v", err)
	}

	// refresh without -remote is a usage error.
	if err := cmdRefresh(nil); err == nil {
		t.Fatal("refresh accepted without -remote")
	}
}

// TestRemoteSignTenantGid covers signing under a named tenant (-gid):
// an implicit ./group.json describes the DEFAULT group and must NOT be
// used to verify a tenant's signature (regression: the tenant's valid
// signature was rejected as INVALID), while an explicitly passed wrong
// -group file must still fail loudly.
func TestRemoteSignTenantGid(t *testing.T) {
	dir := t.TempDir()
	if err := cmdKeygen([]string{"-n", "3", "-t", "1", "-domain", "cli-gid-test", "-dir", dir}); err != nil {
		t.Fatalf("keygen: %v", err)
	}
	group, err := tsig.LoadGroup(filepath.Join(dir, "group.json"))
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, group.N)
	for i := 1; i <= group.N; i++ {
		member, err := tsig.LoadMember(filepath.Join(dir, "group.json"), filepath.Join(dir, "share-"+string(rune('0'+i))+".json"))
		if err != nil {
			t.Fatal(err)
		}
		signer, err := service.NewSigner(member, service.SignerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(signer)
		defer srv.Close()
		urls[i-1] = srv.URL
	}
	coord, err := service.NewCoordinator(group, urls, service.CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	coordSrv := httptest.NewServer(coord)
	defer coordSrv.Close()

	// Mint the tenant over the wire; its public description goes to a
	// separate directory so ./group.json stays the default group's.
	tenantDir := t.TempDir()
	if err := cmdGroupCreate([]string{"-remote", coordSrv.URL, "-gid", "orders",
		"-t", "1", "-domain", "cli-gid-test/orders", "-dir", tenantDir}); err != nil {
		t.Fatalf("group create: %v", err)
	}

	// From a cwd holding the DEFAULT group.json, a tenant sign must
	// ignore it and verify against the tenant's advertised key.
	t.Chdir(dir)
	sigPath := filepath.Join(tenantDir, "orders.sig")
	if err := cmdSign([]string{"-remote", coordSrv.URL, "-gid", "orders",
		"-msg", "tenant hello", "-out", sigPath}); err != nil {
		t.Fatalf("tenant sign with the default group.json in cwd: %v", err)
	}
	// The signature really is the tenant's, not the default group's.
	if err := cmdVerify([]string{"-group", filepath.Join(tenantDir, "group.json"),
		"-msg", "tenant hello", "-sig", sigPath}); err != nil {
		t.Fatalf("verify under tenant key: %v", err)
	}
	if err := cmdVerify([]string{"-group", filepath.Join(dir, "group.json"),
		"-msg", "tenant hello", "-sig", sigPath}); err == nil {
		t.Fatal("tenant signature verified under the default group's key")
	}
	// An explicitly trusted -group file naming the WRONG group must
	// still reject the coordinator's answer.
	if err := cmdSign([]string{"-remote", coordSrv.URL, "-gid", "orders",
		"-group", filepath.Join(dir, "group.json"), "-msg", "tenant hello", "-out", sigPath}); err == nil {
		t.Fatal("explicit default -group accepted for a tenant signature")
	}
}
