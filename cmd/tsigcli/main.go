// Command tsigcli is the client front end for the Section 3 threshold
// signature: it generates a key group (locally, simulating the DKG among
// n local "servers", or remotely, by driving the real distributed keygen
// across a tsigd quorum), produces partial signatures from individual
// share files, combines them, verifies full signatures, requests
// signatures from a running tsigd coordinator, and triggers proactive
// share refresh epochs.
//
//	tsigcli keygen  -n 5 -t 2 -domain my-app -dir keys/
//	tsigcli keygen  -remote http://coordinator:9090 -t 2 -domain my-app -dir keys/
//	tsigcli sign    -group keys/group.json -share keys/share-1.json -msg "hello" -out 1.psig
//	tsigcli sign    -remote http://coordinator:9090 -msg "hello" -out final.sig
//	tsigcli sign    -remote http://coordinator:9090 -batch -out sigs.txt "msg one" "msg two"
//	tsigcli refresh -remote http://coordinator:9090 -group keys/group.json
//	tsigcli combine -group keys/group.json -msg "hello" -out final.sig 1.psig 3.psig 5.psig
//	tsigcli verify  -group keys/group.json -msg "hello" -sig final.sig
//
// A tsigd fleet is multi-tenant: it hosts many independent key groups;
// the group subcommands manage them and -gid scopes sign and refresh to
// one tenant:
//
//	tsigcli group create -remote http://coordinator:9090 -gid payments -t 2 -domain payments/v1
//	tsigcli group list   -remote http://coordinator:9090
//	tsigcli group rotate -remote http://coordinator:9090 -gid payments -t 2 -domain payments/v1
//	tsigcli group rm     -remote http://coordinator:9090 -gid payments
//	tsigcli sign    -remote http://coordinator:9090 -gid payments -msg "hello"
//	tsigcli refresh -remote http://coordinator:9090 -gid payments
//
// With -remote, keygen runs the actual wire protocol: every share is
// generated on — and never leaves — its own signer daemon, and only the
// public group description comes back (written to -dir/group.json).
// refresh -remote re-randomizes every daemon's share in place without
// changing the public key.
//
// Each share file is the complete private state of one server; in a real
// deployment each lives on a different machine behind a tsigd signer
// daemon (see cmd/tsigd). The command is built entirely on the public
// packages: repro (the scheme) and repro/client (the HTTP client).
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	tsig "repro"
	"repro/client"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "keygen":
		err = cmdKeygen(os.Args[2:])
	case "sign":
		err = cmdSign(os.Args[2:])
	case "refresh":
		err = cmdRefresh(os.Args[2:])
	case "combine":
		err = cmdCombine(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "group":
		err = cmdGroup(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsigcli:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tsigcli {keygen|sign|refresh|combine|verify|group} [flags]")
	os.Exit(2)
}

// cmdGroup manages the tenant groups of a multi-tenant fleet.
func cmdGroup(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: tsigcli group {create|list|rotate|rm} [flags]")
	}
	switch args[0] {
	case "create":
		return cmdGroupCreate(args[1:])
	case "list":
		return cmdGroupList(args[1:])
	case "rotate":
		return cmdGroupRotate(args[1:])
	case "rm":
		return cmdGroupRm(args[1:])
	default:
		return fmt.Errorf("group: unknown subcommand %q (want create, list, rotate, or rm)", args[0])
	}
}

// cmdGroupCreate mints a tenant: it registers the group ID across the
// fleet and drives a distributed keygen for it on the spot. Every
// private share is born on its own signer daemon; only the public group
// description comes back.
func cmdGroupCreate(args []string) error {
	fs := flag.NewFlagSet("group create", flag.ExitOnError)
	remote := fs.String("remote", "", "coordinator base URL (required)")
	gid := fs.String("gid", "", "group ID to create (required)")
	t := fs.Int("t", 2, "threshold (any t+1 sign; requires n >= 2t+1 signers)")
	domain := fs.String("domain", "", "parameter domain label (required)")
	dir := fs.String("dir", "", "optional directory to write the public group.json to")
	timeout := fs.Duration("timeout", 60*time.Second, "keygen timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *remote == "" || *gid == "" || *domain == "" {
		return fmt.Errorf("group create: -remote, -gid, and -domain are required")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	cl := (&client.Client{BaseURL: *remote}).ForGroup(*gid)
	group, resp, err := cl.RunDKG(ctx, *t, *domain)
	if err != nil {
		return err
	}
	fmt.Printf("group create: %q keyed in %d rounds: n=%d t=%d domain %q", *gid, resp.Rounds, group.N, group.T, group.Domain)
	if len(resp.Crashed) > 0 {
		fmt.Printf(" (crashed signers: %v)", resp.Crashed)
	}
	if *dir != "" {
		path := filepath.Join(*dir, "group.json")
		if err := tsig.WriteGroup(path, group); err != nil {
			return err
		}
		fmt.Printf(" -> %s", path)
	}
	fmt.Println()
	return nil
}

func cmdGroupList(args []string) error {
	fs := flag.NewFlagSet("group list", flag.ExitOnError)
	remote := fs.String("remote", "", "coordinator or signer base URL (required)")
	timeout := fs.Duration("timeout", 10*time.Second, "request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *remote == "" {
		return fmt.Errorf("group list: -remote is required")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	groups, err := (&client.Client{BaseURL: *remote}).ListGroups(ctx)
	if err != nil {
		return err
	}
	if len(groups) == 0 {
		fmt.Println("group list: no groups registered")
		return nil
	}
	for _, g := range groups {
		switch {
		case g.Deleted:
			fmt.Printf("%s\tdeleted\n", g.ID)
		case !g.Ready:
			fmt.Printf("%s\tkeyless\n", g.ID)
		default:
			fmt.Printf("%s\tready\tn=%d t=%d epoch=%d domain=%q\n", g.ID, g.N, g.T, g.Epoch, g.Domain)
		}
	}
	return nil
}

// cmdGroupRotate replaces a tenant's key material with a freshly
// generated key under a bumped epoch (a full DKG, not a refresh: the
// public key CHANGES).
func cmdGroupRotate(args []string) error {
	fs := flag.NewFlagSet("group rotate", flag.ExitOnError)
	remote := fs.String("remote", "", "coordinator base URL (required)")
	gid := fs.String("gid", "", "group ID to rotate (default: the default group)")
	t := fs.Int("t", 2, "threshold for the new key")
	domain := fs.String("domain", "", "parameter domain label for the new key (required)")
	timeout := fs.Duration("timeout", 60*time.Second, "rotation timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *remote == "" || *domain == "" {
		return fmt.Errorf("group rotate: -remote and -domain are required")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	cl := (&client.Client{BaseURL: *remote}).ForGroup(*gid)
	group, resp, err := cl.Rotate(ctx, *t, *domain)
	if err != nil {
		return err
	}
	name := *gid
	if name == "" {
		name = "default"
	}
	fmt.Printf("group rotate: %q re-keyed in %d rounds: n=%d t=%d domain %q (the public key CHANGED)\n",
		name, resp.Rounds, group.N, group.T, group.Domain)
	return nil
}

func cmdGroupRm(args []string) error {
	fs := flag.NewFlagSet("group rm", flag.ExitOnError)
	remote := fs.String("remote", "", "coordinator base URL (required)")
	gid := fs.String("gid", "", "group ID to delete (required)")
	timeout := fs.Duration("timeout", 30*time.Second, "request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *remote == "" || *gid == "" {
		return fmt.Errorf("group rm: -remote and -gid are required")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	unreachable, err := (&client.Client{BaseURL: *remote}).DeleteGroup(ctx, *gid)
	if err != nil {
		return err
	}
	fmt.Printf("group rm: %q tombstoned (the ID is retired permanently)", *gid)
	if len(unreachable) > 0 {
		fmt.Printf("; signers %v were unreachable — re-run once they are back", unreachable)
	}
	fmt.Println()
	return nil
}

func cmdKeygen(args []string) error {
	fs := flag.NewFlagSet("keygen", flag.ExitOnError)
	n := fs.Int("n", 5, "number of servers (local keygen only; remote uses the coordinator's signer count)")
	t := fs.Int("t", 2, "threshold (any t+1 sign; requires n >= 2t+1)")
	domain := fs.String("domain", "tsigcli/v1", "parameter domain label")
	dir := fs.String("dir", ".", "output directory")
	remote := fs.String("remote", "", "coordinator base URL: drive the distributed keygen across its signer daemons instead of generating locally")
	timeout := fs.Duration("timeout", 60*time.Second, "remote keygen timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *remote != "" {
		return remoteKeygen(*remote, *t, *domain, *dir, *timeout)
	}
	scheme := tsig.NewScheme(tsig.WithDomain(*domain))
	group, members, err := scheme.Keygen(*n, *t)
	if err != nil {
		return err
	}
	if err := tsig.SaveKeystore(*dir, group, members); err != nil {
		return err
	}
	fmt.Printf("keygen: n=%d t=%d; wrote group.json and %d share files to %s\n",
		*n, *t, *n, *dir)
	return nil
}

// remoteKeygen drives the real distributed keygen across the
// coordinator's signer daemons. Every private share is born on its own
// daemon and never crosses the wire; only the public group description
// comes back and is written to dir/group.json.
func remoteKeygen(baseURL string, t int, domain, dir string, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cl := &client.Client{BaseURL: baseURL}
	group, resp, err := cl.RunDKG(ctx, t, domain)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "group.json")
	if err := tsig.WriteGroup(path, group); err != nil {
		return err
	}
	fmt.Printf("keygen: distributed keygen over %d daemons done in %d rounds (qual %v", group.N, resp.Rounds, resp.Qual)
	if len(resp.Crashed) > 0 {
		fmt.Printf(", crashed %v", resp.Crashed)
	}
	fmt.Printf("); n=%d t=%d domain %q -> %s\n", group.N, group.T, group.Domain, path)
	return nil
}

// cmdRefresh triggers one proactive refresh epoch on a running quorum:
// every daemon re-randomizes its share in place, the public key is
// unchanged, and the local group file (when given) is rewritten with the
// new verification keys.
func cmdRefresh(args []string) error {
	fs := flag.NewFlagSet("refresh", flag.ExitOnError)
	remote := fs.String("remote", "", "coordinator base URL (required)")
	groupPath := fs.String("group", "", "local group file to rewrite with the refreshed verification keys")
	gid := fs.String("gid", "", "tenant group ID to refresh (default: the default group)")
	timeout := fs.Duration("timeout", 60*time.Second, "request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *remote == "" {
		return fmt.Errorf("refresh: -remote is required")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	cl := (&client.Client{BaseURL: *remote}).ForGroup(*gid)

	// An explicitly named group file pins the refresh invariant — the
	// public key must not change — so it must load; silently skipping
	// the check (and then overwriting the file) would defeat it.
	var oldPK *tsig.PublicKey
	if *groupPath != "" {
		old, err := tsig.LoadGroup(*groupPath)
		if err != nil {
			return err
		}
		oldPK = old.PK
	}
	group, resp, err := cl.RunRefresh(ctx)
	if err != nil {
		return err
	}
	if oldPK != nil && !group.PK.Equal(oldPK) {
		return fmt.Errorf("refresh: coordinator returned a group with a DIFFERENT public key")
	}
	if *groupPath != "" {
		if err := tsig.WriteGroup(*groupPath, group); err != nil {
			return err
		}
	}
	fmt.Printf("refresh: epoch done in %d rounds; public key unchanged, verification keys re-randomized", resp.Rounds)
	if len(resp.Crashed) > 0 {
		fmt.Printf(" (stale signers: %v)", resp.Crashed)
	}
	if *groupPath != "" {
		fmt.Printf(" -> %s", *groupPath)
	}
	fmt.Println()
	return nil
}

func cmdSign(args []string) error {
	fs := flag.NewFlagSet("sign", flag.ExitOnError)
	groupPath := fs.String("group", "group.json", "group file")
	sharePath := fs.String("share", "", "share file (local partial signing)")
	remote := fs.String("remote", "", "coordinator base URL (remote full signing)")
	gid := fs.String("gid", "", "with -remote: tenant group ID to sign under (default: the default group)")
	msg := fs.String("msg", "", "message to sign")
	batch := fs.Bool("batch", false, "with -remote: sign every positional argument in one batch request")
	out := fs.String("out", "", "output file")
	timeout := fs.Duration("timeout", 30*time.Second, "remote request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *batch && *remote == "" {
		return fmt.Errorf("sign: -batch requires -remote")
	}
	if *gid != "" && *remote == "" {
		return fmt.Errorf("sign: -gid requires -remote")
	}
	if *remote != "" {
		groupSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "group" {
				groupSet = true
			}
		})
		cl := (&client.Client{BaseURL: *remote}).ForGroup(*gid)
		if *batch {
			return remoteSignBatch(cl, *groupPath, groupSet, fs.Args(), *out, *timeout)
		}
		return remoteSign(cl, *groupPath, groupSet, *msg, *out, *timeout)
	}
	if *sharePath == "" || *out == "" {
		return fmt.Errorf("sign: -share and -out are required (or use -remote)")
	}
	// LoadMember bounds-checks the share against the group, so a corrupt
	// keystore fails here with a clear error.
	member, err := tsig.LoadMember(*groupPath, *sharePath)
	if err != nil {
		return err
	}
	ps, err := member.SignShare([]byte(*msg))
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, []byte(hex.EncodeToString(ps.Marshal())+"\n"), 0o600); err != nil {
		return err
	}
	fmt.Printf("sign: server %d/%d produced a %d-byte partial signature -> %s\n",
		member.Index(), member.Group().N, len(ps.Marshal()), *out)
	return nil
}

// remoteSign asks a tsigd coordinator for a full signature and verifies
// it before writing it out. The trusted group comes from the local group
// file when one is available (a coordinator can only vouch for itself);
// only without one does verification fall back to the key the service
// advertises, which still catches transport corruption but not a lying
// coordinator.
func remoteSign(cl *client.Client, groupPath string, groupSet bool, msg, out string, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	pk, n, t, err := trustedPubkey(ctx, cl, groupPath, groupSet)
	if err != nil {
		return err
	}
	sig, resp, err := cl.Sign(ctx, []byte(msg))
	if err != nil {
		return err
	}
	if !pk.Verify([]byte(msg), sig) {
		return fmt.Errorf("sign: coordinator returned an INVALID signature")
	}
	if out != "" {
		if err := os.WriteFile(out, []byte(hex.EncodeToString(sig.Marshal())+"\n"), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("sign: coordinator (n=%d t=%d) returned a verified %d-byte signature from signers %v (cached=%v)",
		n, t, len(sig.Marshal()), resp.Signers, resp.Cached)
	if out != "" {
		fmt.Printf(" -> %s", out)
	}
	fmt.Println()
	return nil
}

// remoteSignBatch signs every message of msgs in ONE request to the
// coordinator's /v1/sign-batch endpoint and verifies each returned
// signature. With -out, one hex signature per line is written, in
// message order.
func remoteSignBatch(cl *client.Client, groupPath string, groupSet bool, msgs []string, out string, timeout time.Duration) error {
	if len(msgs) == 0 {
		return fmt.Errorf("sign: -batch needs at least one message argument")
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	pk, n, t, err := trustedPubkey(ctx, cl, groupPath, groupSet)
	if err != nil {
		return err
	}
	raw := make([][]byte, len(msgs))
	for j, m := range msgs {
		raw[j] = []byte(m)
	}
	sigs, resp, err := cl.SignBatch(ctx, raw)
	if err != nil {
		return err
	}
	var lines []byte
	failed := 0
	for j, sig := range sigs {
		if sig == nil {
			failed++
			fmt.Fprintf(os.Stderr, "sign: message %d failed: %s\n", j, resp.Results[j].Error)
			lines = append(lines, '\n') // keep line j aligned with message j
			continue
		}
		if !pk.Verify(raw[j], sig) {
			return fmt.Errorf("sign: coordinator returned an INVALID signature for message %d", j)
		}
		lines = append(lines, []byte(hex.EncodeToString(sig.Marshal())+"\n")...)
	}
	summary := os.Stdout
	if out != "" {
		if err := os.WriteFile(out, lines, 0o644); err != nil {
			return err
		}
	} else {
		// Without -out, stdout IS the signature stream (one hex line per
		// message); the summary must not corrupt it.
		fmt.Print(string(lines))
		summary = os.Stderr
	}
	fmt.Fprintf(summary, "sign: coordinator (n=%d t=%d) signed %d/%d messages in one batch request\n",
		n, t, len(msgs)-failed, len(msgs))
	if failed > 0 {
		return fmt.Errorf("sign: %d of %d messages failed", failed, len(msgs))
	}
	return nil
}

// trustedPubkey resolves the public key signatures are verified against:
// the local group file when available (a coordinator can only vouch for
// itself), else the key the service advertises — which still catches
// transport corruption but not a lying coordinator. For a named tenant
// (-gid) the implicit group.json is never consulted — it describes the
// DEFAULT group, whose key would wrongly reject the tenant's signatures
// — so only an explicitly passed -group file is trusted there.
func trustedPubkey(ctx context.Context, cl *client.Client, groupPath string, groupSet bool) (*tsig.PublicKey, int, int, error) {
	if groupSet || cl.GroupID == "" {
		if group, err := tsig.LoadGroup(groupPath); err == nil {
			return group.PK, group.N, group.T, nil
		} else if groupSet {
			return nil, 0, 0, err // an explicitly named group file must load
		}
	}
	pk, info, err := cl.FetchPubkey(ctx)
	if err != nil {
		return nil, 0, 0, err
	}
	fmt.Fprintln(os.Stderr, "sign: warning: no local group file; verifying against the coordinator's self-reported public key")
	return pk, info.N, info.T, nil
}

func cmdCombine(args []string) error {
	fs := flag.NewFlagSet("combine", flag.ExitOnError)
	groupPath := fs.String("group", "group.json", "group file")
	msg := fs.String("msg", "", "message that was signed")
	out := fs.String("out", "sig.bin", "output signature file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	group, err := tsig.LoadGroup(*groupPath)
	if err != nil {
		return err
	}
	var parts []*tsig.PartialSignature
	for _, path := range fs.Args() {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dec, err := hex.DecodeString(trimWS(string(raw)))
		if err != nil {
			return fmt.Errorf("combine: %s: %w", path, err)
		}
		ps, err := tsig.UnmarshalPartialSignature(dec)
		if err != nil {
			return fmt.Errorf("combine: %s: %w", path, err)
		}
		parts = append(parts, ps)
	}
	sig, err := group.Combine([]byte(*msg), parts)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, []byte(hex.EncodeToString(sig.Marshal())+"\n"), 0o644); err != nil {
		return err
	}
	fmt.Printf("combine: %d partials -> %d-byte signature -> %s\n", len(parts), len(sig.Marshal()), *out)
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	groupPath := fs.String("group", "group.json", "group file")
	msg := fs.String("msg", "", "message")
	sigPath := fs.String("sig", "sig.bin", "signature file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	group, err := tsig.LoadGroup(*groupPath)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(*sigPath)
	if err != nil {
		return err
	}
	dec, err := hex.DecodeString(trimWS(string(raw)))
	if err != nil {
		return err
	}
	sig, err := tsig.UnmarshalSignature(dec)
	if err != nil {
		return err
	}
	if !group.Verify([]byte(*msg), sig) {
		return fmt.Errorf("verify: INVALID signature")
	}
	fmt.Println("verify: OK")
	return nil
}

func trimWS(s string) string {
	for len(s) > 0 && (s[len(s)-1] == '\n' || s[len(s)-1] == '\r' || s[len(s)-1] == ' ') {
		s = s[:len(s)-1]
	}
	return s
}
