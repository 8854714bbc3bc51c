package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	tsig "repro"
	"repro/service"
)

func TestTailPercentilePicksHighestWithTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantileAndSpread(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	if got := median(v); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := quantile(sortedCopy(v), 0.25); got != 2 {
		t.Errorf("q1 = %g, want 2", got)
	}
	// Python: statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5].
	if got := spreadShare(v); got != 1 {
		t.Errorf("spreadShare = %g, want (4.5-1.5)/3", got)
	}
	// statistics.quantiles([10,11,13,14,18,19,20,25,30,31], n=4) == [12.5, 18.5, 26.25].
	ten := []float64{10, 11, 13, 14, 18, 19, 20, 25, 30, 31}
	if got, want := spreadShare(ten), (26.25-12.5)/18.5; got != want {
		t.Errorf("spreadShare = %g, want %g", got, want)
	}
	if v[0] != 4 {
		t.Error("median sorted its argument in place")
	}
	if quantile(nil, 0.5) != 0 || spreadShare(nil) != 0 || spreadShare([]float64{7}) != 0 {
		t.Error("empty input must read 0")
	}
}

func TestParseMetrics(t *testing.T) {
	const text = `# HELP tsig_coordinator_sign_seconds Latency of Sign calls.
# TYPE tsig_coordinator_sign_seconds histogram
tsig_coordinator_sign_seconds_bucket{le="0.005"} 3
tsig_coordinator_sign_seconds_bucket{le="+Inf"} 7
tsig_coordinator_sign_seconds_sum 0.875
tsig_coordinator_sign_seconds_count 7
tsig_coordinator_share_verify_failures_total{signer="1"} 5
tsig_coordinator_share_verify_failures_total{signer="2"} 1
tsig_proto_runs_total{proto="dkg",outcome="ok"} 2
tsig_proto_runs_total{proto="refresh",outcome="ok"} 4
tsig_build_info{goversion="go1.24.0",version="(devel) {x}"} 1
`
	s, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	check := func(want float64, name string, frags ...string) {
		t.Helper()
		if got := s.sum(name, frags...); got != want {
			t.Errorf("sum(%s %v) = %g, want %g", name, frags, got, want)
		}
	}
	check(0.875, "tsig_coordinator_sign_seconds_sum")
	check(7, "tsig_coordinator_sign_seconds_count")
	check(6, "tsig_coordinator_share_verify_failures_total")
	check(5, "tsig_coordinator_share_verify_failures_total", `signer="1"`)
	check(2, "tsig_proto_runs_total", `proto="dkg"`, `outcome="ok"`)
	check(1, "tsig_build_info")
	check(0, "tsig_absent_total")

	d := fleetDelta{before: fleetScrape{coord: s[:5]}, after: fleetScrape{coord: s}}
	if got := d.coord("tsig_coordinator_share_verify_failures_total"); got != 1 {
		t.Errorf("delta = %g, want 1 (signer 2's series appeared)", got)
	}
	for _, bad := range []string{"name_only", "name{a=\"b\" 1", "name notanumber"} {
		if _, err := parseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("parseMetrics(%q) accepted a malformed line", bad)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Op: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Op: 1, StartNs: 50, EndNs: 90},
		{ID: 4, Parent: 3, Op: 1, StartNs: 60, EndNs: 70},
		// A second operation whose children overlap each other and one of
		// which outlives the parent: covered time is the clipped union.
		{ID: 5, Parent: 0, Op: 5, StartNs: 200, EndNs: 300},
		{ID: 6, Parent: 5, Op: 5, StartNs: 210, EndNs: 260},
		{ID: 7, Parent: 5, Op: 5, StartNs: 240, EndNs: 320},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 30, 2: 30, 3: 30, 4: 10, 5: 10, 6: 50, 7: 80}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	if sum := self[1] + self[2] + self[3] + self[4]; sum != 100 {
		t.Errorf("sequential children: self times sum to %d, want the root's 100", sum)
	}
}

func TestTracerAssignsOpsAndRequestIDs(t *testing.T) {
	tr := newTracer(7)
	root := tr.startOp()
	child := tr.start(root, "client", "Sign")
	tr.end(child)
	tr.end(root)
	other := tr.startOp()
	if tr.requestID(child) != tr.requestID(root) || tr.requestID(root) == tr.requestID(other) {
		t.Errorf("request ids: root %q child %q other %q", tr.requestID(root), tr.requestID(child), tr.requestID(other))
	}
	var untraced *tracer
	if untraced.startOp() != 0 || untraced.end(0) != 0 || untraced.requestID(0) != "" {
		t.Error("a nil tracer must be a no-op")
	}
}

// benchmarkJSON mirrors the contract's file layout.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestDeclarationsMatchBenchmarkJSON holds the tables in metrics.go and
// workload.go equal to BENCHMARK.json, so "emitted = declared in Go" (the
// smoke tests below) means "emitted = declared in the contract file".
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, workload.go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, workload.go has {%s %s}", i, b.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, is %d", w.name, len(w.why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, metrics.go %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		name(d.name)
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, metrics.go has %+v", i, got, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.name, d.bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, metrics.go %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		name(d.name)
		got := b.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, metrics.go has %+v", i, got, d)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
}

// assertEmitsExactly fails unless computed holds every declared name and
// nothing else.
func assertEmitsExactly(t *testing.T, decls []metricDecl, computed map[string]float64) {
	t.Helper()
	if _, missing := metricsOf(decls, computed); len(missing) > 0 {
		t.Error(missing)
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.name] = true
	}
	for name := range computed {
		if !declared[name] {
			t.Errorf("emitted but not declared: %s", name)
		}
	}
}

// TestWorkloadSmoke runs every workload but sign_unique (the traced test
// below covers it) for a fraction of a second against a live fleet: every
// output passes its check, the workload's predictions hold — the stale
// share is convicted exactly once per signature — and the end-to-end
// metrics emitted are exactly the declared ones.
func TestWorkloadSmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads[1:] {
		t.Run(w.name, func(t *testing.T) {
			st, err := setUp(ctx, w, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer st.fleet.close()
			p, err := st.measure(ctx, 100*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if p.attempted() == 0 || p.failed() != 0 {
				t.Fatalf("%d of %d signatures failed", p.failed(), p.attempted())
			}
			for _, msg := range predictions(w, serviceMetrics(p)) {
				t.Error(msg)
			}
			computed := endToEndMetrics(p)
			computed["setup_s"], computed["live_heap_mb"] = 1, liveHeapMB()
			assertEmitsExactly(t, endToEnd, computed)
			for name, v := range computed {
				if v <= 0 {
					t.Errorf("%s = %g: end-to-end metrics are never 0", name, v)
				}
			}
		})
	}
}

// TestTracedRun drives the traced run's steps on sign_unique with the
// smallest budgets: one span file, self times that sum to each root span,
// request ids echoed by the coordinator, and exactly the declared
// per-layer metrics.
func TestTracedRun(t *testing.T) {
	ctx := context.Background()
	st, err := setUp(ctx, workloads[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.fleet.close()
	tr := &tracedRun{st: st}
	if tr.micro, err = runMicro(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := tr.passes(ctx, 100*time.Millisecond, dir); err != nil {
		t.Fatal(err)
	}
	if err := tr.probes(ctx); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*pass{tr.ref, tr.traced} {
		if p.attempted() == 0 || p.failed() != 0 {
			t.Fatalf("%d of %d signatures failed", p.failed(), p.attempted())
		}
	}
	assertEmitsExactly(t, perLayer, tr.layerMetrics())
	for _, msg := range printSpans(tr) {
		t.Error(msg)
	}

	raw, err := os.ReadFile(filepath.Join(dir, "trace-sign_unique.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for _, s := range spans {
		layers[s.Layer] = true
		if s.EndNs < s.StartNs {
			t.Errorf("span %d (%s/%s) was never closed", s.ID, s.Layer, s.Name)
		}
	}
	for _, want := range []string{"bench", "client", "service.signer", "core"} {
		if !layers[want] {
			t.Errorf("no span of layer %q in the sign_unique trace", want)
		}
	}
}

// The checker's negative tests: each bad output must raise fail_share
// above zero.

// testScheme and testKeygen give the in-process tests one shared group:
// a Dist-Keygen costs a third of a second and none of them mutates it.
var testScheme = tsig.NewScheme(tsig.WithDomain(fleetDomain))

type keygenResult struct {
	group   *tsig.Group
	members []*tsig.Member
	err     error
}

var testKeygen = sync.OnceValue(func() keygenResult {
	g, m, err := testScheme.Keygen(fleetN, fleetT)
	return keygenResult{g, m, err}
})

func keyedState(t *testing.T, workloadName string) (*runState, []*tsig.Member) {
	t.Helper()
	k := testKeygen()
	if k.err != nil {
		t.Fatal(k.err)
	}
	return &runState{w: workloadByName(workloadName), group: k.group}, k.members
}

func signedRecord(t *testing.T, st *runState, members []*tsig.Member, signers []int) opRecord {
	t.Helper()
	msg := []byte("a checked message")
	parts := make([]*tsig.PartialSignature, 0, len(signers))
	for _, i := range signers {
		ps, err := members[i-1].SignShare(msg)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, ps)
	}
	sig, err := st.group.Combine(msg, parts)
	if err != nil {
		t.Fatal(err)
	}
	return opRecord{sigs: 1, out: &opOutputs{
		msgs: [][]byte{msg}, got: []*tsig.Signature{sig}, signers: [][]int{signers},
	}}
}

func failShareOf(st *runState, rec opRecord) float64 {
	st.w.check(st, &rec)
	p := &pass{records: []opRecord{rec}}
	return ratio(float64(p.failed()), float64(p.attempted()))
}

func TestCheckerCatchesFlippedSignatureByte(t *testing.T) {
	st, members := keyedState(t, "sign_unique")
	good := signedRecord(t, st, members, []int{2, 3, 4})
	if fs := failShareOf(st, good); fs != 0 {
		t.Fatalf("a genuine signature reads fail_share %g", fs)
	}
	raw := good.out.got[0].Marshal()
	for i := range raw {
		flipped := append([]byte(nil), raw...)
		flipped[i] ^= 0x01
		bad := signedRecord(t, st, members, []int{2, 3, 4})
		// A flipped byte either no longer decodes (the client reports no
		// signature) or decodes to a point that fails Verify.
		bad.out.got[0], _ = tsig.UnmarshalSignature(flipped)
		if fs := failShareOf(st, bad); fs <= 0 {
			t.Fatalf("byte %d flipped: fail_share %g, want > 0", i, fs)
		}
		if i == 2 {
			break // three positions are enough; each costs a pairing product
		}
	}
}

func TestCheckerCatchesByzantineSignerInQuorum(t *testing.T) {
	st, members := keyedState(t, "sign_byzantine")
	if fs := failShareOf(st, signedRecord(t, st, members, []int{2, 3, 4})); fs != 0 {
		t.Fatalf("an honest quorum reads fail_share %g", fs)
	}
	// The signature is genuine; listing signer 1 is what must fail.
	if fs := failShareOf(st, signedRecord(t, st, members, []int{1, 2, 3})); fs <= 0 {
		t.Fatalf("a quorum listing signer 1 reads fail_share %g, want > 0", fs)
	}
}

func TestCheckerCatchesHotReplyMismatch(t *testing.T) {
	want := bytes.Repeat([]byte{0xab}, tsig.SignatureSize)
	other := append([]byte(nil), want...)
	other[len(other)-1] ^= 0x01
	if !hotReplyOK(&service.SignatureResponse{Signature: want, Cached: true}, want) {
		t.Error("the warm-up bytes, served from the cache, must pass")
	}
	if hotReplyOK(&service.SignatureResponse{Signature: other, Cached: true}, want) {
		t.Error("a reply that differs from the warm-up bytes must fail")
	}
	if hotReplyOK(&service.SignatureResponse{Signature: want}, want) {
		t.Error("a reply that was not served from the cache must fail")
	}
}

func TestCycleCheck(t *testing.T) {
	st, _ := keyedState(t, "keygen_refresh")
	first := st.group
	rotated, members, err := testScheme.Keygen(fleetN, fleetT)
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := testScheme.RunRefresh(fleetN, fleetT)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("signed after the refresh")
	var refreshed *tsig.Group
	parts := make([]*tsig.PartialSignature, fleetT+1)
	for i := range parts {
		m, err := members[i].ApplyRefresh(epoch)
		if err != nil {
			t.Fatal(err)
		}
		refreshed = m.Group()
		if parts[i], err = m.SignShare(msg); err != nil {
			t.Fatal(err)
		}
	}
	sig, err := refreshed.Combine(msg, parts)
	if err != nil {
		t.Fatal(err)
	}
	if !cycleOK(first.PK, rotated, refreshed, msg, sig) {
		t.Fatal("a genuine rotate -> refresh -> sign cycle must pass")
	}
	if cycleOK(rotated.PK, rotated, refreshed, msg, sig) {
		t.Error("a rotation that kept the public key must fail")
	}
	if cycleOK(first.PK, rotated, rotated, msg, sig) {
		t.Error("a refresh that kept the verification keys must fail")
	}
	if cycleOK(first.PK, rotated, first, msg, sig) {
		t.Error("a refresh that changed the public key must fail")
	}
	if cycleOK(first.PK, rotated, refreshed, []byte("another message"), sig) {
		t.Error("a signature on another message must fail")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDecl{name: "call_p50_ms", unit: "ms", better: "lower", bound: 0.10}
	higher := metricDecl{name: "sign_per_s", unit: "1/s", better: "higher", bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name string
		d    metricDecl
		a, b []float64
		want string
	}{
		{"same", lower, steady, []float64{101, 100, 100, 99, 103}, verdictOK},
		{"slower within bound", lower, steady, []float64{108, 109, 107, 108, 110}, verdictOK},
		{"slower past bound", lower, steady, []float64{112, 113, 111, 112, 114}, verdictWorse},
		{"faster", lower, steady, []float64{50, 51, 49, 50, 52}, verdictOK},
		{"throughput down past bound", higher, steady, []float64{88, 89, 87, 88, 86}, verdictWorse},
		{"throughput up", higher, steady, []float64{120, 121, 119, 120, 122}, verdictOK},
		{"noisy", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 100, 125, 95, 105}, verdictUnresolved},
		{"noisy but every run better", lower, []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, verdictOK},
	}
	for _, c := range cases {
		if got, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFilesExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64, failed int) string {
		path := filepath.Join(dir, name)
		for seed := uint64(1); seed <= 5; seed++ {
			doc := &resultDoc{Workload: "sign_unique", Seed: seed, Seconds: 15, Host: readHost()}
			doc.Attempted, doc.Failed, doc.Correct = 100, failed, failed == 0
			doc.Metrics = map[string]value{"call_p50_ms": {Value: p50 + float64(seed), Unit: "ms"}}
			if err := appendJSONLine(path, doc); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", 100, 0)
	var out bytes.Buffer
	if code := compareFiles(&out, base, write("same.jsonl", 101, 0)); code != 0 {
		t.Errorf("equal sets: exit %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "base A") || !strings.Contains(out.String(), "0.25") {
		t.Errorf("the table must name the ratio's base and the bound:\n%s", out.String())
	}
	if code := compareFiles(&out, base, write("slow.jsonl", 130, 0)); code != 1 {
		t.Errorf("a 30%% slower set: exit %d, want 1", code)
	}
	if code := compareFiles(&out, base, write("failing.jsonl", 100, 1)); code != 1 {
		t.Errorf("a higher fail_share: exit %d, want 1", code)
	}
	if code := compareFiles(&out, base, filepath.Join(dir, "absent.jsonl")); code != 2 {
		t.Errorf("a missing file: exit %d, want 2", code)
	}
}
