package main

import (
	"context"
	"fmt"
	"time"

	tsig "repro"
)

// replayPipeline re-does, from the benchmark's side and as child spans of
// the operation, what the coordinator just did for msg: one POST per
// signer, unmarshal, Share-Verify of the first t+1 shares, Combine of
// pre-verified shares, Verify. The posts run one after another, not at
// once as the coordinator's do: the point is each step's own cost, and
// sequential children keep self times summing to the root span.
func (st *runState) replayPipeline(ctx context.Context, root int, msg []byte) error {
	tr, g := st.tr, st.group
	replay := tr.start(root, "bench", "replay")
	defer tr.end(replay)
	parts := make([]*tsig.PartialSignature, 0, g.N)
	for i := 1; i <= g.N; i++ {
		id := tr.start(replay, "service.signer", "POST /v1/sign")
		ps, _, err := st.fleet.directSign(ctx, i, msg)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		parts = append(parts, ps)
	}
	wire := parts[0].Marshal()
	id := tr.start(replay, "core", "UnmarshalPartialSignature")
	_, err := tsig.UnmarshalPartialSignature(wire)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	quorum := parts[:g.T+1]
	for _, ps := range quorum {
		id := tr.start(replay, "core", "ShareVerify")
		ok := g.ShareVerify(msg, ps)
		tr.end(id)
		if !ok {
			return fmt.Errorf("replay: share %d failed Share-Verify", ps.Index)
		}
	}
	id = tr.start(replay, "core", "CombinePreverified")
	sig, err := g.CombinePreverified(quorum)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	id = tr.start(replay, "core", "Verify")
	ok := g.Verify(msg, sig)
	tr.end(id)
	if !ok {
		return fmt.Errorf("replay: combined signature failed Verify")
	}
	return nil
}

// probe times fn count times and returns the median.
func probe(count int, fn func() error) (time.Duration, error) {
	lats := make([]float64, count)
	for i := range lats {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		lats[i] = float64(time.Since(start))
	}
	return time.Duration(median(lats)), nil
}

// tracedRun is everything the per-layer report is computed from.
type tracedRun struct {
	micro      *microResults
	st         *runState
	ref        *pass // untraced reference pass: /metrics deltas, CPU, p50
	traced     *pass // the same pass again with spans on
	spans      []span
	spanFile   string
	directSign time.Duration // benchmark -> one signer -> back
	cachedSign time.Duration // client.Sign answered from the signature cache
}

// runTrace is the traced run: one set-up, the in-process layer ops, an
// untraced reference pass and a traced pass of the workload, and two
// probes. It never produces end-to-end numbers.
//
// The layer ops run while the fleet is up but idle, on purpose: a Verify
// allocates ~10 MB of math/big garbage, and on a near-empty heap the
// collector runs five times per call and the op reads a fifth slower than
// the same call costs inside the fleet's process. Measured beside the
// fleet's live heap, the ops add up to the end-to-end CPU figure.
func runTrace(ctx context.Context, w *workload, seed uint64, seconds float64, outDir string) (*tracedRun, error) {
	budget := time.Duration(seconds * float64(time.Second))
	st, err := setUp(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	tr := &tracedRun{st: st}
	if tr.micro, err = runMicro(seed, budget/2, minBatches); err == nil {
		if err = tr.passes(ctx, min(budget/6, 3*time.Second), outDir); err == nil {
			err = tr.probes(ctx)
		}
	}
	if err != nil {
		st.fleet.close()
		return nil, err
	}
	return tr, nil
}

// passes runs the workload twice for passLen — untraced, then with spans
// on — and writes the span file.
func (tr *tracedRun) passes(ctx context.Context, passLen time.Duration, outDir string) error {
	st := tr.st
	// One short unmeasured pass first: the reference pass must not be the
	// one that pays for the connections and caches the layer ops cooled.
	if _, err := st.measure(ctx, passLen/8); err != nil {
		return err
	}
	var err error
	if tr.ref, err = st.measure(ctx, passLen); err != nil {
		return err
	}
	tracer := newTracer(st.seed)
	st.tr = tracer
	tr.traced, err = st.measure(ctx, passLen)
	st.tr = nil
	if err != nil {
		return err
	}
	tr.spans = tracer.spans
	tr.spanFile, err = tracer.write(outDir, st.w.name)
	return err
}

// probes times one signer's round trip and one cache hit's.
func (tr *tracedRun) probes(ctx context.Context) error {
	st := tr.st
	probeMsg := st.freshMessage(st.cs[0])
	var err error
	if tr.directSign, err = probe(20, func() error {
		_, _, err := st.fleet.directSign(ctx, 2, probeMsg)
		return err
	}); err != nil {
		return fmt.Errorf("direct-sign probe: %w", err)
	}
	if _, _, err := st.fleet.cli.Sign(ctx, probeMsg); err != nil {
		return fmt.Errorf("cached-sign probe: %w", err)
	}
	if tr.cachedSign, err = probe(200, func() error {
		_, resp, err := st.fleet.cli.Sign(ctx, probeMsg)
		if err == nil && !resp.Cached {
			err = fmt.Errorf("repeat of a signed message was not served from the cache")
		}
		return err
	}); err != nil {
		return fmt.Errorf("cached-sign probe: %w", err)
	}
	return nil
}

func p50ms(ds []time.Duration) float64 { return median(millis(ds)) }

// serviceMetrics turns one pass's /metrics deltas into the service.*
// per-layer figures. The proto.* figures read the counters' absolute
// values: every fleet ran at least its set-up Dist-Keygen.
func serviceMetrics(p *pass) map[string]float64 {
	out := map[string]float64{}
	d := p.delta
	signs := float64(p.delivered())
	shares := d.signers("tsig_signer_sign_seconds_count") + d.signers("tsig_signer_batch_messages_sum")
	busy := d.signers("tsig_signer_sign_seconds_sum") + d.signers("tsig_signer_sign_batch_seconds_sum")
	out["service.signer.sign_busy_ms"] = 1e3 * ratio(busy, shares)
	out["service.signer.shares_per_sign"] = ratio(shares, signs)

	quorum := ratio(d.coord("tsig_coordinator_quorum_seconds_sum"), d.coord("tsig_coordinator_quorum_seconds_count"))
	out["service.coordinator.quorum_ms"] = 1e3 * quorum
	// sign_seconds covers cache hits too; only fan-outs reach a quorum.
	post := 0.0
	if fanOuts := d.coord("tsig_coordinator_cache_misses_total"); fanOuts > 0 && quorum > 0 {
		post = max(d.coord("tsig_coordinator_sign_seconds_sum")/fanOuts-quorum, 0)
	}
	out["service.coordinator.post_quorum_ms"] = 1e3 * post
	out["service.coordinator.backend_wait_ms"] = 1e3 * ratio(
		d.coord("tsig_coordinator_backend_seconds_sum"), d.coord("tsig_coordinator_backend_seconds_count"))
	out["service.coordinator.share_verify_failures_per_sign"] = ratio(
		d.coord("tsig_coordinator_share_verify_failures_total"), float64(p.attempted()))
	lookups := d.coord("tsig_coordinator_cache_hits_total") + d.coord("tsig_coordinator_cache_misses_total")
	out["service.coordinator.cache_hit_share"] = ratio(d.coord("tsig_coordinator_cache_hits_total"), lookups)
	out["service.coordinator.coalesced_share"] = ratio(d.coord("tsig_coordinator_coalesced_total"), lookups)

	const dkg = `proto="dkg"`
	runs := d.after.coord.sum("tsig_proto_runs_total", dkg, `outcome="ok"`)
	out["service.proto.keygen_rounds"] = ratio(d.after.coord.sum("tsig_proto_run_rounds_total", dkg), runs)
	out["service.proto.keygen_bytes"] = ratio(
		d.after.coord.sum("tsig_proto_broadcast_bytes_total", dkg)+d.after.coord.sum("tsig_proto_unicast_bytes_total", dkg), runs)
	out["service.proto.step_busy_ms"] = 1e3 * ratio(
		d.after.signers.sum("tsig_proto_step_seconds_sum"), d.after.signers.sum("tsig_proto_step_seconds_count"))
	rebuilds := d.coord("tsig_pairing_precompute_rebuilds_total") + d.signers("tsig_pairing_precompute_rebuilds_total")
	out["service.precompute_rebuilds_per_cycle"] = ratio(rebuilds, signs)
	return out
}

// layerMetrics computes every per-layer metric of the traced run.
func (tr *tracedRun) layerMetrics() map[string]float64 {
	out := serviceMetrics(tr.ref)
	for _, s := range tr.micro.stats {
		out[s.name] = s.value
	}
	for name, v := range tr.micro.counts {
		out[name] = v
	}
	out["bn254.pair_allocs"] = tr.micro.stat("bn254.pair_ms").allocs
	out["bn254.gt_mul_allocs"] = tr.micro.stat("bn254.gt_mul_us").allocs
	out["bn254.g1_scalar_mult_allocs"] = tr.micro.stat("bn254.g1_scalar_mult_ms").allocs
	out["core.verify_allocs"] = tr.micro.stat("core.verify_ms").allocs
	out["core.share_sign_allocs"] = tr.micro.stat("core.share_sign_ms").allocs

	out["service.signer.direct_sign_ms"] = float64(tr.directSign) / 1e6

	ref := tr.ref
	keygen := p50ms(ref.latencies(keygenLatency))
	out["client.keygen_p50_ms"] = keygen
	out["client.refresh_p50_ms"] = p50ms(ref.latencies(refreshLatency))
	switch tr.st.w.name {
	case "keygen_refresh":
		out["client.sign_p50_ms"] = p50ms(ref.latencies(cycleSignLatency))
	case "sign_batch":
		out["client.sign_p50_ms"] = 0 // the workload never calls client.Sign
	default:
		out["client.sign_p50_ms"] = p50ms(ref.latencies(callLatency))
	}
	if tr.st.w.name != "keygen_refresh" {
		keygen = float64(tr.st.fleet.dkgLat) / 1e6 // one sample: the set-up's RunDKG
	}
	out["service.proto.http_overhead_ms"] = keygen - out["dkg.keygen_ms"]
	out["client.cached_roundtrip_us"] = float64(tr.cachedSign) / 1e3

	lats := sortedCopy(millis(ref.latencies(callLatency)))
	pct := tailPercentile(len(lats))
	out["client.tail_pct"] = pct // 0: too few samples for any tail
	out["client.tail_ms"] = 0
	if pct > 0 {
		out["client.tail_ms"] = quantile(lats, pct/100)
	}
	out["client.peak_rss_mb"] = peakRSSMB()
	out["client.trace_overhead_share"] = ratio(p50ms(tr.traced.latencies(callLatency)), quantile(lats, 0.5)) - 1

	// The CPU budget of one signature on the unbatched path, and what the
	// model leaves unexplained: HTTP, JSON, point decoding, GC.
	model := fleetN*out["core.share_sign_ms"] + (fleetT+1)*out["core.share_verify_ms"] +
		out["core.combine_preverified_ms"] + out["core.verify_ms"]
	out["service.cpu_model_ms"] = model
	out["service.cpu_unexplained_ms"], out["service.cpu_unexplained_share"] = 0, 0
	if tr.st.w.name == "sign_unique" { // the only workload the model describes
		cpu := cpuMsPerSign(ref)
		out["service.cpu_unexplained_ms"] = cpu - model
		out["service.cpu_unexplained_share"] = ratio(cpu-model, cpu)
	}
	return out
}

func cpuMsPerSign(p *pass) float64 {
	return ratio(float64(p.cpu)/1e6, float64(p.delivered()))
}
