// Command bench is the repository's one benchmark: it drives a real
// in-process loopback fleet (5 signer daemons, one coordinator, keyed by a
// Dist-Keygen over HTTP, all at default configuration) through
// client.Client, checks every output, and prints every metric by name and
// unit. BENCHMARK.json at the repository root declares it; README.md in
// this directory explains the workloads, the metrics and how they
// interact.
//
//	go run ./bench -workload sign_unique -seed 1            # end-to-end run
//	go run ./bench -workload sign_unique -seed 1 -trace 1   # per-layer run
//	go run ./bench -compare A.jsonl B.jsonl                 # two sets of runs
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// processStart is as close to process start as Go code gets; the first
// set-up is timed from here.
var processStart = time.Now()

// setUpRepeats is how many times a run sets up before it measures:
// setup_s is the median, because one sub-second shot does not repeat
// within a tenth.
const setUpRepeats = 3

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed         = flag.Uint64("seed", 1, "workload seed: message bytes and draw order")
		seconds      = flag.Float64("seconds", 15, "length of the measured window (traced run: total budget)")
		trace        = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
		jsonPath     = flag.String("json", "", "append this run's result document to the file (one JSON object per line)")
		outDir       = flag.String("out", "bench/out", "directory for span files of traced runs")
		compare      = flag.Bool("compare", false, "compare two -json files: bench -compare A B")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare A.jsonl B.jsonl")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	w := workloadByName(*workloadName)
	if w == nil {
		fatal(2, "unknown -workload %q; one of: %s", *workloadName, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		fatal(2, "-seconds must be positive")
	}

	ctx := context.Background()
	var doc *resultDoc
	var err error
	if *trace != 0 {
		doc, err = traceMain(ctx, w, *seed, *seconds, *outDir)
	} else {
		doc, err = endToEndMain(ctx, w, *seed, *seconds)
	}
	if err != nil {
		fatal(1, "bench: %s: %v", w.name, err)
	}
	if *jsonPath != "" {
		if err := appendJSONLine(*jsonPath, doc); err != nil {
			fatal(1, "bench: %v", err)
		}
	}
	line, err := json.Marshal(doc.contractLine)
	if err != nil {
		fatal(1, "bench: %v", err)
	}
	fmt.Println(string(line))
	if !doc.Correct {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func appendJSONLine(path string, doc *resultDoc) error {
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// endToEndMain is the untraced run: set up setUpRepeats times, measure one
// window on the last fleet, check every output, report.
func endToEndMain(ctx context.Context, w *workload, seed uint64, seconds float64) (*resultDoc, error) {
	var st *runState
	setups := make([]float64, setUpRepeats)
	for i := range setups {
		if st != nil {
			st.fleet.close()
		}
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		var err error
		if st, err = setUp(ctx, w, seed); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups[i] = time.Since(start).Seconds()
	}
	defer st.fleet.close()

	p, err := st.measure(ctx, time.Duration(seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	computed := endToEndMetrics(p)
	computed["setup_s"] = median(setups)
	service := serviceMetrics(p)

	doc := newResultDoc(w, seed, seconds, false, p)
	printHeader(doc)
	fmt.Printf("set-ups (s): %.3f -> median %.3f\n", setups, computed["setup_s"])
	printLatencies(w, p)
	printMetrics("service (from /metrics, scraped outside the window)", perLayer, service)
	printErrors(p)
	attempted, failed := p.attempted(), p.failed()

	// The window's records are the load generator's memory, not the fleet's.
	p.records = nil
	computed["live_heap_mb"] = liveHeapMB()
	fmt.Printf("peak RSS %.1f MB (VmHWM; not gated: garbage headroom makes it jump from run to run)\n", peakRSSMB())
	printMetrics("end-to-end", endToEnd, computed)
	var problems []string
	doc.Metrics, problems = metricsOf(endToEnd, computed)
	finish(doc, attempted, failed, append(problems, predictions(w, service)...))
	return doc, nil
}

// endToEndMetrics computes the window's end-to-end figures.
func endToEndMetrics(p *pass) map[string]float64 {
	signs := float64(p.delivered())
	return map[string]float64{
		"call_p50_ms":     p50ms(p.latencies(callLatency)),
		"sign_per_s":      ratio(signs, p.wall.Seconds()),
		"cpu_ms_per_sign": cpuMsPerSign(p),
		"alloc_mb_per_op": ratio(float64(p.alloc)/(1<<20), signs),
	}
}

// predictions are the assertions that make a workload the workload it
// claims to be, checked against the window's service metrics; a violated
// one makes the run incorrect.
func predictions(w *workload, s map[string]float64) []string {
	var bad []string
	expect := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	hit, conv := s["service.coordinator.cache_hit_share"], s["service.coordinator.share_verify_failures_per_sign"]
	switch w.name {
	case "sign_hot":
		expect(hit >= 0.99, "sign_hot: cache_hit_share %.4f < 0.99", hit)
	case "sign_unique", "sign_batch":
		expect(hit == 0, "%s: cache_hit_share %.4f, want 0", w.name, hit)
	}
	if w.byzantine {
		expect(conv == 1, "sign_byzantine: share_verify_failures_per_sign %.4f, want exactly 1", conv)
	} else {
		expect(conv == 0, "%s: share_verify_failures_per_sign %.4f on an honest fleet", w.name, conv)
	}
	return bad
}

// traceMain is the traced run; its metrics are the per-layer ones only.
func traceMain(ctx context.Context, w *workload, seed uint64, seconds float64, outDir string) (*resultDoc, error) {
	tr, err := runTrace(ctx, w, seed, seconds, outDir)
	if err != nil {
		return nil, err
	}
	defer tr.st.fleet.close()
	computed := tr.layerMetrics()

	doc := newResultDoc(w, seed, seconds, true, tr.ref)
	printHeader(doc)
	printMicro(tr.micro)
	printLatencies(w, tr.ref)
	printMetrics("per-layer", perLayer, computed)
	if w.name == "sign_unique" {
		printBudget(computed, cpuMsPerSign(tr.ref))
	}
	problems := append(predictions(w, computed), printSpans(tr)...)
	printErrors(tr.ref)
	printErrors(tr.traced)

	var missing []string
	doc.Metrics, missing = metricsOf(perLayer, computed)
	// Both passes count: a failure under tracing is still a failure.
	finish(doc, tr.ref.attempted()+tr.traced.attempted(), tr.ref.failed()+tr.traced.failed(),
		append(problems, missing...))
	return doc, nil
}

func newResultDoc(w *workload, seed uint64, seconds float64, traced bool, p *pass) *resultDoc {
	return &resultDoc{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		Samples: len(p.latencies(callLatency)), Host: readHost(),
	}
}

// finish fills in the counts and the verdict and prints fail_share with
// both of its counts. A problem is a violated prediction or a declared
// metric the run did not compute.
func finish(doc *resultDoc, attempted, failed int, problems []string) {
	doc.Attempted, doc.Failed = attempted, failed
	for _, msg := range problems {
		fmt.Println("INCORRECT:", msg)
	}
	doc.Correct = doc.Failed == 0 && doc.Attempted > 0 && len(problems) == 0
	fmt.Printf("fail_share %.6f ratio (%d failed of %d attempted)\n",
		ratio(float64(doc.Failed), float64(doc.Attempted)), doc.Failed, doc.Attempted)
}

func printHeader(doc *resultDoc) {
	h := doc.Host
	mode := "end-to-end"
	if doc.Traced {
		mode = "traced"
	}
	fmt.Printf("bench %s (%s): seed %d, %.0f s, fleet n=%d t=%d, zero injected network delay\n",
		doc.Workload, mode, doc.Seed, doc.Seconds, fleetN, fleetT)
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s %s/%s, commit %s, substrate %s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.GoOS, h.GoArch, h.Commit, h.Substrate)
}

// printLatencies prints the median and the highest percentile the sample
// count supports, with the count beside them.
func printLatencies(w *workload, p *pass) {
	row := func(name string, ds []time.Duration) {
		if len(ds) == 0 {
			return
		}
		lats := sortedCopy(millis(ds))
		fmt.Printf("%-14s p50 %.3f ms", name, quantile(lats, 0.5))
		if pct := tailPercentile(len(lats)); pct > 0 {
			fmt.Printf(", p%g %.3f ms", pct, quantile(lats, pct/100))
		}
		fmt.Printf(" (%d samples)\n", len(lats))
	}
	fmt.Printf("window: %.3f s wall, %.3f s CPU, %d signatures delivered\n",
		p.wall.Seconds(), p.cpu.Seconds(), p.delivered())
	row("call latency", p.latencies(callLatency))
	if w.name == "keygen_refresh" {
		row("  Rotate", p.latencies(keygenLatency))
		row("  RunRefresh", p.latencies(refreshLatency))
		row("  Sign", p.latencies(cycleSignLatency))
	}
}

func printMetrics(title string, decls []metricDecl, computed map[string]float64) {
	fmt.Printf("--- %s ---\n", title)
	for _, d := range decls {
		if v, ok := computed[d.name]; ok {
			fmt.Printf("%-56s %14.4f %s\n", d.name, v, d.unit)
		}
	}
}

func printMicro(m *microResults) {
	fmt.Println("--- in-process layer ops: median of batch means [IQR], allocs/op, batches x iters ---")
	for _, s := range m.stats {
		fmt.Printf("%-32s %12.4f %s [%.4f] %10.1f allocs/op  %2d x %d\n",
			s.name, s.value, s.unit, s.iqr, s.allocs, s.batches, s.iters)
	}
}

// printBudget lays the model of one signature's CPU beside what was
// measured, so a saving can be looked for in the term that claims it.
func printBudget(m map[string]float64, measured float64) {
	fmt.Println("--- CPU budget of one sign_unique signature ---")
	term := func(label string, count int, name string) {
		fmt.Printf("  %d x %-28s %9.3f ms = %9.3f ms\n", count, label, m[name], float64(count)*m[name])
	}
	term("core.share_sign_ms", fleetN, "core.share_sign_ms")
	term("core.share_verify_ms", fleetT+1, "core.share_verify_ms")
	term("core.combine_preverified_ms", 1, "core.combine_preverified_ms")
	term("core.verify_ms", 1, "core.verify_ms")
	fmt.Printf("  service.cpu_model_ms        %9.3f ms\n", m["service.cpu_model_ms"])
	fmt.Printf("  cpu_ms_per_sign             %9.3f ms (reference pass)\n", measured)
	fmt.Printf("  service.cpu_unexplained_ms  %9.3f ms = %.3f of the measured %.3f ms\n",
		m["service.cpu_unexplained_ms"], m["service.cpu_unexplained_share"], measured)
}

// printSpans prints mean self time per layer and op of the traced pass and
// checks that within every operation self times sum to the root span.
func printSpans(tr *tracedRun) (problems []string) {
	fmt.Printf("--- traced pass: %d spans -> %s; mean self time per operation ---\n", len(tr.spans), tr.spanFile)
	byName := selfByLayerName(tr.spans)
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-44s %10.3f ms\n", name, byName[name])
	}
	self := selfTimes(tr.spans)
	sums, roots := map[int]int64{}, map[int]int64{}
	for _, s := range tr.spans {
		sums[s.Op] += self[s.ID]
		if s.Parent == 0 {
			roots[s.Op] = s.EndNs - s.StartNs
		}
	}
	for op, root := range roots {
		if sums[op] != root {
			problems = append(problems, fmt.Sprintf("op %d: self times sum to %d ns, root span is %d ns", op, sums[op], root))
		}
	}
	return problems
}

// printErrors shows the first few failed operations on standard error.
func printErrors(p *pass) {
	shown := 0
	for i := range p.records {
		if r := &p.records[i]; r.failed > 0 && shown < 5 {
			fmt.Fprintf(os.Stderr, "failed op: %d of %d signatures, err=%v\n", r.failed, r.sigs, r.err)
			shown++
		}
	}
}
