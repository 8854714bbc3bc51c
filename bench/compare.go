package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runSet is one -json file: the runs of one side of a comparison, grouped
// by workload.
type runSet map[string][]resultDoc

func readRunSet(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var doc resultDoc
		if err := json.Unmarshal(sc.Bytes(), &doc); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !doc.Traced { // per-layer metrics carry no bound
			set[doc.Workload] = append(set[doc.Workload], doc)
		}
	}
	return set, sc.Err()
}

func (s runSet) values(workload, metric string) []float64 {
	var out []float64
	for _, doc := range s[workload] {
		if v, ok := doc.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// failShare is failed/attempted over all runs of the workload.
func (s runSet) failShare(workload string) (share float64, failed, attempted int) {
	for _, doc := range s[workload] {
		failed += doc.Failed
		attempted += doc.Attempted
	}
	return ratio(float64(failed), float64(attempted)), failed, attempted
}

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares side B against base A for one metric. B is worse when
// its median is worse than A's by more than the bound. Where either
// side's own spread (IQR over median) is wider than the bound the row is
// unresolved, not ok — unless every run of B reads better than every run
// of A, which no amount of noise explains away.
func judge(d metricDecl, a, b []float64) (verdict string, ratioBA float64) {
	ma, mb := median(a), median(b)
	ratioBA = ratio(mb, ma)
	worsening := ratioBA - 1
	if d.better == "higher" {
		worsening = 1 - ratioBA
	}
	if worsening > d.bound {
		return verdictWorse, ratioBA
	}
	if max(spreadShare(a), spreadShare(b)) > d.bound && !allBetter(d, a, b) {
		return verdictUnresolved, ratioBA
	}
	return verdictOK, ratioBA
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(d metricDecl, a, b []float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if d.better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns the process exit code: 1 when any row is worse or a workload's
// fail_share rose, 2 when the files cannot be compared.
func compareFiles(out io.Writer, pathA, pathB string) int {
	a, err := readRunSet(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no end-to-end runs", pathA)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -compare:", err)
		return 2
	}
	b, err := readRunSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -compare:", err)
		return 2
	}
	fmt.Fprintf(out, "base A = %s, B = %s; ratio = median B / median A; spread = IQR / median\n", pathA, pathB)
	fmt.Fprintf(out, "%-15s %-16s %5s %12s %12s %-5s %8s %9s %9s %6s  %s\n",
		"workload", "metric", "runs", "median A", "median B", "unit", "B/A", "spread A", "spread B", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		if len(a[w.name]) == 0 || len(b[w.name]) == 0 {
			continue
		}
		for _, d := range endToEnd {
			va, vb := a.values(w.name, d.name), b.values(w.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, r := judge(d, va, vb)
			if verdict == verdictWorse {
				code = 1
			}
			fmt.Fprintf(out, "%-15s %-16s %2d/%-2d %12.4f %12.4f %-5s %8.4f %9.4f %9.4f %6.2f  %s\n",
				w.name, d.name, len(va), len(vb), median(va), median(vb), d.unit,
				r, spreadShare(va), spreadShare(vb), d.bound, verdict)
		}
		fa, failedA, attemptedA := a.failShare(w.name)
		fb, failedB, attemptedB := b.failShare(w.name)
		verdict := verdictOK
		if fb > fa { // absolute: any rise fails
			verdict, code = verdictWorse, 1
		}
		fmt.Fprintf(out, "%-15s %-16s %5s %12.6f %12.6f %-5s %8s %9s %9s %6s  %s (%d/%d -> %d/%d)\n",
			w.name, "fail_share", "", fa, fb, "ratio", "", "", "", "any", verdict,
			failedA, attemptedA, failedB, attemptedB)
	}
	return code
}
