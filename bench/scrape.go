package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// sample is one series of a Prometheus text exposition: the family name,
// the raw label block (without braces, "" when unlabelled) and the value.
type sample struct {
	name   string
	labels string
	value  float64
}

// scrape is one daemon's (or, summed, one fleet tier's) exposition.
type scrape []sample

// parseMetrics reads the Prometheus text format the daemons serve on
// GET /metrics. Comment lines are skipped; a malformed sample line is an
// error, because a silently dropped series would read as a zero delta.
func parseMetrics(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s := sample{}
		rest := line
		if open := strings.IndexByte(line, '{'); open >= 0 {
			end := strings.LastIndexByte(line, '}')
			if end < open {
				return nil, fmt.Errorf("metrics: unbalanced braces in %q", line)
			}
			s.name, s.labels, rest = line[:open], line[open+1:end], line[end+1:]
		} else {
			sp := strings.IndexByte(line, ' ')
			if sp < 0 {
				return nil, fmt.Errorf("metrics: no value in %q", line)
			}
			s.name, rest = line[:sp], line[sp:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		s.value = v
		out = append(out, s)
	}
	return out, sc.Err()
}

// sum adds every series of the family whose label block contains each of
// the given `key="value"` fragments — so a per-signer or per-group vec
// collapses to one number.
func (s scrape) sum(name string, labelFragments ...string) float64 {
	total := 0.0
next:
	for _, smp := range s {
		if smp.name != name {
			continue
		}
		for _, frag := range labelFragments {
			if !strings.Contains(smp.labels, frag) {
				continue next
			}
		}
		total += smp.value
	}
	return total
}

// scrapeURLs fetches /metrics from each base URL and concatenates the
// samples, so sum() adds across daemons.
func scrapeURLs(ctx context.Context, hc *http.Client, urls []string) (scrape, error) {
	var all scrape
	for _, u := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", u, err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("scrape %s: status %d", u, resp.StatusCode)
		}
		s, err := parseMetrics(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", u, err)
		}
		all = append(all, s...)
	}
	return all, nil
}

// fleetScrape is one before-or-after reading of the whole fleet.
type fleetScrape struct {
	coord   scrape
	signers scrape // all n signers, concatenated
}

// fleetDelta answers "how much did this family advance between two
// readings" for either tier.
type fleetDelta struct{ before, after fleetScrape }

func (d fleetDelta) coord(name string, frags ...string) float64 {
	return d.after.coord.sum(name, frags...) - d.before.coord.sum(name, frags...)
}

func (d fleetDelta) signers(name string, frags ...string) float64 {
	return d.after.signers.sum(name, frags...) - d.before.signers.sum(name, frags...)
}

// ratio is a/b, 0 when b is 0 (a histogram that observed nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
