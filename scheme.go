package tsig

import (
	"fmt"

	"repro/internal/core"
)

// DefaultDomain is the domain-separation label a Scheme uses when
// WithDomain is not given. Two parties interoperate only when their
// domains match, so production deployments should pick their own.
const DefaultDomain = "tsig/v1"

// Scheme fixes the public parameters of one deployment: the domain-
// separation label everything is derived from, and whether the Appendix G
// aggregation extension is enabled. A Scheme is immutable and safe for
// concurrent use; every server and client of one deployment must use the
// same options.
type Scheme struct {
	domain string
	params *core.Params
	agg    *core.AggParams // non-nil iff WithAggregation
}

// Option configures a Scheme.
type Option func(*schemeConfig)

type schemeConfig struct {
	domain      string
	aggregation bool
}

// WithDomain sets the domain-separation label the parameters derive from.
func WithDomain(domain string) Option {
	return func(c *schemeConfig) { c.domain = domain }
}

// WithAggregation enables the Appendix G extension: distributed key
// generation carries a built-in key-validity proof, and signatures on
// distinct (key, message) pairs compress into one 512-bit aggregate.
func WithAggregation() Option {
	return func(c *schemeConfig) { c.aggregation = true }
}

// NewScheme builds a scheme from the options.
func NewScheme(opts ...Option) *Scheme {
	cfg := schemeConfig{domain: DefaultDomain}
	for _, opt := range opts {
		opt(&cfg)
	}
	s := &Scheme{domain: cfg.domain}
	if cfg.aggregation {
		s.agg = core.NewAggParams(cfg.domain)
		s.params = s.agg.Params
	} else {
		s.params = core.NewParams(cfg.domain)
	}
	return s
}

// Domain returns the scheme's domain-separation label.
func (s *Scheme) Domain() string { return s.domain }

// Params returns the scheme's public parameters.
func (s *Scheme) Params() *Params { return s.params }

// Aggregation returns the Appendix G parameters, or nil when the scheme
// was built without WithAggregation.
func (s *Scheme) Aggregation() *AggParams { return s.agg }

// Keygen runs the fully distributed key generation among n simulated
// honest servers with threshold t (any t+1 sign; requires n >= 2t+1) and
// returns the shared public Group plus the n Members, in server order
// (members[i] holds share i+1).
//
// In a real deployment each member's share would be generated on — and
// never leave — its own machine; this in-process form exists for tests,
// tools, and the keystore generator.
func (s *Scheme) Keygen(n, t int) (*Group, []*Member, error) {
	views, _, err := core.DistKeygen(s.params, n, t)
	if err != nil {
		return nil, nil, err
	}
	group, err := core.NewGroup(s.domain, n, t, views[1])
	if err != nil {
		return nil, nil, err
	}
	members := make([]*Member, n)
	for i := 1; i <= n; i++ {
		if members[i-1], err = group.Member(views[i].Share); err != nil {
			return nil, nil, err
		}
	}
	return group, members, nil
}

// RunRefresh executes one proactive refresh epoch (Section 3.3) among n
// honest players with threshold t — these must match the group the epoch
// will be applied to. Apply it with Member.ApplyRefresh; the public key
// is unchanged while every share and verification key re-randomizes.
func (s *Scheme) RunRefresh(n, t int) (*RefreshEpoch, error) {
	return core.NewRefreshEpoch(s.params, n, t)
}

// AggKeygen runs the aggregation-enabled distributed key generation of
// Appendix G. It requires WithAggregation; views are 1-based like
// DistKeygen's.
func (s *Scheme) AggKeygen(n, t int) ([]*AggKeyShares, error) {
	if s.agg == nil {
		return nil, fmt.Errorf("tsig: scheme built without WithAggregation")
	}
	views, _, err := core.AggDistKeygen(s.agg, n, t)
	if err != nil {
		return nil, err
	}
	return views, nil
}

// Aggregation-scheme operations (Appendix G), re-exported so callers of
// the aggregation workflow stay inside the public API.
var (
	// AggShareSign produces a partial signature under an aggregation key.
	AggShareSign = core.AggShareSign
	// AggShareVerify checks a partial signature under an aggregation key.
	AggShareVerify = core.AggShareVerify
	// AggCombine interpolates t+1 valid partial signatures.
	AggCombine = core.AggCombine
	// AggVerifySingle verifies one full signature under one key.
	AggVerifySingle = core.AggVerifySingle
	// Aggregate compresses signatures on distinct (PK, M) pairs into a
	// single 512-bit signature.
	Aggregate = core.Aggregate
	// AggregateVerify checks an aggregate against its (PK, M) list.
	AggregateVerify = core.AggregateVerify
)
