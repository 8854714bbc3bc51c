package service

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
)

// The acceptance configuration: n=7 signers, threshold t=3 (any 4 sign,
// up to 3 faulty tolerated). The DKG costs ~1s, so all tests share one
// run.
const (
	fixN = 7
	fixT = 3
)

type fixture struct {
	group   *core.Group
	members []*core.Member // 1-based
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func testFixture(t testing.TB) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		params := core.NewParams("service-test/v1")
		views, _, err := core.DistKeygen(params, fixN, fixT)
		if err != nil {
			fixErr = err
			return
		}
		group, err := core.NewGroup("service-test/v1", fixN, fixT, views[1])
		if err != nil {
			fixErr = err
			return
		}
		members := make([]*core.Member, fixN+1)
		for i := 1; i <= fixN; i++ {
			if members[i], err = group.Member(views[i].Share); err != nil {
				fixErr = err
				return
			}
		}
		fix = &fixture{group: group, members: members}
	})
	if fixErr != nil {
		t.Fatalf("Dist-Keygen fixture: %v", fixErr)
	}
	return fix
}

// newTestSigner builds signer i's handler.
func newTestSigner(t *testing.T, f *fixture, i int) *Signer {
	t.Helper()
	s, err := NewSigner(f.members[i], SignerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// startSigners starts one HTTP server per signer, applying mutate (when
// non-nil) to each handler — the hook for injecting faults. Servers are
// closed on test cleanup; the returned URLs are in share order.
func startSigners(t *testing.T, f *fixture, mutate func(i int, h http.Handler) http.Handler) []string {
	t.Helper()
	urls := make([]string, f.group.N)
	for i := 1; i <= f.group.N; i++ {
		var h http.Handler = newTestSigner(t, f, i)
		if mutate != nil {
			h = mutate(i, h)
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		urls[i-1] = srv.URL
	}
	return urls
}

// downURL returns a URL that refuses connections (a signer that is down).
func downURL(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()
	return url
}

// defTenant is the coordinator's live default-group state, resolved
// through the registry exactly as an un-namespaced request resolves it.
// White-box tests read and stage per-tenant state through it.
func (c *Coordinator) defTenant() *coordTenant {
	tn, err := c.tenant(DefaultGroupID, false)
	if err != nil {
		panic(err)
	}
	return tn
}

// defTenant is the signer's live default-group state (see
// Coordinator.defTenant).
func (s *Signer) defTenant() *signerTenant {
	tn, err := s.tenant(DefaultGroupID, false)
	if err != nil {
		panic(err)
	}
	return tn
}
