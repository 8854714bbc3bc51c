package lhsps

import (
	"repro/internal/bn254"
)

// Appendix C of the paper observes that every one-time linearly
// homomorphic SPS fits a template: a signature is a tuple
// (Z_1, ..., Z_ns) in G^ns, the public key consists of elements
// {F^_{j,mu}} and {G^_{j,k}} in G^, and verification checks m
// pairing-product equations
//
//	1 = prod_mu e(Z_mu, F^_{j,mu}) * prod_k e(M_k, G^_{j,k}),  j = 1..m.
//
// TemplateView exposes a scheme instance in that shape, so the tests can
// hold it to the template's reference semantics. The DP-based scheme of Section 2.3 instantiates it with
// ns = 2, m = 1; the DLIN-based scheme of Appendix F has ns = 3, m = 2.
type TemplateView struct {
	// NS is the signature length ns, M the number of verification
	// equations.
	NS, M int
	// F[j][mu] is F^_{j,mu}; G[j][k] is G^_{j,k}.
	F [][]*bn254.G2
	G [][]*bn254.G2
}

// VerifyTemplate checks the template's m equations for a signature tuple
// zs on vector msg — the reference semantics any instance must agree with.
func (tv *TemplateView) VerifyTemplate(msg []*bn254.G1, zs []*bn254.G1) bool {
	if len(zs) != tv.NS {
		return false
	}
	for j := 0; j < tv.M; j++ {
		if len(tv.F[j]) != tv.NS || len(tv.G[j]) != len(msg) {
			return false
		}
		g1s := make([]*bn254.G1, 0, tv.NS+len(msg))
		g2s := make([]*bn254.G2, 0, tv.NS+len(msg))
		for mu := 0; mu < tv.NS; mu++ {
			g1s = append(g1s, zs[mu])
			g2s = append(g2s, tv.F[j][mu])
		}
		for k := range msg {
			g1s = append(g1s, msg[k])
			g2s = append(g2s, tv.G[j][k])
		}
		if !bn254.PairingCheck(g1s, g2s) {
			return false
		}
	}
	return true
}

// TemplateView returns the Appendix C view of a DP-based public key:
// ns = 2 with (F^_{1,1}, F^_{1,2}) = (g^_z, g^_r) and G^_{1,k} = g^_k.
func (pk *PublicKey) TemplateView() *TemplateView {
	return &TemplateView{
		NS: 2,
		M:  1,
		F:  [][]*bn254.G2{{pk.Params.Gz, pk.Params.Gr}},
		G:  [][]*bn254.G2{pk.Gk},
	}
}
