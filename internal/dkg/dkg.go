// Package dkg implements the distributed key generation protocol of the
// paper's Dist-Keygen (Sections 3.1 and 4, Appendix F): Pedersen's DKG
// [Ped91] where each player verifiably shares random exponent tuples with
// a multi-generator Pedersen VSS. The protocol runs k parallel sharings of
// d-dimensional tuples — (a, b) pairs with d = 2 for the Section 3 and
// Section 4 schemes, (a, b, c) triples with d = 3 and two commitment rows
// for the DLIN variant of Appendix F — with per-coefficient commitments
//
//	W^_ikl = Commit(coefficient tuple l),  l = 0..t
//
// and the share-verification equation (1):
//
//	Commit(share tuple of player j) == prod_l W^_ikl^{j^l}   (row-wise).
//
// The message flow is: (round 0) broadcast commitments + send private
// shares; (round 1) broadcast complaints against faulty dealers; (round 2)
// accused dealers broadcast the correct shares; (round 3) finalize. When
// all players follow the protocol no complaints are raised and the whole
// key generation takes a single communication round, the property the
// paper emphasizes. Dealers are disqualified if they attract strictly more
// than t complaints or fail to justify one.
//
// The same engine runs the proactive refresh of Section 3.3: in Refresh
// mode every dealer shares the all-zero secret (the constant term of its
// polynomials is forced to zero and every verifier checks W^_ik0 = 1), and
// the resulting shares are added to the existing ones without changing the
// public key.
//
// Everything a player ever saw or generated is retained in its state
// (erasure-free model): corrupting a player via InternalState hands the
// adversary the full history including the sharing polynomials.
package dkg

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"
	"sync"

	"repro/internal/bn254"
	"repro/internal/engine"
	"repro/internal/lhsps"
	"repro/internal/shamir"
)

// Message kinds on the wire.
const (
	KindDeal      = "dkg/deal"      // broadcast: VSS commitments
	KindShare     = "dkg/share"     // unicast: private polynomial shares
	KindComplaint = "dkg/complaint" // broadcast: accusation against a dealer
	KindResponse  = "dkg/response"  // broadcast: dealer's justification
)

// CommitScheme is the linear commitment defining the verifiable secret
// sharing. SecretDim is the number of scalars per shared tuple, CommitDim
// the number of group elements per commitment; Commit must be linear in
// the coefficient tuple (the VSS verification equation relies on it).
type CommitScheme interface {
	SecretDim() int
	CommitDim() int
	Commit(coeffs []*big.Int) []*bn254.G2
}

// PedersenScheme commits to pairs (a, b) as g^_z^a g^_r^b — the two-
// generator Pedersen commitment used by the Section 3 and 4 schemes.
type PedersenScheme struct {
	Params *lhsps.Params
}

// SecretDim implements CommitScheme.
func (s PedersenScheme) SecretDim() int { return 2 }

// CommitDim implements CommitScheme.
func (s PedersenScheme) CommitDim() int { return 1 }

// Commit implements CommitScheme.
func (s PedersenScheme) Commit(coeffs []*big.Int) []*bn254.G2 {
	return []*bn254.G2{lhsps.CommitPair(s.Params, coeffs[0], coeffs[1])}
}

// DLINScheme commits to triples (a, b, c) as the pair
// (g^_z^a g^_r^b, h^_z^a h^_u^c) — the dual commitment of Appendix F.
// Construct it with NewDLINScheme so the fixed-base tables for the four
// generators are shared across commitments; a literal builds them anew
// for every commitment.
type DLINScheme struct {
	Gz, Gr, Hz, Hu *bn254.G2

	precomp *dlinPrecomp
}

type dlinPrecomp struct {
	once           sync.Once
	gz, gr, hz, hu *bn254.FixedBaseG2
}

// NewDLINScheme builds the scheme with a shared lazy precomputation.
func NewDLINScheme(gz, gr, hz, hu *bn254.G2) DLINScheme {
	return DLINScheme{Gz: gz, Gr: gr, Hz: hz, Hu: hu, precomp: &dlinPrecomp{}}
}

// SecretDim implements CommitScheme.
func (s DLINScheme) SecretDim() int { return 3 }

// CommitDim implements CommitScheme.
func (s DLINScheme) CommitDim() int { return 2 }

// Commit implements CommitScheme.
func (s DLINScheme) Commit(coeffs []*big.Int) []*bn254.G2 {
	pre := s.precomp
	if pre == nil {
		// A DLINScheme not made by NewDLINScheme has no shared tables:
		// this call builds its own, so that secrets still run on the comb.
		pre = &dlinPrecomp{}
	}
	pre.once.Do(func() {
		pre.gz = bn254.NewFixedBaseG2(s.Gz)
		pre.gr = bn254.NewFixedBaseG2(s.Gr)
		pre.hz = bn254.NewFixedBaseG2(s.Hz)
		pre.hu = bn254.NewFixedBaseG2(s.Hu)
	})
	v := bn254.CommitG2(pre.gz, pre.gr, coeffs[0], coeffs[1])
	w := bn254.CommitG2(pre.hz, pre.hu, coeffs[0], coeffs[2])
	return []*bn254.G2{v, w}
}

// Config parametrizes one DKG execution.
type Config struct {
	// N is the number of players, T the threshold: any T+1 shares sign,
	// up to T corruptions are tolerated. The paper requires N >= 2T+1.
	N, T int
	// NumSharings is the number of parallel tuple sharings (the paper's k).
	NumSharings int
	// Scheme is the VSS commitment (PedersenScheme or DLINScheme).
	Scheme CommitScheme
	// Refresh selects the proactive zero-sharing mode of Section 3.3.
	Refresh bool
	// Rng is the entropy source (crypto/rand if nil).
	Rng io.Reader
}

func (c *Config) validate() error {
	if c.N < 1 || c.T < 0 {
		return errors.New("dkg: invalid n or t")
	}
	if c.N < 2*c.T+1 {
		return fmt.Errorf("dkg: need n >= 2t+1, got n=%d t=%d", c.N, c.T)
	}
	if c.NumSharings < 1 {
		return errors.New("dkg: NumSharings must be positive")
	}
	if c.Scheme == nil {
		return errors.New("dkg: missing commitment scheme")
	}
	return nil
}

// Share is one player's share of one parallel sharing: the evaluations of
// the d summed polynomials at the player's index.
type Share []*big.Int

// Result is a player's local output of the protocol.
type Result struct {
	Config Config
	// Self is the player's index.
	Self int
	// Qual is the sorted set of non-disqualified dealers.
	Qual []int
	// PK[k] = prod_{i in Qual} W^_ik0 (component-wise), the public key
	// rows of sharing k (one element for Pedersen, two for DLIN).
	PK [][]*bn254.G2
	// Share[k] is this player's private key share for sharing k.
	Share []Share
	// Commitments[j][k][l] is dealer j's commitment row vector W^_jkl
	// (dealers in Qual). Commitments and Qual are read-only: the
	// verification keys are derived from their sum, taken once.
	Commitments map[int][][][]*bn254.G2

	// rowSums[k][l] = sum_{j in Qual} W^_jkl, the commitment to the
	// summed polynomials; nil on a Result not made by the protocol.
	rowSums [][][]*bn254.G2
}

// VerificationKey computes VK_i[k] = prod_{j in Qual} prod_l W^_jkl^{i^l}
// (component-wise rows) from public information, for any player index i.
// The product over Qual is taken first, once per Result, so each VK is
// one evaluation of the summed commitment rows at i.
func (r *Result) VerificationKey(i int) [][]*bn254.G2 {
	return verificationKey(r.sums(), i)
}

func verificationKey(sums [][][]*bn254.G2, i int) [][]*bn254.G2 {
	out := make([][]*bn254.G2, len(sums))
	for k, rows := range sums {
		out[k] = evalCommitmentRows(rows, i)
	}
	return out
}

// sums returns rowSums, or computes it for a Result built by hand.
func (r *Result) sums() [][][]*bn254.G2 {
	if r.rowSums != nil {
		return r.rowSums
	}
	return sumCommitmentRows(r.Config, r.Qual, r.Commitments)
}

// sumCommitmentRows adds the dealers' commitment rows component-wise:
// out[k][l][d] = sum_{j in qual} comms[j][k][l][d], each sum accumulated
// in Jacobian coordinates and normalized once.
func sumCommitmentRows(cfg Config, qual []int, comms map[int][][][]*bn254.G2) [][][]*bn254.G2 {
	ones := make([]*big.Int, len(qual))
	for q := range ones {
		ones[q] = big.NewInt(1)
	}
	terms := make([]*bn254.G2, len(qual))
	out := make([][][]*bn254.G2, cfg.NumSharings)
	for k := range out {
		out[k] = make([][]*bn254.G2, cfg.T+1)
		for l := range out[k] {
			out[k][l] = make([]*bn254.G2, cfg.Scheme.CommitDim())
			for d := range out[k][l] {
				for q, j := range qual {
					terms[q] = comms[j][k][l][d]
				}
				out[k][l][d] = msmG2(terms, ones)
			}
		}
	}
	return out
}

// evalCommitmentRows computes prod_l W_l^{i^l} component-wise over the
// commitment rows: one multi-scalar multiplication per component, in
// Jacobian coordinates with one normalization.
func evalCommitmentRows(comms [][]*bn254.G2, i int) []*bn254.G2 {
	pows := powersOf(i, len(comms))
	terms := make([]*bn254.G2, len(comms))
	acc := make([]*bn254.G2, len(comms[0]))
	for d := range acc {
		for l, w := range comms {
			terms[l] = w[d]
		}
		acc[d] = msmG2(terms, pows)
	}
	return acc
}

// powersOf returns i^0, ..., i^(n-1).
func powersOf(i, n int) []*big.Int {
	x := big.NewInt(int64(i))
	pows := make([]*big.Int, n)
	pows[0] = big.NewInt(1)
	for l := 1; l < n; l++ {
		pows[l] = new(big.Int).Mul(pows[l-1], x)
	}
	return pows
}

// msmG2 is bn254.MultiScalarMultG2 on slices of equal length by
// construction.
func msmG2(points []*bn254.G2, scalars []*big.Int) *bn254.G2 {
	sum, err := bn254.MultiScalarMultG2(points, scalars)
	if err != nil {
		panic("dkg: internal multiscalar mismatch")
	}
	return sum
}

// dealerState tracks what a player knows about one dealer.
type dealerState struct {
	commitments [][][]*bn254.G2 // [k][l][row]
	myShares    []Share         // shares addressed to me (nil until received)
	shareOK     bool
	complainers map[int]bool
	disqualified,
	dealt bool
	// dealIntact and sharesIntact record that a relayed copy of this
	// player's own deal, and of its shares for itself, came back byte for
	// byte as it sent them in round 0: set only for its own dealer entry.
	dealIntact, sharesIntact bool
}

// HonestPlayer is the protocol-following state machine for one player.
type HonestPlayer struct {
	cfg  Config
	id   int
	fld  *shamir.Field
	rng  io.Reader
	done bool

	// Polys[k][d] is the player's own sharing polynomial for scalar d of
	// sharing k (retained: the erasure-free model says corruption reveals
	// them).
	Polys [][]*shamir.Polynomial

	dealers map[int]*dealerState
	result  *Result
	err     error

	// sentDeal and sentShares are the payloads of this player's round-0
	// deal and of its shares for itself, until round 1 compares them with
	// what was delivered.
	sentDeal, sentShares []byte
}

// NewHonestPlayer creates the state machine for player id (1-based).
func NewHonestPlayer(cfg Config, id int) (*HonestPlayer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if id < 1 || id > cfg.N {
		return nil, fmt.Errorf("dkg: player id %d out of range", id)
	}
	fld, err := shamir.NewField(bn254.Order)
	if err != nil {
		return nil, err
	}
	return &HonestPlayer{
		cfg:     cfg,
		id:      id,
		fld:     fld,
		rng:     cfg.Rng,
		dealers: make(map[int]*dealerState),
	}, nil
}

// ID implements engine.Player.
func (p *HonestPlayer) ID() int { return p.id }

// Done implements engine.Player.
func (p *HonestPlayer) Done() bool { return p.done }

// Result returns the protocol output once the player is done.
func (p *HonestPlayer) Result() (*Result, error) {
	if p.err != nil {
		return nil, p.err
	}
	if !p.done {
		return nil, errors.New("dkg: protocol not finished")
	}
	return p.result, nil
}

// InternalState is everything the player knows — the erasure-free
// corruption interface. The adversary receives the sharing polynomials,
// all received shares and the full transcript-derived state.
type InternalState struct {
	ID             int
	Polys          [][]*shamir.Polynomial
	ReceivedShares map[int][]Share
}

// InternalState implements the corruption interface.
func (p *HonestPlayer) InternalState() *InternalState {
	rs := make(map[int][]Share)
	for j, d := range p.dealers {
		if d.myShares != nil {
			rs[j] = d.myShares
		}
	}
	return &InternalState{ID: p.id, Polys: p.Polys, ReceivedShares: rs}
}

// Step implements engine.Player.
func (p *HonestPlayer) Step(round int, delivered []engine.Message) ([]engine.Message, error) {
	if p.err != nil {
		return nil, p.err
	}
	var out []engine.Message
	var err error
	switch round {
	case 0:
		out, err = p.deal()
	case 1:
		out, err = p.processDealsAndComplain(delivered)
	case 2:
		out, err = p.processComplaintsAndRespond(delivered)
	case 3:
		err = p.processResponsesAndFinalize(delivered)
	default:
		// Protocol finished; ignore stray rounds.
	}
	if err != nil {
		p.err = err
		return nil, err
	}
	return out, nil
}

// shareFor evaluates this dealer's polynomials for player j.
func (p *HonestPlayer) shareFor(k, j int) Share {
	dim := p.cfg.Scheme.SecretDim()
	s := make(Share, dim)
	for d := 0; d < dim; d++ {
		s[d] = p.Polys[k][d].EvalAt(j)
	}
	return s
}

// deal samples the sharing polynomials and emits round-0 messages.
func (p *HonestPlayer) deal() ([]engine.Message, error) {
	k := p.cfg.NumSharings
	dim := p.cfg.Scheme.SecretDim()
	p.Polys = make([][]*shamir.Polynomial, k)
	for ki := 0; ki < k; ki++ {
		p.Polys[ki] = make([]*shamir.Polynomial, dim)
		for d := 0; d < dim; d++ {
			var secret *big.Int
			if p.cfg.Refresh {
				secret = new(big.Int)
			}
			poly, err := p.fld.NewPolynomial(p.cfg.T, secret, p.rng)
			if err != nil {
				return nil, err
			}
			p.Polys[ki][d] = poly
		}
	}

	comms := make([][][]*bn254.G2, k)
	for ki := 0; ki < k; ki++ {
		comms[ki] = make([][]*bn254.G2, p.cfg.T+1)
		for l := 0; l <= p.cfg.T; l++ {
			if p.cfg.Refresh && l == 0 {
				// The constant terms are publicly zero, and every verifier
				// checks that this row is the identity.
				comms[ki][0] = identityRow(p.cfg.Scheme.CommitDim())
				continue
			}
			coeffs := make([]*big.Int, dim)
			for d := 0; d < dim; d++ {
				coeffs[d] = p.Polys[ki][d].Coeff(l)
			}
			comms[ki][l] = p.cfg.Scheme.Commit(coeffs)
		}
	}

	// This player's own dealer entry holds what it dealt, never the
	// relayed copy: a copy altered on the way back draws a complaint in
	// round 1 (which the others ignore), not a failed run. Whether it
	// dealt at all is still decided by the relay, as for every dealer: a
	// deal that never came back is one nobody received.
	own := p.dealer(p.id)
	own.commitments = comms
	own.myShares = make([]Share, k)
	for ki := range own.myShares {
		own.myShares[ki] = p.shareFor(ki, p.id)
	}

	p.sentDeal = encodeDeal(comms)
	msgs := []engine.Message{{
		To:      engine.Broadcast,
		Kind:    KindDeal,
		Payload: p.sentDeal,
	}}
	for j := 1; j <= p.cfg.N; j++ {
		shares := make([]Share, k)
		for ki := 0; ki < k; ki++ {
			shares[ki] = p.shareFor(ki, j)
		}
		payload := encodeShares(shares)
		if j == p.id {
			p.sentShares = payload
		}
		msgs = append(msgs, engine.Message{
			To:      j,
			Kind:    KindShare,
			Payload: payload,
		})
	}
	return msgs, nil
}

// identityRow returns a commitment row of dim identity elements.
func identityRow(dim int) []*bn254.G2 {
	row := make([]*bn254.G2, dim)
	for d := range row {
		row[d] = new(bn254.G2)
	}
	return row
}

// processDealsAndComplain verifies all received dealings and broadcasts
// complaints against faulty dealers.
func (p *HonestPlayer) processDealsAndComplain(delivered []engine.Message) ([]engine.Message, error) {
	for _, m := range delivered {
		switch m.Kind {
		case KindDeal:
			if !m.IsBroadcast() {
				continue // deals must be broadcast; ignore otherwise
			}
			if m.From == p.id {
				d := p.dealer(p.id)
				d.dealt = true
				d.dealIntact = d.dealIntact || bytes.Equal(m.Payload, p.sentDeal)
				continue
			}
			comms, err := decodeDeal(m.Payload, p.cfg.NumSharings, p.cfg.T, p.cfg.Scheme.CommitDim())
			if err != nil {
				continue // malformed: no commitments recorded -> complaint below
			}
			d := p.dealer(m.From)
			if d.dealt {
				continue // duplicate deal: keep the first
			}
			d.dealt = true
			d.commitments = comms
		case KindShare:
			if m.From == p.id {
				d := p.dealer(p.id)
				d.sharesIntact = d.sharesIntact || bytes.Equal(m.Payload, p.sentShares)
				continue
			}
			shares, err := decodeShares(m.Payload, p.cfg.NumSharings, p.cfg.Scheme.SecretDim())
			if err != nil {
				continue
			}
			d := p.dealer(m.From)
			if d.myShares == nil {
				d.myShares = shares
			}
		}
	}
	p.sentDeal, p.sentShares = nil, nil

	var out []engine.Message
	for j := 1; j <= p.cfg.N; j++ {
		d := p.dealer(j)
		// This player's own deal and shares are consistent by
		// construction; a relayed copy that did not come back unchanged
		// is still complained about. Every other dealer is checked.
		if j == p.id {
			d.shareOK = true
			if d.dealIntact && d.sharesIntact {
				continue
			}
		} else if p.verifyDealerShares(d) {
			d.shareOK = true
			continue
		}
		out = append(out, engine.Message{
			To:      engine.Broadcast,
			Kind:    KindComplaint,
			Payload: encodeComplaint(j),
		})
	}
	return out, nil
}

// verifyDealerShares checks equation (1) for this player's shares from one
// dealer, plus the zero-constant-term condition in Refresh mode.
func (p *HonestPlayer) verifyDealerShares(d *dealerState) bool {
	if !d.dealt || d.myShares == nil {
		return false
	}
	if p.cfg.Refresh && !refreshConstantTermIsZero(d.commitments) {
		return false
	}
	return verifySharesAgainstCommitments(p.cfg.Scheme, d.commitments, d.myShares, p.id)
}

// refreshConstantTermIsZero checks W^_ik0 = 1 for every sharing and row.
func refreshConstantTermIsZero(comms [][][]*bn254.G2) bool {
	for _, perSharing := range comms {
		for _, w := range perSharing[0] {
			if !w.IsInfinity() {
				return false
			}
		}
	}
	return true
}

// verifySharesAgainstCommitments checks Commit(share) == prod_l W_l^{i^l}
// row-wise for every parallel sharing. It tests the equivalent
// prod_l W_l^{i^l} · Commit(share)^-1 = 1 instead: one multi-scalar
// multiplication per row, whose identity result needs no normalization.
func verifySharesAgainstCommitments(scheme CommitScheme, comms [][][]*bn254.G2, shares []Share, i int) bool {
	if len(comms) != len(shares) {
		return false
	}
	for ki := range comms {
		if len(shares[ki]) != scheme.SecretDim() {
			return false
		}
		rows := comms[ki]
		scalars := append(powersOf(i, len(rows)), big.NewInt(1))
		terms := make([]*bn254.G2, len(scalars))
		for d, c := range scheme.Commit(shares[ki]) {
			for l, w := range rows {
				terms[l] = w[d]
			}
			terms[len(rows)] = new(bn254.G2).Neg(c)
			if !msmG2(terms, scalars).IsInfinity() {
				return false
			}
		}
	}
	return true
}

// processComplaintsAndRespond records complaints and, if this player was
// accused, broadcasts the complainers' correct shares.
func (p *HonestPlayer) processComplaintsAndRespond(delivered []engine.Message) ([]engine.Message, error) {
	var accusers []int
	for _, m := range delivered {
		if m.Kind != KindComplaint || !m.IsBroadcast() {
			continue
		}
		accused, err := decodeComplaint(m.Payload)
		if err != nil || accused < 1 || accused > p.cfg.N || m.From == accused {
			continue
		}
		d := p.dealer(accused)
		if d.complainers == nil {
			d.complainers = make(map[int]bool)
		}
		if !d.complainers[m.From] {
			d.complainers[m.From] = true
			if accused == p.id {
				accusers = append(accusers, m.From)
			}
		}
	}
	if len(accusers) == 0 {
		// Optimistic fast path: nobody complained about anybody, so the
		// outcome is already determined.
		noComplaints := true
		for _, d := range p.dealers {
			if len(d.complainers) > 0 {
				noComplaints = false
				break
			}
		}
		if noComplaints {
			return nil, p.finalize()
		}
		return nil, nil
	}
	sort.Ints(accusers)
	entries := make([]responseEntry, 0, len(accusers))
	for _, j := range accusers {
		shares := make([]Share, p.cfg.NumSharings)
		for ki := 0; ki < p.cfg.NumSharings; ki++ {
			shares[ki] = p.shareFor(ki, j)
		}
		entries = append(entries, responseEntry{Complainer: j, Shares: shares})
	}
	return []engine.Message{{
		To:      engine.Broadcast,
		Kind:    KindResponse,
		Payload: encodeResponse(entries),
	}}, nil
}

// processResponsesAndFinalize applies the disqualification rules and
// produces the key material.
func (p *HonestPlayer) processResponsesAndFinalize(delivered []engine.Message) error {
	if p.done {
		return nil
	}
	responses := make(map[int][]responseEntry)
	for _, m := range delivered {
		if m.Kind != KindResponse || !m.IsBroadcast() {
			continue
		}
		entries, err := decodeResponse(m.Payload, p.cfg.NumSharings, p.cfg.Scheme.SecretDim())
		if err != nil {
			continue
		}
		if _, dup := responses[m.From]; !dup {
			responses[m.From] = entries
		}
	}

	for j := 1; j <= p.cfg.N; j++ {
		d := p.dealer(j)
		if !d.dealt {
			d.disqualified = true
			continue
		}
		// Strictly more than t complaints: immediate disqualification.
		if len(d.complainers) > p.cfg.T {
			d.disqualified = true
			continue
		}
		if len(d.complainers) == 0 {
			continue
		}
		// Every complaint must be answered with a share satisfying (1).
		entries := responses[j]
		answered := make(map[int][]Share)
		for _, e := range entries {
			answered[e.Complainer] = e.Shares
		}
		for complainer := range d.complainers {
			shares, ok := answered[complainer]
			if !ok || !verifySharesAgainstCommitments(p.cfg.Scheme, d.commitments, shares, complainer) {
				d.disqualified = true
				break
			}
			if p.cfg.Refresh && !refreshConstantTermIsZero(d.commitments) {
				d.disqualified = true
				break
			}
			// The published share replaces the (missing or wrong) private
			// one for the complainer.
			if complainer == p.id {
				d.myShares = shares
				d.shareOK = true
			}
		}
	}
	return p.finalize()
}

// finalize computes QUAL, the public key and this player's share.
func (p *HonestPlayer) finalize() error {
	var qual []int
	for j := 1; j <= p.cfg.N; j++ {
		d := p.dealer(j)
		if d.dealt && !d.disqualified {
			qual = append(qual, j)
		}
	}
	if len(qual) == 0 {
		return errors.New("dkg: every dealer was disqualified")
	}

	dim := p.cfg.Scheme.SecretDim()
	share := make([]Share, p.cfg.NumSharings)
	for ki := range share {
		share[ki] = make(Share, dim)
		for d := range share[ki] {
			share[ki][d] = new(big.Int)
		}
	}
	comms := make(map[int][][][]*bn254.G2, len(qual))
	for _, j := range qual {
		d := p.dealer(j)
		comms[j] = d.commitments
		if d.myShares == nil || !d.shareOK {
			// A qualified dealer whose share this player could not verify
			// and who was never successfully challenged: by the complaint
			// rules this cannot happen for an honest player (it would have
			// complained in round 1 and the dealer either justified or was
			// disqualified).
			return fmt.Errorf("dkg: qualified dealer %d left player %d without a valid share", j, p.id)
		}
		for ki := 0; ki < p.cfg.NumSharings; ki++ {
			for di := 0; di < dim; di++ {
				share[ki][di] = p.fld.Add(share[ki][di], d.myShares[ki][di])
			}
		}
	}
	// The public key is the constant row of the summed commitments.
	sums := sumCommitmentRows(p.cfg, qual, comms)
	pk := make([][]*bn254.G2, p.cfg.NumSharings)
	for ki := range pk {
		pk[ki] = make([]*bn254.G2, len(sums[ki][0]))
		for d, w := range sums[ki][0] {
			pk[ki][d] = new(bn254.G2).Set(w)
		}
	}

	p.result = &Result{
		Config:      p.cfg,
		Self:        p.id,
		Qual:        qual,
		PK:          pk,
		Share:       share,
		Commitments: comms,
		rowSums:     sums,
	}
	p.done = true
	return nil
}

// ForceDisqualify marks dealer j as disqualified regardless of the
// complaint outcome. It supports protocol extensions with PUBLICLY
// verifiable per-dealer validity conditions — e.g. the aggregation scheme
// of Appendix G, where each dealer broadcasts a homomorphic signature
// (Z_i0, R_i0) on (g, h) and "any player who sent incorrect verification
// values is immediately disqualified". Callers must apply the same
// deterministic rule at every honest player (the condition is computed
// from broadcast data, so consistency is automatic), and must call this
// before the finalize round.
func (p *HonestPlayer) ForceDisqualify(j int) {
	if j >= 1 && j <= p.cfg.N {
		p.dealer(j).disqualified = true
	}
}

// DealtCommitments returns the commitment matrix this player received from
// dealer j (nil if none), for extension protocols that need to inspect the
// broadcast dealings.
func (p *HonestPlayer) DealtCommitments(j int) [][][]*bn254.G2 {
	d, ok := p.dealers[j]
	if !ok || !d.dealt {
		return nil
	}
	return d.commitments
}

func (p *HonestPlayer) dealer(j int) *dealerState {
	d, ok := p.dealers[j]
	if !ok {
		d = &dealerState{}
		p.dealers[j] = d
	}
	return d
}

// MaxRounds is the number of network rounds a DKG needs in the worst case
// (deal, complain, respond, finalize).
const MaxRounds = 8

// Outcome bundles the per-player results of a driver run.
type Outcome struct {
	Results []*Result // index 0 unused; Results[i] for player i (nil if not honest)
	Stats   engine.Stats
}

// Run executes a DKG among n honest players and returns their results.
func Run(cfg Config) (*Outcome, error) {
	players := make([]engine.Player, cfg.N)
	honest := make([]*HonestPlayer, cfg.N+1)
	for i := 1; i <= cfg.N; i++ {
		hp, err := NewHonestPlayer(cfg, i)
		if err != nil {
			return nil, err
		}
		players[i-1] = hp
		honest[i] = hp
	}
	return RunWithPlayers(cfg, players, honest)
}

// RunWithPlayers executes a DKG over an arbitrary mix of player machines
// (Byzantine implementations included). honest[i] must point to the
// HonestPlayer for every index run by the protocol-following code, and be
// nil for adversarial indices.
//
// The run is driven by the same session engine (internal/engine) that
// steps the networked protocol sessions of repro/service, so the local
// and over-the-wire keygen/refresh paths execute identical routing and
// stepping code and cannot drift. Players are stepped sequentially in ID
// order, which keeps runs deterministic for a shared seeded Config.Rng.
func RunWithPlayers(cfg Config, players []engine.Player, honest []*HonestPlayer) (*Outcome, error) {
	report, err := engine.RunLocal(players, MaxRounds)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Results: make([]*Result, cfg.N+1), Stats: report.Stats}
	for i := 1; i <= cfg.N; i++ {
		if honest[i] == nil {
			continue
		}
		res, err := honest[i].Result()
		if err != nil {
			return nil, fmt.Errorf("dkg: player %d: %w", i, err)
		}
		out.Results[i] = res
	}
	return out, nil
}
