package bn254

import "errors"

// Fixed-argument pairing precomputation. The G2 argument of every pairing
// in the scheme's verification equations (the LHSPS generators and the
// verification keys) is fixed between refresh epochs, so the Miller loop's
// G2 point arithmetic can be done once per epoch. PrecomputeG2 stores the
// ordered line coefficients; MillerLoopFixed replays the loop with nothing
// but sparse line evaluations at P and Fp12 accumulation.
//
// A line is stored in coefficient-only form: the twist slope lambda and
// the constant c = lambda*x_T - y_T. Evaluated at P = (xP, yP) it becomes
// the sparse value yP - lambda*xP * w + c * w^3 (see pairing.go). Vertical
// lines x = x_T store c = -x_T and evaluate to xP + c * w^2.

// prepLine is one Miller-loop line in coefficient form (independent of P).
type prepLine struct {
	vertical bool
	lambda   fp2 // twist slope (non-vertical lines)
	c        fp2 // lambda*x_T - y_T, or -x_T for vertical lines
}

// evalInto evaluates the line at p, producing the sparse Fp12 form that
// mulByLine consumes.
func (pl *prepLine) evalInto(p *G1, out *lineEval) {
	if pl.vertical {
		out.vertical = true
		out.v0.Set(&p.x)
		out.v2.Set(&pl.c)
		return
	}
	out.vertical = false
	out.a0.Set(&p.y)
	out.a1.MulFp(&pl.lambda, &p.x)
	out.a1.Neg(&out.a1)
	out.a3.Set(&pl.c)
}

// maxMillerLines bounds the lines of one Miller loop — a doubling line per
// NAF digit below the top one, an addition line per nonzero digit, two
// Frobenius lines — so that a fresh argument's table fits a stack array.
// init checks it against the schedule.
const maxMillerLines = 96

// millerLineCount is the exact number of lines the schedule consumes.
func millerLineCount() int {
	n := len(sixUPlus2NAF) - 1 + 2
	for _, d := range sixUPlus2NAF[:len(sixUPlus2NAF)-1] {
		if d != 0 {
			n++
		}
	}
	return n
}

func init() {
	if millerLineCount() > maxMillerLines {
		panic("bn254: Miller schedule longer than maxMillerLines")
	}
}

// The running point T of the G2 side is kept in Jacobian coordinates
// (jacobian.go), and the affine slope and constant of each line are read
// off the step as fractions over one denominator:
//
//	tangent at T = (X, Y, Z):   lambda = 3X^2 Z^2 / (Z3 Z^2)
//	                            c      = (3X^3 - 2Y^2) / (Z3 Z^2),  Z3 = 2YZ
//	chord through T and (x, y): lambda = r / Z3,  r = 2(y Z^3 - Y)
//	                            c      = (r x - y Z3) / Z3,         Z3 = 2ZH
//
// (c = lambda*x - y at either point of the line). lineStepDouble and
// lineStepAdd leave the numerators in the line and hand back the
// denominator; buildLines inverts all denominators of a table at once and
// scales. An Fp2 inversion costs about 110 Fp2 multiplications, a step
// with its share of the batch about 15 — and the resulting table is the
// same (lambda, c) table per-step affine arithmetic would produce.
//
// Steps that cannot happen for a point of order r — T at infinity, or
// T = +-Q in an addition — produce a vertical line and a zero denominator,
// which the batch inversion skips. Vertical lines lie in Fp6 and vanish in
// the final exponentiation, so such inputs (twist points outside G2) get
// a well-defined value and no more.

// lineStepDouble records the tangent line at t and doubles t.
func lineStepDouble(t *jacG2, out *prepLine, den *fp2) {
	if t.z.IsZero() || t.y.IsZero() {
		*out = prepLine{vertical: true}
		den.SetZero()
		t.z.SetZero()
		return
	}
	var zz, e, bb fp2
	zz.Square(&t.z)
	e.Square(&t.x)
	e.triple(&e)
	bb.Square(&t.y)
	bb.Double(&bb)

	out.vertical = false
	out.lambda.Mul(&e, &zz)
	out.c.Mul(&e, &t.x)
	out.c.Sub(&out.c, &bb)
	t.double(t)
	den.Mul(&t.z, &zz)
}

// lineStepAdd records the line through t and the affine point q and sets
// t = t + q.
func lineStepAdd(t *jacG2, q *G2, out *prepLine, den *fp2) {
	var zz, u2, s2 fp2
	zz.Square(&t.z)
	u2.Mul(&q.x, &zz)
	s2.Mul(&q.y, &t.z)
	s2.Mul(&s2, &zz)
	if u2.Equal(&t.x) && s2.Equal(&t.y) && !t.z.IsZero() {
		lineStepDouble(t, out, den)
		return
	}
	if t.z.IsZero() || u2.Equal(&t.x) {
		// The vertical through Q: T is infinity (T + Q = Q) or -Q.
		*out = prepLine{vertical: true}
		out.c.Neg(&q.x)
		den.SetZero()
		t.addMixed(t, q)
		return
	}
	var r fp2
	r.Sub(&s2, &t.y)
	r.Double(&r)
	t.addMixed(t, q)

	out.vertical = false
	out.lambda = r
	out.c.Mul(&r, &q.x)
	s2.Mul(&q.y, &t.z)
	out.c.Sub(&out.c, &s2)
	*den = t.z
}

// buildLines runs the G2 side of the Miller loop for a finite q once,
// appending every line the loop will consume, in order, to lines: one
// doubling line per iteration, one addition line per nonzero NAF digit of
// 6u+2, and the two Frobenius lines of the optimal ate pairing.
func buildLines(q *G2, lines []prepLine) []prepLine {
	var dens, scratch [maxMillerLines]fp2
	var t jacG2
	var negQ G2
	t.fromAffine(q)
	negQ.Neg(q)
	n := len(lines)
	lines = lines[:n+millerLineCount()]
	step := lines[n:]
	k := 0
	for i := len(sixUPlus2NAF) - 2; i >= 0; i-- {
		lineStepDouble(&t, &step[k], &dens[k])
		k++
		switch sixUPlus2NAF[i] {
		case 1:
			lineStepAdd(&t, q, &step[k], &dens[k])
			k++
		case -1:
			lineStepAdd(&t, &negQ, &step[k], &dens[k])
			k++
		}
	}
	var q1, q2 G2
	q1.frobenius(q)
	q2.frobenius(&q1)
	q2.Neg(&q2)
	lineStepAdd(&t, &q1, &step[k], &dens[k])
	lineStepAdd(&t, &q2, &step[k+1], &dens[k+1])

	batchInverseFp2(dens[:len(step)], scratch[:len(step)])
	for i := range step {
		if !step[i].vertical {
			step[i].lambda.Mul(&step[i].lambda, &dens[i])
			step[i].c.Mul(&step[i].c, &dens[i])
		}
	}
	return lines
}

// G2Prepared holds the ordered Miller-loop line coefficients of a fixed
// G2 point. It is immutable after PrecomputeG2 returns and safe for
// concurrent use by any number of Miller loops.
type G2Prepared struct {
	infinity bool
	lines    []prepLine
}

// PrecomputeG2 runs the G2 side of the Miller loop once and keeps the
// lines (see buildLines).
func PrecomputeG2(q *G2) *G2Prepared {
	if q == nil || q.IsInfinity() {
		return &G2Prepared{infinity: true}
	}
	return &G2Prepared{lines: buildLines(q, make([]prepLine, 0, millerLineCount()))}
}

// millerCursor is one slot's state inside millerAccumulate: a copy of the
// G1 point (so that the caller's point stays where the caller put it) and
// the lines of its G2 argument not yet consumed.
type millerCursor struct {
	p     G1
	lines []prepLine
}

// mulNextLine multiplies acc by the cursor's next line evaluated at its P.
func (c *millerCursor) mulNextLine(acc *fp12) {
	var l lineEval
	c.lines[0].evalInto(&c.p, &l)
	c.lines = c.lines[1:]
	mulByLine(acc, &l)
}

// millerAccumulate multiplies the product of the cursors' Miller values
// into f with ONE shared accumulator: every doubling step squares it once
// for the whole slot set instead of once per slot. Squarings are the
// second largest cost of the loop (after the line multiplications
// themselves), so a k-slot product saves (k-1) full squaring chains over k
// independent loops — the dominant single-core win of the multi-pairing.
// Every cursor consumes the identical line schedule: a doubling line per
// digit, an addition line per nonzero digit, two Frobenius lines.
func millerAccumulate(cs []millerCursor, f *fp12) {
	var acc fp12
	acc.SetOne()
	for i := len(sixUPlus2NAF) - 2; i >= 0; i-- {
		acc.Square(&acc)
		for j := range cs {
			cs[j].mulNextLine(&acc)
			if sixUPlus2NAF[i] != 0 {
				cs[j].mulNextLine(&acc)
			}
		}
	}
	for j := range cs {
		cs[j].mulNextLine(&acc)
		cs[j].mulNextLine(&acc)
	}
	f.Mul(f, &acc)
}

// MillerLoopFixed computes the Miller function value for (P, Q) from Q's
// precomputed lines, accumulating into f (callers initialize f to one).
// The table holds exactly what per-step affine arithmetic on the twist
// yields; the two are cross-checked in TestMillerLoopFixedMatchesMiller.
func MillerLoopFixed(p *G1, pre *G2Prepared, f *fp12) {
	if p.IsInfinity() || pre.infinity {
		return
	}
	cs := [1]millerCursor{{p: *p, lines: pre.lines}}
	millerAccumulate(cs[:], f)
}

// PairFixed computes e(p, q) from q's precomputed lines.
func PairFixed(p *G1, pre *G2Prepared) *GT {
	out := NewGT()
	MillerLoopFixed(p, pre, &out.v)
	finalExponentiation(&out.v, &out.v)
	return out
}

// PairingSlot is one (G1, G2) input of a mixed multi-pairing: the G2
// argument is either a fresh point Q or a precomputed Pre. When both are
// set, the precomputation wins.
type PairingSlot struct {
	P   *G1
	Q   *G2
	Pre *G2Prepared
}

// millerProduct multiplies the product of the slots' Miller values into f
// (see millerAccumulate), all on the caller's goroutine: sharding the
// slots across goroutines repeats the squaring chain in every shard, and
// measured slower than one chain at 4, 8 and 16 slots (docs/PERF.md).
// Fixed and fresh slots interleave freely: a fresh slot's table is built
// here and dropped afterwards. Up to 2 + 2·StackPoints slots — a
// cross-signer share check over StackPoints keys — the cursors live on
// the stack.
func millerProduct(slots []*PairingSlot, f *fp12) error {
	var buf [2 + 2*StackPoints]millerCursor
	cs := buf[:0]
	for _, s := range slots {
		if s == nil || s.P == nil || (s.Q == nil && s.Pre == nil) {
			return errors.New("bn254: incomplete pairing slot")
		}
		if s.P.IsInfinity() {
			continue
		}
		pre := s.Pre
		if pre == nil {
			pre = PrecomputeG2(s.Q)
		}
		if !pre.infinity {
			cs = append(cs, millerCursor{p: *s.P, lines: pre.lines})
		}
	}
	if len(cs) != 0 {
		millerAccumulate(cs, f)
	}
	return nil
}

// MultiPairMixed computes prod_i e(slots[i].P, slots[i].Q-or-Pre) with one
// shared-squaring Miller loop and a single final exponentiation.
func MultiPairMixed(slots []*PairingSlot) (*GT, error) {
	out := &GT{}
	if err := multiPairMixed(slots, &out.v); err != nil {
		return nil, err
	}
	return out, nil
}

// multiPairMixed sets out to the product MultiPairMixed returns.
func multiPairMixed(slots []*PairingSlot, out *fp12) error {
	var f fp12
	f.SetOne()
	if err := millerProduct(slots, &f); err != nil {
		return err
	}
	finalExponentiation(out, &f)
	return nil
}

// PairingCheckMixed reports whether prod_i e(slots[i]) == 1, accepting any
// mix of fixed-precomputed and fresh G2 arguments. It allocates nothing
// when every slot is precomputed and there are at most 2 + 2·StackPoints
// of them.
func PairingCheckMixed(slots []*PairingSlot) bool {
	var v fp12
	if multiPairMixed(slots, &v) != nil {
		return false
	}
	return v.IsOne()
}
