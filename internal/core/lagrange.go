package core

import (
	"math/big"
	"slices"
	"sync"

	"repro/internal/bn254"
	"repro/internal/lhsps"
	"repro/internal/shamir"
)

// Combine's Lagrange coefficients Delta_{i,S}(0) depend only on the signer
// set S, and a coordinator meets few sets: its rotating quorum-first wave
// asks at most n distinct (t+1)-sets of a tenant. So the coefficients are
// computed once per set and kept in a bounded process-wide cache of
// immutable entries, keyed by the set as a bitmask.

// lagrangeCacheCap bounds the cached sets: a few hundred bytes each at
// t = 2, so the cache stays far below a coordinator's live heap. A full
// cache is emptied and refilled.
const lagrangeCacheCap = 256

// lagrangeKey is a signer set as a bitmask: bit i-1 for index i. Sets with
// an index above lagrangeKeyIndices are computed afresh every time.
type lagrangeKey [4]uint64

const lagrangeKeyIndices = 64 * len(lagrangeKey{})

// lagrangeSet holds Delta_{i,S}(0) for every i in one set S. It is never
// modified once built, so readers share it without a lock.
type lagrangeSet struct {
	indices []int
	coeffs  []*big.Int // coeffs[k] belongs to indices[k]
}

// coeff returns Delta_{i,S}(0) for i in S.
func (ls *lagrangeSet) coeff(i int) *big.Int {
	for k, j := range ls.indices {
		if j == i {
			return ls.coeffs[k]
		}
	}
	panic("core: index outside its Lagrange set")
}

var lagrangeCache = struct {
	sync.RWMutex
	m map[lagrangeKey]*lagrangeSet
}{m: make(map[lagrangeKey]*lagrangeSet)}

// lagrangeAtZero returns the coefficients for the distinct positive
// indices, from the cache when the set has a key.
func lagrangeAtZero(indices []int) (*lagrangeSet, error) {
	var key lagrangeKey
	keyed := true
	for _, i := range indices {
		if i > lagrangeKeyIndices {
			keyed = false
			break
		}
		key[(i-1)/64] |= 1 << ((i - 1) % 64)
	}
	if keyed {
		lagrangeCache.RLock()
		ls := lagrangeCache.m[key]
		lagrangeCache.RUnlock()
		if ls != nil {
			return ls, nil
		}
	}
	ls, err := newLagrangeSet(indices)
	if err != nil || !keyed {
		return ls, err
	}
	lagrangeCache.Lock()
	if len(lagrangeCache.m) >= lagrangeCacheCap {
		clear(lagrangeCache.m)
	}
	lagrangeCache.m[key] = ls
	lagrangeCache.Unlock()
	return ls, nil
}

// newLagrangeSet computes the coefficients for one set.
func newLagrangeSet(indices []int) (*lagrangeSet, error) {
	fld, err := shamir.NewField(bn254.Order)
	if err != nil {
		return nil, err
	}
	lambda, err := fld.LagrangeAtZero(indices)
	if err != nil {
		return nil, err
	}
	ls := &lagrangeSet{indices: slices.Clone(indices), coeffs: make([]*big.Int, len(indices))}
	for k, i := range ls.indices {
		ls.coeffs[k] = lambda[i]
	}
	return ls, nil
}

// interpolate is Lagrange interpolation in the exponent: the LHSPS
// signature sum_i Delta_{i,S}(0)·(z_i, r_i) over parts with distinct
// indices S. Up to bn254.StackPoints parts it allocates only the signature.
func interpolate(parts []*PartialSignature) (*Signature, error) {
	var ibuf [bn254.StackPoints]int
	indices := ibuf[:0]
	for _, ps := range parts {
		indices = append(indices, ps.Index)
	}
	ls, err := lagrangeAtZero(indices)
	if err != nil {
		return nil, err
	}
	var wbuf [bn254.StackPoints]*big.Int
	var sbuf [bn254.StackPoints]lhsps.Signature
	weights, sigs := wbuf[:0], sbuf[:0]
	for _, ps := range parts {
		weights = append(weights, ls.coeff(ps.Index))
		sigs = append(sigs, lhsps.Signature{Z: ps.Z, R: ps.R})
	}
	return lhsps.SignDerive(weights, sigs)
}
