package bn254

import (
	"crypto/sha256"
	"encoding/binary"
)

// expandMessage derives a 32-byte digest from (domain, msg, counter) with
// unambiguous length-prefixed framing.
func expandMessage(domain string, msg []byte, ctr uint32) [32]byte {
	h := sha256.New()
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(domain)))
	h.Write(lenBuf[:])
	h.Write([]byte(domain))
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(msg)))
	h.Write(lenBuf[:])
	h.Write(msg)
	var ctrBuf [4]byte
	binary.BigEndian.PutUint32(ctrBuf[:], ctr)
	h.Write(ctrBuf[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// HashToG1 hashes (domain, msg) onto a point of E(Fp) by try-and-increment.
// BN curves have a prime-order G1 (cofactor 1), so no subgroup clearing is
// required. The map is modeled as a random oracle in the paper's analysis.
func HashToG1(domain string, msg []byte) *G1 {
	for ctr := uint32(0); ; ctr++ {
		digest := expandMessage(domain, msg, ctr)
		var x fp
		x.SetBytesReduce(&digest)
		var rhs, y fp
		rhs.Square(&x)
		rhs.Mul(&rhs, &x)
		rhs.Add(&rhs, &bG1)
		if !y.Sqrt(&rhs) {
			continue
		}
		// Choose the root canonically from a hash bit so the map is
		// deterministic and (heuristically) unbiased.
		signDigest := expandMessage(domain+"/sign", msg, ctr)
		var ny fp
		ny.Neg(&y)
		wantGreater := signDigest[0]&1 == 1
		if (y.cmp(&ny) > 0) != wantGreater {
			y.Set(&ny)
		}
		p := &G1{notInf: true}
		p.x.Set(&x)
		p.y.Set(&y)
		return p
	}
}

// HashToG1Vector hashes msg to a vector of n independent G1 points, the
// (H_1, ..., H_n) = H(M) map used by the signature schemes.
func HashToG1Vector(domain string, msg []byte, n int) []*G1 {
	out := make([]*G1, n)
	for k := range out {
		out[k] = HashToG1(domainIndex(domain, k), msg)
	}
	return out
}

// domainIndex derives a per-coordinate sub-domain.
func domainIndex(domain string, k int) string {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], uint32(k))
	return domain + "/coord-" + string(hexNibbles(buf[:]))
}

func hexNibbles(b []byte) []byte {
	const digits = "0123456789abcdef"
	out := make([]byte, 0, len(b)*2)
	for _, c := range b {
		out = append(out, digits[c>>4], digits[c&0xf])
	}
	return out
}

// hashToTwistPoint hashes onto the twist curve E'(Fp2) (NOT necessarily in
// the order-r subgroup) by try-and-increment over both Fp2 coordinates.
func hashToTwistPoint(domain string, msg []byte) *G2 {
	for ctr := uint32(0); ; ctr += 2 {
		d0 := expandMessage(domain, msg, ctr)
		d1 := expandMessage(domain, msg, ctr+1)
		var x fp2
		x.c0.SetBytesReduce(&d0)
		x.c1.SetBytesReduce(&d1)
		var rhs, y fp2
		rhs.Square(&x)
		rhs.Mul(&rhs, &x)
		rhs.Add(&rhs, &bTwist)
		if !y.Sqrt(&rhs) {
			continue
		}
		signDigest := expandMessage(domain+"/sign", msg, ctr)
		var ny fp2
		ny.Neg(&y)
		wantGreater := signDigest[0]&1 == 1
		if (y.cmp(&ny) > 0) != wantGreater {
			y.Set(&ny)
		}
		p := &G2{notInf: true}
		p.x.Set(&x)
		p.y.Set(&y)
		return p
	}
}

// hashToG2Internal hashes onto the order-r subgroup of the twist by
// clearing the cofactor 2p - r.
func hashToG2Internal(domain string, msg []byte) *G2 {
	for ctr := 0; ; ctr++ {
		raw := hashToTwistPoint(domainIndex(domain, ctr), msg)
		var q G2
		q.scalarMultRaw(raw, twistCofactor)
		if !q.IsInfinity() {
			return &q
		}
	}
}

// HashToG2 hashes (domain, msg) onto the order-r subgroup G2. The paper
// uses this to derive the public generators g^_z, g^_r (and the DLIN
// variant's h^_z, h^_u) "from a random oracle" so that no party knows
// their mutual discrete logarithms and no extra DKG round is needed.
func HashToG2(domain string, msg []byte) *G2 {
	return hashToG2Internal(domain, msg)
}
