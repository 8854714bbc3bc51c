package bn254

import (
	"crypto/sha256"
	"encoding/binary"
)

// appendFrame appends domain framed for expandFramed: its length as 8
// big-endian bytes, then the domain itself.
func appendFrame(dst []byte, domain string) []byte {
	return append(binary.BigEndian.AppendUint64(dst, uint64(len(domain))), domain...)
}

// expandMessage derives a 32-byte digest from (domain, msg, counter) with
// unambiguous length-prefixed framing.
func expandMessage(domain string, msg []byte, ctr uint32) [32]byte {
	return expandFramed(appendFrame(nil, domain), msg, ctr)
}

// expandFramed is expandMessage with the domain already framed.
func expandFramed(prefix, msg []byte, ctr uint32) [32]byte {
	h := sha256.New()
	h.Write(prefix)
	var lenBuf [8]byte
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

// HashDomain is a hash-to-G1 domain framed once, with the sub-domain that
// picks the square root: hashing under it builds no string and allocates
// nothing. Build it with NewHashDomain or HashVectorDomains.
type HashDomain struct {
	point, sign []byte // the framed domain and domain+"/sign"
}

// NewHashDomain frames domain for HashDomain.Hash.
func NewHashDomain(domain string) HashDomain {
	return frameDomain(make([]byte, 0, 2*(8+len(domain))+len(signSuffix)), domain)
}

const signSuffix = "/sign"

// frameDomain frames domain and domain+signSuffix into buf.
func frameDomain(buf []byte, domain string) HashDomain {
	buf = appendFrame(buf, domain)
	n := len(buf)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(domain)+len(signSuffix)))
	buf = append(append(buf, domain...), signSuffix...)
	return HashDomain{point: buf[:n:n], sign: buf[n:]}
}

// HashVectorDomains returns the per-coordinate domains of
// HashToG1Vector(domain, ·, n).
func HashVectorDomains(domain string, n int) []HashDomain {
	out := make([]HashDomain, n)
	for k := range out {
		out[k] = NewHashDomain(domainIndex(domain, k))
	}
	return out
}

// Hash sets out to the hash of msg onto G1 under d, the point
// HashToG1 returns for d's domain.
func (d *HashDomain) Hash(out *G1, msg []byte) {
	for ctr := uint32(0); ; ctr++ {
		digest := expandFramed(d.point, msg, ctr)
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
		signDigest := expandFramed(d.sign, msg, ctr)
		var ny fp
		ny.Neg(&y)
		wantGreater := signDigest[0]&1 == 1
		if (y.cmp(&ny) > 0) != wantGreater {
			y.Set(&ny)
		}
		*out = G1{x: x, y: y, notInf: true}
		return
	}
}

// HashToG1 hashes (domain, msg) onto a point of E(Fp) by try-and-increment.
// BN curves have a prime-order G1 (cofactor 1), so no subgroup clearing is
// required. The map is modeled as a random oracle in the paper's analysis.
func HashToG1(domain string, msg []byte) *G1 {
	var buf [128]byte
	d := frameDomain(buf[:0], domain)
	p := new(G1)
	d.Hash(p, msg)
	return p
}

// HashToG1Vector hashes msg to a vector of n independent G1 points, the
// (H_1, ..., H_n) = H(M) map used by the signature schemes. Callers that
// hash under one domain repeatedly keep HashVectorDomains instead.
func HashToG1Vector(domain string, msg []byte, n int) []*G1 {
	ds := HashVectorDomains(domain, n)
	pts := make([]G1, n)
	out := make([]*G1, n)
	for k := range out {
		ds[k].Hash(&pts[k], msg)
		out[k] = &pts[k]
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
		signDigest := expandMessage(domain+signSuffix, msg, ctr)
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
