package dkg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/bn254"
)

// Wire formats. All integers are big-endian; scalars are 32 bytes; G2
// points are 128-byte uncompressed encodings. Subgroup membership of
// commitments is NOT checked at decode time: for any dealer that survives
// the complaint phase, the Pedersen-VSS equations verified by the honest
// majority pin every commitment into the order-r subgroup (see the
// UnmarshalUnchecked documentation). A small-order component fails every
// honest player's own share check, so each one complains
// (TestDealerWithSmallOrderCommitmentIsDisqualified).

const scalarLen = 32

// encodeDeal serializes the commitment tensor [k][t+1][rows].
func encodeDeal(comms [][][]*bn254.G2) []byte {
	var out []byte
	for _, perSharing := range comms {
		for _, row := range perSharing {
			for _, w := range row {
				out = append(out, w.Marshal()...)
			}
		}
	}
	return out
}

// decodeDeal parses a commitment tensor for numSharings sharings of degree
// t with rows commitment elements per coefficient.
func decodeDeal(payload []byte, numSharings, t, rows int) ([][][]*bn254.G2, error) {
	want := numSharings * (t + 1) * rows * bn254.G2SizeUncompressed
	if len(payload) != want {
		return nil, fmt.Errorf("dkg: deal payload %d bytes, want %d", len(payload), want)
	}
	comms := make([][][]*bn254.G2, numSharings)
	off := 0
	for k := range comms {
		comms[k] = make([][]*bn254.G2, t+1)
		for l := 0; l <= t; l++ {
			comms[k][l] = make([]*bn254.G2, rows)
			for c := 0; c < rows; c++ {
				w := new(bn254.G2)
				if err := w.UnmarshalUnchecked(payload[off : off+bn254.G2SizeUncompressed]); err != nil {
					return nil, fmt.Errorf("dkg: commitment (%d,%d,%d): %w", k, l, c, err)
				}
				comms[k][l][c] = w
				off += bn254.G2SizeUncompressed
			}
		}
	}
	return comms, nil
}

func putScalar(out []byte, s *big.Int) []byte {
	var buf [scalarLen]byte
	new(big.Int).Mod(s, bn254.Order).FillBytes(buf[:])
	return append(out, buf[:]...)
}

func getScalar(in []byte) (*big.Int, error) {
	if len(in) < scalarLen {
		return nil, errors.New("dkg: truncated scalar")
	}
	s := new(big.Int).SetBytes(in[:scalarLen])
	if s.Cmp(bn254.Order) >= 0 {
		return nil, errors.New("dkg: scalar out of range")
	}
	return s, nil
}

// encodeShares serializes a share matrix [k][dim].
func encodeShares(shares []Share) []byte {
	var out []byte
	for _, s := range shares {
		for _, v := range s {
			out = putScalar(out, v)
		}
	}
	return out
}

func decodeShares(payload []byte, numSharings, dim int) ([]Share, error) {
	if len(payload) != numSharings*dim*scalarLen {
		return nil, fmt.Errorf("dkg: share payload %d bytes, want %d", len(payload), numSharings*dim*scalarLen)
	}
	shares := make([]Share, numSharings)
	off := 0
	for k := range shares {
		shares[k] = make(Share, dim)
		for d := 0; d < dim; d++ {
			v, err := getScalar(payload[off:])
			if err != nil {
				return nil, err
			}
			off += scalarLen
			shares[k][d] = v
		}
	}
	return shares, nil
}

// encodeComplaint serializes the accused dealer index.
func encodeComplaint(accused int) []byte {
	var buf [2]byte
	binary.BigEndian.PutUint16(buf[:], uint16(accused))
	return buf[:]
}

func decodeComplaint(payload []byte) (int, error) {
	if len(payload) != 2 {
		return 0, errors.New("dkg: malformed complaint")
	}
	return int(binary.BigEndian.Uint16(payload)), nil
}

// responseEntry carries the published shares answering one complaint.
type responseEntry struct {
	Complainer int
	Shares     []Share
}

func encodeResponse(entries []responseEntry) []byte {
	var out []byte
	for _, e := range entries {
		var idx [2]byte
		binary.BigEndian.PutUint16(idx[:], uint16(e.Complainer))
		out = append(out, idx[:]...)
		out = append(out, encodeShares(e.Shares)...)
	}
	return out
}

func decodeResponse(payload []byte, numSharings, dim int) ([]responseEntry, error) {
	entryLen := 2 + numSharings*dim*scalarLen
	if len(payload)%entryLen != 0 || len(payload) == 0 {
		return nil, errors.New("dkg: malformed response")
	}
	var entries []responseEntry
	for off := 0; off < len(payload); off += entryLen {
		complainer := int(binary.BigEndian.Uint16(payload[off : off+2]))
		shares, err := decodeShares(payload[off+2:off+entryLen], numSharings, dim)
		if err != nil {
			return nil, err
		}
		entries = append(entries, responseEntry{Complainer: complainer, Shares: shares})
	}
	return entries, nil
}
