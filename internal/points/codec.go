package points

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encode serializes a point as little-endian float64s prefixed by a uvarint
// dimension count. The format is the wire/value encoding used by the
// MapReduce jobs and the RPC engine.
func Encode(p Point) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+8*len(p))
	buf = binary.AppendUvarint(buf, uint64(len(p)))
	for _, v := range p {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// Decode parses a point produced by Encode. It rejects trailing garbage,
// truncated input, and non-canonical varint framing (every valid encoding
// round-trips byte-for-byte).
func Decode(b []byte) (Point, error) {
	d, n := binary.Uvarint(b)
	if n <= 0 || !canonicalUvarint(d, n) {
		return nil, fmt.Errorf("points: bad dimension header")
	}
	const maxDim = 1 << 20
	if d > maxDim {
		return nil, fmt.Errorf("points: implausible dimension %d", d)
	}
	rest := b[n:]
	if len(rest) != int(d)*8 {
		return nil, fmt.Errorf("points: encoded point has %d payload bytes, want %d", len(rest), d*8)
	}
	p := make(Point, d)
	for i := range p {
		p[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
	}
	return p, nil
}

// EncodeSet serializes a whole set, each point length-prefixed, for bulk
// transfer over RPC.
func EncodeSet(s Set) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	for _, p := range s {
		e := Encode(p)
		buf = binary.AppendUvarint(buf, uint64(len(e)))
		buf = append(buf, e...)
	}
	return buf
}

// DecodeSet parses the output of EncodeSet.
func DecodeSet(b []byte) (Set, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 || !canonicalUvarint(count, n) {
		return nil, fmt.Errorf("points: bad set header")
	}
	b = b[n:]
	// Every entry occupies at least two bytes (length prefix + dimension
	// header), so an honest count can never exceed half the payload —
	// reject before allocating attacker-controlled capacity.
	if count > uint64(len(b)/2) {
		return nil, fmt.Errorf("points: set count %d exceeds payload", count)
	}
	s := make(Set, 0, count)
	for i := uint64(0); i < count; i++ {
		l, n := binary.Uvarint(b)
		if n <= 0 || !canonicalUvarint(l, n) {
			return nil, fmt.Errorf("points: bad length prefix at point %d", i)
		}
		b = b[n:]
		if uint64(len(b)) < l {
			return nil, fmt.Errorf("points: truncated set at point %d", i)
		}
		p, err := Decode(b[:l])
		if err != nil {
			return nil, fmt.Errorf("points: point %d: %w", i, err)
		}
		s = append(s, p)
		b = b[l:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("points: %d trailing bytes after set", len(b))
	}
	return s, nil
}

// canonicalUvarint reports whether value v would re-encode to exactly n
// bytes — rejecting padded (non-minimal) varints so the wire format
// round-trips byte-for-byte. The scratch array stays on the stack; this
// runs once per decoded point on the shuffle hot path.
func canonicalUvarint(v uint64, n int) bool {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutUvarint(tmp[:], v) == n
}
