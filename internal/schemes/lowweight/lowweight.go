// Package lowweight implements the enumerative low-weight codebook shared
// by the literature codecs in internal/schemes: a bijection between k-bit
// data words and the 2^k binary vectors of length n = k+1 with Hamming
// weight at most w = k/2.
//
// Chee & Colbourn ("Optimal Memoryless Encoding for Low Power Off-Chip
// Data Buses", arXiv:0712.2640) show that the memoryless code minimizing
// expected bus energy maps data words onto a set of minimum-weight
// codewords. With one spare wire per segment the optimal codebook has a
// closed form: for odd n, exactly 2^(n-1) vectors of length n carry
// weight <= (n-1)/2, so k-bit words fill the weight-limited set
// perfectly. Valentini & Chiani ("An Implementation of the Optimal Scheme
// for Energy Efficient Bus Encoding", arXiv:2303.06409) make the mapping
// practical through enumerative (combinatorial-number-system) coding,
// which ranks the codebook lexicographically so encode/decode are a walk
// down a precomputed binomial table. This package follows that
// construction: the position-by-position walk is the definition, and the
// hot paths are derived from it. Segments of at most 8 data bits (the
// design point) encode and decode through uint16 lookup tables
// built from the walk — 2^k encode and 2^(k+1) decode entries, about
// 1.5 KB at k = 8. Wider segments walk only the codeword's set bits:
// Decode visits them MSB first, and Encode binary-searches each one's
// position in the cumulative table, stopping once the rank is spent.
//
// A Code is immutable, so New shares one per segment width process-wide:
// every link of a width reuses the same tables. Encode and Decode are
// allocation-free.
package lowweight

import (
	"fmt"
	"math/bits"
	"sync"
)

// MaxDataBits is the widest supported segment. Every cumulative count the
// 64-bit walk touches — the largest is S(64,32), about 1.0e19 — fits in a
// uint64, so wider segments would need multi-word ranks.
const MaxDataBits = 64

// tableBits is the widest segment served from lookup tables. A table
// entry packs the n = k+1 codeword bits (data wires low, spare wire at
// bit k) or a k-bit rank into a uint16.
const tableBits = 8

// Code is a weight-limited enumerative codebook for one segment geometry.
type Code struct {
	k int // data bits per segment
	n int // code bits per segment: k data wires + 1 spare wire
	w int // maximum codeword weight, k/2

	// s[b][m] counts the length-m binary vectors of weight <= b — the
	// cumulative binomial ("how many codewords start with a 0 here")
	// that enumerative coding walks. m <= n-1, b <= w. Each budget's row
	// strictly increases in m, which Encode's binary search relies on.
	s [][]uint64

	// enc[rank] is rank's codeword (spare wire at bit k) and
	// dec[codeword] its rank, for k <= tableBits; nil otherwise.
	enc []uint16
	dec []uint16
}

// ValidateSegment checks the constraints the codebook imposes on a
// scheme's segment geometry: an even width within the supported range
// that tiles the data wires. Both literature codecs (fpf, lwc) segment
// identically and share this check; scheme names the caller in errors.
func ValidateSegment(scheme string, wires, seg int) error {
	if seg%2 != 0 || seg < 2 || seg > MaxDataBits {
		return fmt.Errorf("lowweight: %s: segment of %d data bits is not an even width in [2,%d]",
			scheme, seg, MaxDataBits)
	}
	if wires <= 0 || wires%seg != 0 {
		return fmt.Errorf("lowweight: %s: %d wires not divisible into %d-bit segments", scheme, wires, seg)
	}
	return nil
}

// shared holds the one Code per even width, indexed k/2-1, built on
// first use.
var (
	sharedMu sync.Mutex
	shared   [MaxDataBits / 2]*Code
)

// New returns the codebook for k-bit data segments. k must be even (so
// the weight bound k/2 is integral and the 2^k codewords fill the
// weight-limited set exactly) and at most MaxDataBits. Codes are
// immutable and shared: every call for the same k returns the same Code.
func New(k int) (*Code, error) {
	if k < 2 || k > MaxDataBits || k%2 != 0 {
		return nil, fmt.Errorf("lowweight: segment of %d data bits is not an even width in [2,%d]", k, MaxDataBits)
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if shared[k/2-1] == nil {
		shared[k/2-1] = build(k)
	}
	return shared[k/2-1], nil
}

// build constructs the cumulative table and, for narrow segments, the
// lookup tables derived from the walk.
func build(k int) *Code {
	c := &Code{k: k, n: k + 1, w: k / 2}
	c.s = make([][]uint64, c.w+1)
	for b := range c.s {
		c.s[b] = make([]uint64, c.n)
	}
	for m := 0; m < c.n; m++ {
		for b := 0; b <= c.w; b++ {
			switch {
			case m == 0:
				c.s[b][m] = 1 // only the empty vector
			case b == 0:
				c.s[b][m] = 1 // only the all-zero vector
			default:
				c.s[b][m] = c.s[b][m-1] + c.s[b-1][m-1]
			}
		}
	}
	if k <= tableBits {
		c.enc = make([]uint16, 1<<uint(k))
		c.dec = make([]uint16, 1<<uint(k+1))
		for rank := range c.enc {
			lo, ext := c.walkEncode(uint64(rank))
			cw := uint16(lo)
			if ext {
				cw |= 1 << uint(k)
			}
			c.enc[rank] = cw
			c.dec[cw] = uint16(rank)
		}
	}
	return c
}

// DataBits returns k, the data bits per segment.
func (c *Code) DataBits() int { return c.k }

// CodeBits returns n = k+1, the wires per segment.
func (c *Code) CodeBits() int { return c.n }

// MaxWeight returns w = k/2, the guaranteed per-segment weight bound.
func (c *Code) MaxWeight() int { return c.w }

// Encode maps a data word (rank) to its codeword: bits 0..k-1 in lo are
// the data-wire pattern, ext is the spare wire. Rank 0 is the all-zero
// codeword and low ranks stay on low wire positions, so zero-heavy data
// drives few wires. Values above 2^k-1 must not be passed for k < 64;
// for k = 64 every uint64 is a valid rank. The result is walkEncode's.
//
//desclint:hotpath every fpf/lwc segment crosses this lookup
func (c *Code) Encode(rank uint64) (lo uint64, ext bool) {
	if c.enc != nil {
		cw := uint64(c.enc[rank])
		return cw &^ (1 << uint(c.k)), cw>>uint(c.k) != 0
	}
	return c.encodeWide(rank)
}

// encodeWide is Encode past tableBits: one search per set bit.
//
//desclint:hotpath wide fpf/lwc segments encode here
func (c *Code) encodeWide(rank uint64) (lo uint64, ext bool) {
	// Each set bit is the highest free position p whose row entry
	// s[budget][p] fits in the remaining rank — the first hit of the
	// walk's top-down scan, found by binary search since rows strictly
	// increase in p. Once every free position is within the budget,
	// s[budget][p] = 2^p and the rest of the codeword is the rank itself.
	top := c.n // positions [0, top) are still free
	for budget := c.w; rank != 0; budget-- {
		if top <= budget+1 {
			lo |= rank
			break
		}
		row := c.s[budget][:top]
		p := 0 // invariant: row[p] <= rank; the answer is in [p, p+n)
		for n := top; n > 1; {
			half := n >> 1
			if row[p+half] <= rank {
				p += half
			}
			n -= half
		}
		rank -= row[p]
		if p == c.k {
			ext = true
		} else {
			lo |= 1 << uint(p)
		}
		top = p
	}
	return lo, ext
}

// Decode is the inverse of Encode: it ranks the codeword back to the
// data word. Codewords of weight above MaxWeight are not produced by
// Encode and must not be passed. The result is walkDecode's.
//
//desclint:hotpath every fpf/lwc segment crosses this lookup
func (c *Code) Decode(lo uint64, ext bool) uint64 {
	if c.dec != nil {
		cw := lo
		if ext {
			cw |= 1 << uint(c.k)
		}
		return uint64(c.dec[cw])
	}
	return c.decodeWide(lo, ext)
}

// decodeWide is Decode past tableBits: one table add per set bit.
//
//desclint:hotpath wide fpf/lwc segments decode here
func (c *Code) decodeWide(lo uint64, ext bool) uint64 {
	// The walk adds s[budget][p] at each set position, MSB first; the
	// clear positions contribute nothing, so visit only the set ones.
	var rank uint64
	budget := c.w
	if ext {
		rank += c.s[budget][c.k]
		budget--
	}
	for lo != 0 {
		p := bits.Len64(lo) - 1
		if p <= budget {
			// Every remaining position is within the budget, where
			// s[budget][p] = 2^p: the rest of the rank is lo itself.
			return rank + lo
		}
		rank += c.s[budget][p]
		budget--
		lo &^= 1 << uint(p)
	}
	return rank
}

// walkEncode is the defining position-by-position walk behind Encode:
// scanning from the top, a position holds a 1 when the rank reaches past
// the codewords that hold a 0 there. It builds the lookup tables and is
// the reference the fast paths are tested against.
func (c *Code) walkEncode(rank uint64) (lo uint64, ext bool) {
	budget := c.w
	for p := c.n - 1; p >= 0; p-- {
		if budget > 0 {
			below := c.s[budget][p] // codewords with 0 at position p
			if rank >= below {
				rank -= below
				budget--
				if p == c.k {
					ext = true
				} else {
					lo |= 1 << uint(p)
				}
			}
		}
	}
	return lo, ext
}

// walkDecode is the defining walk behind Decode, the inverse of
// walkEncode.
func (c *Code) walkDecode(lo uint64, ext bool) uint64 {
	var rank uint64
	budget := c.w
	for p := c.n - 1; p >= 0; p-- {
		set := ext
		if p < c.k {
			set = lo&(1<<uint(p)) != 0
		}
		if set {
			rank += c.s[budget][p]
			budget--
		}
	}
	return rank
}

// Field returns the k-bit field (1 <= k <= 64) of words starting at bit
// pos, LSB-first in the repository's bit order. A field that straddles
// a word boundary takes its high bits from the next word.
//
//desclint:hotpath every fpf/lwc segment is extracted here
func Field(words []uint64, pos, k int) uint64 {
	w, sh := pos>>6, uint(pos&63)
	v := words[w] >> sh
	if int(sh)+k > 64 {
		v |= words[w+1] << (64 - sh)
	}
	if k < 64 {
		v &= 1<<uint(k) - 1
	}
	return v
}

// OrField ORs the k-bit value v into words at bit pos, the inverse of
// Field on zeroed words.
//
//desclint:hotpath every fpf/lwc segment is reassembled here
func OrField(words []uint64, pos, k int, v uint64) {
	w, sh := pos>>6, uint(pos&63)
	words[w] |= v << sh
	if int(sh)+k > 64 {
		words[w+1] |= v >> (64 - sh)
	}
}
