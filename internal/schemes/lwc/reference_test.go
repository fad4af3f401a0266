package lwc

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"

	"desc/internal/link"
	"desc/internal/schemes/lowweight"
)

// refLWC is the per-bit lwc transmitter the word-level Send replaced:
// every segment is gathered from the block and scattered back into the
// receiver's copy one bit at a time. It pins the word path's field
// extraction, including segments that straddle 64-bit words.
type refLWC struct {
	blockBits, wires, segBits, segs int
	code                            *lowweight.Code
	wireLo                          []uint64
	wireExt                         []bool
}

func newRefLWC(t testing.TB, blockBits, wires, segBits int) *refLWC {
	t.Helper()
	code, err := lowweight.New(segBits)
	if err != nil {
		t.Fatal(err)
	}
	segs := wires / segBits
	return &refLWC{blockBits, wires, segBits, segs, code, make([]uint64, segs), make([]bool, segs)}
}

func (r *refLWC) send(block []byte) (link.Cost, []byte) {
	decoded := make([]byte, len(block))
	beats := (r.blockBits + r.wires - 1) / r.wires
	var dataFlips, ctrlFlips uint64
	for b := 0; b < beats; b++ {
		for s := 0; s < r.segs; s++ {
			off := b*r.wires + s*r.segBits
			lo, ext := r.code.Encode(loadBitsRef(block, off, r.segBits))
			dataFlips += uint64(bits.OnesCount64(lo))
			r.wireLo[s] ^= lo
			if ext {
				ctrlFlips++
				r.wireExt[s] = !r.wireExt[s]
			}
			storeBitsRef(decoded, off, r.segBits, r.code.Decode(lo, ext))
		}
	}
	return link.Cost{
		Cycles: int64(beats),
		Flips:  link.FlipCount{Data: dataFlips, Control: ctrlFlips},
	}, decoded
}

// loadBitsRef reads count (<= 64) bits of block at bit offset off,
// LSB-first; bits beyond the block read as zero.
func loadBitsRef(block []byte, off, count int) uint64 {
	var v uint64
	for i := 0; i < count; i++ {
		bit := off + i
		if bit>>3 >= len(block) {
			break
		}
		if block[bit>>3]&(1<<(uint(bit)&7)) != 0 {
			v |= 1 << uint(i)
		}
	}
	return v
}

// storeBitsRef writes count (<= 64) bits of v into block at bit offset
// off, ignoring bits beyond the block.
func storeBitsRef(block []byte, off, count int, v uint64) {
	for i := 0; i < count; i++ {
		bit := off + i
		if bit>>3 >= len(block) {
			break
		}
		mask := byte(1) << (uint(bit) & 7)
		if v&(1<<uint(i)) != 0 {
			block[bit>>3] |= mask
		} else {
			block[bit>>3] &^= mask
		}
	}
}

// referenceGeometries are every Fig 15 / zoo geometry (64 wires at each
// swept segment width) plus ragged widths whose segments and beats
// straddle 64-bit words and leave a partial last beat.
var referenceGeometries = []struct{ blockBits, wires, seg int }{
	{512, 64, 64},
	{512, 64, 32},
	{512, 64, 16},
	{512, 64, 8},
	{512, 64, 4},
	{512, 48, 6},
	{512, 60, 6},
	{512, 40, 10},
	{512, 30, 10},
	{512, 68, 34},
	{512, 34, 34},
	{64, 16, 4},
}

// referenceBlocks is the shared traffic: corners, then seeded blocks of
// mixed density (zero-heavy through uniform), then an exact repeat.
func referenceBlocks(n int, seed int64) [][]byte {
	blocks := [][]byte{
		make([]byte, n),
		bytes.Repeat([]byte{0xFF}, n),
		bytes.Repeat([]byte{0xAA}, n),
		make([]byte, n),
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 48; i++ {
		b := make([]byte, n)
		rng.Read(b)
		for j := 0; j < i%4; j++ { // thin the set bits
			for x := range b {
				b[x] &= byte(rng.Intn(256))
			}
		}
		blocks = append(blocks, b)
	}
	return append(blocks, blocks[len(blocks)-1])
}

// TestSendMatchesPerBitReference pins the word-level Send to the per-bit
// transmitter: the same cost, decoded bytes and wire state every block.
func TestSendMatchesPerBitReference(t *testing.T) {
	t.Parallel()
	for _, g := range referenceGeometries {
		l := newLink(t, g.blockBits, g.wires, g.seg)
		ref := newRefLWC(t, g.blockBits, g.wires, g.seg)
		for i, block := range referenceBlocks(g.blockBits/8, int64(g.wires*g.seg)) {
			got := l.Send(block)
			want, wantDec := ref.send(block)
			if got != want {
				t.Fatalf("%+v block %d: cost %+v, reference %+v", g, i, got, want)
			}
			if !bytes.Equal(l.LastDecoded(), wantDec) || !bytes.Equal(wantDec, block) {
				t.Fatalf("%+v block %d: decoded %x, reference %x, sent %x", g, i, l.LastDecoded(), wantDec, block)
			}
			for s := range ref.wireLo {
				if l.wireLo[s] != ref.wireLo[s] || l.wireExt[s] != ref.wireExt[s] {
					t.Fatalf("%+v block %d segment %d: wires %x/%v, reference %x/%v",
						g, i, s, l.wireLo[s], l.wireExt[s], ref.wireLo[s], ref.wireExt[s])
				}
			}
		}
	}
}
