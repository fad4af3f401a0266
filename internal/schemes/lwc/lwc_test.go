package lwc

import (
	"bytes"
	"math/rand"
	"testing"

	"desc/internal/link"
)

func newLink(t testing.TB, blockBits, wires, seg int) *LWC {
	t.Helper()
	l, err := New(blockBits, wires, seg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestRoundTrip sends adversarial-then-random traffic and checks the
// receiver recovers every block exactly (the wire state is history, so
// order matters).
func TestRoundTrip(t *testing.T) {
	for _, geo := range []struct{ blockBits, wires, seg int }{
		{512, 64, 8},
		{512, 64, 2},
		{512, 64, 64},
		{512, 128, 16},
		{64, 16, 4},
	} {
		l := newLink(t, geo.blockBits, geo.wires, geo.seg)
		n := geo.blockBits / 8
		blocks := [][]byte{
			make([]byte, n),
			bytes.Repeat([]byte{0xFF}, n),
			bytes.Repeat([]byte{0xAA}, n),
			make([]byte, n),
		}
		rng := rand.New(rand.NewSource(22))
		for i := 0; i < 16; i++ {
			b := make([]byte, n)
			rng.Read(b)
			blocks = append(blocks, b)
		}
		for i, b := range blocks {
			l.Send(b)
			if !bytes.Equal(l.LastDecoded(), b) {
				t.Fatalf("%+v block %d: decoded %x != sent %x", geo, i, l.LastDecoded(), b)
			}
		}
	}
}

// TestFlipGuarantee pins the low-weight-code property the papers
// optimize: under transition signaling every beat flips exactly the
// codeword's weight, never more than k/2 wires per segment — regardless
// of data history.
func TestFlipGuarantee(t *testing.T) {
	const seg = 8
	l := newLink(t, 64, 64, seg) // one beat per Send isolates the bound
	rng := rand.New(rand.NewSource(6))
	b := make([]byte, 8)
	for i := 0; i < 500; i++ {
		rng.Read(b)
		c := l.Send(b)
		total := c.Flips.Data + c.Flips.Control
		if max := uint64(l.Segments() * l.MaxFlipsPerSegment()); total > max {
			t.Fatalf("send %d: %d flips > guaranteed bound %d", i, total, max)
		}
	}
}

// TestZeroDataIdles: rank 0 is the all-zero codeword, so zero data XORs
// nothing onto the wires — a zero block never flips a wire, from any
// state.
func TestZeroDataIdles(t *testing.T) {
	l := newLink(t, 512, 64, 8)
	rng := rand.New(rand.NewSource(8))
	b := make([]byte, 64)
	rng.Read(b)
	l.Send(b) // arbitrary wire state
	if c := l.Send(make([]byte, 64)); c.Flips.Data != 0 || c.Flips.Control != 0 {
		t.Errorf("zero block: %+v flips, want none from any wire state", c.Flips)
	}
}

// TestResetClearsState: Reset returns the wires to the power-on state, so
// post-Reset traffic matches a fresh instance beat for beat.
func TestResetClearsState(t *testing.T) {
	l := newLink(t, 512, 64, 8)
	b := bytes.Repeat([]byte{0x3E}, 64)
	want := l.Send(b)
	l.Send(bytes.Repeat([]byte{0xFF}, 64))
	l.Reset()
	if got := l.Send(b); got != want {
		t.Errorf("first send after Reset: %+v, want %+v (fresh-instance cost)", got, want)
	}
}

// TestRegistered: the scheme self-registers and shares fpf's segment
// validation.
func TestRegistered(t *testing.T) {
	d, ok := link.Lookup("lwc")
	if !ok {
		t.Fatal("lwc not registered")
	}
	if !d.Traits.UsesSegmentBits || d.Traits.DESCInterface {
		t.Errorf("traits %+v: want segmented, non-DESC", d.Traits)
	}
	if _, err := link.New(link.Spec{Scheme: "lwc", BlockBits: 512, DataWires: 64, SegmentBits: 66}); err == nil {
		t.Error("over-wide segment: want validation error")
	}
	if _, err := link.New(link.Spec{Scheme: "lwc", BlockBits: 512, DataWires: 64}); err != nil {
		t.Errorf("design-point default: %v", err)
	}
}

// TestSendZeroAllocs mirrors the baseline/core allocation regressions.
// Every Fig 15 segment width is pinned: the table and the O(weight)
// codebook paths alike.
func TestSendZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	blocks := make([][]byte, 8)
	for i := range blocks {
		blocks[i] = make([]byte, 64)
		if i%3 != 0 {
			rng.Read(blocks[i])
		}
	}
	for _, seg := range []int{64, 32, 16, 8, 4} {
		l := newLink(t, 512, 64, seg)
		for _, b := range blocks { // warm up the reused buffers
			l.Send(b)
		}
		i := 0
		avg := testing.AllocsPerRun(100, func() {
			l.Send(blocks[i%len(blocks)])
			i++
		})
		if avg != 0 {
			t.Errorf("seg=%d: %.2f allocs per steady-state Send, want 0", seg, avg)
		}
	}
}

// FuzzLWCDecode: arbitrary block pairs must decode exactly across
// segment widths — the XOR wire state makes decode correctness depend on
// the full send history.
func FuzzLWCDecode(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(
		[]byte{0xFF, 0x00, 0xFF, 0x00, 0xAA, 0x55, 0xAA, 0x55},
		[]byte{0x00, 0xFF, 0x00, 0xFF, 0x55, 0xAA, 0x55, 0xAA},
	)
	f.Fuzz(func(t *testing.T, first, second []byte) {
		if len(first) < 8 || len(second) < 8 {
			return
		}
		for _, seg := range []int{2, 4, 8, 16} {
			l, err := New(64, 16, seg)
			if err != nil {
				t.Fatal(err)
			}
			for _, block := range [][]byte{first[:8], second[:8], first[:8]} {
				l.Send(block)
				if !bytes.Equal(l.LastDecoded(), block) {
					t.Fatalf("seg=%d: decoded %x != sent %x", seg, l.LastDecoded(), block)
				}
			}
		}
	})
}

func BenchmarkSend(b *testing.B) {
	l := newLink(b, 512, 64, 8)
	block := make([]byte, 64)
	rand.New(rand.NewSource(2)).Read(block)
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Send(block)
	}
}
