package lowweight

import (
	"math/bits"
	"math/rand"
	"strconv"
	"sync"
	"testing"
)

// TestCodebookBijection exhaustively checks small segment widths: every
// rank encodes to a distinct codeword of weight at most k/2 and decodes
// back to itself — the enumerative code is a bijection onto the
// weight-limited set.
func TestCodebookBijection(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8, 10, 12} {
		c, err := New(k)
		if err != nil {
			t.Fatalf("New(%d): %v", k, err)
		}
		if c.DataBits() != k || c.CodeBits() != k+1 || c.MaxWeight() != k/2 {
			t.Fatalf("k=%d: geometry k=%d n=%d w=%d", k, c.DataBits(), c.CodeBits(), c.MaxWeight())
		}
		seen := make(map[[2]uint64]uint64, 1<<uint(k))
		for rank := uint64(0); rank < 1<<uint(k); rank++ {
			lo, ext := c.Encode(rank)
			weight := bits.OnesCount64(lo)
			if ext {
				weight++
			}
			if weight > c.MaxWeight() {
				t.Fatalf("k=%d rank=%d: codeword %b/%v weight %d > %d", k, rank, lo, ext, weight, c.MaxWeight())
			}
			if lo>>uint(k) != 0 {
				t.Fatalf("k=%d rank=%d: codeword %b spills past %d data bits", k, rank, lo, k)
			}
			key := [2]uint64{lo, 0}
			if ext {
				key[1] = 1
			}
			if prev, dup := seen[key]; dup {
				t.Fatalf("k=%d: ranks %d and %d share codeword %b/%v", k, prev, rank, lo, ext)
			}
			seen[key] = rank
			if got := c.Decode(lo, ext); got != rank {
				t.Fatalf("k=%d: Decode(Encode(%d)) = %d", k, rank, got)
			}
		}
	}
}

// TestZeroRankIdles pins the energy-critical corner: rank 0 is the
// all-zero codeword, so zero data never drives a wire.
func TestZeroRankIdles(t *testing.T) {
	for _, k := range []int{2, 8, 16, 32, 64} {
		c, err := New(k)
		if err != nil {
			t.Fatalf("New(%d): %v", k, err)
		}
		if lo, ext := c.Encode(0); lo != 0 || ext {
			t.Errorf("k=%d: Encode(0) = %b/%v, want all-zero", k, lo, ext)
		}
	}
}

// TestWideSegments spot-checks the 64-bit codebook, where the rank space
// is the full uint64 range and the cumulative counts approach the uint64
// ceiling.
func TestWideSegments(t *testing.T) {
	c, err := New(64)
	if err != nil {
		t.Fatal(err)
	}
	ranks := []uint64{0, 1, 2, 63, 1 << 20, 1<<63 - 1, 1 << 63, ^uint64(0) - 1, ^uint64(0)}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		ranks = append(ranks, rng.Uint64())
	}
	for _, rank := range ranks {
		lo, ext := c.Encode(rank)
		weight := bits.OnesCount64(lo)
		if ext {
			weight++
		}
		if weight > 32 {
			t.Fatalf("rank %d: weight %d > 32", rank, weight)
		}
		if got := c.Decode(lo, ext); got != rank {
			t.Fatalf("Decode(Encode(%d)) = %d", rank, got)
		}
	}
}

func TestNewRejectsBadWidths(t *testing.T) {
	for _, k := range []int{-2, 0, 1, 3, 7, 65, 66, 128} {
		if _, err := New(k); err == nil {
			t.Errorf("New(%d): want error", k)
		}
	}
}

func TestValidateSegment(t *testing.T) {
	if err := ValidateSegment("fpf", 64, 8); err != nil {
		t.Errorf("64 wires / 8-bit segments: %v", err)
	}
	for _, tc := range []struct{ wires, seg int }{
		{64, 7},  // odd width
		{64, 0},  // zero width
		{64, 66}, // past MaxDataBits
		{60, 8},  // wires not a multiple
		{0, 8},   // no wires
	} {
		if err := ValidateSegment("fpf", tc.wires, tc.seg); err == nil {
			t.Errorf("ValidateSegment(%d, %d): want error", tc.wires, tc.seg)
		}
	}
}

// TestFieldRoundTrip round-trips random fields at every bit offset and
// width, including fields that straddle a word boundary, and checks that
// OrField leaves the bits around the field alone.
func TestFieldRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	words := make([]uint64, 3)
	for _, k := range []int{1, 4, 6, 8, 10, 13, 34, 63, 64} {
		for pos := 0; pos+k <= 64*len(words); pos++ {
			v := rng.Uint64()
			if k < 64 {
				v &= 1<<uint(k) - 1
			}
			for i := range words {
				words[i] = 0
			}
			OrField(words, pos, k, v)
			if got := Field(words, pos, k); got != v {
				t.Fatalf("k=%d pos=%d: Field %x after OrField %x", k, pos, got, v)
			}
			total := 0
			for _, w := range words {
				total += bits.OnesCount64(w)
			}
			if total != bits.OnesCount64(v) {
				t.Fatalf("k=%d pos=%d: OrField set %d bits for %x", k, pos, total, v)
			}
		}
	}
}

func BenchmarkCodebook(b *testing.B) {
	for _, k := range []int{8, 16, 32, 64} {
		c, err := New(k)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(k)))
		ranks := make([]uint64, 256)
		for i := range ranks {
			ranks[i] = rng.Uint64()
			if k < 64 {
				ranks[i] &= 1<<uint(k) - 1
			}
		}
		b.Run("fast/"+strconv.Itoa(k), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				lo, ext := c.Encode(ranks[i&255])
				sink += c.Decode(lo, ext)
			}
			_ = sink
		})
		b.Run("walk/"+strconv.Itoa(k), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				lo, ext := c.walkEncode(ranks[i&255])
				sink += c.walkDecode(lo, ext)
			}
			_ = sink
		})
	}
}

// TestNewShares pins the process-wide sharing: a Code is immutable, so
// every link of one segment width reuses the same tables, and concurrent
// first uses build it once.
func TestNewShares(t *testing.T) {
	var wg sync.WaitGroup
	got := make([]*Code, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := New(10)
			if err != nil {
				t.Error(err)
			}
			got[i] = c
		}(i)
	}
	wg.Wait()
	for i, c := range got {
		if c != got[0] {
			t.Fatalf("New(10) call %d returned a second Code", i)
		}
	}
	if a, b := mustNew(t, 8), mustNew(t, 16); a == b {
		t.Fatal("different widths share a Code")
	}
}

func mustNew(t testing.TB, k int) *Code {
	t.Helper()
	c, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkAgainstWalk pins one rank's every fast path to the defining walk:
// Encode (table or wide), encodeWide itself, and the inverse direction
// through Decode and decodeWide.
func checkAgainstWalk(t testing.TB, c *Code, rank uint64) {
	t.Helper()
	wantLo, wantExt := c.walkEncode(rank)
	if lo, ext := c.Encode(rank); lo != wantLo || ext != wantExt {
		t.Fatalf("k=%d rank=%d: Encode = %x/%v, walk %x/%v", c.k, rank, lo, ext, wantLo, wantExt)
	}
	if lo, ext := c.encodeWide(rank); lo != wantLo || ext != wantExt {
		t.Fatalf("k=%d rank=%d: encodeWide = %x/%v, walk %x/%v", c.k, rank, lo, ext, wantLo, wantExt)
	}
	if got := c.walkDecode(wantLo, wantExt); got != rank {
		t.Fatalf("k=%d rank=%d: walk round trip gives %d", c.k, rank, got)
	}
	if got := c.Decode(wantLo, wantExt); got != rank {
		t.Fatalf("k=%d rank=%d: Decode = %d", c.k, rank, got)
	}
	if got := c.decodeWide(wantLo, wantExt); got != rank {
		t.Fatalf("k=%d rank=%d: decodeWide = %d", c.k, rank, got)
	}
}

// TestFastPathsMatchWalkExhaustive covers every rank of every width up
// to 16 bits: the lookup tables (k <= tableBits) and the O(weight) paths
// against the walk they are derived from.
func TestFastPathsMatchWalkExhaustive(t *testing.T) {
	t.Parallel()
	for k := 2; k <= 16; k += 2 {
		c := mustNew(t, k)
		if (c.enc != nil) != (k <= tableBits) {
			t.Fatalf("k=%d: tables present = %v", k, c.enc != nil)
		}
		for rank := uint64(0); rank < 1<<uint(k); rank++ {
			checkAgainstWalk(t, c, rank)
		}
	}
}

// TestFastPathsMatchWalkWide covers the widths too wide to enumerate
// with the ranks where the search can slip: the ends of the range,
// powers of two and their neighbours, every cumulative-table entry of
// the first search row and its predecessor, plus seeded random ranks.
func TestFastPathsMatchWalkWide(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(18))
	for k := 18; k <= MaxDataBits; k += 2 {
		c := mustNew(t, k)
		limit := ^uint64(0)
		if k < 64 {
			limit = 1<<uint(k) - 1
		}
		ranks := []uint64{0, 1, 2, 3, limit - 1, limit}
		for j := 1; j < k; j++ {
			ranks = append(ranks, 1<<uint(j)-1, 1<<uint(j), 1<<uint(j)+1)
		}
		for _, row := range c.s {
			for _, v := range row {
				ranks = append(ranks, v-1, v)
			}
		}
		for i := 0; i < 500; i++ {
			ranks = append(ranks, rng.Uint64()&limit, rng.Uint64()&limit>>uint(rng.Intn(k)))
		}
		for _, rank := range ranks {
			if rank <= limit {
				checkAgainstWalk(t, c, rank)
			}
		}
	}
}

// FuzzLowWeightCodebook holds the table and O(weight) paths to the walk
// for arbitrary (width, rank) pairs.
func FuzzLowWeightCodebook(f *testing.F) {
	f.Add(uint8(3), uint64(0))
	f.Add(uint8(3), uint64(255))
	f.Add(uint8(7), uint64(0xBEEF))
	f.Add(uint8(31), ^uint64(0))
	f.Add(uint8(15), uint64(1)<<31)
	f.Fuzz(func(t *testing.T, kb uint8, rank uint64) {
		k := 2 * (int(kb)%(MaxDataBits/2) + 1)
		c, err := New(k)
		if err != nil {
			t.Fatal(err)
		}
		if k < 64 {
			rank &= 1<<uint(k) - 1
		}
		checkAgainstWalk(t, c, rank)
	})
}
